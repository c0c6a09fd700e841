// Mutating a Features' dense matrix that arrived by reference without
// dropping its cached CSR adjunct: the sparse first layer would read
// the old non-zeros.
#include "gcn/reference.hpp"

void
rescale(igcn::Features &x, float s)
{
    x.dense.at(0, 0) *= s;
    x.dense.row(1)[2] = s;
}

void
replace(igcn::Features &x, const igcn::DenseMatrix &m, igcn::Rng &rng)
{
    x.dense = m;
    x.dense.fillRandom(rng);
    // Only the CSC of x.csr is dropped; the dense adjunct is not.
    x.csr.invalidateCsc();
}
