// Mutate-then-invalidate, a value-declared fresh local, and reads.
#include "gcn/reference.hpp"

void
replace(igcn::Features &x, const igcn::DenseMatrix &m)
{
    x.dense = m;
    x.dense.at(0, 0) = 1.0f;
    x.invalidateRowsCsr();
}

float
build(const igcn::DenseMatrix &y, const igcn::Features &in)
{
    igcn::Features x;
    x.dense = y;
    const float *row = in.dense.row(0);
    return in.dense.at(0, 0) == row[0] ? x.dense.data()[0] : 0.0f;
}
