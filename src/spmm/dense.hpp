/**
 * @file
 * Row-major dense float matrix, the operand type of the SpMM kernels
 * and the GCN reference forward pass.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/rng.hpp"

namespace igcn {

/** Simple row-major dense matrix of floats. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;

    DenseMatrix(size_t rows, size_t cols, float fill = 0.0f)
        : numRows(rows), numCols(cols), values(rows * cols, fill)
    {}

    size_t rows() const { return numRows; }
    size_t cols() const { return numCols; }

    float &at(size_t r, size_t c) { return values[r * numCols + c]; }
    float at(size_t r, size_t c) const { return values[r * numCols + c]; }

    /** Pointer to the start of row r. */
    float *row(size_t r) { return values.data() + r * numCols; }
    const float *row(size_t r) const { return values.data() + r * numCols; }

    const std::vector<float> &data() const { return values; }
    std::vector<float> &data() { return values; }

    /** Set every element to zero. */
    void zero();

    /** Fill with uniform values in [-scale, scale). */
    void fillRandom(Rng &rng, float scale = 1.0f);

    /**
     * Fill with a sparse random pattern: each element is non-zero with
     * probability density; non-zeros are uniform in [-scale, scale).
     * @return the number of non-zeros placed.
     */
    size_t fillRandomSparse(Rng &rng, double density, float scale = 1.0f);

    /** Number of non-zero elements. */
    size_t countNonZeros() const;

    bool operator==(const DenseMatrix &other) const = default;

  private:
    size_t numRows = 0;
    size_t numCols = 0;
    std::vector<float> values;
};

/** Largest absolute element-wise difference; matrices must be same shape. */
double maxAbsDiff(const DenseMatrix &a, const DenseMatrix &b);

/*
 * Dense combination kernels. Every output element is one accumulation
 * chain starting from +0.0f and walking the reduction index in
 * ascending order, so results are bit-identical at any thread count
 * (DESIGN.md, "Bit-identity, not tolerance"). gemm and gemmTransposeA
 * skip the terms whose A factor compares equal to 0.0f, exactly like a
 * scalar `if (a == 0.0f) continue;` loop: a NaN factor is kept, and an
 * inf or NaN in B opposite a zero in A never reaches the sum.
 */

/**
 * The kernels' zero test, branch-free: writes the offsets of the
 * entries of a[0, len) that are not ±0.0f (NaN and inf kept) to idx
 * in ascending order and returns their count. idx needs room for len
 * entries. gemm, gemmTransposeA and denseToCsr all select terms
 * through it, so a dense matrix and its CSR image hold the same terms.
 */
size_t compactNonZeros(const float *a, size_t len, uint32_t *idx);

/** The number of entries compactNonZeros keeps from a[0, len). */
size_t countNonZeros(const float *a, size_t len);

/** Dense matrix product C = A * B, zero terms of A skipped. */
DenseMatrix gemm(const DenseMatrix &a, const DenseMatrix &b);

/** C = A^T * B for A (rows x k), B (rows x n), zero terms of A
 *  skipped; training's dW = X^T dU. */
DenseMatrix gemmTransposeA(const DenseMatrix &a, const DenseMatrix &b);

/** C = A * B^T for A (m x n), B (k x n), every term summed; training's
 *  upstream gradient dX = dU W^T. */
DenseMatrix gemmTransposeB(const DenseMatrix &a, const DenseMatrix &b);

} // namespace igcn
