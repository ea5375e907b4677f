// Block vector for multi-RHS solves: s right-hand sides / iterates stored
// column-major (each column contiguous, column j at data()[j*rows()]). This
// is the currency of the batched solve engine — CsrMatrix::apply_many runs
// one SpMM over all columns, Preconditioner::apply_many hands whole blocks
// to the subdomain solvers (one batched DSS inference per application for
// DDM-GNN, Eq. 14), and solver/block_krylov advances every column per
// Krylov iteration.
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "la/csr.hpp"
#include "la/vector_ops.hpp"

namespace ddmgnn::la {

class MultiVector {
 public:
  MultiVector() = default;
  MultiVector(Index rows, Index cols, double init = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, init) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  /// Reshape, preserving nothing (contents unspecified afterwards).
  void resize(Index rows, Index cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows) * cols);
  }

  std::span<double> col(Index j) {
    return {data_.data() + static_cast<std::size_t>(j) * rows_,
            static_cast<std::size_t>(rows_)};
  }
  std::span<const double> col(Index j) const {
    return {data_.data() + static_cast<std::size_t>(j) * rows_,
            static_cast<std::size_t>(rows_)};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  double& at(Index i, Index j) {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  double at(Index i, Index j) const {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  void fill(double v) { la::fill(data_, v); }

  /// Pack a list of equal-length vectors as columns.
  static MultiVector from_columns(std::span<const std::vector<double>> cols);

  /// Drop every column not listed in `keep` (strictly increasing indices);
  /// kept columns are compacted left in order. This is the deflation
  /// primitive: converged RHS leave the working block.
  void keep_columns(std::span<const Index> keep);

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

// ---- Blocked panel kernels (the direction window of block flexible PCG) --
// A panel is k contiguous columns of length n, column-major with leading
// dimension n (column i at a + i·n). The thin side — at most a few dozen
// right-hand-side columns — is passed as one pointer per column, so a kernel
// can read or write columns that are not adjacent (the active columns of an
// iterate block). Both kernels stream each panel column once per pass in
// row chunks of fixed size and give the same bits at every thread count.

/// C = Aᵀ·B for the n×k panel `a` and the columns `b` (each of length n):
/// C(i, j) = <a_i, b_j>, stored k×s column-major (c[i + j·k]). Each chunk's
/// partial dot is an omp-simd reduction; partials are added in chunk order.
void gemm_tn(Index n, Index k, const double* a,
             std::span<const double* const> b, std::span<double> c);

/// y_j += alpha · A·C(:, j) for the n×k panel `a`, the k×s column-major C
/// and the columns `y` (each of length n). Per entry the k terms are added
/// in panel order, the same sequence as a chain of axpys.
void gemm_nn(Index n, Index k, double alpha, const double* a,
             std::span<const double> c, std::span<double* const> y);

}  // namespace ddmgnn::la
