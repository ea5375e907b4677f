#include "la/multivector.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace ddmgnn::la {

namespace {

/// Rows per cache block of the panel kernels: a chunk of 16 thin columns
/// (32 KB) stays in L1 while the panel columns stream past it. Chunk
/// boundaries depend on n alone, never on the thread count.
constexpr Index kPanelRowChunk = 256;
/// Panel columns handed to one gemm_tn task.
constexpr Index kPanelColTask = 16;
/// Multiply-adds below which the panel kernels stay on the calling thread.
constexpr long kPanelParallelWork = 1l << 18;

/// c[i + j·ldc] += Σ_{r∈[r0,r1)} a_i[r]·b_j[r] for a 4×4 tile: 16 simd
/// accumulators, eight loads per row.
void tn_tile_4x4(const double* a, Index n, const double* const* b, Index r0,
                 Index r1, double* c, Index ldc) {
  const double* a0 = a;
  const double* a1 = a0 + n;
  const double* a2 = a1 + n;
  const double* a3 = a2 + n;
  const double* b0 = b[0];
  const double* b1 = b[1];
  const double* b2 = b[2];
  const double* b3 = b[3];
  double c00 = 0.0, c01 = 0.0, c02 = 0.0, c03 = 0.0;
  double c10 = 0.0, c11 = 0.0, c12 = 0.0, c13 = 0.0;
  double c20 = 0.0, c21 = 0.0, c22 = 0.0, c23 = 0.0;
  double c30 = 0.0, c31 = 0.0, c32 = 0.0, c33 = 0.0;
#pragma omp simd reduction(+ : c00, c01, c02, c03, c10, c11, c12, c13, \
                               c20, c21, c22, c23, c30, c31, c32, c33)
  for (Index r = r0; r < r1; ++r) {
    const double x0 = a0[r], x1 = a1[r], x2 = a2[r], x3 = a3[r];
    const double y0 = b0[r], y1 = b1[r], y2 = b2[r], y3 = b3[r];
    c00 += x0 * y0;
    c01 += x0 * y1;
    c02 += x0 * y2;
    c03 += x0 * y3;
    c10 += x1 * y0;
    c11 += x1 * y1;
    c12 += x1 * y2;
    c13 += x1 * y3;
    c20 += x2 * y0;
    c21 += x2 * y1;
    c22 += x2 * y2;
    c23 += x2 * y3;
    c30 += x3 * y0;
    c31 += x3 * y1;
    c32 += x3 * y2;
    c33 += x3 * y3;
  }
  const double tile[4][4] = {{c00, c10, c20, c30},
                             {c01, c11, c21, c31},
                             {c02, c12, c22, c32},
                             {c03, c13, c23, c33}};
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) c[i + j * ldc] += tile[j][i];
  }
}

/// The 4×1 tile: four panel columns against one thin column.
void tn_tile_4x1(const double* a, Index n, const double* b, Index r0,
                 Index r1, double* c) {
  const double* a0 = a;
  const double* a1 = a0 + n;
  const double* a2 = a1 + n;
  const double* a3 = a2 + n;
  double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
#pragma omp simd reduction(+ : c0, c1, c2, c3)
  for (Index r = r0; r < r1; ++r) {
    const double y = b[r];
    c0 += a0[r] * y;
    c1 += a1[r] * y;
    c2 += a2[r] * y;
    c3 += a3[r] * y;
  }
  c[0] += c0;
  c[1] += c1;
  c[2] += c2;
  c[3] += c3;
}

/// The 1×1 tile: one dot over the chunk.
void tn_tile_1x1(const double* a, const double* b, Index r0, Index r1,
                 double* c) {
  double acc = 0.0;
#pragma omp simd reduction(+ : acc)
  for (Index r = r0; r < r1; ++r) acc += a[r] * b[r];
  *c += acc;
}

/// gemm_tn over panel columns [i0, i1) (i0 a multiple of 4), every row chunk
/// in order.
void tn_columns(Index n, Index k, const double* a,
                std::span<const double* const> b, double* c, Index i0,
                Index i1) {
  const auto s = static_cast<Index>(b.size());
  for (Index r0 = 0; r0 < n; r0 += kPanelRowChunk) {
    const Index r1 = std::min(n, r0 + kPanelRowChunk);
    Index i = i0;
    for (; i + 4 <= i1; i += 4) {
      const double* ai = a + static_cast<std::size_t>(i) * n;
      Index j = 0;
      for (; j + 4 <= s; j += 4) {
        tn_tile_4x4(ai, n, b.data() + j, r0, r1, c + i + j * k, k);
      }
      for (; j < s; ++j) tn_tile_4x1(ai, n, b[j], r0, r1, c + i + j * k);
    }
    for (; i < i1; ++i) {
      const double* ai = a + static_cast<std::size_t>(i) * n;
      for (Index j = 0; j < s; ++j) {
        tn_tile_1x1(ai, b[j], r0, r1, c + i + j * k);
      }
    }
  }
}

/// y_j[r] += Σ_kk e(kk, j)·a_kk[r] over rows [r0, r1) for TJ thin columns,
/// e = alpha·C. Panel columns go four at a time; each entry still adds its
/// terms one by one in panel order.
template <int TJ>
void nn_tile(const double* a, Index n, Index k, double alpha, const double* c,
             double* const* y, Index r0, Index r1) {
  Index kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const double* p0 = a + static_cast<std::size_t>(kk) * n;
    const double* p1 = p0 + n;
    const double* p2 = p1 + n;
    const double* p3 = p2 + n;
    double e[TJ][4];
    for (int j = 0; j < TJ; ++j) {
      for (int u = 0; u < 4; ++u) e[j][u] = alpha * c[kk + u + j * k];
    }
#pragma omp simd
    for (Index r = r0; r < r1; ++r) {
      const double x0 = p0[r], x1 = p1[r], x2 = p2[r], x3 = p3[r];
      for (int j = 0; j < TJ; ++j) {
        y[j][r] = y[j][r] + e[j][0] * x0 + e[j][1] * x1 + e[j][2] * x2 +
                  e[j][3] * x3;
      }
    }
  }
  for (; kk < k; ++kk) {
    const double* p = a + static_cast<std::size_t>(kk) * n;
    for (int j = 0; j < TJ; ++j) {
      const double e = alpha * c[kk + j * k];
      double* yj = y[j];
#pragma omp simd
      for (Index r = r0; r < r1; ++r) yj[r] += e * p[r];
    }
  }
}

void nn_rows(Index n, Index k, double alpha, const double* a,
             std::span<const double> c, std::span<double* const> y, Index r0,
             Index r1) {
  const auto s = static_cast<Index>(y.size());
  Index j = 0;
  for (; j + 4 <= s; j += 4) {
    nn_tile<4>(a, n, k, alpha, c.data() + j * k, y.data() + j, r0, r1);
  }
  for (; j < s; ++j) {
    nn_tile<1>(a, n, k, alpha, c.data() + j * k, y.data() + j, r0, r1);
  }
}

}  // namespace

MultiVector MultiVector::from_columns(
    std::span<const std::vector<double>> cols) {
  DDMGNN_CHECK(!cols.empty(), "MultiVector::from_columns: empty list");
  const Index n = static_cast<Index>(cols[0].size());
  MultiVector out(n, static_cast<Index>(cols.size()));
  for (std::size_t j = 0; j < cols.size(); ++j) {
    DDMGNN_CHECK(static_cast<Index>(cols[j].size()) == n,
                 "MultiVector::from_columns: ragged columns");
    la::copy(cols[j], out.col(static_cast<Index>(j)));
  }
  return out;
}

void MultiVector::keep_columns(std::span<const Index> keep) {
  DDMGNN_CHECK(static_cast<Index>(keep.size()) <= cols_,
               "MultiVector::keep_columns: too many columns");
  for (std::size_t c = 0; c < keep.size(); ++c) {
    const Index src = keep[c];
    DDMGNN_CHECK(src >= 0 && src < cols_ &&
                     (c == 0 || src > keep[c - 1]),
                 "MultiVector::keep_columns: indices must be strictly "
                 "increasing and in range");
    if (static_cast<Index>(c) != src) {
      la::copy(col(src), col(static_cast<Index>(c)));
    }
  }
  cols_ = static_cast<Index>(keep.size());
  data_.resize(static_cast<std::size_t>(rows_) * cols_);
}

void gemm_tn(Index n, Index k, const double* a,
             std::span<const double* const> b, std::span<double> c) {
  const auto s = static_cast<Index>(b.size());
  DDMGNN_CHECK(n >= 0 && k >= 0 &&
                   c.size() == static_cast<std::size_t>(k) * s,
               "gemm_tn: shape mismatch");
  la::fill(c, 0.0);
  if (n == 0 || k == 0 || s == 0) return;
  // Tasks own disjoint panel columns and walk every row chunk in order, so
  // the split across threads never changes a sum. Small products stay on
  // the calling thread (a grain above the task count).
  const long ntasks = (k + kPanelColTask - 1) / kPanelColTask;
  const long work = static_cast<long>(n) * k * s;
  parallel_for(
      ntasks,
      [&](long t) {
        const Index i0 = static_cast<Index>(t) * kPanelColTask;
        tn_columns(n, k, a, b, c.data(), i0,
                   std::min<Index>(k, i0 + kPanelColTask));
      },
      /*grain=*/work < kPanelParallelWork ? ntasks + 1 : 2);
}

void gemm_nn(Index n, Index k, double alpha, const double* a,
             std::span<const double> c, std::span<double* const> y) {
  const auto s = static_cast<Index>(y.size());
  DDMGNN_CHECK(n >= 0 && k >= 0 &&
                   c.size() == static_cast<std::size_t>(k) * s,
               "gemm_nn: shape mismatch");
  if (n == 0 || k == 0 || s == 0) return;
  // Tasks own disjoint row chunks; each entry's update is one task's.
  const long nchunks = (n + kPanelRowChunk - 1) / kPanelRowChunk;
  const long work = static_cast<long>(n) * k * s;
  parallel_for(
      nchunks,
      [&](long t) {
        const Index r0 = static_cast<Index>(t) * kPanelRowChunk;
        nn_rows(n, k, alpha, a, c, y, r0, std::min(n, r0 + kPanelRowChunk));
      },
      /*grain=*/work < kPanelParallelWork ? nchunks + 1 : 2);
}

}  // namespace ddmgnn::la
