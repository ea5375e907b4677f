#include "la/spgemm.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "common/parallel.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ddmgnn::la {

namespace {

// One worker's scratch for Gustavson row merges: `mark[c]` holds the stamp of
// the last row that touched column c, `acc[c]` its running sum. Reset is
// O(row nnz), not O(n).
struct RowMergeScratch {
  std::vector<Index> mark;
  std::vector<double> acc;

  explicit RowMergeScratch(Index width)
      : mark(static_cast<std::size_t>(width), -1),
        acc(static_cast<std::size_t>(width), 0.0) {}
};

// Serial below ~8k estimated multiply-adds (nnz(A) times the mean row
// length of B): the fork/join would dominate. The estimate, not the row
// count, decides — a Galerkin R·(AP) has few rows, but each merges hundreds
// of AP rows.
template <typename RowBody>
void for_each_row(const CsrMatrix& a, const CsrMatrix& b,
                  const RowBody& body) {
  const Index rows = a.rows();
  const int threads = ddmgnn::num_threads();
#ifdef _OPENMP
  const double flops = static_cast<double>(a.nnz()) *
                       static_cast<double>(b.nnz()) /
                       static_cast<double>(std::max<Index>(b.rows(), 1));
  const bool serial = flops < 8192.0 || threads == 1 || omp_in_parallel();
#else
  const bool serial = true;
#endif
  if (serial) {
    RowMergeScratch s(b.cols());
    for (Index i = 0; i < rows; ++i) body(i, s);
    return;
  }
#ifdef _OPENMP
#pragma omp parallel num_threads(threads)
  {
    RowMergeScratch s(b.cols());
#pragma omp for schedule(static)
    for (Index i = 0; i < rows; ++i) body(i, s);
  }
#endif
}

}  // namespace

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  DDMGNN_CHECK(a.cols() == b.rows(), "spgemm: inner dimensions differ");
  const Index rows = a.rows();
  const Offset* a_ptr = a.row_ptr().data();
  const Index* a_col = a.col_idx().data();
  const double* a_val = a.values().data();
  const Offset* b_ptr = b.row_ptr().data();
  const Index* b_col = b.col_idx().data();
  const double* b_val = b.values().data();

  // Symbolic pass: distinct columns per output row.
  std::vector<Offset> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  for_each_row(a, b, [&](Index i, RowMergeScratch& s) {
    Offset count = 0;
    for (Offset k = a_ptr[i]; k < a_ptr[i + 1]; ++k) {
      const Index mid = a_col[k];
      for (Offset j = b_ptr[mid]; j < b_ptr[mid + 1]; ++j) {
        count += s.mark[b_col[j]] != i;
        s.mark[b_col[j]] = i;
      }
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = count;
  });
  for (Index i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];

  // Numeric pass: merge each row straight into its output slot (columns in
  // first-touch order, sums in scratch.acc), then sort the column run and
  // gather the sums. Accumulation follows the fixed (k, j)
  // traversal order — independent of the thread that runs the row.
  std::vector<Index> col_idx(static_cast<std::size_t>(row_ptr[rows]));
  std::vector<double> vals(col_idx.size());
  for_each_row(a, b, [&](Index i, RowMergeScratch& s) {
    Index* out = col_idx.data() + row_ptr[i];
    Index n = 0;
    for (Offset k = a_ptr[i]; k < a_ptr[i + 1]; ++k) {
      const Index mid = a_col[k];
      const double av = a_val[k];
      for (Offset j = b_ptr[mid]; j < b_ptr[mid + 1]; ++j) {
        const Index c = b_col[j];
        if (s.mark[c] != i) {
          s.mark[c] = i;
          s.acc[c] = 0.0;
          out[n++] = c;
        }
        s.acc[c] += av * b_val[j];
      }
    }
    std::sort(out, out + n);
    for (Index p = 0; p < n; ++p) vals[row_ptr[i] + p] = s.acc[out[p]];
  });
  return CsrMatrix(rows, b.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(vals));
}

CsrMatrix galerkin_product(const CsrMatrix& a, const CsrMatrix& p) {
  DDMGNN_CHECK(a.rows() == a.cols(), "galerkin_product: A must be square");
  DDMGNN_CHECK(a.rows() == p.rows(),
               "galerkin_product: P rows must match A dimension");
  const CsrMatrix ap = spgemm(a, p);
  return spgemm(p.transpose(), ap);
}

}  // namespace ddmgnn::la
