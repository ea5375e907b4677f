#include "solver/block_krylov.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/flags.hpp"
#include "obs/trace.hpp"
#include "solver/telemetry.hpp"

namespace ddmgnn::solver {

namespace {

using la::axpy;
using la::Index;
using la::MultiVector;
using la::norm2;
using la::xpay;

/// Shared bookkeeping of both block methods: which original columns are
/// still active, their tolerances, histories, and per-column timing shares.
struct ColumnState {
  std::vector<SolveResult> results;     // indexed by ORIGINAL column
  std::vector<Index> act;               // active → original column map
  std::vector<double> nb, stop, rnorm;  // indexed like act
  std::vector<double> precond_share;    // indexed by ORIGINAL column
  bool track_history = false;
  bool forensics = false;

  ColumnState(const MultiVector& b, const SolveOptions& opts,
              const std::string& method_label) {
    const Index s = b.cols();
    results.resize(s);
    precond_share.assign(s, 0.0);
    track_history = history_enabled(opts);
    forensics = obs::forensics_enabled();
    act.resize(s);
    nb.resize(s);
    stop.resize(s);
    rnorm.assign(s, 0.0);
    for (Index j = 0; j < s; ++j) {
      act[j] = j;
      nb[j] = norm2(b.col(j));
      stop[j] = opts.rel_tol * (nb[j] > 0.0 ? nb[j] : 1.0);
      results[j].method = method_label;
    }
  }

  Index active() const { return static_cast<Index>(act.size()); }

  void push_history() {
    if (!track_history) return;
    for (std::size_t c = 0; c < act.size(); ++c) {
      results[act[c]].history.push_back(rnorm[c] /
                                        (nb[c] > 0.0 ? nb[c] : 1.0));
    }
  }

  void add_precond_time(double seconds) {
    const double share = seconds / static_cast<double>(act.size());
    for (const Index j : act) {
      precond_share[j] += share;
      if (forensics) results[j].precond_history.push_back(share);
    }
  }

  void finalize(std::size_t c, int iterations, bool converged,
                const Timer& timer) {
    SolveResult& res = results[act[c]];
    res.converged = converged;
    res.iterations = iterations;
    res.final_relative_residual = rnorm[c] / (nb[c] > 0.0 ? nb[c] : 1.0);
    res.total_seconds = timer.seconds();
    res.precond_seconds = precond_share[act[c]];
  }

  /// Finalize every column whose residual met its stop threshold and drop it
  /// from the active set, compacting the given blocks. Returns the kept
  /// pre-compaction indices (size == previous active count when nothing
  /// converged) so callers can compact their own per-column scalars.
  template <typename... Blocks>
  std::vector<Index> deflate_converged(int iterations, const Timer& timer,
                                       Blocks&... blocks) {
    std::vector<Index> keep;
    keep.reserve(act.size());
    for (std::size_t c = 0; c < act.size(); ++c) {
      if (rnorm[c] <= stop[c]) {
        finalize(c, iterations, /*converged=*/true, timer);
      } else {
        keep.push_back(static_cast<Index>(c));
      }
    }
    if (keep.size() == act.size()) return keep;
    auto compact = [&](auto& v) {
      for (std::size_t c = 0; c < keep.size(); ++c) v[c] = v[keep[c]];
      v.resize(keep.size());
    };
    compact(act);
    compact(nb);
    compact(stop);
    compact(rnorm);
    (blocks.keep_columns(keep), ...);
    return keep;
  }

  void finalize_remaining(int iterations, const Timer& timer) {
    for (std::size_t c = 0; c < act.size(); ++c) {
      finalize(c, iterations, rnorm[c] <= stop[c], timer);
    }
    act.clear();
  }
};

/// One batched preconditioner application, timed once: the measurement is
/// split into the active columns' precond_seconds shares (which therefore sum
/// back to it exactly) and, when tracing, becomes a "precond.apply_many" span
/// of the identical duration — the block-path counterpart of PrecondScope.
/// With opts.precond_fp32 the residual block is demoted through fp32 into
/// `r32` before the apply and the corrections are demoted in place after it
/// (the mixed-precision seam); the rounding cost counts as preconditioner
/// time, matching the scalar drivers.
void timed_apply_many(const precond::Preconditioner& m, const MultiVector& r,
                      MultiVector& z, precond::ApplyWorkspace* ws,
                      ColumnState& cols, const SolveOptions& opts,
                      MultiVector& r32) {
  const bool tracing = obs::trace_enabled();
  const std::int64_t t0 =
      tracing ? obs::TraceRecorder::instance().now_ns() : 0;
  Timer pt;
  if (opts.precond_fp32) {
    r32.resize(r.rows(), r.cols());
    for (Index j = 0; j < r.cols(); ++j) {
      la::round_to_float(r.col(j), r32.col(j));
    }
    m.apply_many(r32, z, ws);
    for (Index j = 0; j < z.cols(); ++j) {
      la::round_to_float(z.col(j), z.col(j));
    }
  } else {
    m.apply_many(r, z, ws);
  }
  const double s = pt.seconds();
  if (tracing) {
    obs::emit_span("precond.apply_many", t0,
                   static_cast<std::int64_t>(s * 1e9));
  }
  cols.add_precond_time(s);
}

/// r = b - A x for every column, plus initial norms.
void initial_residual(const CsrMatrix& a, const MultiVector& b,
                      const MultiVector& x, MultiVector& r,
                      ColumnState& cols) {
  a.apply_many(x, r);
  for (Index j = 0; j < b.cols(); ++j) {
    auto rj = r.col(j);
    const auto bj = b.col(j);
    for (std::size_t i = 0; i < rj.size(); ++i) rj[i] = bj[i] - rj[i];
    cols.rnorm[j] = norm2(rj);
  }
}

void check_block_dims(const CsrMatrix& a, const MultiVector& b,
                      const MultiVector& x) {
  DDMGNN_CHECK(a.rows() == a.cols(), "block krylov: square matrix required");
  DDMGNN_CHECK(b.rows() == a.rows() && x.rows() == b.rows() &&
                   x.cols() == b.cols() && b.cols() >= 1,
               "block krylov: dimension mismatch");
}

/// <x, y> through the blocked panel kernel: simd partial sums instead of one
/// serial add chain (block flexible PCG's vector work).
double block_dot(std::span<const double> x, std::span<const double> y) {
  double out = 0.0;
  const double* yc[] = {y.data()};
  la::gemm_tn(static_cast<Index>(x.size()), 1, x.data(), yc,
              std::span(&out, 1));
  return out;
}

double block_norm(std::span<const double> x) {
  return std::sqrt(block_dot(x, x));
}

/// Column pointers of `v` for the panel kernels.
void columns_of(MultiVector& v, std::vector<double*>& out) {
  out.resize(v.cols());
  for (Index j = 0; j < v.cols(); ++j) out[j] = v.col(j).data();
}

/// Page-backed storage mapped straight from the kernel: pages are
/// zero-filled on first touch, so a panel costs only the columns a solve
/// fills, and are returned on destruction. It bypasses malloc on purpose:
/// freeing a multi-megabyte malloc chunk after every solve raises glibc's
/// dynamic mmap threshold, after which the solver's mid-size buffers stay in
/// the retained heap (+2 MB peak RSS measured on the served 2.2k-node
/// service workload).
class MappedPanel {
 public:
  explicit MappedPanel(std::size_t doubles)
      : bytes_(std::max<std::size_t>(1, doubles * sizeof(double))) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<double*>(p);
  }
  ~MappedPanel() { munmap(data_, bytes_); }
  MappedPanel(const MappedPanel&) = delete;
  MappedPanel& operator=(const MappedPanel&) = delete;

  double* data() const { return data_; }

 private:
  std::size_t bytes_;
  double* data_ = nullptr;
};

/// The direction window of block flexible PCG: A-orthonormal directions P
/// and their images Q = A P as two contiguous n×cap column-major panels,
/// oldest block first. A new block is built in place past size() and then
/// appended; eviction drops the oldest blocks and shifts the survivors to
/// the front, so every pass reads one contiguous panel.
class DirectionWindow {
 public:
  DirectionWindow(Index n, Index cap)
      : n_(n),
        p_(static_cast<std::size_t>(n) * cap),
        q_(static_cast<std::size_t>(n) * cap) {}

  Index size() const { return stored_; }
  const double* p() const { return p_.data(); }
  const double* q() const { return q_.data(); }
  double* p_col(Index j) {
    return p_.data() + static_cast<std::size_t>(j) * n_;
  }
  double* q_col(Index j) {
    return q_.data() + static_cast<std::size_t>(j) * n_;
  }

  /// Commit the `cols` columns built past size() as the newest block.
  void append(Index cols) {
    blocks_.push_back(cols);
    stored_ += cols;
  }

  /// Drop the oldest blocks while more than `max_stored` columns are held,
  /// always keeping the newest block.
  void evict_to(Index max_stored) {
    Index drop = 0;
    std::size_t nblocks = 0;
    while (stored_ - drop > max_stored && blocks_.size() - nblocks > 1) {
      drop += blocks_[nblocks++];
    }
    if (drop == 0) return;
    blocks_.erase(blocks_.begin(), blocks_.begin() + nblocks);
    stored_ -= drop;
    const std::size_t count = static_cast<std::size_t>(stored_) * n_;
    std::copy(p_col(drop), p_col(drop) + count, p_.data());
    std::copy(q_col(drop), q_col(drop) + count, q_.data());
  }

 private:
  Index n_;
  Index stored_ = 0;
  std::vector<Index> blocks_;  // column count per stored block, oldest first
  MappedPanel p_, q_;
};

std::vector<SolveResult> block_pcg_impl(const CsrMatrix& a,
                                        const precond::Preconditioner& m,
                                        const MultiVector& b, MultiVector& x,
                                        const SolveOptions& opts,
                                        const std::string& label) {
  check_block_dims(a, b, x);
  Timer timer;
  const Index n = a.rows();
  ColumnState cols(b, opts, label);
  // One preconditioner workspace per block solve (never shared across
  // concurrent solve_many calls on one session).
  const auto ws = m.make_workspace();

  MultiVector r(n, b.cols());
  initial_residual(a, b, x, r, cols);
  MultiVector z(n, b.cols());
  MultiVector r32;  // fp32-rounded residual block (opts.precond_fp32)
  timed_apply_many(m, r, z, ws.get(), cols, opts, r32);
  MultiVector p(n, b.cols());
  copy_columns(z, p);
  std::vector<double> rho(b.cols());
  dot_columns(r, z, rho);
  cols.push_history();
  auto compact_scalars = [](const std::vector<Index>& keep, auto& v) {
    if (keep.size() == v.size()) return;
    for (std::size_t c = 0; c < keep.size(); ++c) v[c] = v[keep[c]];
    v.resize(keep.size());
  };
  compact_scalars(cols.deflate_converged(0, timer, r, p), rho);

  MultiVector q;
  std::vector<double> alpha, pq, rho_next, beta;
  std::vector<char> restart;  // per active column: verification missed
  int it = 0;
  while (cols.active() > 0 && it < opts.max_iterations) {
    obs::Span iter_span("block-pcg.iter");
    a.apply_many(p, q);
    const Index na = cols.active();
    alpha.resize(na);
    pq.resize(na);
    dot_columns(p, q, pq);
    for (Index c = 0; c < na; ++c) {
      alpha[c] = rho[c] / pq[c];
      axpy(alpha[c], p.col(c), x.col(cols.act[c]));
      alpha[c] = -alpha[c];
    }
    axpy_columns(alpha, q, r);
    norm2_columns(r, cols.rnorm);
    ++it;
    cols.push_history();
    iter_span.arg("iter", it);
    iter_span.arg("active_columns", cols.active());
    // As scalar pcg: a column whose recurrence met its tolerance is verified
    // once against b − A·x; on a miss it restarts from that true residual.
    restart.assign(static_cast<std::size_t>(na), 0);
    for (Index c = 0; c < na; ++c) {
      if (cols.rnorm[c] > cols.stop[c]) continue;
      const Index j = cols.act[c];
      cols.rnorm[c] = true_residual(a, b.col(j), x.col(j), r.col(c));
      restart[c] = cols.rnorm[c] > cols.stop[c];
    }
    const auto keep = cols.deflate_converged(it, timer, r, p);
    compact_scalars(keep, rho);
    compact_scalars(keep, restart);
    if (cols.active() == 0) break;
    const Index nw = cols.active();
    z.resize(n, nw);
    timed_apply_many(m, r, z, ws.get(), cols, opts, r32);
    rho_next.resize(nw);
    beta.resize(nw);
    dot_columns(r, z, rho_next);
    for (Index c = 0; c < nw; ++c) {
      beta[c] = rho_next[c] / rho[c];
      rho[c] = rho_next[c];
    }
    xpay_columns(beta, z, p);
    for (Index c = 0; c < nw; ++c) {
      if (!restart[c]) continue;
      const auto zc = z.col(c);  // restarted: p = z, as scalar pcg
      std::copy(zc.begin(), zc.end(), p.col(c).begin());
    }
  }
  // Columns cut off by max_iterations report their true residual too.
  for (Index c = 0; c < cols.active(); ++c) {
    const Index j = cols.act[c];
    cols.rnorm[c] = true_residual(a, b.col(j), x.col(j), r.col(c));
  }
  cols.finalize_remaining(it, timer);
  for (SolveResult& res : cols.results) finalize_solve_telemetry(res, opts);
  return std::move(cols.results);
}

}  // namespace

std::vector<SolveResult> block_pcg(const CsrMatrix& a,
                                   const precond::Preconditioner& m,
                                   const MultiVector& b, MultiVector& x,
                                   const SolveOptions& opts) {
  return block_pcg_impl(a, m, b, x, opts, "block-pcg+" + m.name());
}

std::vector<SolveResult> block_flexible_pcg(const CsrMatrix& a,
                                            const precond::Preconditioner& m,
                                            const MultiVector& b,
                                            MultiVector& x,
                                            const SolveOptions& opts) {
  check_block_dims(a, b, x);
  Timer timer;
  const Index n = a.rows();
  const std::string label = "block-fpcg+" + m.name();
  ColumnState cols(b, opts, label);
  const auto ws = m.make_workspace();

  MultiVector r(n, b.cols());
  initial_residual(a, b, x, r, cols);
  cols.push_history();
  cols.deflate_converged(0, timer, r);

  // Windowed store of A-orthonormal direction blocks (with images Q = A P,
  // newest last). With a nonlinear preconditioner the short CG recurrence
  // loses conjugacy, so new directions are orthogonalized against — and
  // every column's residual re-projected over — the whole window; that is
  // what lets the shared search space actually pay off for DDM-GNN. When
  // the preconditioner is cheap (fp32 Cholesky local solves) this window
  // work, not the apply, sets the iteration time, so it runs as blocked
  // panel kernels that read each stored direction once per pass.
  //
  // Eviction cap (oldest first): generous — the window is what converts the
  // batched inference into an iteration-count win — but bounded to ~256 MB
  // of direction storage on huge problems (each stored direction keeps both
  // p and q, 16 bytes/row).
  const Index mem_cap = static_cast<Index>(std::max<long long>(
      2 * b.cols(), (256ll << 20) / (16ll * n)));
  const Index max_stored =
      std::min(std::max<Index>(kBlockFpcgWindow, 16 * b.cols()), mem_cap);
  DirectionWindow window(n, max_stored + b.cols());

  MultiVector z, az;
  MultiVector r32;  // fp32-rounded residual block (opts.precond_fp32)
  std::vector<double> coef, znorm;
  std::vector<double*> zcols, rcols, xcols;
  // Stagnation safeguard: if no active column improves its best residual by
  // the slack factor over a full window, stop and let the per-column
  // fallback finish the stragglers. Columns active at such a structural
  // no-progress exit are remembered so the merged per-column failure can
  // report "stagnated" even when the history is off (serving runs with
  // track_history=false) and the fallback then exhausts the leftover budget.
  constexpr int kStallWindow = 25;
  constexpr double kStallSlack = 0.999;
  std::vector<double> best(cols.rnorm.begin(), cols.rnorm.end());
  std::vector<char> block_stagnated(b.cols(), 0);
  int stall = 0;

  int it = 0;
  while (cols.active() > 0 && it < opts.max_iterations) {
    obs::Span iter_span("block-fpcg.iter");
    const Index na = cols.active();
    z.resize(n, na);
    timed_apply_many(m, r, z, ws.get(), cols, opts, r32);

    // Build the new direction block straight into the window's tail:
    // conjugate the preconditioned residuals against the whole window in
    // one pass (C = Qᵀ Z, Z -= P C; valid because Pᵀ A P = I), take their
    // images with one SpMM, then A-orthonormalize the candidates among
    // themselves (modified Gram-Schmidt in the A-inner product, images
    // updated by the same combinations), dropping columns that fall into
    // the span of the ones already kept — that is the rank-deficiency /
    // duplicate-RHS handling.
    Index kept = 0;
    {
      obs::Span orth_span("krylov.orthogonalize");
      znorm.resize(na);
      for (Index c = 0; c < na; ++c) znorm[c] = block_norm(z.col(c));
      columns_of(z, zcols);
      const Index stored = window.size();
      coef.resize(static_cast<std::size_t>(stored) * na);
      la::gemm_tn(n, stored, window.q(), zcols, coef);
      la::gemm_nn(n, stored, -1.0, window.p(), coef, zcols);
      a.apply_many(z, az);
      double* const tail_p = window.p_col(stored);
      double* const tail_q = window.q_col(stored);
      for (Index c = 0; c < na; ++c) {
        if (znorm[c] == 0.0) continue;
        double* d = window.p_col(stored + kept);
        double* qd = window.q_col(stored + kept);
        std::copy_n(z.col(c).data(), n, d);
        std::copy_n(az.col(c).data(), n, qd);
        if (kept > 0) {
          coef.resize(kept);
          la::gemm_tn(n, kept, tail_q, std::span(&d, 1), coef);
          la::gemm_nn(n, kept, -1.0, tail_p, coef, std::span(&d, 1));
          la::gemm_nn(n, kept, -1.0, tail_q, coef, std::span(&qd, 1));
        }
        const std::span<double> dc(d, n), qc(qd, n);
        if (block_norm(dc) <= 1e-10 * znorm[c]) continue;  // already spanned
        const double a_norm2 = block_dot(dc, qc);
        if (!(a_norm2 > 0.0)) continue;  // numerically indefinite direction
        const double inv = 1.0 / std::sqrt(a_norm2);
        la::scale(inv, dc);
        la::scale(inv, qc);
        ++kept;
      }
    }
    if (kept == 0) {
      // No usable directions — progress stopped; fall back below.
      for (const Index j : cols.act) block_stagnated[j] = 1;
      break;
    }
    window.append(kept);
    window.evict_to(max_stored);

    // Galerkin update over the WHOLE window for every column: C = Pᵀ R,
    // then x += P C and r -= (A P) C (P is A-orthonormal). Old-block
    // coefficients are exactly zero for a fixed SPD M (classic conjugacy)
    // but recover what the nonlinear GNN leaks.
    {
      obs::Span reproject_span("krylov.reproject");
      columns_of(r, rcols);
      xcols.resize(na);
      for (Index c = 0; c < na; ++c) xcols[c] = x.col(cols.act[c]).data();
      const Index stored = window.size();
      coef.resize(static_cast<std::size_t>(stored) * na);
      la::gemm_tn(n, stored, window.p(), rcols, coef);
      la::gemm_nn(n, stored, 1.0, window.p(), coef, xcols);
      la::gemm_nn(n, stored, -1.0, window.q(), coef, rcols);
      for (Index c = 0; c < na; ++c) cols.rnorm[c] = block_norm(r.col(c));
    }
    ++it;
    cols.push_history();
    iter_span.arg("iter", it);
    iter_span.arg("active_columns", cols.active());

    bool improved = false;
    for (std::size_t c = 0; c < cols.act.size(); ++c) {
      if (cols.rnorm[c] < kStallSlack * best[c]) {
        best[c] = cols.rnorm[c];
        improved = true;
      }
    }
    stall = improved ? 0 : stall + 1;

    const auto keep = cols.deflate_converged(it, timer, r);
    if (keep.size() != best.size()) {
      for (std::size_t c = 0; c < keep.size(); ++c) best[c] = best[keep[c]];
      best.resize(keep.size());
    }
    if (stall >= kStallWindow) {
      for (const Index j : cols.act) block_stagnated[j] = 1;
      break;
    }
  }
  cols.finalize_remaining(it, timer);

  // Correctness net: the recurrences above (nonlinear preconditioner, lost
  // conjugation) are verified per column against the TRUE residual; any
  // column that misses its tolerance is finished by scalar flexible PCG,
  // warm-started from the block iterate.
  std::vector<double> true_res(n);
  for (Index j = 0; j < b.cols(); ++j) {
    const auto bj = b.col(j);
    const double tr = true_residual(a, bj, x.col(j), true_res);
    const double nbj = norm2(bj);
    const double stop = opts.rel_tol * (nbj > 0.0 ? nbj : 1.0);
    SolveResult& res = cols.results[j];
    res.final_relative_residual = tr / (nbj > 0.0 ? nbj : 1.0);
    if (tr <= stop) {
      res.converged = true;
      finalize_solve_telemetry(res, opts);
      continue;
    }
    SolveOptions fb = opts;
    fb.max_iterations = std::max(1, opts.max_iterations - res.iterations);
    // The scalar solve runs finalize_solve_telemetry itself (it is a real
    // solve; its metrics belong in the registry). Re-derive the failure and
    // per-column preconditioner accounting on the merged result, without
    // recording a second set of per-solve metrics.
    SolveResult scalar = flexible_pcg(a, m, bj, x.col(j), fb);
    scalar.iterations += res.iterations;
    scalar.precond_seconds += res.precond_seconds;
    if (cols.forensics) {
      scalar.precond_history.insert(scalar.precond_history.begin(),
                                    res.precond_history.begin(),
                                    res.precond_history.end());
    }
    scalar.total_seconds = timer.seconds();
    scalar.method = label + ">fallback:" + scalar.method;
    if (history_enabled(opts)) {
      scalar.history.insert(scalar.history.begin(), res.history.begin(),
                            res.history.end());
    }
    if (!scalar.converged) {
      scalar.failure = classify_failure(scalar, opts);
      // The block phase watched this column make no progress for a full
      // stall window before handing it over; "ran out of iterations" would
      // misname that. Keep any sharper diagnosis (NaN, divergence).
      if (block_stagnated[j] &&
          scalar.failure == obs::FailureReason::kMaxIterations) {
        scalar.failure = obs::FailureReason::kStagnated;
      }
    }
    cols.results[j] = std::move(scalar);
  }
  return std::move(cols.results);
}

int batch_width_for(KrylovMethod method, double apply_flops, Index n) {
  const bool pays = method == KrylovMethod::kFpcg &&
                    apply_flops >= kBatchPaysFlopsPerRow *
                                       static_cast<double>(n);
  return pays ? std::numeric_limits<int>::max() : 1;
}

std::optional<std::vector<SolveResult>> run_block_krylov(
    KrylovMethod method, const CsrMatrix& a, const precond::Preconditioner& m,
    const MultiVector& b, MultiVector& x, const SolveOptions& opts) {
  switch (method) {
    case KrylovMethod::kCg: {
      static const precond::IdentityPreconditioner identity;
      return block_pcg_impl(a, identity, b, x, opts, "block-cg");
    }
    case KrylovMethod::kPcg:
      return block_pcg(a, m, b, x, opts);
    case KrylovMethod::kFpcg:
      return block_flexible_pcg(a, m, b, x, opts);
    case KrylovMethod::kGmres:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace ddmgnn::solver
