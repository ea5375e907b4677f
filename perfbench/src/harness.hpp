// Measurement helpers for the perfbench binary: seeded inputs, answer
// checks made from outside the solver, order statistics, the result-line
// emitter, the timing preconditioner wrapper and the kernel replays that
// time layers the solver reaches only internally.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gnn/dss_model.hpp"
#include "la/csr.hpp"
#include "la/multivector.hpp"
#include "la/vector_ops.hpp"
#include "precond/preconditioner.hpp"
#include "solver/krylov.hpp"

namespace perfbench {

using namespace ddmgnn;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile, q in [0, 1]. A failed request is recorded as +inf
/// (it misses every latency limit); when the rank lands on one, the reported
/// value is 1e9 so the result line stays valid JSON and unmistakable.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  const double v = xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
  return std::isfinite(v) ? v : 1e9;
}

inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Right-hand side number `index` of the run seeded `seed`: uniform in
/// [-1, 1] at every node. Deterministic, so a checker can regenerate it.
inline std::vector<double> make_rhs(std::uint64_t seed, std::uint64_t index,
                                    std::size_t n) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + index * 0xBF58476D1CE4E5B9ull + 1);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

/// ||b - A x|| / ||b||, recomputed here rather than taken from the solver.
inline double true_rel_residual(const la::CsrMatrix& a,
                                const std::vector<double>& b,
                                const std::vector<double>& x) {
  std::vector<double> ax(b.size());
  a.multiply(x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - ax[i];
    rr += d * d;
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / (bb > 0.0 ? std::sqrt(bb) : 1.0);
}

/// One request's outcome. A request is verified when the solver reported
/// convergence and the recomputed true residual is within rel_tol; any other
/// outcome (not converged, residual above tolerance, rejected, threw) is a
/// failure and its times are +inf.
struct Sample {
  double solve_s = kInf;
  double latency_s = kInf;
  int iterations = 0;
  double true_residual = kInf;
  bool verified = false;
  /// Reported converged while the true residual exceeds rel_tol: a wrong
  /// answer presented as right.
  bool silent_wrong = false;
};

inline void check_answer(const la::CsrMatrix& a, const std::vector<double>& b,
                         const std::vector<double>& x,
                         const solver::SolveResult& res, double rel_tol,
                         Sample& s) {
  s.iterations = res.iterations;
  s.true_residual = true_rel_residual(a, b, x);
  const bool within = std::isfinite(s.true_residual) &&
                      s.true_residual <= rel_tol;
  s.verified = res.converged && within;
  s.silent_wrong = res.converged && !within;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over the model's parameter bytes: identifies the pinned weights.
inline std::string model_hash(const gnn::DssModel& model) {
  const auto params = model.params();
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < params.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Named metrics with units, emitted as the benchmark's result object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.12g",
                    std::isfinite(items_[i].value) ? items_[i].value : 1e9);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Transparent timing wrapper around a prepared preconditioner: forwards
/// every call to `inner` and records each application's wall time. Used by
/// the traced direct workloads, which call solver::run_krylov with this in
/// place of the session's preconditioner — the same program path as
/// SolverSession::solve. Scalar Krylov methods only call apply(). Single
/// caller: one solve at a time.
class TimedPreconditioner final : public precond::Preconditioner {
 public:
  explicit TimedPreconditioner(const precond::Preconditioner& inner)
      : inner_(inner) {}

  std::unique_ptr<precond::ApplyWorkspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  std::size_t workspace_bytes() const override {
    return inner_.workspace_bytes();
  }
  using Preconditioner::apply;
  void apply(std::span<const double> r, std::span<double> z,
             precond::ApplyWorkspace* ws) const override {
    const auto t0 = Clock::now();
    inner_.apply(r, z, ws);
    apply_seconds_.push_back(seconds_between(t0, Clock::now()));
  }
  std::string name() const override { return inner_.name(); }
  bool is_symmetric() const override { return inner_.is_symmetric(); }

  const std::vector<double>& apply_seconds() const { return apply_seconds_; }

 private:
  const precond::Preconditioner& inner_;
  mutable std::vector<double> apply_seconds_;
};

/// Median seconds of one SpMV (CsrMatrix::multiply) and of the other vector
/// kernels of one scalar PCG / flexible-PCG iteration (the sequence in
/// solver/krylov.cpp), replayed through the public la:: kernels. Each timed
/// step follows an untimed preconditioner apply, as in a real iteration, so
/// the vectors meet the cache state the apply leaves behind. Medians are the
/// per-call figures; means (which keep the stalls a shared machine adds)
/// are what totals over many calls are built from.
struct IterationReplay {
  double spmv_median_s = 0.0;
  double spmv_mean_s = 0.0;
  double vecops_mean_s = 0.0;
};

inline IterationReplay replay_iteration(const la::CsrMatrix& a,
                                        const precond::Preconditioner& m,
                                        solver::KrylovMethod method,
                                        int reps) {
  const std::size_t n = a.rows();
  std::vector<double> x = make_rhs(3, 0, n), r = make_rhs(3, 1, n),
                      z = make_rhs(3, 2, n), p = make_rhs(3, 3, n),
                      q(n), z_prev(n), dz(n);
  const auto ws = m.make_workspace();
  const bool flexible = method == solver::KrylovMethod::kFpcg;
  volatile double sink = 0.0;
  std::vector<double> spmv, vecops;
  for (int rep = 0; rep < reps + 2; ++rep) {
    m.apply(r, z, ws.get());
    const auto t0 = Clock::now();
    a.multiply(p, q);
    const auto t1 = Clock::now();
    double acc = la::dot(p, q);
    if (flexible) acc += la::dot(p, q);
    la::axpy(1e-9, p, x);
    if (flexible) la::copy(z, z_prev);
    la::axpy(-1e-9, q, r);
    acc += la::norm2(r);
    if (flexible) {
      la::waxpby(1.0, z, -1.0, z_prev, dz);
      acc += la::dot(r, dz);
    }
    acc += la::dot(r, z);
    la::xpay(z, 1e-9, p);
    const auto t2 = Clock::now();
    sink = sink + acc;
    if (rep < 2) continue;  // warm-up
    spmv.push_back(seconds_between(t0, t1));
    vecops.push_back(seconds_between(t1, t2));
  }
  return {median(spmv), mean(spmv), mean(vecops)};
}

/// Bytes one SpMV must move at minimum: values + column indices + row
/// pointers, x read once and y written once.
inline double spmv_bytes(const la::CsrMatrix& a) {
  return static_cast<double>(a.nnz()) * (sizeof(double) + sizeof(la::Index)) +
         static_cast<double>(a.rows() + 1) * sizeof(la::Offset) +
         2.0 * static_cast<double>(a.rows()) * sizeof(double);
}

/// Median seconds of one SpMM (CsrMatrix::apply_many) over `cols` columns,
/// each after an untimed block preconditioner apply.
inline double replay_spmm_seconds(const la::CsrMatrix& a,
                                  const precond::Preconditioner& m,
                                  la::Index cols, int reps) {
  la::MultiVector x(a.rows(), cols, 0.0), z(a.rows(), cols, 0.0), y;
  for (la::Index j = 0; j < cols; ++j) {
    const std::vector<double> c = make_rhs(2, j, a.rows());
    std::copy(c.begin(), c.end(), x.col(j).begin());
  }
  const auto ws = m.make_workspace();
  std::vector<double> ts;
  for (int rep = 0; rep < reps + 2; ++rep) {
    m.apply_many(x, z, ws.get());
    const auto t0 = Clock::now();
    a.apply_many(x, y);
    if (rep >= 2) ts.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(ts));
}

/// Nominal flops of one DSS forward on a graph of n nodes and ne edges, as
/// the reference formulation computes it: per block, two edge MLPs over all
/// edges, the update MLP and the decoder over all nodes (2 flops per MAC).
inline double dss_forward_flops(const gnn::DssConfig& c, double n, double ne) {
  const double h = c.hidden, d = c.latent;
  const double edge_mlp = 2.0 * (c.message_input_dim() * h + h * d);
  const double update = 2.0 * (c.update_input_dim() * h + h * d);
  const double decode = 2.0 * (d * h + h);
  return c.iterations * (2.0 * ne * edge_mlp + n * (update + decode));
}

}  // namespace perfbench
