#include "core/solver_session.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "gnn/graph.hpp"
#include "gnn/spectral_coords.hpp"
#include "la/multivector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "precond/asm_precond.hpp"
#include "precond/registry.hpp"
#include "solver/block_krylov.hpp"

namespace ddmgnn::core {

namespace {

bool is_finite(double v) { return std::isfinite(v); }

/// Non-finite input would surface only as a NaN residual after every
/// iteration has run; these reject it at entry, naming the first bad entry.
void check_finite(const la::CsrMatrix& A) {
  const auto vals = A.values();
  const auto bad = std::find_if_not(vals.begin(), vals.end(), is_finite);
  if (bad == vals.end()) return;
  const auto k = bad - vals.begin();
  const auto row_ptr = A.row_ptr();
  const auto row =
      std::upper_bound(row_ptr.begin(), row_ptr.end(), k) - row_ptr.begin() - 1;
  throw ContractError("setup: A(" + std::to_string(row) + ", " +
                      std::to_string(A.col_idx()[k]) + ") = " +
                      std::to_string(*bad) + " is not finite");
}

void check_finite(std::span<const double> v, const std::string& what) {
  const auto bad = std::find_if_not(v.begin(), v.end(), is_finite);
  if (bad == v.end()) return;
  throw ContractError(what + "[" + std::to_string(bad - v.begin()) + "] = " +
                      std::to_string(*bad) + " is not finite");
}

}  // namespace

void SolverSession::reset_setup_state() {
  // Reset first so ANY setup failure — including an unknown name — leaves
  // the session not-ready rather than keyed to a stale problem.
  m_inv_.reset();
  dec_.reset();
  a_ = nullptr;
  num_subdomains_ = 0;
  setup_seconds_ = 0.0;
  apply_flops_ = 0.0;
}

void SolverSession::check_setup_allowed() const {
  DDMGNN_CHECK(!setup_locked_,
               "SolverSession::setup on a cache-owned session: this session "
               "is shared through a core::SessionCache and re-keying it "
               "would corrupt the cache's fingerprint index for every other "
               "holder. Re-key through the cache instead: call "
               "SessionCache::get_or_setup with the new operator/config "
               "(misses prepare a fresh entry; the old one stays valid).");
}

void SolverSession::setup_from_graph(const la::CsrMatrix& A,
                                     const HybridConfig& cfg,
                                     std::span<const la::Offset> adj_ptr,
                                     std::span<const la::Index> adj,
                                     const AlgebraicOptions& opts) {
  check_setup_allowed();
  reset_setup_state();
  cfg_ = cfg;
  DDMGNN_CHECK(adj_ptr.size() == static_cast<std::size_t>(A.rows()) + 1,
               "setup_from_graph: adjacency does not match the operator");
  check_finite(A);

  // Throws (listing the table's names) on unknown names.
  const precond::PrecondTraits traits =
      precond::preconditioner_traits(cfg.preconditioner);

  static obs::Gauge& setup_gauge =
      obs::Registry::instance().gauge("session.setup_seconds");
  obs::PhaseTimer setup_phase("session.setup", &setup_gauge);
  Timer setup_timer;
  if (traits.needs_decomposition) {
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.decomposition_seconds");
    obs::PhaseTimer t("setup.decomposition", &g);
    dec_ = std::make_unique<partition::Decomposition>(
        partition::decompose_target_size(adj_ptr, adj,
                                         cfg.subdomain_target_nodes,
                                         cfg.overlap, cfg.seed));
    num_subdomains_ = dec_->num_parts;
  }
  precond::PrecondContext ctx;
  ctx.A = &A;
  ctx.dec = dec_.get();
  ctx.dirichlet = opts.dirichlet;
  ctx.coords = opts.coordinates;
  ctx.model = cfg.model;
  ctx.gnn = {.normalize_input = cfg.gnn_normalize,
             .refinement_steps = cfg.gnn_refinement_steps,
             .adaptive_refinement = cfg.gnn_adaptive_refinement,
             .cost_aware_fallback = cfg.gnn_cost_aware_fallback,
             .fp32_fallback = cfg.precond_fp32};
  ctx.seed = cfg.seed;
  // The message-graph pattern is only materialized for geometry consumers
  // (the GNN entries); the factories copy it, so it can live on this stack.
  la::CsrMatrix pattern;
  if (traits.needs_model) {
    pattern = gnn::adjacency_pattern(adj_ptr, adj);
    ctx.edge_pattern = &pattern;
  }
  {
    // Child phases (setup.extract_blocks / setup.local_solver /
    // setup.coarse_space) are emitted inside AdditiveSchwarz's constructor.
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.preconditioner_seconds");
    obs::PhaseTimer t("setup.preconditioner", &g);
    m_inv_ = precond::make_preconditioner(cfg.preconditioner, ctx);
  }
  a_ = &A;
  setup_seconds_ += setup_timer.seconds();

  if (cfg.method.has_value()) {
    method_ = *cfg.method;
  } else if (cfg.preconditioner == "none") {
    method_ = solver::KrylovMethod::kCg;
  } else {
    // fp32 rounding makes even a symmetric M effectively nonlinear, so the
    // default selection needs the flexible variant too.
    const bool flexible = !m_inv_->is_symmetric() || cfg.precond_fp32;
    method_ = flexible ? solver::KrylovMethod::kFpcg
                       : solver::KrylovMethod::kPcg;
  }
  apply_flops_ = m_inv_->apply_flops();
  setup_phase.arg("batch_width", batch_width());
}

void SolverSession::setup(const mesh::Mesh& m, const fem::PoissonProblem& prob,
                          const HybridConfig& cfg) {
  AlgebraicOptions opts;
  opts.dirichlet = prob.dirichlet;
  opts.coordinates = m.points();
  setup_from_graph(prob.A, cfg, m.adj_ptr(), m.adj(), opts);
}

void SolverSession::setup(const la::CsrMatrix& A, const HybridConfig& cfg,
                          const AlgebraicOptions& opts) {
  check_setup_allowed();
  reset_setup_state();
  DDMGNN_CHECK(A.rows() == A.cols(),
               "setup(A): operator must be square, got " +
                   std::to_string(A.rows()) + "x" + std::to_string(A.cols()));
  const precond::PrecondTraits traits =
      precond::preconditioner_traits(cfg.preconditioner);
  const auto n = static_cast<std::size_t>(A.rows());
  DDMGNN_CHECK(opts.dirichlet.empty() || opts.dirichlet.size() == n,
               "setup(A): dirichlet mask must have one entry per row");
  DDMGNN_CHECK(opts.coordinates.empty() || opts.coordinates.size() == n,
               "setup(A): coordinates must have one point per row");

  // Graph derivation is part of the setup cost the session reports — and is
  // skipped entirely for preconditioners that consult neither the
  // decomposition nor geometry (none/jacobi/ic0), where it could dwarf the
  // actual build.
  Timer derive_timer;
  partition::AdjacencyGraph graph;
  if (traits.needs_decomposition || traits.needs_model) {
    graph = partition::matrix_adjacency(A);
  } else {
    graph.ptr.assign(static_cast<std::size_t>(A.rows()) + 1, 0);  // edgeless
  }
  std::span<const mesh::Point2> coords = opts.coordinates;
  std::vector<mesh::Point2> synthetic;
  if (traits.needs_model && coords.empty()) {
    synthetic = gnn::spectral_coordinates(graph.ptr, graph.idx,
                                          /*smoothing_steps=*/30, cfg.seed);
    coords = synthetic;
  }
  const double derive_seconds = derive_timer.seconds();
  AlgebraicOptions derived;
  derived.dirichlet = opts.dirichlet;
  derived.coordinates = coords;
  setup_from_graph(A, cfg, graph.ptr, graph.idx, derived);
  setup_seconds_ += derive_seconds;
}

solver::SolveOptions SolverSession::solve_options() const {
  solver::SolveOptions opts;
  opts.rel_tol = cfg_.rel_tol;
  opts.max_iterations = cfg_.max_iterations;
  opts.track_history = cfg_.track_history;
  opts.gmres_restart = cfg_.gmres_restart;
  opts.precond_fp32 = cfg_.precond_fp32;
  return opts;
}

solver::SolveResult SolverSession::solve(std::span<const double> b,
                                         std::span<double> x) const {
  return solve(b, x, /*x0=*/{});
}

solver::SolveResult SolverSession::solve(std::span<const double> b,
                                         std::span<double> x,
                                         std::span<const double> x0) const {
  DDMGNN_CHECK(ready(), "SolverSession::solve before setup()");
  check_finite(b, "solve: b");
  check_finite(x0, "solve: x0");
  // Root span: every solve's full wall time is covered by this one event,
  // with the Krylov iterations and preconditioner phases nested inside.
  obs::Span solve_span("session.solve");
  solver::SolveOptions opts = solve_options();
  opts.x0 = x0;
  solver::SolveResult res =
      solver::run_krylov(method_, *a_, *m_inv_, b, x, opts);
  solve_span.arg("iterations", res.iterations);
  solve_span.arg("converged", res.converged ? 1.0 : 0.0);
  return res;
}

std::vector<solver::SolveResult> SolverSession::solve_many(
    std::span<const std::vector<double>> rhs,
    std::vector<std::vector<double>>& xs) const {
  return solve_many(rhs, xs, /*x0s=*/{});
}

std::vector<solver::SolveResult> SolverSession::solve_many(
    std::span<const std::vector<double>> rhs,
    std::vector<std::vector<double>>& xs,
    std::span<const std::vector<double>> x0s) const {
  DDMGNN_CHECK(ready(), "SolverSession::solve_many before setup()");
  DDMGNN_CHECK(x0s.empty() || x0s.size() == rhs.size(),
               "solve_many: x0s must be empty or give one (possibly empty) "
               "guess per right-hand side");
  const auto n = static_cast<std::size_t>(a_->rows());
  for (std::size_t i = 0; i < x0s.size(); ++i) {
    DDMGNN_CHECK(x0s[i].empty() || x0s[i].size() == n,
                 "solve_many: x0 size does not match the operator");
    check_finite(x0s[i], "solve_many: x0s[" + std::to_string(i) + "]");
  }
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    DDMGNN_CHECK(rhs[i].size() == n, "solve_many: rhs size mismatch");
    check_finite(rhs[i], "solve_many: rhs[" + std::to_string(i) + "]");
  }
  obs::Span solve_span("session.solve_many");
  solve_span.arg("rhs", static_cast<double>(rhs.size()));
  xs.resize(rhs.size());
  if (batch_width() > 1 && rhs.size() > 1) {
    const la::MultiVector b = la::MultiVector::from_columns(rhs);
    la::MultiVector x(b.rows(), b.cols(), 0.0);
    // The block driver treats the iterate block as the initial guess
    // (r₀ = B − A·X₀ per column), so seeding is just filling the columns.
    for (std::size_t i = 0; i < x0s.size(); ++i) {
      if (x0s[i].empty()) continue;
      std::copy(x0s[i].begin(), x0s[i].end(),
                x.col(static_cast<la::Index>(i)).begin());
    }
    auto results =
        solver::block_flexible_pcg(*a_, *m_inv_, b, x, solve_options());
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      const auto col = x.col(static_cast<la::Index>(i));
      xs[i].assign(col.begin(), col.end());
    }
    return results;
  }
  std::vector<solver::SolveResult> results;
  results.reserve(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    xs[i].assign(rhs[i].size(), 0.0);
    const bool seeded = i < x0s.size() && !x0s[i].empty();
    results.push_back(solve(rhs[i], xs[i], seeded ? x0s[i] : std::span<const double>{}));
  }
  return results;
}

std::size_t SolverSession::memory_bytes() const {
  if (!ready()) return 0;
  // Operator CSR views (shared with the caller, but the cache's copy owns
  // them) ...
  std::size_t bytes =
      static_cast<std::size_t>(a_->rows() + 1) * sizeof(la::Offset) +
      static_cast<std::size_t>(a_->nnz()) *
          (sizeof(la::Index) + sizeof(double));
  // ... plus decomposition node lists and a dense-factor-style bound on the
  // per-subdomain solver state (Cholesky envelopes / DSS topologies).
  if (dec_) {
    bytes += static_cast<std::size_t>(dec_->num_nodes()) *
             (sizeof(la::Index) + sizeof(double));
    for (const auto& nodes : dec_->subdomains) {
      bytes += nodes.size() * sizeof(la::Index);
      bytes += nodes.size() * nodes.size() * sizeof(double);
    }
  }
  // One concurrent solve's worth of apply-workspace scratch. Per-call
  // workspaces replaced the old `static thread_local` DSS buffers, which
  // this estimate used to omit entirely; counting one solve keeps the
  // SessionCache byte budget honest for the common one-client-per-session
  // case (heavier fan-in scales the transient scratch, not the cached state).
  if (m_inv_) bytes += m_inv_->workspace_bytes();
  // The GNN local solver additionally holds per-topology attr-projection
  // caches (the factorized inference engine's setup-time precompute) and the
  // block path's merged-shard plan cache; count both so the SessionCache
  // byte budget stays honest for ddm-gnn sessions. Plans are built lazily
  // per column count, so this (intentionally coarse) estimate grows after
  // the first solve_many.
  if (const auto* schwarz =
          dynamic_cast<const precond::AdditiveSchwarz*>(m_inv_.get())) {
    // Coarse-correction state: the smoothed-aggregation hierarchy (level
    // operators, transfers and the dense coarsest factor).
    if (const auto* coarse = schwarz->coarse()) {
      bytes += coarse->memory_bytes();
    }
    if (const auto* gnn_local = dynamic_cast<const GnnSubdomainSolver*>(
            &schwarz->local_solver())) {
      for (const auto& cache : gnn_local->edge_caches()) {
        if (cache) bytes += cache->bytes();
      }
      bytes += gnn_local->plan_cache_bytes();
    }
  }
  return bytes;
}

int SolverSession::batch_width() const {
  return solver::batch_width_for(method_, apply_flops_, rows());
}

const precond::Preconditioner& SolverSession::preconditioner() const {
  DDMGNN_CHECK(ready(), "SolverSession::preconditioner before setup()");
  return *m_inv_;
}

}  // namespace ddmgnn::core
