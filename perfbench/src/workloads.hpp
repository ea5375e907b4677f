// The benchmark's workloads and its pinned GNN model, each defined in one
// place. Every HybridConfig field a workload depends on is set in its
// function below, so folding a knob into a library default is a one-line
// edit here. Load is fixed in absolute numbers (problem size and seed,
// offered rate, in-flight count); nothing is calibrated from the build
// under test. Why each workload exists is in perfbench/NOTES.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/model_zoo.hpp"
#include "core/solve_service.hpp"
#include "core/solver_session.hpp"

namespace perfbench {

using namespace ddmgnn;

enum class Kind {
  kDirect,         // one closed-loop client calling SolverSession::solve
  kServiceClosed,  // SolveService, a fixed number of requests in flight
  kServiceOpen,    // SolveService, seeded Poisson arrivals at a fixed rate
};

struct Workload {
  std::string name;
  Kind kind = Kind::kDirect;
  /// bench::make_problem(nodes, problem_seed): the operator is the same in
  /// every run; --seed only draws the right-hand sides and arrival times.
  la::Index nodes = 0;
  std::uint64_t problem_seed = 0;
  /// Library-internal OpenMP threads (set_num_threads).
  int inner_threads = 1;
  bool needs_model = false;
  /// cfg.model is filled in at run time with the pinned model.
  core::HybridConfig cfg;
  /// Service workloads: library defaults except workers and queue capacity.
  core::ServiceConfig service;
  int in_flight = 0;          // kServiceClosed
  double rate_per_s = 0.0;    // kServiceOpen
  /// Fresh SolverSession::setup calls per run, half before and half after
  /// the measured phase; setup_s is their median.
  int setup_reps = 10;
  /// Direct workloads keep solving past --seconds until they hold this many.
  int min_solves = 1;
};

inline core::HybridConfig base_config() {
  core::HybridConfig cfg;
  cfg.subdomain_target_nodes = 350;  // Ns the pinned model is trained at
  cfg.overlap = 2;
  cfg.rel_tol = 1e-6;
  cfg.track_history = false;
  cfg.seed = 0;
  return cfg;
}

inline Workload lu_large() {
  Workload w;
  w.name = "lu-large";
  w.kind = Kind::kDirect;
  w.nodes = 35000;
  w.problem_seed = 11;
  w.inner_threads = 4;
  w.cfg = base_config();
  w.cfg.preconditioner = "ddm-lu";
  w.cfg.method = solver::KrylovMethod::kPcg;
  w.cfg.max_iterations = 2000;
  w.min_solves = 20;
  return w;
}

inline Workload gnn_paper() {
  Workload w;
  w.name = "gnn-paper";
  w.kind = Kind::kDirect;
  w.nodes = 1500;
  w.problem_seed = 7;  // n = 1551, K = 4: one subdomain per inner thread
  w.inner_threads = 4;
  w.needs_model = true;
  w.cfg = base_config();
  w.cfg.preconditioner = "ddm-gnn";
  w.cfg.method = solver::KrylovMethod::kFpcg;
  w.cfg.max_iterations = 2000;
  w.cfg.gnn_refinement_steps = 0;
  w.cfg.gnn_adaptive_refinement = false;
  w.cfg.gnn_cost_aware_fallback = false;
  w.cfg.precond_fp32 = false;
  w.min_solves = 10;
  return w;
}

/// The served configuration: adaptive refinement with the cost model on and
/// fp32 applies (method left to the library default, which is FPCG here).
inline Workload served(const char* name, Kind kind) {
  Workload w;
  w.name = name;
  w.kind = kind;
  w.nodes = 2200;
  w.problem_seed = 7;
  w.inner_threads = 1;
  w.needs_model = true;
  w.cfg = base_config();
  w.cfg.preconditioner = "ddm-gnn";
  w.cfg.max_iterations = 500;
  w.cfg.gnn_adaptive_refinement = true;
  w.cfg.gnn_cost_aware_fallback = true;
  w.cfg.precond_fp32 = true;
  w.service.num_workers = 2;
  w.service.queue_capacity = 256;
  return w;
}

inline Workload svc_closed() {
  Workload w = served("svc-closed", Kind::kServiceClosed);
  w.in_flight = 16;
  return w;
}

inline Workload svc_open() {
  Workload w = served("svc-open", Kind::kServiceOpen);
  w.rate_per_s = 50.0;
  return w;
}

inline std::optional<Workload> find_workload(const std::string& name) {
  for (Workload w : {lu_large(), gnn_paper(), svc_closed(), svc_open()}) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

/// The pinned DSS model: a fixed epoch count with no wall-clock budget,
/// fixed seeds, trained at a fixed thread count, so its weights (and the
/// gnn-paper iteration counts) do not depend on machine speed. One thread:
/// the trainer hands samples to threads with schedule(dynamic), so at more
/// threads the per-thread gradient sums, and the weights, vary run to run.
constexpr int kTrainThreads = 1;

inline core::ZooSpec pinned_model_spec() {
  core::ZooSpec spec;
  spec.model.iterations = 10;
  spec.model.latent = 10;
  spec.model.hidden = 10;
  spec.model.alpha = 0.05f;
  spec.model.dirichlet_flag = true;
  spec.dataset.num_global_problems = 2;
  spec.dataset.mesh_target_nodes = 1400;
  spec.dataset.subdomain_target_nodes = 350;
  spec.dataset.seed = 4242;
  spec.training.epochs = 30;
  spec.training.batch_size = 32;
  spec.training.learning_rate = 1e-2;
  spec.training.clip_norm = 0.1;
  spec.training.wall_clock_budget_s = 0.0;
  spec.training.seed = 97;
  spec.tag = "perfbench";
  return spec;
}

}  // namespace perfbench
