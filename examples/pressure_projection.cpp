// Domain-specific example: the pressure-Poisson solve of a fractional-step
// incompressible-flow method — the workload the paper's introduction
// motivates (Guermond & Quartapelle's projection scheme). Every time step
// needs one Poisson solve with a *new right-hand side* on the *same* mesh and
// operator; the DDM-GNN preconditioner amortizes its setup (partition,
// graphs) across all steps, exactly the usage pattern intended for CFD codes.
//
// The velocity field here is synthetic (a decaying swirl); what matters is
// the solver loop: assemble once, re-solve many times to tight tolerance.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/options.hpp"
#include "common/timer.hpp"
#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "mesh/generator.hpp"

int main() {
  using namespace ddmgnn;
  std::printf("=== Pressure-projection loop with a reusable DDM-GNN "
              "preconditioner ===\n");

  // Model from the zoo (trains on first use, cached afterwards).
  const core::ZooSpec spec = core::default_spec(10, 10);
  const gnn::DssModel model = core::get_or_train_model(spec);

  // One channel-like domain and operator for the whole simulation.
  const std::uint64_t seed = 2024;
  const mesh::Mesh m = mesh::generate_mesh_target_nodes(
      mesh::random_domain(seed), 3 * spec.dataset.mesh_target_nodes, seed);
  const auto prob = fem::assemble_poisson(
      m, [](const mesh::Point2&) { return 0.0; },
      [](const mesh::Point2&) { return 0.0; });
  std::printf("mesh: %d nodes\n", m.num_nodes());

  // Open the session ONCE: partition, DSS graphs and coarse space are built
  // here and amortized across all time steps.
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.subdomain_target_nodes = spec.dataset.subdomain_target_nodes;
  cfg.overlap = 2;
  cfg.rel_tol = 1e-6;  // fractional-step methods need tight pressures
  cfg.max_iterations = 2000;
  cfg.model = &model;
  cfg.seed = seed;
  cfg.track_history = false;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::printf("setup: K=%d subdomains in %.3fs\n", session.num_subdomains(),
              session.setup_seconds());

  // Time stepping: div(u*) drives the pressure Poisson equation. The
  // synthetic divergence field depends only on the step time, so a window
  // of steps can be assembled up front and solved by one solve_many call.
  // When the DSS apply outweighs the block window work (batch_width() > 1)
  // all pressures advance together, every block iteration paying one SpMM
  // and one disjoint-union DSS inference instead of one preconditioner
  // application per step; otherwise solve_many loops scalar solves.
  const int num_steps = bench_scale() == BenchScale::kSmoke ? 3 : 8;
  const auto pts = m.points();
  std::vector<std::vector<double>> rhs(num_steps);
  for (int step = 0; step < num_steps; ++step) {
    const double t = 0.05 * step;
    // Synthetic intermediate-velocity divergence: decaying swirl + drift.
    auto& b = rhs[step];
    b.resize(prob.b.size());
    for (la::Index i = 0; i < m.num_nodes(); ++i) {
      if (prob.dirichlet[i]) {
        b[i] = 0.0;
        continue;
      }
      const double x = pts[i].x, y = pts[i].y;
      b[i] = std::exp(-0.8 * t) *
             (std::sin(3.0 * x + t) * std::cos(2.0 * y) +
              0.3 * std::cos(5.0 * y - t));
    }
  }
  Timer loop;
  std::vector<std::vector<double>> pressures;
  const auto results = session.solve_many(rhs, pressures);
  // Batched columns share block iterations, so the window costs their
  // maximum; scalar solves cost their sum.
  const bool batched = results.front().method.rfind("block-", 0) == 0;
  int iterations = 0;
  for (int step = 0; step < num_steps; ++step) {
    const auto& res = results[step];
    iterations = batched ? std::max(iterations, res.iterations)
                         : iterations + res.iterations;
    std::printf("  step %2d: iters=%-4d rel_res=%.2e  (%s)\n", step,
                res.iterations, res.final_relative_residual,
                res.method.c_str());
    if (!res.converged) {
      std::printf("  step %2d did not converge!\n", step);
      return 1;
    }
  }
  std::printf("total: %d steps, %d %s iterations, %.2fs after one-time "
              "setup (%s)\n",
              num_steps, iterations, batched ? "block" : "scalar",
              loop.seconds(),
              batched ? "batched solve_many" : "solve_many as a scalar loop");
  return 0;
}
