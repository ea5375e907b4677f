// Multi-RHS throughput: a sequential solve() loop vs one solve_many call,
// at s = 1 / 4 / 16 (/ 64 at paper scale) right-hand sides for ddm-lu and
// raw ddm-gnn. solve_many runs block FPCG when the session's batch_width()
// is above 1 (raw ddm-gnn: one DSS inference per subdomain outweighs the
// block window work) and the same scalar loop otherwise (ddm-lu, the
// control: its speedup reads ≈1). This is the repository's measurement of
// the paper's batching claim (Eq. 14) on the block side of that rule:
// amortizing the preconditioner across right-hand sides — one SpMM + one
// disjoint-union DSS inference per block iteration, plus the shared search
// space cutting the iteration count — is where the multi-RHS speed lives.
//
// Emits artifacts/bench_multi_rhs.json: one record per (precond, s) with
// the session's batch width, both arms' wall time, per-RHS throughput,
// iteration totals and residual checks.
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "la/vector_ops.hpp"

int main(int argc, char** argv) {
  using namespace ddmgnn;
  bench::print_header(
      "Multi-RHS solve engine: sequential loop vs solve_many");

  la::Index target_nodes = 2500;
  std::vector<int> sizes{1, 4, 16};
  switch (bench_scale()) {
    case BenchScale::kSmoke:
      target_nodes = 1200;
      sizes = {1, 4};
      break;
    case BenchScale::kPaper:
      target_nodes = 8000;
      sizes = {1, 4, 16, 64};
      break;
    default: break;
  }
  const std::uint64_t seed = 2024;
  // --matrix file.mtx [--rhs b.mtx] swaps the generated FEM problem for an
  // external operator (algebraic setup path) so the perf trajectory can
  // include systems the repo never assembled.
  const bench::AnyProblem any =
      bench::load_or_make_problem(argc, argv, target_nodes, seed);
  const auto& prob = any.prob;
  std::printf("operator: %s, %d nodes, tol 1e-6\n", any.source.c_str(),
              any.num_nodes());

  const core::ZooSpec spec = core::default_spec(10, 10);
  const gnn::DssModel model = core::get_or_train_model(spec);

  const int max_s = sizes.back();
  std::vector<std::vector<double>> all_rhs(max_s);
  {
    Rng rng(seed);
    for (int j = 0; j < max_s; ++j) {
      all_rhs[j].resize(prob.b.size());
      for (std::size_t i = 0; i < all_rhs[j].size(); ++i) {
        all_rhs[j][i] = prob.dirichlet[i] ? 0.0 : rng.uniform(-1.0, 1.0);
      }
    }
  }

  std::vector<bench::JsonRecord> records;
  for (const std::string precond : {std::string("ddm-lu"),
                                    std::string("ddm-gnn")}) {
    core::HybridConfig cfg;
    cfg.preconditioner = precond;
    cfg.subdomain_target_nodes = 300;
    cfg.overlap = 2;
    cfg.rel_tol = 1e-6;
    cfg.max_iterations = 2000;
    cfg.track_history = false;
    cfg.seed = seed;
    if (precond == "ddm-gnn") cfg.model = &model;

    core::SolverSession session;
    any.setup_session(session, cfg);
    std::printf(
        "\n%s: K=%d subdomains, batch width %s (setup %.2fs, shared by both "
        "modes)\n",
        precond.c_str(), session.num_subdomains(),
        session.batch_width() > 1 ? "unbounded" : "1",
        session.setup_seconds());
    std::printf("  %4s | %10s | %10s | %7s | %9s | %9s\n", "s", "seq [s]",
                "block [s]", "speedup", "seq iters", "blk iters");

    for (const int s : sizes) {
      const std::span<const std::vector<double>> rhs(all_rhs.data(),
                                                     static_cast<std::size_t>(s));
      std::vector<std::vector<double>> xs_blk;

      // Sequential arm: one scalar solve per right-hand side.
      std::vector<solver::SolveResult> res_seq;
      Timer t_seq;
      for (const auto& b : rhs) {
        std::vector<double> x(b.size(), 0.0);
        res_seq.push_back(session.solve(b, x));
      }
      const double seq_s = t_seq.seconds();

      Timer t_blk;
      const auto res_blk = session.solve_many(rhs, xs_blk);
      const double blk_s = t_blk.seconds();

      int seq_iters = 0, blk_iters = 0;
      bool all_ok = true;
      double worst_res = 0.0;
      for (int j = 0; j < s; ++j) {
        seq_iters += res_seq[j].iterations;
        blk_iters = std::max(blk_iters, res_blk[j].iterations);
        all_ok = all_ok && res_seq[j].converged && res_blk[j].converged;
        worst_res = std::max(worst_res,
                             fem::relative_residual(prob.A, rhs[j], xs_blk[j]));
      }
      const double speedup = blk_s > 0.0 ? seq_s / blk_s : 0.0;
      std::printf("  %4d | %10.3f | %10.3f | %6.2fx | %9d | %9d  %s\n", s,
                  seq_s, blk_s, speedup, seq_iters, blk_iters,
                  all_ok ? "" : "NOT CONVERGED");

      bench::JsonRecord rec;
      rec.add("precond", precond)
          .add("source", any.source)
          .add("num_rhs", s)
          .add("nodes", static_cast<int>(any.num_nodes()))
          .add("subdomains", static_cast<int>(session.num_subdomains()))
          .add("block_path", session.batch_width() > 1)
          .add("seq_seconds", seq_s)
          .add("block_seconds", blk_s)
          .add("speedup", speedup)
          .add("seq_rhs_per_second", seq_s > 0.0 ? s / seq_s : 0.0)
          .add("block_rhs_per_second", blk_s > 0.0 ? s / blk_s : 0.0)
          .add("seq_total_iters", seq_iters)
          .add("block_iters", blk_iters)
          .add("worst_block_rel_residual", worst_res)
          .add("all_converged", all_ok);
      records.push_back(rec);
    }
  }

  const std::string out = artifact_dir() + "/bench_multi_rhs.json";
  bench::write_json(out, records);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
