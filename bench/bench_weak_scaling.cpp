// Weak-scaling study of the coarse correction (ours — quantifies the
// paper's §II-A/§V claim that the coarse correction makes the
// preconditioner scalable): fix the subdomain size Ns = 100, grow the global
// problem so K ∝ N, and solve at 1 and 4 threads. ddm-lu runs up to
// N ≈ 200k (K ≈ 2000), where a dense K×K coarse factor would hold ≥ 32 MB;
// the coarse hierarchy instead coarsens until at most mg::kMaxCoarseRows
// rows remain. ddm-gnn runs at the sizes its DSS inference finishes in
// reasonable time.
//
// Every (precond, N, threads) point runs in a fresh child process of this
// binary (`--point NAME NODES --threads T`), so each record's peak RSS is
// that point's own. Emits artifacts/bench_weak_scaling.json with one record
// per point: setup and solve seconds, iterations, coarse levels with rows
// and nnz per level, coarse and dense-factor bytes, and peak RSS.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "mg/vcycle.hpp"
#include "precond/asm_precond.hpp"
#include "precond/registry.hpp"

namespace {

using namespace ddmgnn;

constexpr la::Index kSubdomainNodes = 100;
constexpr const char* kRecordTag = "RECORD ";

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// One point, in this (child) process: prints a table row and a tagged JSON
// record line for the parent to collect.
int run_point(const std::string& name, la::Index nodes, int threads) {
  std::optional<gnn::DssModel> model;
  if (precond::preconditioner_traits(name).needs_model) {
    model = core::get_or_train_model(core::default_spec(10, 10));
  }
  auto [m, prob] = bench::make_problem(nodes, 2222);
  core::HybridConfig cfg;
  cfg.preconditioner = name;
  cfg.subdomain_target_nodes = kSubdomainNodes;
  cfg.rel_tol = 1e-6;
  cfg.max_iterations = 4000;
  cfg.model = model ? &*model : nullptr;
  cfg.track_history = false;

  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<double> x(m.num_nodes(), 0.0);
  const double t0 = now_seconds();
  const solver::SolveResult res = session.solve(prob.b, x);
  const double solve_seconds = now_seconds() - t0;

  const auto* schwarz =
      dynamic_cast<const precond::AdditiveSchwarz*>(&session.preconditioner());
  DDMGNN_CHECK(schwarz != nullptr && schwarz->coarse() != nullptr,
               "weak-scaling bench expects a two-level ASM");
  const mg::VCycle& coarse = *schwarz->coarse();
  std::vector<long> level_rows, level_nnz;
  for (const la::Index r : coarse.hierarchy().level_rows())
    level_rows.push_back(r);
  for (const la::Offset z : coarse.hierarchy().level_nnz())
    level_nnz.push_back(z);
  const double rss = peak_rss_mb();

  std::string rows_str;
  for (std::size_t i = 0; i < level_rows.size(); ++i)
    rows_str += (i ? ">" : "") + std::to_string(level_rows[i]);
  std::printf("%8s %7d %5d %2d | %5d %8.3f %8.3f | %10zu %10zu %7.1f | %s%s\n",
              name.c_str(), m.num_nodes(), session.num_subdomains(), threads,
              res.converged ? res.iterations : -1, session.setup_seconds(),
              solve_seconds, coarse.memory_bytes(),
              coarse.dense_factor_bytes(), rss, rows_str.c_str(),
              res.converged ? "" : "  (DIVERGED)");
  const bench::JsonRecord rec =
      bench::JsonRecord()
          .add("record", std::string("run"))
          .add("precond", name)
          .add("n", m.num_nodes())
          .add("k", static_cast<int>(session.num_subdomains()))
          .add("threads", threads)
          .add("coarse_levels", coarse.hierarchy().num_coarse_levels())
          .add("level_rows", level_rows)
          .add("level_nnz", level_nnz)
          .add("setup_seconds", session.setup_seconds())
          .add("solve_seconds", solve_seconds)
          .add("precond_seconds", res.precond_seconds)
          .add("iters", res.iterations)
          .add("converged", res.converged)
          .add("rel_residual", res.final_relative_residual)
          .add("coarse_memory_bytes",
               static_cast<double>(coarse.memory_bytes()))
          .add("dense_factor_bytes",
               static_cast<double>(coarse.dense_factor_bytes()))
          .add("peak_rss_mb", rss);
  std::printf("%s%s\n", kRecordTag, rec.str().c_str());
  return res.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 2 < argc; ++i) {  // --point NAME NODES --threads T
    if (std::strcmp(argv[i], "--point") == 0) {
      const int threads = bench::apply_thread_flag(argc, argv);
      return run_point(argv[i + 1], std::atoi(argv[i + 2]), threads);
    }
  }

  bench::print_header("Weak scaling of the coarse correction (Ns = 100)");
  // Train (or load) the model once, before any child needs it, so no point
  // pays for training in its peak RSS.
  core::get_or_train_model(core::default_spec(10, 10));

  std::vector<int> lu_nodes, gnn_nodes;
  switch (bench_scale()) {
    case BenchScale::kSmoke:
      lu_nodes = {2000, 30000};
      gnn_nodes = {2000};
      break;
    default:
      lu_nodes = {5000, 25000, 50000, 100000, 200000};
      gnn_nodes = {5000, 20000};
      break;
  }
  std::printf("%8s %7s %5s %2s | %5s %8s %8s | %10s %10s %7s | %s\n",
              "precond", "N", "K", "t", "iters", "setup_s", "solve_s",
              "coarse_B", "factor_B", "rss_MB", "level rows");
  std::fflush(stdout);

  std::vector<std::string> records;
  bool ok = true;
  for (const int threads : {1, 4}) {
    for (const auto& [name, sizes] :
         {std::pair{"ddm-lu", lu_nodes}, std::pair{"ddm-gnn", gnn_nodes}}) {
      for (const int nodes : sizes) {
        const std::string cmd = std::string(argv[0]) + " --point " + name +
                                " " + std::to_string(nodes) + " --threads " +
                                std::to_string(threads);
        FILE* child = popen(cmd.c_str(), "r");
        DDMGNN_CHECK(child != nullptr, "cannot start " + cmd);
        char line[4096];
        while (std::fgets(line, sizeof(line), child) != nullptr) {
          std::string s(line);
          if (s.rfind(kRecordTag, 0) == 0) {
            while (!s.empty() && s.back() == '\n') s.pop_back();
            records.push_back(s.substr(std::string(kRecordTag).size()));
          } else {
            std::fputs(line, stdout);
          }
        }
        const int status = pclose(child);
        if (status != 0) {
          std::printf("point %s N=%d threads=%d exited with status %d\n",
                      name, nodes, threads, status);
          ok = false;
        }
        std::fflush(stdout);
      }
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(artifact_dir(), ec);
  const std::string path = artifact_dir() + "/bench_weak_scaling.json";
  std::ofstream out(path);
  out << "[\n  " << bench::meta_record().str();
  for (const std::string& r : records) out << ",\n  " << r;
  out << "\n]\n";
  std::printf("\nwrote %s\n", path.c_str());
  return ok ? 0 : 1;
}
