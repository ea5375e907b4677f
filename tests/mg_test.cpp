// Coarse-hierarchy tests: automatic depth from the row cap, build
// determinism across thread counts, V-cycle apply determinism and
// block/scalar bitwise equivalence (directly and through AdditiveSchwarz),
// dense-factor shrinkage vs the K×K factor, convergence of the multi-level
// solve against an exact solve on its first coarse level, the
// setup.coarse_space gauge, and concurrent applies of one shared cycle (the
// TSan-meaningful test).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "la/dense.hpp"
#include "la/multivector.hpp"
#include "mesh/generator.hpp"
#include "mg/hierarchy.hpp"
#include "mg/vcycle.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "solver/krylov.hpp"

#if defined(__SANITIZE_THREAD__)
#define DDMGNN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DDMGNN_TSAN 1
#endif
#endif

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

// Restore the ambient thread count when a test returns.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

// Thread counts the determinism sweeps cover. Under TSan the CI pins
// DDMGNN_THREADS=1 (libgomp is un-instrumented), so only the serial point
// runs there; the std::thread concurrency test below is the TSan content.
std::vector<int> sweep_threads() {
#ifdef DDMGNN_TSAN
  return {1};
#else
  return {1, 2, 4};
#endif
}

struct Fixture {
  mesh::Mesh m;
  fem::PoissonProblem prob;
  partition::Decomposition dec;
};

/// `parts` subdomains, so the level-1 operator has `parts` rows. Above
/// mg::kMaxCoarseRows the hierarchy coarsens further.
Fixture make_fixture(std::uint64_t seed, Index nodes, Index parts) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  auto dec = partition::decompose(m.adj_ptr(), m.adj(), parts, 2, seed);
  return {std::move(m), std::move(prob), std::move(dec)};
}

/// K = 300 > kMaxCoarseRows: a genuinely multi-level hierarchy.
Fixture deep_fixture(std::uint64_t seed) {
  return make_fixture(seed, 9000, 300);
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_matrix(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_TRUE(std::equal(a.row_ptr().begin(), a.row_ptr().end(),
                         b.row_ptr().begin()));
  EXPECT_TRUE(std::equal(a.col_idx().begin(), a.col_idx().end(),
                         b.col_idx().begin()));
  EXPECT_TRUE(bitwise_equal(a.values(), b.values()));
}

TEST(Hierarchy, DepthFollowsTheCoarseRowCap) {
  // K ≤ cap: exactly one coarse level of K rows (a two-level method).
  const Fixture shallow = make_fixture(90, 2000, 24);
  const mg::Hierarchy h1 = mg::build_hierarchy(shallow.prob.A, shallow.dec, 0);
  ASSERT_EQ(h1.num_coarse_levels(), 1);
  EXPECT_EQ(h1.levels[0].A.rows(), 24);

  // K > cap: at least two coarse levels, the first of K rows and the
  // coarsest within the cap.
  const Fixture deep = deep_fixture(91);
  ASSERT_GT(deep.dec.num_parts, mg::kMaxCoarseRows);
  const mg::Hierarchy h2 = mg::build_hierarchy(deep.prob.A, deep.dec, 0);
  ASSERT_GE(h2.num_coarse_levels(), 2);
  EXPECT_EQ(h2.levels[0].A.rows(), deep.dec.num_parts);
  EXPECT_LE(h2.levels.back().A.rows(), mg::kMaxCoarseRows);
}

TEST(Hierarchy, BuildIsBitwiseDeterministicAcrossThreadCounts) {
  ThreadGuard guard;
  const Fixture f = deep_fixture(91);

  set_num_threads(1);
  const mg::Hierarchy ref = mg::build_hierarchy(f.prob.A, f.dec, 0);
  ASSERT_GE(ref.num_coarse_levels(), 2);  // it actually coarsened
  for (const int t : sweep_threads()) {
    set_num_threads(t);
    const mg::Hierarchy h = mg::build_hierarchy(f.prob.A, f.dec, 0);
    ASSERT_EQ(h.num_coarse_levels(), ref.num_coarse_levels()) << t;
    for (int l = 0; l < ref.num_coarse_levels(); ++l) {
      SCOPED_TRACE("threads=" + std::to_string(t) +
                   " level=" + std::to_string(l));
      expect_same_matrix(h.levels[l].A, ref.levels[l].A);
      expect_same_matrix(h.levels[l].P, ref.levels[l].P);
      expect_same_matrix(h.levels[l].R, ref.levels[l].R);
      EXPECT_TRUE(bitwise_equal(h.levels[l].inv_diag, ref.levels[l].inv_diag));
      EXPECT_EQ(h.levels[l].lambda_max, ref.levels[l].lambda_max);
    }
  }
}

TEST(VCycle, ApplyIsBitwiseDeterministicAcrossThreadCounts) {
  ThreadGuard guard;
  const Fixture f = deep_fixture(92);
  set_num_threads(1);
  const mg::VCycle cycle(mg::build_hierarchy(f.prob.A, f.dec, 0));
  ASSERT_GE(cycle.hierarchy().num_coarse_levels(), 2);

  const Index n = f.m.num_nodes();
  Rng rng(93);
  std::vector<double> r(n);
  for (double& v : r) v = rng.uniform(-1, 1);
  std::vector<double> z_ref(n, 0.0);
  cycle.apply_add(r, z_ref);
  for (const int t : sweep_threads()) {
    set_num_threads(t);
    std::vector<double> z(n, 0.0);
    cycle.apply_add(r, z);
    EXPECT_TRUE(bitwise_equal(z, z_ref)) << "threads=" << t;
  }
}

TEST(VCycle, ApplyAddManyMatchesColumnwiseApplyAddBitwise) {
  // One coarse level (K ≤ cap) and a multi-level hierarchy.
  for (const Fixture& f : {make_fixture(94, 2000, 12), deep_fixture(95)}) {
    const mg::VCycle cycle(mg::build_hierarchy(f.prob.A, f.dec, 0));
    const Index n = f.m.num_nodes();
    const Index cols = 3;
    Rng rng(95);
    la::MultiVector r(n, cols), z(n, cols);
    for (Index j = 0; j < cols; ++j) {
      for (double& v : r.col(j)) v = rng.uniform(-1, 1);
      for (double& v : z.col(j)) v = rng.uniform(-1, 1);  // accumulates
    }
    la::MultiVector z_blk = z;
    cycle.apply_add_many(r, z_blk);
    for (Index j = 0; j < cols; ++j) {
      std::vector<double> zc(z.col(j).begin(), z.col(j).end());
      cycle.apply_add(r.col(j), zc);
      EXPECT_TRUE(bitwise_equal(z_blk.col(j), zc))
          << "levels=" << cycle.hierarchy().num_coarse_levels()
          << " col=" << j;
    }
  }
}

TEST(VCycle, AdditiveSchwarzBlockApplyMatchesScalarBitwise) {
  // A block apply gives every column the bits of its scalar apply through
  // the whole ASM (local solves + coarse cycle) chain.
  const Fixture f = deep_fixture(96);
  const precond::AdditiveSchwarz ddm(
      f.prob.A, f.dec, std::make_unique<precond::CholeskySubdomainSolver>());
  ASSERT_NE(ddm.coarse(), nullptr);
  const Index n = f.m.num_nodes();
  const Index cols = 4;
  Rng rng(42);
  la::MultiVector r(n, cols), z(n, cols);
  for (Index j = 0; j < cols; ++j) {
    for (double& v : r.col(j)) v = rng.uniform(-1, 1);
  }
  ddm.apply_many(r, z);
  for (Index j = 0; j < cols; ++j) {
    std::vector<double> zc(n);
    ddm.apply(r.col(j), zc);
    EXPECT_TRUE(bitwise_equal(z.col(j), zc)) << "column " << j;
  }
}

TEST(VCycle, DenseFactorShrinksBelowTheKSquaredFactor) {
  const Fixture f = deep_fixture(96);
  const mg::VCycle cycle(mg::build_hierarchy(f.prob.A, f.dec, 0));
  // A one-shot coarse solve would factor the full K×K operator dense; the
  // hierarchy only dense-factors its (much smaller) coarsest level.
  const auto k = static_cast<std::size_t>(f.dec.num_parts);
  EXPECT_LT(cycle.dense_factor_bytes(), k * k * sizeof(double));
  EXPECT_GT(cycle.memory_bytes(), 0u);
}

TEST(VCycle, ConcurrentSharedAppliesMatchSerial) {
  const Fixture f = deep_fixture(97);
  const mg::VCycle cycle(mg::build_hierarchy(f.prob.A, f.dec, 0));
  const Index n = f.m.num_nodes();
  const int clients = 4;
  std::vector<std::vector<double>> rs(clients), refs(clients);
  Rng rng(98);
  for (int c = 0; c < clients; ++c) {
    rs[c].resize(n);
    for (double& v : rs[c]) v = rng.uniform(-1, 1);
    refs[c].assign(n, 0.0);
    cycle.apply_add(rs[c], refs[c]);
  }
  std::vector<std::vector<double>> zs(clients, std::vector<double>(n, 0.0));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(zs[c].begin(), zs[c].end(), 0.0);
        cycle.apply_add(rs[c], zs[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < clients; ++c) {
    EXPECT_TRUE(bitwise_equal(zs[c], refs[c])) << "client " << c;
  }
}

/// One-level ASM plus an exact solve on the hierarchy's first coarse level:
/// the two-level method the V-cycle approximates once K exceeds the cap.
class ExactFirstCoarseLevel final : public precond::Preconditioner {
 public:
  ExactFirstCoarseLevel(const precond::AdditiveSchwarz& one_level,
                        const mg::CoarseLevel& level)
      : one_level_(one_level),
        level_(level),
        factor_(la::DenseMatrix::from_csr(level.A)) {}

  using Preconditioner::apply;
  std::unique_ptr<precond::ApplyWorkspace> make_workspace() const override {
    return one_level_.make_workspace();
  }
  void apply(std::span<const double> r, std::span<double> z,
             precond::ApplyWorkspace* ws) const override {
    one_level_.apply(r, z, ws);
    std::vector<double> rc(level_.A.rows()), corr(z.size());
    level_.R.multiply(r, rc);
    factor_.solve_inplace(rc);
    level_.P.multiply(rc, corr);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += corr[i];
  }
  std::string name() const override { return "exact-first-coarse-level"; }

 private:
  const precond::AdditiveSchwarz& one_level_;
  const mg::CoarseLevel& level_;
  la::DenseCholesky factor_;
};

TEST(MultiLevel, ConvergesNoWorseThan120PercentOfExactCoarseSolve) {
  const Fixture f = deep_fixture(103);
  const precond::AdditiveSchwarz multi(
      f.prob.A, f.dec, std::make_unique<precond::CholeskySubdomainSolver>());
  ASSERT_NE(multi.coarse(), nullptr);
  const mg::Hierarchy& h = multi.coarse()->hierarchy();
  ASSERT_GE(h.num_coarse_levels(), 2);
  const precond::AdditiveSchwarz one_level(
      f.prob.A, f.dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      precond::AdditiveSchwarz::Config{false});
  const ExactFirstCoarseLevel exact(one_level, h.levels[0]);

  solver::SolveOptions opts;
  opts.rel_tol = 1e-8;
  opts.max_iterations = 2000;
  std::vector<double> x2(f.m.num_nodes(), 0.0);
  const auto res2 = solver::pcg(f.prob.A, exact, f.prob.b, x2, opts);
  ASSERT_TRUE(res2.converged);
  std::vector<double> xm(f.m.num_nodes(), 0.0);
  const auto resm = solver::pcg(f.prob.A, multi, f.prob.b, xm, opts);
  ASSERT_TRUE(resm.converged);
  EXPECT_LE(resm.iterations * 10, res2.iterations * 12);
}

TEST(CoarseSetup, GaugeAdvancesOnADdmLuSetupAboveTheCap) {
  const Fixture f = deep_fixture(104);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 30;  // K ≈ 300 > kMaxCoarseRows
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Gauge& g =
      obs::Registry::instance().gauge("setup.coarse_space_seconds");
  const double before = g.value();
  core::SolverSession session;
  session.setup(f.m, f.prob, cfg);
  const double after = g.value();
  obs::set_metrics_enabled(was_enabled);

  ASSERT_GT(session.num_subdomains(), mg::kMaxCoarseRows);
  const auto* schwarz = dynamic_cast<const precond::AdditiveSchwarz*>(
      &session.preconditioner());
  ASSERT_NE(schwarz, nullptr);
  ASSERT_NE(schwarz->coarse(), nullptr);
  EXPECT_GE(schwarz->coarse()->hierarchy().num_coarse_levels(), 2);
  EXPECT_GT(after, before);
}

}  // namespace
