// SolveService behavior: each operator's window width follows the flop
// model (raw ddm-gnn batches, ddm-lu and the served ddm-gnn run one request
// per window), batched windows return bitwise what the direct
// session paths return for the same window composition, backpressure honors
// the queue cap under both admission policies, QoS deadlines shrink windows,
// shutdown drains every admitted future, warm starts converge immediately,
// and a multi-producer stress run (the TSan CI target) completes every
// request exactly once.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/session_cache.hpp"
#include "core/solve_service.hpp"
#include "gnn/dss_model.hpp"
#include "la/vector_ops.hpp"
#include "solver/block_krylov.hpp"

namespace {

using namespace ddmgnn;
using namespace std::chrono_literals;
using la::Index;

la::CsrMatrix grid_laplacian(Index side, double shift) {
  const Index n = side * side;
  la::CooBuilder coo(n, n);
  for (Index r = 0; r < side; ++r) {
    for (Index c = 0; c < side; ++c) {
      const Index i = r * side + c;
      coo.add(i, i, 4.0 + shift);
      if (r > 0) coo.add(i, i - side, -1.0);
      if (r + 1 < side) coo.add(i, i + side, -1.0);
      if (c > 0) coo.add(i, i - 1, -1.0);
      if (c + 1 < side) coo.add(i, i + 1, -1.0);
    }
  }
  return std::move(coo).build();
}

core::HybridConfig lu_config() {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 200;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;
  return cfg;
}

/// Untrained model of the pinned benchmark shape (k̄=10, d=10, hidden=10):
/// the weights do not matter for window formation, the shape sets the flops.
gnn::DssModel paper_shape_model() {
  gnn::DssConfig mc;
  mc.iterations = 10;
  mc.latent = 10;
  mc.hidden = 10;
  return gnn::DssModel(mc, /*seed=*/3);
}

/// Raw ddm-gnn: a DSS inference on every subdomain, fp64 FPCG — the one
/// configuration whose preconditioner outweighs the block window work.
core::HybridConfig raw_gnn_config(const gnn::DssModel& model) {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.subdomain_target_nodes = 100;
  cfg.rel_tol = 1e-6;
  cfg.track_history = false;
  cfg.model = &model;
  return cfg;
}

/// The served ddm-gnn: adaptive setup with the cost-aware fallback and fp32
/// applies, which routes every subdomain to its fp32 Cholesky factor.
core::HybridConfig served_config(const gnn::DssModel& model) {
  core::HybridConfig cfg = raw_gnn_config(model);
  cfg.gnn_adaptive_refinement = true;
  cfg.gnn_cost_aware_fallback = true;
  cfg.precond_fp32 = true;
  return cfg;
}

std::vector<double> random_rhs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

/// A paused service admits without executing, so tests compose windows
/// deterministically: submit exactly the batch, then resume.
core::ServiceConfig paused_friendly(int max_batch,
                                    std::chrono::microseconds max_wait) {
  core::ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = max_batch;
  cfg.max_wait = max_wait;
  return cfg;
}

TEST(SolveServiceWidth, RuleBatchesOnlyFpcgWithADearApply) {
  using solver::KrylovMethod;
  const Index n = 1000;
  const double threshold = solver::kBatchPaysFlopsPerRow * n;
  constexpr int kUncapped = std::numeric_limits<int>::max();
  EXPECT_EQ(solver::batch_width_for(KrylovMethod::kFpcg, threshold, n),
            kUncapped);
  EXPECT_EQ(solver::batch_width_for(KrylovMethod::kFpcg, 40 * threshold, n),
            kUncapped);
  EXPECT_EQ(solver::batch_width_for(KrylovMethod::kFpcg, 0.99 * threshold, n),
            1);
  EXPECT_EQ(solver::batch_width_for(KrylovMethod::kFpcg, 0.0, n), 1);
  // Only flexible PCG has a block form.
  for (const KrylovMethod m :
       {KrylovMethod::kPcg, KrylovMethod::kCg, KrylovMethod::kGmres}) {
    EXPECT_EQ(solver::batch_width_for(m, 40 * threshold, n), 1);
  }
}

TEST(SolveServiceWidth, SessionsGetTheirWidthFromTheFlopModel) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const gnn::DssModel paper = paper_shape_model();
  core::SessionCache cache(1u << 30);

  const auto lu = cache.get_or_setup(A, lu_config());
  EXPECT_EQ(lu->batch_width(), 1);
  const auto served = cache.get_or_setup(A, served_config(paper));
  EXPECT_EQ(served->method(), solver::KrylovMethod::kFpcg);
  EXPECT_EQ(served->batch_width(), 1);
  // Raw ddm-gnn at the paper shape: one apply costs several full windows.
  const auto raw = cache.get_or_setup(A, raw_gnn_config(paper));
  EXPECT_GT(raw->preconditioner().apply_flops(),
            solver::kBatchPaysFlopsPerRow * static_cast<double>(A.rows()));
  EXPECT_EQ(raw->batch_width(), std::numeric_limits<int>::max());
  // A small model (k̄=2, d=4, hidden=4) is cheap enough to run unbatched.
  gnn::DssConfig small;
  small.iterations = 2;
  small.latent = 4;
  small.hidden = 4;
  const gnn::DssModel tiny(small, /*seed=*/7);
  EXPECT_EQ(cache.get_or_setup(A, raw_gnn_config(tiny))->batch_width(), 1);

  core::SolveService svc(cache, paused_friendly(/*max_batch=*/8, 50ms));
  EXPECT_EQ(svc.batch_width(svc.register_operator(A, lu_config())), 1u);
  EXPECT_EQ(svc.batch_width(svc.register_operator(A, served_config(paper))),
            1u);
  EXPECT_EQ(svc.batch_width(svc.register_operator(A, raw_gnn_config(paper))),
            8u);
}

TEST(SolveServiceWidth, WidthOneOperatorsRunEachRequestAsADirectSolve) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const gnn::DssModel paper = paper_shape_model();
  core::SessionCache cache(1u << 30);
  for (const core::HybridConfig& cfg : {lu_config(), served_config(paper)}) {
    auto direct = cache.get_or_setup(A, cfg);
    core::SolveService svc(cache, paused_friendly(/*max_batch=*/8, 1h));
    const auto op = svc.register_operator(A, cfg);
    ASSERT_EQ(svc.batch_width(op), 1u);
    svc.pause();
    std::vector<std::vector<double>> bs;
    std::vector<std::future<core::SolveService::Reply>> futs;
    for (int i = 0; i < 8; ++i) {
      bs.push_back(random_rhs(static_cast<std::size_t>(A.rows()),
                              300 + static_cast<std::uint64_t>(i)));
      auto fut = svc.submit(op, bs.back());
      ASSERT_TRUE(fut.has_value());
      futs.push_back(std::move(*fut));
    }
    // A width-1 queue is due at once: the hour-long max_wait never applies.
    svc.resume();
    for (int i = 0; i < 8; ++i) {
      const auto reply = futs[static_cast<std::size_t>(i)].get();
      const auto& b = bs[static_cast<std::size_t>(i)];
      std::vector<double> x_direct(b.size(), 0.0);
      const auto res = direct->solve(b, x_direct);
      EXPECT_TRUE(reply.result.converged) << cfg.preconditioner;
      EXPECT_EQ(reply.batch_columns, 1);
      EXPECT_EQ(reply.result.iterations, res.iterations);
      for (std::size_t j = 0; j < b.size(); ++j) {
        EXPECT_EQ(reply.x[j], x_direct[j]) << "col=" << i << " row=" << j;
      }
    }
    const auto st = svc.stats();
    EXPECT_EQ(st.windows, 8u);
    EXPECT_EQ(st.max_window, 1u);
  }
}

TEST(SolveServiceWindow, BatchedWindowBitwiseEqualsDirectSolveMany) {
  // Raw ddm-gnn at the paper shape is the operator whose windows batch.
  const la::CsrMatrix A = grid_laplacian(8, 0.0);
  const gnn::DssModel model = paper_shape_model();
  const core::HybridConfig cfg = raw_gnn_config(model);
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);

  for (const int s : {2, 3, 5}) {
    core::SolveService svc(cache, paused_friendly(/*max_batch=*/8, 50ms));
    const auto op = svc.register_operator(A, cfg);
    ASSERT_EQ(svc.batch_width(op), 8u);
    svc.pause();
    std::vector<std::vector<double>> bs;
    std::vector<std::future<core::SolveService::Reply>> futs;
    for (int i = 0; i < s; ++i) {
      bs.push_back(random_rhs(static_cast<std::size_t>(A.rows()),
                              100 + 7 * static_cast<std::uint64_t>(i)));
      auto fut = svc.submit(op, bs.back());
      ASSERT_TRUE(fut.has_value());
      futs.push_back(std::move(*fut));
    }
    svc.resume();

    // The same batch through the direct session path, same column order.
    std::vector<std::vector<double>> xs_direct;
    const auto res_direct = direct->solve_many(bs, xs_direct);

    for (int i = 0; i < s; ++i) {
      const auto reply = futs[static_cast<std::size_t>(i)].get();
      EXPECT_TRUE(reply.result.converged);
      EXPECT_EQ(reply.batch_columns, s) << "window did not merge all " << s;
      EXPECT_EQ(reply.result.iterations,
                res_direct[static_cast<std::size_t>(i)].iterations);
      ASSERT_EQ(reply.x.size(), xs_direct[static_cast<std::size_t>(i)].size());
      for (std::size_t j = 0; j < reply.x.size(); ++j) {
        // Bitwise: the window executes the identical solve_many call.
        EXPECT_EQ(reply.x[j], xs_direct[static_cast<std::size_t>(i)][j])
            << "s=" << s << " col=" << i << " row=" << j;
      }
    }
  }
}

TEST(SolveServiceWindow, SingletonWindowBitwiseEqualsDirectSolve) {
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);

  core::SolveService svc(cache, paused_friendly(/*max_batch=*/1, 1ms));
  const auto op = svc.register_operator(A, cfg);
  const auto b = random_rhs(static_cast<std::size_t>(A.rows()), 42);
  auto fut = svc.submit(op, b);
  ASSERT_TRUE(fut.has_value());
  const auto reply = fut->get();
  EXPECT_EQ(reply.batch_columns, 1);

  std::vector<double> x_direct(b.size(), 0.0);
  const auto res_direct = direct->solve(b, x_direct);
  EXPECT_TRUE(reply.result.converged);
  EXPECT_EQ(reply.result.iterations, res_direct.iterations);
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_EQ(reply.x[j], x_direct[j]) << j;
  }
}

TEST(SolveServiceBackpressure, RejectPolicyBouncesAtCapacity) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg = paused_friendly(/*max_batch=*/8, 50ms);
  scfg.queue_capacity = 4;
  core::SolveService svc(cache, scfg);
  const auto op = svc.register_operator(A, cfg);
  svc.pause();

  core::SubmitOptions reject;
  reject.on_full = core::AdmissionPolicy::kReject;
  std::vector<std::future<core::SolveService::Reply>> futs;
  for (int i = 0; i < 4; ++i) {
    auto fut = svc.submit(op,
                          random_rhs(static_cast<std::size_t>(A.rows()),
                                     static_cast<std::uint64_t>(i)),
                          reject);
    ASSERT_TRUE(fut.has_value()) << i;
    futs.push_back(std::move(*fut));
  }
  EXPECT_EQ(svc.queue_depth(), 4u);
  // Queue full: the 5th submission bounces instead of blocking.
  auto overflow = svc.submit(
      op, random_rhs(static_cast<std::size_t>(A.rows()), 99), reject);
  EXPECT_FALSE(overflow.has_value());
  EXPECT_EQ(svc.stats().rejected, 1u);

  svc.resume();
  for (auto& f : futs) EXPECT_TRUE(f.get().result.converged);
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 4u);
}

TEST(SolveServiceBackpressure, BlockPolicyWaitsForSpace) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg = paused_friendly(/*max_batch=*/2, 50ms);
  scfg.queue_capacity = 2;
  scfg.on_full = core::AdmissionPolicy::kBlock;
  core::SolveService svc(cache, scfg);
  const auto op = svc.register_operator(A, cfg);
  svc.pause();

  std::vector<std::future<core::SolveService::Reply>> futs;
  for (int i = 0; i < 2; ++i) {
    auto fut = svc.submit(op, random_rhs(static_cast<std::size_t>(A.rows()),
                                         static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
  }
  // The third submission must block until the paused service resumes and a
  // worker frees queue space.
  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    auto fut = svc.submit(
        op, random_rhs(static_cast<std::size_t>(A.rows()), 77));
    ASSERT_TRUE(fut.has_value());
    admitted.store(true);
    EXPECT_TRUE(fut->get().result.converged);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(admitted.load()) << "submit returned before space existed";
  svc.resume();
  blocked.join();
  EXPECT_TRUE(admitted.load());
  for (auto& f : futs) EXPECT_TRUE(f.get().result.converged);
  EXPECT_EQ(svc.stats().completed, 3u);
  EXPECT_EQ(svc.stats().rejected, 0u);
}

TEST(SolveServiceQoS, EffectiveWindowWaitShrinksWithDeadline) {
  using std::chrono::microseconds;
  // No deadline → the full window wait.
  EXPECT_EQ(core::effective_window_wait(microseconds(2000), microseconds(0)),
            microseconds(2000));
  // A generous deadline changes nothing.
  EXPECT_EQ(
      core::effective_window_wait(microseconds(2000), microseconds(100000)),
      microseconds(2000));
  // A tight deadline caps the wait at half its budget.
  EXPECT_EQ(core::effective_window_wait(microseconds(2000), microseconds(500)),
            microseconds(250));
  // An immediate deadline closes the window at once.
  EXPECT_EQ(core::effective_window_wait(microseconds(2000), microseconds(1)),
            microseconds(0));
}

TEST(SolveServiceQoS, DeadlineClosesWindowEarly) {
  // Raw ddm-gnn batches, so its queue is not due at one request: only the
  // deadline can close this window before max_wait.
  const la::CsrMatrix A = grid_laplacian(6, 0.0);
  const gnn::DssModel model = paper_shape_model();
  const core::HybridConfig cfg = raw_gnn_config(model);
  core::SessionCache cache(1u << 30);
  // Without a deadline a lone request would sit the full 10 s window wait.
  core::SolveService svc(cache, paused_friendly(/*max_batch=*/16, 10s));
  const auto op = svc.register_operator(A, cfg);
  ASSERT_GT(svc.batch_width(op), 1u);

  core::SubmitOptions qos;
  qos.deadline = 10ms;
  auto fut = svc.submit(
      op, random_rhs(static_cast<std::size_t>(A.rows()), 5), qos);
  ASSERT_TRUE(fut.has_value());
  // The deadline must close the window orders of magnitude before the
  // configured max_wait: the request waits well under a second for it.
  const auto reply = fut->get();
  EXPECT_TRUE(reply.result.converged);
  EXPECT_EQ(reply.batch_columns, 1);
  EXPECT_LT(reply.queue_seconds, 1.0);
}

TEST(SolveServiceShutdown, DrainCompletesEveryAdmittedFuture) {
  const la::CsrMatrix A = grid_laplacian(20, 0.0);
  const la::CsrMatrix B = grid_laplacian(18, 1.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  std::vector<std::future<core::SolveService::Reply>> futs;
  {
    core::SolveService svc(cache, paused_friendly(/*max_batch=*/8, 1h));
    const auto opA = svc.register_operator(A, cfg);
    const auto opB = svc.register_operator(B, cfg);
    svc.pause();
    for (int i = 0; i < 10; ++i) {
      const bool useA = (i % 2) == 0;
      auto fut = svc.submit(
          useA ? opA : opB,
          random_rhs(static_cast<std::size_t>((useA ? A : B).rows()),
                     static_cast<std::uint64_t>(i)));
      ASSERT_TRUE(fut.has_value());
      futs.push_back(std::move(*fut));
    }
    // Destruction drains: paused, with a 1-hour window wait, every window
    // would otherwise still be open.
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
        << "shutdown abandoned an admitted future";
    EXPECT_TRUE(f.get().result.converged);
  }
}

TEST(SolveServiceWarmStart, ConvergedGuessFinishesImmediately) {
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto session = cache.get_or_setup(A, cfg);
  const auto b = random_rhs(static_cast<std::size_t>(A.rows()), 7);

  std::vector<double> x(b.size(), 0.0);
  const auto cold = session->solve(b, x);
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.iterations, 2);

  // Session-level warm start: seeding with the converged solution leaves
  // (near-)nothing to do.
  std::vector<double> x_warm(b.size(), 0.0);
  const auto warm = session->solve(b, x_warm, x);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);

  // solve_many warm start, mixed seeded/unseeded columns.
  const auto b2 = random_rhs(static_cast<std::size_t>(A.rows()), 8);
  std::vector<std::vector<double>> bs{b, b2};
  std::vector<std::vector<double>> x0s{x, {}};
  std::vector<std::vector<double>> xs;
  const auto many = session->solve_many(bs, xs, x0s);
  EXPECT_TRUE(many[0].converged);
  EXPECT_LE(many[0].iterations, 2);
  EXPECT_TRUE(many[1].converged);

  // Service-level warm start rides the same plumbing.
  core::SolveService svc(cache, paused_friendly(/*max_batch=*/4, 1ms));
  const auto op = svc.register_operator(A, cfg);
  core::SubmitOptions qos;
  qos.x0 = x;
  auto fut = svc.submit(op, b, qos);
  ASSERT_TRUE(fut.has_value());
  const auto reply = fut->get();
  EXPECT_TRUE(reply.result.converged);
  EXPECT_LE(reply.result.iterations, 2);
}

TEST(SolveServiceContract, BadSubmitsThrowAndShutdownRefuses) {
  const la::CsrMatrix A = grid_laplacian(12, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto svc = std::make_unique<core::SolveService>(
      cache, paused_friendly(/*max_batch=*/2, 1ms));
  const auto op = svc->register_operator(A, cfg);
  EXPECT_THROW(svc->submit(op, std::vector<double>(3, 0.0)), ContractError);
  EXPECT_THROW(svc->submit(op + 1, std::vector<double>(
                                       static_cast<std::size_t>(A.rows()))),
               ContractError);
  core::SubmitOptions bad_seed;
  const std::vector<double> tiny(2, 0.0);
  bad_seed.x0 = tiny;
  EXPECT_THROW(svc->submit(op,
                           std::vector<double>(
                               static_cast<std::size_t>(A.rows()), 1.0),
                           bad_seed),
               ContractError);
  svc->shutdown();
  EXPECT_THROW(svc->submit(op, std::vector<double>(
                                   static_cast<std::size_t>(A.rows()), 1.0)),
               ContractError);
}

TEST(SolveServiceContract, NonFiniteRequestFailsAloneInABatchedWindow) {
  // A NaN/Inf request is refused at submit, so the requests it would have
  // shared a width-8 window with solve as if it had never been sent.
  const la::CsrMatrix A = grid_laplacian(8, 0.0);
  const gnn::DssModel model = paper_shape_model();
  const core::HybridConfig cfg = raw_gnn_config(model);
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);
  core::SolveService svc(cache, paused_friendly(/*max_batch=*/8, 50ms));
  const auto op = svc.register_operator(A, cfg);
  ASSERT_EQ(svc.batch_width(op), 8u);
  const auto n = static_cast<std::size_t>(A.rows());
  const std::vector<std::vector<double>> bs{random_rhs(n, 11),
                                            random_rhs(n, 12)};

  svc.pause();
  auto first = svc.submit(op, bs[0]);
  std::vector<double> nan_rhs = random_rhs(n, 13);
  nan_rhs[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(svc.submit(op, nan_rhs), ContractError);
  core::SubmitOptions inf_seed;
  std::vector<double> x0(n, 0.0);
  x0[2] = std::numeric_limits<double>::infinity();
  inf_seed.x0 = x0;
  EXPECT_THROW(svc.submit(op, random_rhs(n, 14), inf_seed), ContractError);
  auto second = svc.submit(op, bs[1]);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  svc.resume();

  std::vector<std::vector<double>> xs_direct;
  const auto res_direct = direct->solve_many(bs, xs_direct);
  const std::array<core::SolveService::Reply, 2> replies{first->get(),
                                                         second->get()};
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_TRUE(replies[i].result.converged);
    EXPECT_EQ(replies[i].batch_columns, 2);
    EXPECT_EQ(replies[i].result.iterations, res_direct[i].iterations);
    EXPECT_EQ(replies[i].x, xs_direct[i]) << "column " << i;
  }
}

// The CI TSan target: multi-producer, two operators, mixed QoS and warm
// starts, every future harvested. Correctness assertions are deliberately
// light — the run exists to put admission, window formation, execution and
// completion under real cross-thread contention.
TEST(SolveServiceStress, ManyProducersCompleteEveryRequest) {
  // Operator A runs raw ddm-gnn, whose windows batch up to max_batch
  // columns (block windows, mixed-deadline windows); B runs ddm-lu, one
  // scalar solve per window, concurrently with them.
  const la::CsrMatrix A = grid_laplacian(6, 0.0);
  const la::CsrMatrix B = grid_laplacian(14, 0.5);
  const gnn::DssModel model = paper_shape_model();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg;
  scfg.num_workers = 2;
  scfg.max_batch = 4;
  scfg.max_wait = std::chrono::microseconds(300);
  scfg.queue_capacity = 16;
  core::SolveService svc(cache, scfg);
  const auto opA = svc.register_operator(A, raw_gnn_config(model));
  const auto opB = svc.register_operator(B, lu_config());
  ASSERT_EQ(svc.batch_width(opA), 4u);
  ASSERT_EQ(svc.batch_width(opB), 1u);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 12;
  std::atomic<long> completed{0};
  std::atomic<long> rejected{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        const bool useA = rng.uniform() < 0.5;
        const auto& M = useA ? A : B;
        core::SubmitOptions qos;
        if (i % 3 == 0) qos.deadline = std::chrono::microseconds(200);
        if (i % 4 == 3) qos.on_full = core::AdmissionPolicy::kReject;
        auto fut = svc.submit(useA ? opA : opB,
                              random_rhs(static_cast<std::size_t>(M.rows()),
                                         rng()),
                              qos);
        if (!fut.has_value()) {
          rejected.fetch_add(1);
          continue;
        }
        const auto reply = fut->get();
        EXPECT_TRUE(reply.result.converged);
        EXPECT_GE(reply.batch_columns, 1);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& p : producers) p.join();

  const auto st = svc.stats();
  EXPECT_EQ(completed.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(st.rejected, static_cast<std::uint64_t>(rejected.load()));
  EXPECT_EQ(st.columns, st.completed);
  EXPECT_GE(st.windows, 1u);
  // Four producers against two workers: A's requests queue behind running
  // windows, so some window merges more than one column.
  EXPECT_GT(st.max_window, 1u);
}

}  // namespace
