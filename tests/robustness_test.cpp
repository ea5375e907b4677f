// Failure-injection and edge-case tests: contract violations must throw
// ContractError (not corrupt memory), solvers must respect caps and handle
// degenerate inputs (zero rhs, tiny systems), and numerical safeguards
// (IC(0) shift, FPCG restart, near-zero GNN residuals) must engage cleanly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/graph.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/ic0.hpp"
#include "la/skyline_cholesky.hpp"
#include "la/vector_ops.hpp"
#include "mesh/delaunay.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/preconditioner.hpp"
#include "solver/krylov.hpp"
#include "test_solvers.hpp"

namespace {

using namespace ddmgnn;
using la::CooBuilder;
using la::CsrMatrix;
using la::Index;
using mesh::Point2;

using test_util::plain_cg;

CsrMatrix small_spd() {
  CooBuilder coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 2.0);
  coo.add(2, 2, 2.0);
  coo.add(0, 1, -1.0);
  coo.add(1, 0, -1.0);
  return std::move(coo).build();
}

TEST(Contracts, VectorOpsRejectSizeMismatch) {
  std::vector<double> a{1, 2, 3}, b{1, 2};
  EXPECT_THROW(la::dot(a, b), ContractError);
  EXPECT_THROW(la::axpy(1.0, a, b), ContractError);
  EXPECT_THROW(la::copy(a, b), ContractError);
}

TEST(Contracts, CsrRejectsMalformedConstruction) {
  // row_ptr wrong length.
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), ContractError);
  // nnz mismatch between col_idx and vals.
  EXPECT_THROW(CsrMatrix(1, 1, {0, 1}, {0}, {1.0, 2.0}), ContractError);
  // row_ptr not ending at nnz.
  EXPECT_THROW(CsrMatrix(1, 1, {0, 2}, {0}, {1.0}), ContractError);
}

TEST(Contracts, CsrMultiplyRejectsWrongDimensions) {
  const CsrMatrix a = small_spd();
  std::vector<double> x(2), y(3);
  EXPECT_THROW(a.multiply(x, y), ContractError);
}

TEST(Contracts, CooBuilderRejectsOutOfRangeEntries) {
  CooBuilder coo(2, 2);
  coo.add(5, 0, 1.0);
  EXPECT_THROW(std::move(coo).build(), ContractError);
}

TEST(Contracts, PrincipalSubmatrixRejectsDuplicatesAndBadIds) {
  const CsrMatrix a = small_spd();
  const std::vector<Index> dup{0, 0};
  EXPECT_THROW(a.principal_submatrix(dup), ContractError);
  const std::vector<Index> bad{0, 7};
  EXPECT_THROW(a.principal_submatrix(bad), ContractError);
}

TEST(Contracts, JacobiRejectsZeroDiagonal) {
  EXPECT_THROW(precond::JacobiPreconditioner({1.0, 0.0}), ContractError);
}

/// 5-point Laplacian on a side×side grid, shifted to be safely SPD.
CsrMatrix grid_laplacian(Index side) {
  CooBuilder coo(side * side, side * side);
  for (Index r = 0; r < side; ++r) {
    for (Index c = 0; c < side; ++c) {
      const Index i = r * side + c;
      coo.add(i, i, 4.5);
      if (r > 0) coo.add(i, i - side, -1.0);
      if (r + 1 < side) coo.add(i, i + side, -1.0);
      if (c > 0) coo.add(i, i - 1, -1.0);
      if (c + 1 < side) coo.add(i, i + 1, -1.0);
    }
  }
  return std::move(coo).build();
}

/// Runs `f`, expecting a ContractError whose message contains `needle`.
template <typename F>
void expect_contract_error(F&& f, const std::string& needle) {
  try {
    f();
    ADD_FAILURE() << "no ContractError; expected one naming " << needle;
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Contracts, SessionRejectsNanInTheOperatorAtSetup) {
  const CsrMatrix good = grid_laplacian(6);
  std::vector<double> vals(good.values().begin(), good.values().end());
  const auto row_ptr = good.row_ptr();
  vals[row_ptr[7] + 1] = std::nan("");  // second stored entry of row 7
  const CsrMatrix bad(good.rows(), good.cols(),
                      {row_ptr.begin(), row_ptr.end()},
                      {good.col_idx().begin(), good.col_idx().end()},
                      std::move(vals));
  const std::string entry =
      "A(7, " + std::to_string(bad.col_idx()[row_ptr[7] + 1]) + ") = nan";
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 12;
  core::SolverSession session;
  // Matrix-first path.
  expect_contract_error([&] { session.setup(bad, cfg); }, entry);
  EXPECT_FALSE(session.ready());
  // Mesh path: the operator of an assembled problem.
  mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(4), 0.2, 4);
  auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  std::vector<double> pvals(prob.A.values().begin(), prob.A.values().end());
  pvals.back() = -std::numeric_limits<double>::infinity();
  prob.A = CsrMatrix(prob.A.rows(), prob.A.cols(),
                     {prob.A.row_ptr().begin(), prob.A.row_ptr().end()},
                     {prob.A.col_idx().begin(), prob.A.col_idx().end()},
                     std::move(pvals));
  expect_contract_error([&] { session.setup(m, prob, cfg); }, "= -inf");
  EXPECT_FALSE(session.ready());
}

TEST(Contracts, SessionRejectsNonFiniteRhsAndGuesses) {
  const CsrMatrix a = grid_laplacian(6);
  const auto n = static_cast<std::size_t>(a.rows());
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 12;
  core::SolverSession session;
  session.setup(a, cfg);

  std::vector<double> b(n, 1.0), x(n, 0.0);
  b[5] = std::numeric_limits<double>::infinity();
  expect_contract_error([&] { session.solve(b, x); }, "b[5] = inf");
  b[5] = 1.0;
  std::vector<double> x0(n, 0.0);
  x0[2] = std::nan("");
  expect_contract_error([&] { session.solve(b, x, x0); }, "x0[2] = nan");

  // solve_many validates every column before it solves any of them.
  const std::vector<std::vector<double>> rhs(3, b);
  const std::vector<std::vector<double>> x0s{{}, std::vector<double>(n, 0.0),
                                             x0};
  std::vector<std::vector<double>> xs;
  expect_contract_error([&] { session.solve_many(rhs, xs, x0s); },
                        "x0s[2][2] = nan");
  EXPECT_TRUE(xs.empty());
  std::vector<std::vector<double>> bad_rhs = rhs;
  bad_rhs[1][0] = -std::numeric_limits<double>::infinity();
  expect_contract_error([&] { session.solve_many(bad_rhs, xs); },
                        "rhs[1][0] = -inf");
  // The same inputs, finite, solve.
  EXPECT_TRUE(session.solve(b, x).converged);
}

TEST(EdgeCases, OneByOneSystemsEverywhere) {
  CooBuilder coo(1, 1);
  coo.add(0, 0, 4.0);
  const CsrMatrix a = std::move(coo).build();
  const std::vector<double> b{8.0};
  // Direct.
  const la::SkylineCholesky f(a);
  EXPECT_NEAR(f.solve(b)[0], 2.0, 1e-14);
  // Iterative.
  std::vector<double> x{0.0};
  const auto res = plain_cg(a, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  // IC(0) is exact here.
  const la::IncompleteCholesky0 ic(a);
  EXPECT_NEAR(ic.apply(b)[0], 2.0, 1e-14);
}

TEST(EdgeCases, ZeroRhsConvergesInstantly) {
  const CsrMatrix a = small_spd();
  const std::vector<double> b{0.0, 0.0, 0.0};
  std::vector<double> x{0.0, 0.0, 0.0};
  const auto res = plain_cg(a, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(EdgeCases, WarmStartFromExactSolutionTakesZeroIterations) {
  const CsrMatrix a = small_spd();
  std::vector<double> x_ref{1.0, -2.0, 0.5};
  const auto b = a.apply(x_ref);
  const auto res = plain_cg(a, b, x_ref);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(EdgeCases, MaxIterationCapIsRespected) {
  auto [m, prob] = [] {
    mesh::Mesh mm = mesh::generate_mesh(mesh::random_domain(3), 0.05, 3);
    auto pp = fem::assemble_poisson(
        mm, [](const Point2&) { return 1.0; },
        [](const Point2&) { return 0.0; });
    return std::pair{std::move(mm), std::move(pp)};
  }();
  std::vector<double> x(prob.b.size(), 0.0);
  solver::SolveOptions opts;
  opts.max_iterations = 3;
  opts.rel_tol = 1e-14;
  const auto res = plain_cg(prob.A, prob.b, x, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
}

TEST(Safeguards, Ic0ShiftEngagesOnHardMatrix) {
  // SPD but far from diagonally dominant: IC(0) often breaks down without a
  // shift. Build A = Lᵀ L + tiny diagonal from a random L with large
  // off-diagonals, keep only a sparse pattern.
  const Index n = 40;
  Rng rng(5);
  CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 1.0);
    for (Index j = std::max(0, i - 3); j < i; ++j) {
      const double v = rng.uniform(0.8, 1.2);
      coo.add(i, j, v);
      coo.add(j, i, v);
    }
  }
  const CsrMatrix a = std::move(coo).build();
  // This matrix may be indefinite; IC0 must either succeed (possibly with a
  // shift) or throw ContractError — never UB or NaN.
  try {
    const la::IncompleteCholesky0 ic(a);
    const std::vector<double> r(n, 1.0);
    const auto z = ic.apply(r);
    for (const double v : z) EXPECT_TRUE(std::isfinite(v));
  } catch (const ContractError&) {
    SUCCEED();
  }
}

TEST(Safeguards, FlexiblePcgSurvivesIdentityLikePerturbedPrecond) {
  // A mildly non-symmetric "preconditioner" (scaled identity with a random
  // asymmetric tweak) must not break FPCG on an SPD system.
  class Lopsided final : public precond::Preconditioner {
   public:
    using precond::Preconditioner::apply;
    void apply(std::span<const double> r, std::span<double> z,
               precond::ApplyWorkspace*) const override {
      for (std::size_t i = 0; i < r.size(); ++i) {
        z[i] = r[i] * (1.0 + 0.05 * std::sin(static_cast<double>(i)));
      }
      if (r.size() > 1) z[0] += 0.01 * r[1];  // asymmetry
    }
    std::string name() const override { return "lopsided"; }
    bool is_symmetric() const override { return false; }
  };
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(9), 0.08, 9);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const Lopsided precond;
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = solver::flexible_pcg(prob.A, precond, prob.b, x,
                                        {.max_iterations = 5000});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-5);
}

TEST(EdgeCases, DelaunayOfExactlyThreePoints) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {0, 1}};
  const auto tris = mesh::delaunay_triangulate(pts);
  ASSERT_EQ(tris.size(), 1u);
}

TEST(EdgeCases, DecomposeSinglePartCoversEverything) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(11), 0.1, 11);
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 1, 2, 11);
  EXPECT_EQ(dec.num_parts, 1);
  EXPECT_EQ(static_cast<Index>(dec.subdomains[0].size()), m.num_nodes());
  for (const double w : dec.inv_multiplicity) EXPECT_EQ(w, 1.0);
}

TEST(EdgeCases, DecomposeAsManyPartsAsNodesIsRejectedOrValid) {
  // K > N must throw; K == N is legal (every node its own core).
  CooBuilder coo(4, 4);
  for (Index i = 0; i < 4; ++i) coo.add(i, (i + 1) % 4, 1.0);
  for (Index i = 0; i < 4; ++i) coo.add((i + 1) % 4, i, 1.0);
  const CsrMatrix ring = std::move(coo).build();
  EXPECT_THROW(partition::decompose(ring.row_ptr(), ring.col_idx(), 5, 0),
               ContractError);
  const auto dec = partition::decompose(ring.row_ptr(), ring.col_idx(), 4, 0);
  EXPECT_EQ(dec.num_parts, 4);
}

TEST(Safeguards, AsmOnDisconnectedMeshPieces) {
  // Two disjoint blobs in one "mesh" graph: partitioner must still cover and
  // ASM-PCG must still converge (tests the disconnected-leftover path).
  const mesh::Mesh m1 = mesh::generate_mesh(mesh::random_domain(13), 0.12, 13);
  const mesh::Mesh m2 = mesh::generate_mesh(mesh::random_domain(14), 0.12, 14);
  const Index n1 = m1.num_nodes();
  const Index n = n1 + m2.num_nodes();
  // Merge adjacencies with an offset.
  std::vector<la::Offset> ptr;
  std::vector<Index> adj;
  ptr.push_back(0);
  for (Index v = 0; v < n1; ++v) {
    for (la::Offset e = m1.adj_ptr()[v]; e < m1.adj_ptr()[v + 1]; ++e) {
      adj.push_back(m1.adj()[e]);
    }
    ptr.push_back(static_cast<la::Offset>(adj.size()));
  }
  for (Index v = 0; v < m2.num_nodes(); ++v) {
    for (la::Offset e = m2.adj_ptr()[v]; e < m2.adj_ptr()[v + 1]; ++e) {
      adj.push_back(m2.adj()[e] + n1);
    }
    ptr.push_back(static_cast<la::Offset>(adj.size()));
  }
  const auto dec = partition::decompose(ptr, adj, 6, 2, 13);
  std::vector<char> covered(n, 0);
  for (const auto& s : dec.subdomains) {
    for (const Index v : s) covered[v] = 1;
  }
  for (Index v = 0; v < n; ++v) EXPECT_TRUE(covered[v]);
}

TEST(Safeguards, GnnGraphWithAllDirichletNodesHasNoEdges) {
  const Index n = 4;
  std::vector<Point2> coords{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  std::vector<std::uint8_t> dirichlet(n, 1);
  CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) coo.add(i, i, 1.0);
  auto topo = gnn::build_topology(std::move(coo).build(), coords, dirichlet);
  EXPECT_EQ(topo->num_edges(), 0);
}

}  // namespace
