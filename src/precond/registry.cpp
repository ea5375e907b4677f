#include "precond/registry.hpp"

#include <array>
#include <sstream>
#include <utility>

#include "common/error.hpp"
// The table is the one place that knows every built-in, including the
// GNN-backed ones from src/core — a deliberate, contained layering exception
// so that callers get a complete name table from a single lookup point.
#include "core/gnn_subdomain_solver.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/ic0_precond.hpp"
#include "precond/subdomain_solver.hpp"

namespace ddmgnn::precond {

namespace {

const la::CsrMatrix& require_matrix(const PrecondContext& ctx) {
  DDMGNN_CHECK(ctx.A != nullptr, "preconditioner factory: context.A is null");
  return *ctx.A;
}

const partition::Decomposition& require_decomposition(
    const PrecondContext& ctx, std::string_view name) {
  DDMGNN_CHECK(ctx.dec != nullptr,
               std::string(name) + " requires a domain decomposition");
  return *ctx.dec;
}

std::unique_ptr<SubdomainSolver> make_gnn_local(const PrecondContext& ctx,
                                                std::string_view name) {
  DDMGNN_CHECK(ctx.model != nullptr,
               std::string(name) + " requires a trained DSS model");
  const la::CsrMatrix& A = require_matrix(ctx);
  DDMGNN_CHECK(ctx.coords.size() == static_cast<std::size_t>(A.rows()),
               std::string(name) +
                   " requires node coordinates (mesh points or synthetic "
                   "spectral coordinates), one per operator row");
  DDMGNN_CHECK(ctx.edge_pattern != nullptr &&
                   ctx.edge_pattern->rows() == A.rows(),
               std::string(name) +
                   " requires a message-graph pattern matching the operator");
  std::vector<std::uint8_t> dirichlet(ctx.dirichlet.begin(),
                                      ctx.dirichlet.end());
  if (dirichlet.empty()) dirichlet.assign(A.rows(), 0);
  return std::make_unique<core::GnnSubdomainSolver>(
      *ctx.model,
      std::vector<mesh::Point2>(ctx.coords.begin(), ctx.coords.end()),
      std::move(dirichlet), *ctx.edge_pattern, ctx.gnn);
}

std::unique_ptr<Preconditioner> make_schwarz(
    const PrecondContext& ctx, std::string_view name, bool two_level,
    std::unique_ptr<SubdomainSolver> local) {
  return std::make_unique<AdditiveSchwarz>(
      require_matrix(ctx), require_decomposition(ctx, name), std::move(local),
      AdditiveSchwarz::Config{two_level, ctx.seed});
}

struct Entry {
  std::string_view name;
  PrecondTraits traits;
  std::unique_ptr<Preconditioner> (*make)(const PrecondContext&);
};

constexpr PrecondTraits kDdm{.needs_decomposition = true};
constexpr PrecondTraits kDdmGnn{.needs_decomposition = true,
                                .needs_model = true};

// Sorted by name: preconditioner_names() lists the table in order.
constexpr std::array<Entry, 7> kTable{{
    {"ddm-gnn", kDdmGnn,
     [](const PrecondContext& ctx) {
       return make_schwarz(ctx, "ddm-gnn", /*two_level=*/true,
                           make_gnn_local(ctx, "ddm-gnn"));
     }},
    {"ddm-gnn-1level", kDdmGnn,
     [](const PrecondContext& ctx) {
       return make_schwarz(ctx, "ddm-gnn-1level", /*two_level=*/false,
                           make_gnn_local(ctx, "ddm-gnn-1level"));
     }},
    {"ddm-lu", kDdm,
     [](const PrecondContext& ctx) {
       return make_schwarz(ctx, "ddm-lu", /*two_level=*/true,
                           std::make_unique<CholeskySubdomainSolver>());
     }},
    {"ddm-lu-1level", kDdm,
     [](const PrecondContext& ctx) {
       return make_schwarz(ctx, "ddm-lu-1level", /*two_level=*/false,
                           std::make_unique<CholeskySubdomainSolver>());
     }},
    {"ic0", {},
     [](const PrecondContext& ctx) -> std::unique_ptr<Preconditioner> {
       return std::make_unique<Ic0Preconditioner>(require_matrix(ctx));
     }},
    {"jacobi", {},
     [](const PrecondContext& ctx) -> std::unique_ptr<Preconditioner> {
       return std::make_unique<JacobiPreconditioner>(
           require_matrix(ctx).diagonal());
     }},
    {"none", {},
     [](const PrecondContext& ctx) -> std::unique_ptr<Preconditioner> {
       require_matrix(ctx);
       return std::make_unique<IdentityPreconditioner>();
     }},
}};

const Entry& find(std::string_view name) {
  for (const Entry& e : kTable) {
    if (e.name == name) return e;
  }
  std::ostringstream msg;
  msg << "unknown preconditioner '" << name << "'; registered:";
  for (const Entry& e : kTable) msg << " " << e.name;
  DDMGNN_CHECK(false, msg.str());
  std::abort();  // unreachable: DDMGNN_CHECK(false) throws
}

}  // namespace

std::unique_ptr<Preconditioner> make_preconditioner(std::string_view name,
                                                    const PrecondContext& ctx) {
  return find(name).make(ctx);
}

const PrecondTraits& preconditioner_traits(std::string_view name) {
  return find(name).traits;
}

std::vector<std::string> preconditioner_names() {
  std::vector<std::string> out;
  out.reserve(kTable.size());
  for (const Entry& e : kTable) out.emplace_back(e.name);
  return out;
}

}  // namespace ddmgnn::precond
