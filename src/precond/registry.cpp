#include "precond/registry.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
// The registry is the one place that knows every built-in, including the
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
  core::GnnSubdomainSolver::Options opts;
  opts.refinement_steps = ctx.gnn_refinement_steps;
  opts.normalize_input = ctx.gnn_normalize;
  opts.adaptive_refinement = ctx.gnn_adaptive_refinement;
  opts.contraction_target = ctx.gnn_contraction_target;
  opts.max_refinement_steps = ctx.gnn_max_refinement_steps;
  opts.cost_aware_fallback = ctx.gnn_cost_aware_fallback;
  opts.fp32_fallback = ctx.gnn_fp32_fallback;
  return std::make_unique<core::GnnSubdomainSolver>(
      *ctx.model,
      std::vector<mesh::Point2>(ctx.coords.begin(), ctx.coords.end()),
      std::move(dirichlet), *ctx.edge_pattern, opts);
}

std::unique_ptr<Preconditioner> make_schwarz(
    const PrecondContext& ctx, std::string_view name, bool two_level,
    std::unique_ptr<SubdomainSolver> local) {
  return std::make_unique<AdditiveSchwarz>(
      require_matrix(ctx), require_decomposition(ctx, name), std::move(local),
      AdditiveSchwarz::Config{two_level, ctx.seed});
}

}  // namespace

PrecondRegistry::PrecondRegistry() {
  add("none", PrecondTraits{}, [](const PrecondContext& ctx) {
    require_matrix(ctx);
    return std::make_unique<IdentityPreconditioner>();
  });
  add("jacobi", PrecondTraits{}, [](const PrecondContext& ctx) {
    return std::make_unique<JacobiPreconditioner>(
        require_matrix(ctx).diagonal());
  });
  add("ic0", PrecondTraits{}, [](const PrecondContext& ctx) {
    return std::make_unique<Ic0Preconditioner>(require_matrix(ctx));
  });
  add("ddm-lu", PrecondTraits{.needs_decomposition = true},
      [](const PrecondContext& ctx) {
        return make_schwarz(ctx, "ddm-lu", /*two_level=*/true,
                            std::make_unique<CholeskySubdomainSolver>());
      });
  add("ddm-lu-1level", PrecondTraits{.needs_decomposition = true},
      [](const PrecondContext& ctx) {
        return make_schwarz(ctx, "ddm-lu-1level", /*two_level=*/false,
                            std::make_unique<CholeskySubdomainSolver>());
      });
  add("ddm-gnn",
      PrecondTraits{.needs_decomposition = true,
                    .needs_model = true,
                    .symmetric = false,
                    .needs_geometry = true},
      [](const PrecondContext& ctx) {
        return make_schwarz(ctx, "ddm-gnn", /*two_level=*/true,
                            make_gnn_local(ctx, "ddm-gnn"));
      });
  add("ddm-gnn-1level",
      PrecondTraits{.needs_decomposition = true,
                    .needs_model = true,
                    .symmetric = false,
                    .needs_geometry = true},
      [](const PrecondContext& ctx) {
        return make_schwarz(ctx, "ddm-gnn-1level", /*two_level=*/false,
                            make_gnn_local(ctx, "ddm-gnn-1level"));
      });
  // Short spellings kept from the legacy solve_poisson tool flags.
  add_alias("ddm-lu-1", "ddm-lu-1level");
  add_alias("ddm-gnn-1", "ddm-gnn-1level");
  add_alias("identity", "none");
}

PrecondRegistry& PrecondRegistry::instance() {
  static PrecondRegistry registry;
  return registry;
}

void PrecondRegistry::add(std::string name, PrecondTraits traits,
                          PrecondFactory factory) {
  DDMGNN_CHECK(!contains(name),
               "preconditioner '" + name + "' is already registered");
  entries_.push_back(Entry{std::move(name), traits, std::move(factory)});
}

void PrecondRegistry::add_alias(std::string alias, std::string canonical) {
  DDMGNN_CHECK(!contains(alias),
               "preconditioner alias '" + alias + "' is already registered");
  find(canonical);  // validates the target exists
  aliases_.emplace_back(std::move(alias), std::move(canonical));
}

const PrecondRegistry::Entry& PrecondRegistry::find(
    std::string_view name) const {
  std::string_view resolved = name;
  for (const auto& [alias, canonical] : aliases_) {
    if (alias == name) {
      resolved = canonical;
      break;
    }
  }
  for (const Entry& e : entries_) {
    if (e.name == resolved) return e;
  }
  std::ostringstream msg;
  msg << "unknown preconditioner '" << name << "'; registered:";
  for (const std::string& n : names()) msg << " " << n;
  DDMGNN_CHECK(false, msg.str());
  std::abort();  // unreachable: DDMGNN_CHECK(false) throws
}

bool PrecondRegistry::contains(std::string_view name) const {
  for (const auto& [alias, canonical] : aliases_) {
    if (alias == name) return true;
  }
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

const std::string& PrecondRegistry::canonical(std::string_view name) const {
  return find(name).name;
}

const PrecondTraits& PrecondRegistry::traits(std::string_view name) const {
  return find(name).traits;
}

std::unique_ptr<Preconditioner> PrecondRegistry::create(
    std::string_view name, const PrecondContext& ctx) const {
  return find(name).factory(ctx);
}

std::vector<std::string> PrecondRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Preconditioner> make_preconditioner(std::string_view name,
                                                    const PrecondContext& ctx) {
  return PrecondRegistry::instance().create(name, ctx);
}

const PrecondTraits& preconditioner_traits(std::string_view name) {
  return PrecondRegistry::instance().traits(name);
}

std::vector<std::string> preconditioner_names() {
  return PrecondRegistry::instance().names();
}

}  // namespace ddmgnn::precond
