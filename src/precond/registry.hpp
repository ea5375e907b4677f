// The preconditioner table: a fixed list of the seven built-in names
// ("none", "jacobi", "ic0", "ddm-lu", "ddm-gnn" and the two one-level
// variants), each with its traits and a factory returning
// `std::unique_ptr<Preconditioner>`, so the choice of preconditioner is data
// (a config string) instead of call-site enum-switch code. The traits —
// whether a factory needs a domain decomposition or a trained DSS model
// (and with it node geometry) — are what SolverSession uses to decide how
// much setup to build. Whether the operator is symmetric, which picks the
// default Krylov method, is asked of the built preconditioner itself.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "la/csr.hpp"
#include "precond/gnn_options.hpp"
#include "precond/preconditioner.hpp"

// The GNN factories need a trained model; forward-declared so this header
// stays light (registry.cpp sees the full types).
namespace ddmgnn::gnn {
class DssModel;
}
namespace ddmgnn::partition {
struct Decomposition;
}
namespace ddmgnn::mesh {
struct Point2;
}

namespace ddmgnn::precond {

/// Everything a factory may consume. `A` is always required; the rest is
/// optional and validated by the factory itself (with a readable error)
/// according to its traits. Geometry is deliberately generic — node
/// positions plus a message-graph pattern — so the same factories serve both
/// the mesh setup path (mesh points + mesh adjacency) and the matrix-first
/// path (synthetic spectral coordinates + matrix adjacency).
struct PrecondContext {
  const la::CsrMatrix* A = nullptr;
  /// Overlapping decomposition — required when traits.needs_decomposition.
  /// Must outlive the returned preconditioner.
  const partition::Decomposition* dec = nullptr;
  /// Node positions (one per row of A) — required when traits.needs_model.
  /// Copied by the factories; need only live through the factory call.
  std::span<const mesh::Point2> coords;
  /// Message-graph pattern (mesh adjacency or matrix adjacency as a unit
  /// CSR) — required when traits.needs_model. Copied by the factories.
  const la::CsrMatrix* edge_pattern = nullptr;
  /// Dirichlet flags (identity rows); empty means none.
  std::span<const std::uint8_t> dirichlet;
  /// Trained DSS model — required when traits.needs_model. Must outlive the
  /// returned preconditioner.
  const gnn::DssModel* model = nullptr;
  /// GNN local-solver knobs, passed to GnnSubdomainSolver unchanged.
  GnnOptions gnn;
  /// Seed for the coarse hierarchy's power-iteration damping estimates.
  std::uint64_t seed = 0;
};

/// Static facts about a table entry, consulted *before* construction so the
/// session only builds the setup state a factory needs.
struct PrecondTraits {
  bool needs_decomposition = false;
  /// Needs a trained DSS model, and with it node coordinates plus a
  /// message-graph pattern (the GNN entries).
  bool needs_model = false;
};

/// Build the preconditioner `name` from `ctx`. Throws ContractError listing
/// the known names when `name` is not in the table, or a readable
/// ContractError when `ctx` lacks something the entry needs.
std::unique_ptr<Preconditioner> make_preconditioner(std::string_view name,
                                                    const PrecondContext& ctx);
/// Traits of `name`; throws like make_preconditioner on unknown names.
const PrecondTraits& preconditioner_traits(std::string_view name);
/// The table's names, sorted.
std::vector<std::string> preconditioner_names();

}  // namespace ddmgnn::precond
