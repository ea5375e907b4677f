// The GNN local solver that turns two-level ASM into the paper's DDM-GNN
// preconditioner (§III-A). For each subdomain i, per preconditioner
// application:
//
//   1. norm_i = ‖R_i r‖;  if 0, the correction is 0            (trivial case)
//   2. r̃_i = DSSθ(G_i) with G_i = (Ω_h,i, R_i r / norm_i)      (Eq. 14/15/17)
//   3. z_i = norm_i · r̃_i                                      (Eq. 16 local)
//
// The normalization is the paper's fix for vanishing residual inputs: as PCG
// converges, r → 0, and an un-normalized GNN would collapse to the zero
// correction, stalling the solver. The ablation bench switches it off.
//
// All subdomains are solved concurrently (OpenMP over graphs — the CPU
// analogue of the paper's batched GPU inference), and a set-up solver is
// additionally safe for many *client* threads at once: inference scratch
// lives in the caller-owned Workspace (one DssWorkspace per OpenMP lane per
// caller — never shared across solver instances or client threads), and the
// merged-shard plans of the block path are immutable after construction,
// published through a shared-mutex cache keyed by column count.
#pragma once

#include <memory>
#include <shared_mutex>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/skyline_cholesky.hpp"
#include "mesh/mesh.hpp"
#include "precond/gnn_options.hpp"
#include "precond/subdomain_solver.hpp"

namespace ddmgnn::core {

class GnnSubdomainSolver final : public precond::SubdomainSolver {
 public:
  /// `model` must outlive the solver. `m` supplies node geometry and the
  /// mesh adjacency (subdomain message graphs follow the sub-mesh, Eq. 17);
  /// `dirichlet` the global Dirichlet flags.
  GnnSubdomainSolver(const gnn::DssModel& model, const mesh::Mesh& m,
                     std::span<const std::uint8_t> dirichlet,
                     precond::GnnOptions options);
  GnnSubdomainSolver(const gnn::DssModel& model, const mesh::Mesh& m,
                     std::span<const std::uint8_t> dirichlet)
      : GnnSubdomainSolver(model, m, dirichlet, precond::GnnOptions{}) {}
  /// Geometry-generic form for the matrix-first setup path: node positions
  /// (mesh points or synthetic spectral coordinates) and an explicit
  /// message-graph pattern (unit CSR; subdomain graphs are its principal
  /// submatrices) instead of a mesh. The mesh constructor delegates here
  /// with (points, mesh adjacency), so both paths share one code path.
  GnnSubdomainSolver(const gnn::DssModel& model,
                     std::vector<mesh::Point2> coords,
                     std::vector<std::uint8_t> dirichlet,
                     la::CsrMatrix message_pattern,
                     precond::GnnOptions options);

  void setup(std::vector<la::CsrMatrix> local_matrices,
             const partition::Decomposition& dec) override;

  /// Per-caller scratch: one DssWorkspace (plus merged-rhs/output buffers)
  /// per OpenMP lane of this caller's solve. Replaces the former
  /// function-local `static thread_local` workspaces, which were shared by
  /// every solver instance on a thread and never freed.
  std::unique_ptr<Workspace> make_workspace() const override;
  std::size_t workspace_bytes() const override;

  void solve_all(const std::vector<std::vector<double>>& r_loc,
                 std::vector<std::vector<double>>& z_loc,
                 Workspace* ws) const override;
  /// Multi-RHS form (paper Eq. 14 across BOTH axes): the K×s local problems
  /// of one block-preconditioner application are merged — disjoint-union
  /// batching via gnn::batch_samples — into a small number of DSS inferences
  /// (shards, sized by a node budget and the thread count). Merged
  /// topologies are cached per column count and shared read-only across
  /// concurrent callers; the rhs channel is written into workspace-owned
  /// buffers. Per (subdomain, column) task the normalization / refinement
  /// semantics match solve_all bit-for-bit.
  void solve_all_block(const std::vector<la::MultiVector>& r_loc,
                       std::vector<la::MultiVector>& z_loc,
                       Workspace* ws) const override;
  std::string name() const override { return "gnn"; }
  /// A neural local solve is not a symmetric linear map.
  bool is_symmetric() const override { return false; }
  /// Each subdomain as routed at setup: 4·envelope for a Cholesky fallback,
  /// (passes + 1)·(one inference) for a GNN one — the same flop model the
  /// cost-aware fallback decides with.
  double apply_flops() const override { return apply_flops_; }

  const std::vector<std::shared_ptr<gnn::GraphTopology>>& topologies() const {
    return topologies_;
  }
  /// Per-topology attr-projection caches (empty entries when the model runs
  /// the reference inference path). Built at setup() against the model's
  /// then-current parameters — the solver assumes a frozen trained model.
  const std::vector<std::shared_ptr<const gnn::DssEdgeCache>>& edge_caches()
      const {
    return edge_caches_;
  }
  /// Bytes retained beyond the topologies/edge caches: the currently cached
  /// merged-shard plans of the block path (SolverSession::memory_bytes adds
  /// this so the SessionCache byte budget tracks what the solver holds).
  std::size_t plan_cache_bytes() const;

  /// Adaptive-setup outcome. refinement_schedule()[i] is subdomain i's chosen
  /// pass count (ignore entries with a fallback); empty when
  /// adaptive_refinement is off. fallback_count() is the number of
  /// subdomains served by the exact Cholesky fallback.
  const std::vector<int>& refinement_schedule() const { return refine_steps_; }
  la::Index fallback_count() const { return fallback_count_; }

 private:
  struct ShardTask {
    la::Index part;    // subdomain index
    la::Index column;  // RHS column index
    la::Index slot;    // position inside the shard's merged sample
  };
  /// Immutable after construction: the merged sample's rhs channel is a
  /// zero-filled template that solve_all_block never writes (per-call rhs
  /// lives in the caller's workspace).
  struct Shard {
    std::vector<ShardTask> tasks;
    gnn::BatchedSample batch;
    std::shared_ptr<const gnn::DssEdgeCache> cache;  // merged attr projections
  };
  struct ShardPlan {
    std::vector<Shard> shards;
    std::size_t bytes = 0;  // rough retained footprint of the merged copies
  };

  /// Fetch (or build, under the writer lock) the shard plan for `s` RHS
  /// columns. Plans are immutable once published; concurrent solves at the
  /// same column count share one plan read-only, and a returned shared_ptr
  /// keeps a plan alive across eviction. The cache holds a handful of column
  /// counts (deflation shrinks s during a solve; repeated solve_many calls
  /// revisit the same counts) — beyond the cap the smallest-column plan is
  /// dropped, since small merges are the cheapest to rebuild.
  std::shared_ptr<const ShardPlan> plan_for(la::Index s) const;
  ShardPlan build_shards(la::Index s) const;

  const gnn::DssModel* model_;
  std::vector<mesh::Point2> coords_;
  std::vector<std::uint8_t> dirichlet_;
  la::CsrMatrix mesh_pattern_;  // global message graph (unit values):
                                // mesh adjacency or matrix adjacency
  precond::GnnOptions options_;
  std::vector<std::shared_ptr<gnn::GraphTopology>> topologies_;
  std::vector<std::shared_ptr<const gnn::DssEdgeCache>> edge_caches_;
  /// Adaptive-setup state (empty when adaptive_refinement is off): chosen
  /// per-subdomain pass counts and, for non-contractive subdomains, the
  /// exact Cholesky fallback factors. Immutable after setup().
  std::vector<int> refine_steps_;
  std::vector<std::unique_ptr<la::SkylineCholesky>> fallback_;
  la::Index fallback_count_ = 0;
  double apply_flops_ = 0.0;
  mutable std::shared_mutex plans_mutex_;
  mutable std::vector<std::pair<la::Index, std::shared_ptr<const ShardPlan>>>
      plans_;  // guarded by plans_mutex_
};

}  // namespace ddmgnn::core
