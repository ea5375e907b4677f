// Operator-keyed cache of prepared SolverSessions. Services that re-solve
// families of problems (parameter sweeps, repeated time-stepping campaigns,
// per-tenant operators) hit the same operators again and again — a cache hit
// returns the already-prepared session and skips the entire setup phase
// (partitioning, factorizations, DSS graph construction, coarse space),
// which bench_setup_amortization shows is many solves' worth of work.
//
// Keying: the key is the operator, the extra algebraic structure (dirichlet
// mask, coordinates), the setup graph and the whole HybridConfig (its
// defaulted operator==, so a field added later is keyed automatically).
// Lookup is an exact comparison against each entry: the cheap parts first
// (config, mesh- vs matrix-keyed, dimensions and array sizes), then the
// arrays themselves. Nothing is hashed — a hit costs one memcmp of the
// arrays it has to verify anyway.
//
// Ownership: each entry owns a private copy of its operator (and mesh /
// problem for the mesh-keyed overload), so cached sessions never dangle when
// the caller's matrix goes out of scope. Returned shared_ptrs alias the
// entry — an evicted-but-still-held session stays fully usable, which is
// also what makes eviction safe under concurrency: the cache can only drop
// its own reference, never free a session another thread is solving on. The
// one reference an entry does NOT own is cfg.model: trained models are large
// and shared, so GNN-preconditioned entries require the model to outlive the
// cache (the model pointer is part of the key).
//
// Concurrency: get_or_setup is safe from any number of threads. One mutex
// guards the entry list, the recency order, the byte total and the stats; it
// is held for the key scan and list surgery, never across a setup or a
// solve, and no session is destroyed under it. Setup stampedes are
// collapsed per key: the first caller runs the one setup inside the entry's
// std::call_once while every concurrent caller for the same key blocks on
// that flag and then shares the prepared session — N threads racing for one
// cold operator cost exactly one setup (1 miss + N−1 hits). A failed setup
// unpublishes its entry, so the key can be retried. Solving on the returned
// sessions concurrently is safe because prepared sessions are immutable at
// solve time (see the Preconditioner apply-workspace contract); the
// solve-time *toggle* below is the deliberate exception.
//
// Sharing contract: every hit hands out the SAME session object, mutably —
// deliberately, so the solve-time toggle (set_method) works on cached
// sessions for A/B comparisons. It affects every holder (flip it only while
// no other client is mid-solve), and calling setup() on a cache-returned
// session throws ContractError — it would re-key the shared prepared state
// out from under the entry's stored key. Re-key through the cache instead —
// get_or_setup with the new operator/config.
//
// Eviction: least-recently-used by a byte budget, measured with
// SolverSession::memory_bytes() plus the entry's owned copies and
// re-measured on every touch — state a session builds lazily after setup
// (the GNN block path's merged-shard plans) is folded into the budget at
// the next hit instead of escaping it. The entry list is kept in recency
// order (a touch moves the entry to the back), and entries still in setup
// are never evicted. A single entry larger than the whole budget is
// admitted (the alternative — refusing to cache — silently re-pays setup
// forever) and becomes the first eviction candidate.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/solver_session.hpp"

namespace ddmgnn::core {

class SessionCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
  };

  explicit SessionCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

  /// Mesh-keyed lookup: returns the prepared session for (prob, cfg),
  /// running SolverSession::setup(mesh, prob, cfg) on a miss.
  std::shared_ptr<SolverSession> get_or_setup(const mesh::Mesh& m,
                                              const fem::PoissonProblem& prob,
                                              const HybridConfig& cfg);

  /// Matrix-keyed lookup for the algebraic path: returns the prepared
  /// session for (A, cfg, opts), running setup(A, cfg, opts) on a miss.
  std::shared_ptr<SolverSession> get_or_setup(
      const la::CsrMatrix& A, const HybridConfig& cfg,
      const AlgebraicOptions& opts = {});

  /// Counter snapshot, taken under the cache lock.
  Stats stats() const;
  std::size_t size() const;
  std::size_t size_bytes() const;
  std::size_t byte_budget() const { return byte_budget_; }
  /// Drop every entry (held sessions stay alive via their aliased
  /// shared_ptrs). Not counted as evictions.
  void clear();

 private:
  struct Entry;

  std::shared_ptr<SolverSession> lookup_or_insert(const la::CsrMatrix& A,
                                                  const HybridConfig& cfg,
                                                  const AlgebraicOptions& opts,
                                                  const mesh::Mesh* m);

  const std::size_t byte_budget_;
  mutable std::mutex mutex_;
  // Everything below is guarded by mutex_. entries_ is in recency order:
  // least recently used first.
  std::vector<std::shared_ptr<Entry>> entries_;
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace ddmgnn::core
