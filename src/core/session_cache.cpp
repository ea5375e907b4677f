#include "core/session_cache.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::core {

namespace {

// Bitwise equality of two contiguous arrays of the same element type.
template <typename X, typename Y>
bool same_bytes(const X& a, const Y& b) {
  using T = std::remove_cvref_t<decltype(*std::data(a))>;
  static_assert(
      std::is_same_v<T, std::remove_cvref_t<decltype(*std::data(b))>>);
  return std::size(a) == std::size(b) &&
         (std::size(a) == 0 ||
          std::memcmp(std::data(a), std::data(b), std::size(a) * sizeof(T)) ==
              0);
}

}  // namespace

struct SessionCache::Entry {
  // Owned copies of everything the prepared session points into. All key
  // material is written here, before the entry is published, and never
  // changes — lookups may compare against it while setup is running.
  Entry(const la::CsrMatrix& a, const HybridConfig& c,
        const AlgebraicOptions& opts, const mesh::Mesh* m)
      : A(a),  // private copy: must outlive the caller's matrix
        dirichlet(opts.dirichlet.begin(), opts.dirichlet.end()),
        coordinates(opts.coordinates.begin(), opts.coordinates.end()),
        mesh_keyed(m != nullptr),
        cfg(c) {
    if (m != nullptr) {
      graph_ptr.assign(m->adj_ptr().begin(), m->adj_ptr().end());
      graph_idx.assign(m->adj().begin(), m->adj().end());
    }
  }

  la::CsrMatrix A;
  std::vector<std::uint8_t> dirichlet;
  std::vector<mesh::Point2> coordinates;
  // A mesh-keyed session is prepared over the mesh adjacency, a
  // matrix-keyed one over the matrix pattern: identical (A, cfg, opts) must
  // not alias across the two, so the source and the graph are key material.
  bool mesh_keyed;
  std::vector<la::Offset> graph_ptr;
  std::vector<la::Index> graph_idx;
  HybridConfig cfg;
  SolverSession session;
  /// Stampede collapse: the one setup for this key runs inside this flag;
  /// concurrent callers block here until the session is prepared.
  std::once_flag setup_once;
  // Guarded by the cache mutex. `ready` turns true once setup has completed
  // while the entry is published; only then are `bytes` part of the cache
  // total and the entry eligible for eviction.
  bool ready = false;
  std::size_t bytes = 0;

  /// Exact key comparison, cheap parts first.
  bool matches(const la::CsrMatrix& a, const HybridConfig& c,
               const AlgebraicOptions& opts, const mesh::Mesh* m) const {
    if (mesh_keyed != (m != nullptr) || cfg != c || A.rows() != a.rows() ||
        A.cols() != a.cols() || A.nnz() != a.nnz() ||
        dirichlet.size() != opts.dirichlet.size() ||
        coordinates.size() != opts.coordinates.size()) {
      return false;
    }
    return same_bytes(A.row_ptr(), a.row_ptr()) &&
           same_bytes(A.col_idx(), a.col_idx()) &&
           same_bytes(A.values(), a.values()) &&
           same_bytes(dirichlet, opts.dirichlet) &&
           same_bytes(coordinates, opts.coordinates) &&
           (m == nullptr || (same_bytes(graph_ptr, m->adj_ptr()) &&
                             same_bytes(graph_idx, m->adj())));
  }

  void setup() {
    AlgebraicOptions owned_opts;
    owned_opts.dirichlet = dirichlet;
    owned_opts.coordinates = coordinates;
    if (mesh_keyed) {
      // Identical to setup(mesh, prob, cfg) — same graph, coords and mask —
      // but run against the entry's operator copy so the prepared state
      // points into the cache, not the caller.
      session.setup_from_graph(A, cfg, graph_ptr, graph_idx, owned_opts);
    } else {
      session.setup(A, cfg, owned_opts);
    }
    // Further setup() on this shared session would re-key it out from under
    // the entry's key (and every concurrent holder).
    session.lock_setup();
  }

  std::size_t measure() const {
    return session.memory_bytes() + dirichlet.size() +
           coordinates.size() * sizeof(mesh::Point2) +
           graph_ptr.size() * sizeof(la::Offset) +
           graph_idx.size() * sizeof(la::Index);
  }
};

std::shared_ptr<SolverSession> SessionCache::lookup_or_insert(
    const la::CsrMatrix& A, const HybridConfig& cfg,
    const AlgebraicOptions& opts, const mesh::Mesh* m) {
  std::shared_ptr<Entry> entry;
  bool inserted = false;
  bool will_wait = false;
  {
    std::lock_guard lock(mutex_);
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const auto& e) { return e->matches(A, cfg, opts, m); });
    if (it != entries_.end()) {
      entry = *it;
      std::rotate(it, it + 1, entries_.end());  // most recently used last
      // A waiter that arrives while the first caller is still inside setup
      // counts as a hit (1 miss + N−1 hits for an N-thread stampede), but is
      // also marked as a stampede-wait: it is about to block in call_once.
      will_wait = !entry->ready;
      ++stats_.hits;
    } else {
      entry = std::make_shared<Entry>(A, cfg, opts, m);
      entries_.push_back(entry);
      inserted = true;
      ++stats_.misses;
    }
  }
  if (inserted) {
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::instance().counter("cache.misses_total");
      c.inc();
    }
    obs::instant("cache.miss");
  } else {
    if (obs::metrics_enabled()) {
      auto& reg = obs::Registry::instance();
      static obs::Counter& c = reg.counter("cache.hits_total");
      static obs::Counter& w = reg.counter("cache.stampede_waits_total");
      c.inc();
      if (will_wait) w.inc();
    }
    obs::instant(will_wait ? "cache.stampede_wait" : "cache.hit");
  }

  // The setup itself runs outside the lock — a long setup must not block
  // lookups of other operators. call_once both collapses the stampede and
  // publishes the prepared state to waiters.
  try {
    std::call_once(entry->setup_once, [&] {
      OBS_SPAN("cache.setup");
      entry->setup();
    });
  } catch (...) {
    // Failed setup (unknown name, missing model, …): unpublish the entry so
    // the key is retryable, then surface the error to this caller. A
    // stampeding waiter retries the setup via call_once semantics and
    // reaches this same path.
    std::lock_guard lock(mutex_);
    std::erase(entries_, entry);
    throw;
  }

  // Re-measure on every touch: the first touch accounts the freshly
  // prepared state, later hits fold in growth the session accrued since (the
  // GNN block path builds merged-shard plans lazily per column count). The
  // measurement walks session state, so it runs before taking the lock, and
  // is folded in only while the entry is still published (an entry removed
  // mid-flight by clear() leaks nothing).
  const std::size_t now = entry->measure();
  // Declared before the lock so evicted sessions are destroyed after it is
  // released.
  std::vector<std::shared_ptr<Entry>> evicted;
  {
    std::lock_guard lock(mutex_);
    if (std::find(entries_.begin(), entries_.end(), entry) != entries_.end()) {
      entry->ready = true;
      if (now > entry->bytes) {
        bytes_ += now - entry->bytes;
        entry->bytes = now;
      }
    }
    const auto is_ready = [](const auto& e) { return e->ready; };
    while (bytes_ > byte_budget_) {
      // The least recently used ready entry goes, unless it is the only
      // ready one: an over-budget single entry is admitted.
      const auto victim =
          std::find_if(entries_.begin(), entries_.end(), is_ready);
      if (victim == entries_.end() ||
          std::none_of(victim + 1, entries_.end(), is_ready)) {
        break;
      }
      bytes_ -= (*victim)->bytes;
      evicted.push_back(std::move(*victim));
      entries_.erase(victim);
      ++stats_.evictions;
    }
  }
  for (const auto& e : evicted) {
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::instance().counter("cache.evictions_total");
      c.inc();
    }
    obs::instant("cache.eviction", "bytes", static_cast<double>(e->bytes));
  }
  return {entry, &entry->session};
}

std::shared_ptr<SolverSession> SessionCache::get_or_setup(
    const mesh::Mesh& m, const fem::PoissonProblem& prob,
    const HybridConfig& cfg) {
  AlgebraicOptions opts;
  opts.dirichlet = prob.dirichlet;
  opts.coordinates = m.points();
  return lookup_or_insert(prob.A, cfg, opts, &m);
}

std::shared_ptr<SolverSession> SessionCache::get_or_setup(
    const la::CsrMatrix& A, const HybridConfig& cfg,
    const AlgebraicOptions& opts) {
  return lookup_or_insert(A, cfg, opts, nullptr);
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t SessionCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::size_t SessionCache::size_bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

void SessionCache::clear() {
  std::vector<std::shared_ptr<Entry>> dropped;  // destroyed after unlocking
  std::lock_guard lock(mutex_);
  dropped.swap(entries_);
  bytes_ = 0;
}

}  // namespace ddmgnn::core
