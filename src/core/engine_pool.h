// QueryEnginePool: thread-safe engine checkout over a shared index.
//
// At query time the hierarchy, the label slab/CSR and the on-disk label
// store are all immutable shared assets; what is NOT shareable is the
// QueryEngine, which owns mutable per-query scratch (seed buffers, radix
// heaps, epoch-stamped search state). The pool closes that gap: Acquire()
// hands the calling thread an engine of its own — a recycled one when a
// previous lease returned it, a freshly constructed one otherwise — as an
// RAII lease that flows the engine back into the free list when it dies.
// Steady-state serving therefore creates exactly as many engines as the
// peak number of concurrent queries, and the per-query overhead is one
// mutex lock/unlock pair on each side of the query.
//
// The pool synchronizes engine *ownership*, nothing else: updates (§8.3)
// and Save/Load still must not run concurrently with queries.

#ifndef ISLABEL_CORE_ENGINE_POOL_H_
#define ISLABEL_CORE_ENGINE_POOL_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/query.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace islabel {

class QueryEnginePool {
 public:
  /// Every engine gets a copy of `provider` for both sides and reads
  /// hierarchy->g_k; the hierarchy and the provider's backing storage
  /// (arena or store) must outlive the pool.
  QueryEnginePool(const VertexHierarchy* hierarchy, LabelProvider provider)
      : QueryEnginePool(hierarchy, {provider, &hierarchy->g_k},
                        {provider, &hierarchy->g_k}) {}
  /// Every engine gets copies of both sides (QueryEngine's two-sided
  /// constructor); the hierarchy, both providers' storage and both sides'
  /// lists must outlive the pool.
  QueryEnginePool(const VertexHierarchy* hierarchy, SearchSide forward,
                  SearchSide reverse)
      : hierarchy_(hierarchy), forward_(forward), reverse_(reverse) {}

  QueryEnginePool(const QueryEnginePool&) = delete;
  QueryEnginePool& operator=(const QueryEnginePool&) = delete;

  /// RAII engine checkout; movable, returns the engine on destruction.
  /// A default-constructed Lease is empty (get() == nullptr).
  class Lease {
   public:
    Lease() = default;
    Lease(QueryEnginePool* pool, std::unique_ptr<QueryEngine> engine)
        : pool_(pool), engine_(std::move(engine)) {}
    ~Lease() { Release(); }

    Lease(Lease&& o) noexcept
        : pool_(o.pool_), engine_(std::move(o.engine_)) {
      o.pool_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        Release();
        pool_ = o.pool_;
        engine_ = std::move(o.engine_);
        o.pool_ = nullptr;
      }
      return *this;
    }

    QueryEngine* get() const { return engine_.get(); }
    QueryEngine* operator->() const { return engine_.get(); }
    QueryEngine& operator*() const { return *engine_; }
    explicit operator bool() const { return engine_ != nullptr; }

   private:
    void Release();

    QueryEnginePool* pool_ = nullptr;
    std::unique_ptr<QueryEngine> engine_;
  };

  /// Returns a leased engine. Never blocks on other queries; an engine is
  /// held by at most one lease at a time.
  Lease Acquire();

  /// Engines constructed over the pool's lifetime — equals the peak number
  /// of simultaneous leases observed (diagnostics/tests).
  std::size_t EnginesCreated() const {
    MutexLock lock(&mu_);
    return created_;
  }

  /// Registry-backed instruments (DESIGN.md §16). The gauge and counter
  /// are SHARED across pools via Add/Inc deltas, so pool occupancy
  /// survives ResetPool and sums across partitioned-index parts. All
  /// pointers must outlive the pool; null fields disable that signal.
  /// Lease wait is timed by the trace's pool_wait stage, not here.
  struct PoolMetrics {
    obs::Gauge* leases_active = nullptr;    // +1 per live lease
    obs::Counter* engines_created = nullptr;
  };
  void SetMetrics(const PoolMetrics& metrics) {
    leases_active_.store(metrics.leases_active, std::memory_order_release);
    engines_created_.store(metrics.engines_created,
                           std::memory_order_release);
  }

 private:
  friend class Lease;
  void Return(std::unique_ptr<QueryEngine> engine);

  const VertexHierarchy* hierarchy_;
  SearchSide forward_;
  SearchSide reverse_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<QueryEngine>> free_ GUARDED_BY(mu_);
  std::size_t created_ GUARDED_BY(mu_) = 0;

  // Installed once before serving; read lock-free on the query path.
  std::atomic<obs::Gauge*> leases_active_{nullptr};
  std::atomic<obs::Counter*> engines_created_{nullptr};
};

}  // namespace islabel

#endif  // ISLABEL_CORE_ENGINE_POOL_H_
