// EnginePool<T>: thread-safe checkout of per-query scratch over a shared
// index — the one pool of every backend.
//
// At query time a backend's index is an immutable shared asset; what is
// NOT shareable is the scratch a query mutates: a QueryEngine for
// IS-LABEL (seed buffers, radix heaps, epoch-stamped search state), a
// ContractionHierarchy::Scratch for CH. The pool closes that gap:
// Acquire() hands the calling thread a T of its own — a recycled one when
// a previous lease returned it, one from the pool's factory otherwise —
// as an RAII lease that flows it back into the free list when it dies.
// Steady-state serving therefore creates exactly as many engines as the
// peak number of concurrent queries, and the per-query overhead is one
// mutex lock/unlock pair on each side of the query.
//
// An index builds its pool once and keeps it for life. The pool
// synchronizes engine *ownership*, nothing else: updates (§8.3) and
// Save/Load still must not run concurrently with queries, and a pooled
// QueryEngine absorbs an update at its next query
// (QueryEngine::EnsureScratch).

#ifndef ISLABEL_CORE_ENGINE_POOL_H_
#define ISLABEL_CORE_ENGINE_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace islabel {

template <typename T>
class EnginePool {
 public:
  /// Makes one engine. Runs outside the pool's lock, possibly on several
  /// threads at once; whatever it captures must outlive the pool.
  using Factory = std::function<std::unique_ptr<T>()>;

  explicit EnginePool(Factory factory) : factory_(std::move(factory)) {}

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// RAII engine checkout; movable, returns the engine on destruction.
  /// A default-constructed Lease is empty (get() == nullptr).
  class Lease {
   public:
    Lease() = default;
    ~Lease() { Release(); }

    Lease(Lease&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)),
          engine_(std::move(o.engine_)) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        Release();
        pool_ = std::exchange(o.pool_, nullptr);
        engine_ = std::move(o.engine_);
      }
      return *this;
    }

    T* get() const { return engine_.get(); }
    T* operator->() const { return engine_.get(); }
    T& operator*() const { return *engine_; }
    explicit operator bool() const { return engine_ != nullptr; }

   private:
    friend class EnginePool;
    Lease(EnginePool* pool, std::unique_ptr<T> engine)
        : pool_(pool), engine_(std::move(engine)) {}

    void Release() {
      if (pool_ != nullptr && engine_ != nullptr) {
        pool_->Return(std::move(engine_));
      }
      pool_ = nullptr;
      engine_.reset();
    }

    EnginePool* pool_ = nullptr;
    std::unique_ptr<T> engine_;
  };

  /// Returns a leased engine. Never blocks on other queries; an engine is
  /// held by at most one lease at a time. The wait is the active trace's
  /// pool_wait stage (DESIGN.md §16.2).
  Lease Acquire() {
    obs::StageTimer span(obs::Stage::kPoolWait);
    std::unique_ptr<T> engine;
    {
      MutexLock lock(&mu_);
      if (!free_.empty()) {
        engine = std::move(free_.back());
        free_.pop_back();
      } else {
        ++created_;
      }
    }
    if (engine == nullptr) {
      if (auto* c = engines_created_.load(std::memory_order_acquire)) c->Inc();
      engine = factory_();
    }
    if (auto* g = leases_active_.load(std::memory_order_acquire)) g->Add(1);
    return Lease(this, std::move(engine));
  }

  /// Engines constructed over the pool's lifetime — equals the peak number
  /// of simultaneous leases observed (diagnostics/tests).
  std::size_t EnginesCreated() const {
    MutexLock lock(&mu_);
    return created_;
  }

  /// Registry-backed instruments (DESIGN.md §16). The gauge and counter
  /// are SHARED across pools via Add/Inc deltas, so they sum across
  /// partitioned-index parts and reloaded indexes. All pointers must
  /// outlive the pool; null fields disable that signal.
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
  void Return(std::unique_ptr<T> engine) {
    if (auto* g = leases_active_.load(std::memory_order_acquire)) g->Add(-1);
    MutexLock lock(&mu_);
    free_.push_back(std::move(engine));
  }

  const Factory factory_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<T>> free_ GUARDED_BY(mu_);
  std::size_t created_ GUARDED_BY(mu_) = 0;

  // Installed once before serving; read lock-free on the query path.
  std::atomic<obs::Gauge*> leases_active_{nullptr};
  std::atomic<obs::Counter*> engines_created_{nullptr};
};

class QueryEngine;  // core/query.h

/// IS-LABEL's pool: ISLabelIndex and DirectedISLabel lease their
/// QueryEngines from one of these.
using QueryEnginePool = EnginePool<QueryEngine>;

}  // namespace islabel

#endif  // ISLABEL_CORE_ENGINE_POOL_H_
