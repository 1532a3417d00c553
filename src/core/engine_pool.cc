#include "core/engine_pool.h"

#include "obs/trace.h"

namespace islabel {

QueryEnginePool::Lease QueryEnginePool::Acquire() {
  obs::StageTimer span(obs::Stage::kPoolWait);
  std::unique_ptr<QueryEngine> engine;
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
    // Construction happens outside the lock; the constructor only stores
    // pointers (scratch is lazily sized at the engine's first query).
    engine = std::make_unique<QueryEngine>(hierarchy_, forward_, reverse_);
  }
  if (auto* g = leases_active_.load(std::memory_order_acquire)) g->Add(1);
  return Lease(this, std::move(engine));
}

void QueryEnginePool::Return(std::unique_ptr<QueryEngine> engine) {
  MutexLock lock(&mu_);
  free_.push_back(std::move(engine));
}

void QueryEnginePool::Lease::Release() {
  if (pool_ != nullptr && engine_ != nullptr) {
    if (auto* g = pool_->leases_active_.load(std::memory_order_acquire)) {
      g->Add(-1);
    }
    pool_->Return(std::move(engine_));
  }
  pool_ = nullptr;
  engine_.reset();
}

}  // namespace islabel
