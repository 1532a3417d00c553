// QueryCache: sharded LRU distance cache with generation invalidation.
//
// Point-to-point distance workloads are heavily skewed (popular landmark
// pairs repeat), so a small result cache in front of the label engine
// amortizes even IS-LABEL's microsecond queries. The cache is keyed on
// the canonicalized pair (min(s,t), max(s,t)) — the index is undirected,
// so (s, t) and (t, s) share one entry — and is mutex-striped into
// power-of-two shards so concurrent server workers rarely contend.
//
// Staleness: instead of walking every shard on an index update, the
// cache carries a generation counter. Entries remember the generation
// they were inserted under; Lookup rejects (and lazily erases) entries
// from older generations. ISLabelIndex bumps the generation at the end
// of every update (InsertVertex / DeleteVertex), and the catalog on every
// reload, so a stale distance is never served across an update — cached
// answers are always bit-identical to what the engine would currently
// compute, including the paper's §8.3 lazy-delete semantics where the
// *engine's* answer may itself route through a deleted below-core vertex.

#ifndef ISLABEL_SERVER_QUERY_CACHE_H_
#define ISLABEL_SERVER_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/distance_cache.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace islabel {
namespace server {

struct QueryCacheOptions {
  /// Total capacity across all shards. The per-entry cost is accounted
  /// with kBytesPerEntry (map node + LRU node + bookkeeping).
  std::size_t capacity_bytes = 64u << 20;
  /// Rounded up to a power of two; 0 picks a default (16).
  std::size_t num_shards = 16;
  /// When set, the per-shard hit/miss/eviction/invalidation counters and
  /// the entries/generation gauges register here (DESIGN.md §16); when
  /// null the cache counts into private instruments so GetStats always
  /// works. The registry must outlive the cache.
  obs::MetricRegistry* metrics = nullptr;
  /// `dataset` label value for the registered series; empty omits it
  /// (single-index serving).
  std::string metrics_dataset;
};

struct QueryCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;
  std::uint64_t gen_invalidations = 0;
  std::uint64_t generation = 0;
  std::uint64_t capacity_entries = 0;
};

class QueryCache : public DistanceCache {
 public:
  /// Approximate memory cost of one cached pair: unordered_map node
  /// (~48 B) + std::list node (~40 B) on a 64-bit libstdc++.
  static constexpr std::size_t kBytesPerEntry = 88;

  explicit QueryCache(const QueryCacheOptions& options = {});

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // DistanceCache interface; all thread-safe.
  std::uint64_t generation() const override {
    return generation_.load(std::memory_order_acquire);
  }
  bool Lookup(VertexId s, VertexId t, Distance* out) override;
  void Insert(VertexId s, VertexId t, Distance d,
              std::uint64_t generation) override;
  void BumpGeneration() override;

  /// Convenience for tests/tools: insert under the current generation.
  void Insert(VertexId s, VertexId t, Distance d) {
    Insert(s, t, d, generation());
  }

  /// Aggregated over all shards (hits/misses are exact, entries is a
  /// point-in-time sum).
  QueryCacheStats GetStats() const;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t capacity_entries() const { return capacity_entries_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    Distance dist = 0;
    std::uint64_t generation = 0;
  };

  /// One mutex-striped LRU: list front = most recent; map values point
  /// into the list. Counters are obs::Counter (atomic) — registered as
  /// per-shard registry series when QueryCacheOptions::metrics is set,
  /// private otherwise; the pointers alias `own_*` in the private case.
  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map
        GUARDED_BY(mu);
    obs::Counter own_hits, own_misses, own_evictions, own_invalidations;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* gen_invalidations = nullptr;
  };

  static std::uint64_t Key(VertexId s, VertexId t) {
    if (s > t) std::swap(s, t);
    return (static_cast<std::uint64_t>(s) << 32) | t;
  }
  Shard& ShardFor(std::uint64_t key) {
    // Mix the high half in so pairs sharing a low endpoint spread out.
    const std::uint64_t h = key ^ (key >> 32) ^ (key >> 17);
    return shards_[h & shard_mask_];
  }

  std::vector<Shard> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::size_t capacity_entries_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  // Cache-wide gauges, null without a registry (entries via Add deltas
  // under the shard locks, generation via Set).
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* generation_gauge_ = nullptr;
};

}  // namespace server
}  // namespace islabel

#endif  // ISLABEL_SERVER_QUERY_CACHE_H_
