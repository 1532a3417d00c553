#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace islabel {
namespace obs {

namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// Recorder ids are minted once and never reused, so a destroyed
/// recorder's thread-local cache entries can never match a live one.
std::uint64_t NextRecorderId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

inline constexpr int kDatasetWords = 2;
inline constexpr std::size_t kDatasetMax = kDatasetWords * 8 - 1;  // + NUL

inline constexpr std::uint8_t kFlagError = 1;
inline constexpr std::uint8_t kFlagCacheHit = 2;

/// Per-thread cache of (recorder id → ring). A handful of entries,
/// round-robin replaced: a thread recording into more recorders than
/// this re-resolves through the registry mutex (and gets a fresh ring,
/// which the snapshot merge handles transparently).
inline constexpr std::size_t kRingCacheSlots = 4;
struct RingCacheEntry {
  std::uint64_t recorder_id = 0;
  void* ring = nullptr;
};
thread_local RingCacheEntry g_ring_cache[kRingCacheSlots] = {};
thread_local std::size_t g_ring_cache_next = 0;

}  // namespace

/// One record, every field a relaxed atomic under a per-slot seqlock
/// version (odd while a write is in flight) — scrapes read lock-free
/// and TSan-clean, skipping torn slots.
struct FlightRecorder::Slot {
  std::atomic<std::uint64_t> version{0};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> end_ms{0};
  std::atomic<std::uint64_t> total_us{0};
  std::atomic<std::uint64_t> stage_us[kNumStages] = {};
  std::atomic<const char*> verb{""};
  std::atomic<std::uint64_t> dataset_words[kDatasetWords] = {};
  std::atomic<std::uint8_t> flags{0};
};

struct FlightRecorder::Ring {
  explicit Ring(std::size_t capacity) : slots(capacity) {}
  std::vector<Slot> slots;
  /// Monotonic write cursor. Only the owning thread increments it; it
  /// is atomic because scrapes read it to bound their slot walk.
  std::atomic<std::uint64_t> write_count{0};
};

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : capacity_(RoundUpPow2(options.capacity_per_thread < 2
                                ? 2
                                : options.capacity_per_thread)),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()),
      recorder_id_(NextRecorderId()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  for (const RingCacheEntry& entry : g_ring_cache) {
    if (entry.recorder_id == recorder_id_) {
      return static_cast<Ring*>(entry.ring);
    }
  }
  Ring* ring = nullptr;
  {
    MutexLock lock(&mu_);
    rings_.push_back(std::make_unique<Ring>(capacity_));
    ring = rings_.back().get();
  }
  g_ring_cache[g_ring_cache_next] = RingCacheEntry{recorder_id_, ring};
  g_ring_cache_next = (g_ring_cache_next + 1) % kRingCacheSlots;
  return ring;
}

void FlightRecorder::Record(const char* verb, std::string_view dataset,
                            bool error, std::uint64_t total_us,
                            const QueryTrace& trace) {
  if (!enabled()) return;
  Ring* ring = RingForThisThread();
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t cursor =
      ring->write_count.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[cursor & (capacity_ - 1)];
  ring->write_count.store(cursor + 1, std::memory_order_relaxed);

  const std::uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_release);  // odd: in flight
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.trace_id.store(trace.trace_id(), std::memory_order_relaxed);
  slot.end_ms.store(clock_->NowMs(), std::memory_order_relaxed);
  slot.total_us.store(total_us, std::memory_order_relaxed);
  for (int i = 0; i < kNumStages; ++i) {
    slot.stage_us[i].store(trace.StageMicros(static_cast<Stage>(i)),
                           std::memory_order_relaxed);
  }
  slot.verb.store(verb, std::memory_order_relaxed);
  char packed[kDatasetWords * 8] = {};
  const std::size_t n = std::min(dataset.size(), kDatasetMax);
  std::memcpy(packed, dataset.data(), n);
  for (int w = 0; w < kDatasetWords; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, packed + w * 8, 8);
    slot.dataset_words[w].store(word, std::memory_order_relaxed);
  }
  slot.flags.store(
      static_cast<std::uint8_t>((error ? kFlagError : 0) |
                                (trace.cache_hit() ? kFlagCacheHit : 0)),
      std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);  // even: readable
}

std::size_t FlightRecorder::num_rings() const {
  MutexLock lock(&mu_);
  return rings_.size();
}

std::vector<FlightRecord> FlightRecorder::Snapshot(
    std::size_t max_records) const {
  std::vector<FlightRecord> out;
  {
    MutexLock lock(&mu_);
    for (const std::unique_ptr<Ring>& ring : rings_) {
      const std::uint64_t written =
          ring->write_count.load(std::memory_order_acquire);
      const std::uint64_t filled =
          written < ring->slots.size() ? written : ring->slots.size();
      for (std::uint64_t i = 0; i < filled; ++i) {
        const Slot& slot = ring->slots[i];
        const std::uint64_t v1 =
            slot.version.load(std::memory_order_acquire);
        if (v1 & 1) continue;  // write in flight
        FlightRecord rec;
        rec.seq = slot.seq.load(std::memory_order_relaxed);
        rec.trace_id = slot.trace_id.load(std::memory_order_relaxed);
        rec.end_ms = slot.end_ms.load(std::memory_order_relaxed);
        rec.total_us = slot.total_us.load(std::memory_order_relaxed);
        for (int s = 0; s < kNumStages; ++s) {
          rec.stage_us[s] = slot.stage_us[s].load(std::memory_order_relaxed);
        }
        rec.verb = slot.verb.load(std::memory_order_relaxed);
        char packed[kDatasetWords * 8 + 1] = {};
        for (int w = 0; w < kDatasetWords; ++w) {
          const std::uint64_t word =
              slot.dataset_words[w].load(std::memory_order_relaxed);
          std::memcpy(packed + w * 8, &word, 8);
        }
        const std::uint8_t flags =
            slot.flags.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        const std::uint64_t v2 =
            slot.version.load(std::memory_order_relaxed);
        if (v1 != v2 || rec.seq == 0) continue;  // torn or never written
        rec.dataset = packed;
        rec.error = (flags & kFlagError) != 0;
        rec.cache_hit = (flags & kFlagCacheHit) != 0;
        out.push_back(std::move(rec));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq > b.seq;
            });
  if (max_records != 0 && out.size() > max_records) out.resize(max_records);
  return out;
}

std::string FlightRecorder::RenderTracez(TracezMode mode, std::uint64_t id,
                                         std::size_t limit) const {
  std::vector<FlightRecord> records = Snapshot(0);  // newest first
  const std::uint64_t total = records.size();
  switch (mode) {
    case TracezMode::kRecent:
      break;
    case TracezMode::kSlow:
      std::stable_sort(records.begin(), records.end(),
                       [](const FlightRecord& a, const FlightRecord& b) {
                         return a.total_us > b.total_us;
                       });
      break;
    case TracezMode::kErrors:
      records.erase(std::remove_if(records.begin(), records.end(),
                                   [](const FlightRecord& r) {
                                     return !r.error;
                                   }),
                    records.end());
      break;
    case TracezMode::kById:
      records.erase(std::remove_if(records.begin(), records.end(),
                                   [id](const FlightRecord& r) {
                                     return r.trace_id != id;
                                   }),
                    records.end());
      // Oldest first: the request's causal order across retries.
      std::reverse(records.begin(), records.end());
      break;
  }
  if (limit != 0 && records.size() > limit) records.resize(limit);

  const std::uint64_t now_ms = clock_->NowMs();
  std::string out = "tracez:";
  char head[160];
  std::snprintf(head, sizeof(head),
                " records=%" PRIu64 " shown=%zu capacity_per_thread=%zu"
                " threads=%zu enabled=%d",
                total, records.size(), capacity_, num_rings(),
                enabled() ? 1 : 0);
  out += head;
  for (const FlightRecord& rec : records) {
    const std::string tid =
        rec.trace_id == 0 ? "-" : FormatTraceId(rec.trace_id);
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "\ntrace id=%s seq=%" PRIu64 " verb=%s dataset=%s status=%s"
        " total_us=%" PRIu64 " parse_us=%" PRIu64 " cache_us=%" PRIu64
        " pool_wait_us=%" PRIu64 " kernel_us=%" PRIu64 " encode_us=%" PRIu64
        " cache_hit=%d age_ms=%" PRIu64,
        tid.c_str(), rec.seq, rec.verb,
        rec.dataset.empty() ? "-" : rec.dataset.c_str(),
        rec.error ? "error" : "ok", rec.total_us,
        rec.stage_us[static_cast<int>(Stage::kParse)],
        rec.stage_us[static_cast<int>(Stage::kCacheLookup)],
        rec.stage_us[static_cast<int>(Stage::kPoolWait)],
        rec.stage_us[static_cast<int>(Stage::kKernel)],
        rec.stage_us[static_cast<int>(Stage::kEncode)],
        rec.cache_hit ? 1 : 0,
        now_ms >= rec.end_ms ? now_ms - rec.end_ms : 0);
    out += line;
  }
  out += "\n# EOF";
  return out;
}

}  // namespace obs
}  // namespace islabel
