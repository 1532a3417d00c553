// The traced run's in-process replay: one thread walks a request sequence
// through the same public calls the server makes for a `S T` line, and
// times each call as a span.
//
//   request
//   ├─ protocol.parse    server::ParseRequest
//   ├─ cache.lookup      QueryCache::generation + Lookup (or no-cache check)
//   ├─ pool.acquire      QueryEnginePool::Acquire            (misses only)
//   ├─ label.fetch       LabelProvider::View x2              (misses only)
//   ├─ eq1.merge         EvaluateEq1                         (misses only)
//   ├─ kernel.query      QueryEngine::Query with QueryStats  (misses only)
//   ├─ pool.release      the lease returning its engine      (misses only)
//   ├─ cache.insert      QueryCache::Insert (or the no-cache check)
//   └─ protocol.encode   server::FormatDistance
//
// QueryEngine::Query cannot be split from outside src/, so label.fetch and
// eq1.merge re-run the kernel's first two steps on the same inputs just
// before it. The search's self time is kernel.query - label.fetch -
// eq1.merge, and the layer shares count the fetch and merge once.

#ifndef ISLABEL_PERF_REPLAY_H_
#define ISLABEL_PERF_REPLAY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/partitioned_index.h"
#include "core/index.h"
#include "perf/common.h"

namespace islabel {
namespace perf {

/// One served dataset as the replay routes into it.
struct ServedDataset {
  /// A catalog dataset's current index, pinned for the replay; null for a
  /// single index, which is then parts[0].
  std::shared_ptr<PartitionedIndex> partitioned;
  std::vector<ISLabelIndex*> parts;
  /// Disk mode: the served labels.isl, opened a second time so the
  /// replayed label.fetch pays the same pread + decode while the served
  /// store's counters (storage.*) see only the kernel's reads. Empty when
  /// labels are in memory.
  std::string labels_file;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  /// Self-time share of each layer, percent of the summed request time.
  std::map<std::string, double> shares_pct;
  /// Sum of the shares: 100 minus the duplicated fetch + merge.
  double shares_sum_pct = 0.0;
  double request_p50_us = 0.0;
};

/// Replays `replayed` with spans on and, alternately, off (for
/// trace.overhead_pct), each pass against fresh caches (when `cached`, as
/// the served system has) holding the answers of `warm`, and writes the
/// last traced pass's spans as JSON lines to `span_path`. The kernel
/// executions of computing `warm` count in the kernel-path metrics too.
ReplayResult Replay(const std::vector<ServedDataset>& served, bool cached,
                    const std::vector<StreamRequest>& replayed,
                    const std::vector<StreamRequest>& warm,
                    const std::string& span_path);

}  // namespace perf
}  // namespace islabel

#endif  // ISLABEL_PERF_REPLAY_H_
