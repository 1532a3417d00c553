// Vertex labeling (Definition 3) and its efficient top-down computation
// (Algorithm 4).
//
// label(v) holds one entry per ancestor u of v in the level-increasing
// DAG, with d(v,u) = the shortest strictly-level-increasing path length
// from v to u. d is an upper bound on dist_G(v,u) (Example 3: d(h,e)=4 >
// dist(h,e)=3) yet Lemma 5 shows it is exact for the max-level vertex of
// any shortest path, which is all Equation 1 needs.
//
// Two implementations are provided:
//   * ComputeLabelDefinition3 — the literal marked-vertex procedure of
//     Definition 3, per vertex; quadratic-ish and used as the test oracle.
//   * ComputeLabelsTopDown — Algorithm 4: initialize each label with the
//     vertex's DAG out-edges, then propagate complete labels from level
//     k-1 down to 1 (Corollary 1). This is the production path; it builds
//     the contiguous LabelArena directly and parallelizes each level
//     (vertices of L_i only read completed upper-level labels, so a level
//     is an embarrassingly parallel two-pass: size/prefix-sum the label
//     regions, then fill them concurrently).

#ifndef ISLABEL_CORE_LABELING_H_
#define ISLABEL_CORE_LABELING_H_

#include <cstdint>
#include <vector>

#include "core/hierarchy.h"
#include "core/label_arena.h"
#include "core/label_entry.h"
#include "core/options.h"
#include "util/io_stats.h"
#include "util/result.h"

namespace islabel {

/// Counters describing a labeling run.
struct LabelingStats {
  std::uint64_t total_entries = 0;
  std::uint64_t max_entries = 0;      // largest single label
  /// Serialized size estimate (the varint-coded on-disk footprint is
  /// smaller; this is the 12-byte-per-entry in-memory figure).
  std::uint64_t bytes_in_memory = 0;
};

/// Algorithm 4. Labels for every vertex of G, top-down, emitted as one
/// contiguous arena (seed cuts included). `num_threads` parallelizes each
/// level (0 = hardware concurrency); the result is byte-identical for
/// every thread count.
LabelArena ComputeLabelsTopDown(const VertexHierarchy& h,
                                LabelingStats* stats = nullptr,
                                std::uint32_t num_threads = 1);

/// Algorithm 4's I/O-efficient block nested loop join (§6.1.4): completed
/// upper-level labels stream from a disk file; the current level is
/// processed in blocks bounded by options.memory_budget_bytes. Produces
/// labels identical to ComputeLabelsTopDown with I/O accounted in *io.
/// Declared here, implemented in labeling_external.cc.
Result<LabelArena> ComputeLabelsTopDownExternal(const VertexHierarchy& h,
                                                const IndexOptions& options,
                                                LabelingStats* stats,
                                                IoStats* io);

/// Reusable cross-call state for ComputeLabelDefinition3: an epoch-stamped
/// dense best-distance array, so repeated oracle calls (tests sweep every
/// vertex) cost O(touched) instead of hashing.
struct Definition3Scratch {
  std::vector<LabelEntry> best;       // valid iff stamp[v] == epoch
  std::vector<std::uint32_t> stamp;
  std::vector<VertexId> touched;
  std::uint32_t epoch = 0;
};

/// Definition 3, literal, for one vertex. Test oracle. Pass a scratch to
/// amortize the dense arrays across calls; nullptr allocates locally.
std::vector<LabelEntry> ComputeLabelDefinition3(
    const VertexHierarchy& h, VertexId v,
    Definition3Scratch* scratch = nullptr);

/// Collapses a label-candidate multiset in place: sort by (ancestor,
/// dist, via) and keep the first record per ancestor, so the survivor is
/// the minimum distance with the via vertex as a deterministic tiebreak
/// independent of candidate generation order. Returns the deduped length.
/// The in-memory and external pipelines must share this exact rule to
/// stay bit-identical (tests assert arena equality).
std::size_t SortAndDedupeRange(LabelEntry* entries, std::size_t count);

}  // namespace islabel

#endif  // ISLABEL_CORE_LABELING_H_
