// I/O-efficient top-down vertex labeling (Algorithm 4, lines 5-17): the
// block nested loop join.
//
// Completed labels (levels j > i plus the residual core) live in an
// append-only disk file BU. The labels under construction — those of the
// current level L_i — are processed in memory-budgeted blocks BL: for each
// block, BU is scanned sequentially once, and every completed label(u)
// found there is joined into the block's label(v) accumulators for each v
// with u ∈ adj_{G_i}(v). Finished blocks are appended to BU, which is then
// ready for level i-1.
//
// This realizes the paper's I/O bound O(Σ_i (bL(i)/M) · (bU(i)/B)): the
// number of BU scans per level is the number of BL blocks. Results are
// bit-identical to ComputeLabelsTopDown (tests assert this).
//
// Completed labels are not kept in RAM: only their lengths are. After the
// last level one more sequential BU scan reads every payload straight
// into its slot of the arena slab, so the peak is one label set.
//
// A BU record is the vertex id, the entry count (uint32) and the raw
// LabelEntry payload, written and scanned through storage/record_stream.h.

#include <algorithm>
#include <unordered_map>

#include "core/labeling.h"
#include "core/options.h"
#include "storage/block_file.h"
#include "storage/record_stream.h"
#include "util/io_stats.h"
#include "util/result.h"

namespace islabel {

Result<LabelArena> ComputeLabelsTopDownExternal(const VertexHierarchy& h,
                                                const IndexOptions& options,
                                                LabelingStats* stats,
                                                IoStats* io) {
  const VertexId n = h.NumVertices();
  // |label(v)| of every label appended to BU; the only per-vertex state
  // kept in RAM until the final scan.
  std::vector<std::uint32_t> lengths(n, 0);

  TempFiles temps(options.tmp_dir);
  BlockFile bu;
  ISLABEL_RETURN_IF_ERROR(bu.Open(temps.Fresh("labels_bu"), /*truncate=*/true));
  RecordWriter bu_out(&bu);

  // Initialization (lines 1-4): residual-core labels are trivial; they seed
  // BU.
  for (VertexId v = 0; v < n; ++v) {
    if (h.level[v] == h.k) {
      lengths[v] = 1;
      ISLABEL_RETURN_IF_ERROR(bu_out.Add(v));
      ISLABEL_RETURN_IF_ERROR(bu_out.Add(lengths[v]));
      ISLABEL_RETURN_IF_ERROR(bu_out.Add(LabelEntry(v, 0)));
    }
  }

  // Top-down: one level at a time, each level in BL blocks.
  const std::size_t block_bytes =
      std::max<std::size_t>(options.memory_budget_bytes, 1024);
  std::unordered_map<VertexId, std::vector<VertexId>> consumers;
  std::vector<std::vector<LabelEntry>> accumulators;
  std::unordered_map<VertexId, std::size_t> acc_index;

  for (std::uint32_t i = h.k; i-- > 1;) {
    const std::vector<VertexId>& level = h.levels[i];
    std::size_t begin = 0;
    while (begin < level.size()) {
      // Form the next BL block under the memory budget (estimated by the
      // block's adjacency volume; accumulator growth is proportional).
      std::size_t end = begin;
      std::size_t bytes = 0;
      while (end < level.size() &&
             (end == begin || bytes < block_bytes)) {
        bytes += sizeof(LabelEntry) *
                 (1 + 4 * h.removed_adj[level[end]].size());
        ++end;
      }

      // Index: which block vertices listen to which upper vertex, plus the
      // per-edge weight/via. consumers[u] -> block members adjacent to u.
      consumers.clear();
      accumulators.assign(end - begin, {});
      acc_index.clear();
      for (std::size_t b = begin; b < end; ++b) {
        const VertexId v = level[b];
        acc_index[v] = b - begin;
        // Heuristic reservation (matches the block-sizing estimate above);
        // labels larger than ~4 entries per upper neighbor still grow.
        accumulators[b - begin].reserve(1 + 4 * h.removed_adj[v].size());
        accumulators[b - begin].emplace_back(v, 0);
        for (const HierEdge& e : h.removed_adj[v]) {
          consumers[e.to].push_back(v);
        }
      }

      // One sequential BU scan joins every completed upper label into the
      // block (lines 8-17).
      ISLABEL_RETURN_IF_ERROR(bu_out.Flush());
      RecordReader scan(&bu);
      VertexId u = 0;
      std::vector<LabelEntry> label_u;
      while (scan.Next(&u)) {
        std::uint32_t count = 0;
        ISLABEL_RETURN_IF_ERROR(scan.Read(&count, 1));
        label_u.resize(count);
        ISLABEL_RETURN_IF_ERROR(scan.Read(label_u.data(), count));
        auto it = consumers.find(u);
        if (it == consumers.end()) continue;
        for (VertexId v : it->second) {
          // Weight/via of the edge (v, u) in G_i.
          const auto& adj = h.removed_adj[v];
          auto eit = std::lower_bound(
              adj.begin(), adj.end(), u,
              [](const HierEdge& e, VertexId node) { return e.to < node; });
          // adj is sorted by target and u is guaranteed present.
          auto& acc = accumulators[acc_index[v]];
          for (const LabelEntry& le : label_u) {
            const VertexId via = (le.node == u) ? eit->via : u;
            acc.emplace_back(le.node,
                             static_cast<Distance>(eit->w) + le.dist, via);
          }
        }
      }
      ISLABEL_RETURN_IF_ERROR(scan.status());

      // Finish the block: dedupe and append to BU.
      for (std::size_t b = begin; b < end; ++b) {
        const VertexId v = level[b];
        auto& acc = accumulators[b - begin];
        // The shared collapse rule keeps this pipeline bit-identical to
        // the in-memory one.
        acc.resize(SortAndDedupeRange(acc.data(), acc.size()));
        lengths[v] = static_cast<std::uint32_t>(acc.size());
        ISLABEL_RETURN_IF_ERROR(bu_out.Add(v));
        ISLABEL_RETURN_IF_ERROR(bu_out.Add(lengths[v]));
        ISLABEL_RETURN_IF_ERROR(
            bu_out.Write(acc.data(), acc.size() * sizeof(LabelEntry)));
      }
      begin = end;
    }
  }
  consumers.clear();
  accumulators.clear();
  acc_index.clear();

  // BU now holds every final label once. Size the CSR from the recorded
  // lengths and read each payload straight into its slab slot — the same
  // vertex-ordered layout the in-memory path builds (tests assert arena
  // equality).
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + lengths[v];
  std::vector<LabelEntry> slab(static_cast<std::size_t>(offsets[n]));
  ISLABEL_RETURN_IF_ERROR(bu_out.Flush());
  RecordReader scan(&bu);
  VertexId v = 0;
  while (scan.Next(&v)) {
    std::uint32_t count = 0;
    ISLABEL_RETURN_IF_ERROR(scan.Read(&count, 1));
    if (v >= n || count != lengths[v]) {
      return Status::Corruption("label file BU disagrees with its lengths");
    }
    ISLABEL_RETURN_IF_ERROR(scan.Read(slab.data() + offsets[v], count));
  }
  ISLABEL_RETURN_IF_ERROR(scan.status());
  if (io != nullptr) *io += bu.stats();

  if (stats != nullptr) {
    *stats = LabelingStats{};
    for (std::uint32_t len : lengths) {
      stats->total_entries += len;
      stats->max_entries = std::max<std::uint64_t>(stats->max_entries, len);
      stats->bytes_in_memory += len * sizeof(LabelEntry);
    }
  }
  LabelArena arena(std::move(slab), std::move(offsets));
  arena.ComputeSeedCuts(h.level, h.k);
  return arena;
}

}  // namespace islabel
