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

#include <algorithm>
#include <unordered_map>

#include "core/labeling.h"
#include "core/options.h"
#include "storage/block_file.h"
#include "storage/external_sorter.h"
#include "util/io_stats.h"
#include "util/result.h"

namespace islabel {

namespace {

// On-disk label record: header (vertex, entry count) + raw LabelEntry
// payload.
struct LabelHeader {
  VertexId vertex;
  std::uint32_t count;
};

Status AppendLabel(BlockFile* file, VertexId v,
                   const std::vector<LabelEntry>& label) {
  LabelHeader h{v, static_cast<std::uint32_t>(label.size())};
  ISLABEL_RETURN_IF_ERROR(file->Append(&h, sizeof(h), nullptr));
  if (!label.empty()) {
    ISLABEL_RETURN_IF_ERROR(
        file->Append(label.data(), label.size() * sizeof(LabelEntry),
                     nullptr));
  }
  return Status::OK();
}

// Sequential scanner over a BU file: Next() reads a record header, then
// ReadEntries() reads its payload before the next Next().
class LabelScanner {
 public:
  explicit LabelScanner(BlockFile* file)
      : file_(file), end_(file->FileSize()) {}

  /// Reads the next record header; false at end-of-file. The scan covers
  /// the file as it was at construction (records appended later belong
  /// to lower levels and must not be seen by this scan).
  Status Next(LabelHeader* h, bool* ok) {
    *ok = pos_ < end_;
    if (!*ok) return Status::OK();
    ISLABEL_RETURN_IF_ERROR(file_->ReadAt(pos_, h, sizeof(*h)));
    pos_ += sizeof(*h);
    return Status::OK();
  }

  /// Reads the current record's `count` entries into dst.
  Status ReadEntries(std::uint32_t count, LabelEntry* dst) {
    if (count == 0) return Status::OK();
    ISLABEL_RETURN_IF_ERROR(
        file_->ReadAt(pos_, dst, count * sizeof(LabelEntry)));
    pos_ += count * sizeof(LabelEntry);
    return Status::OK();
  }

 private:
  BlockFile* file_;
  std::uint64_t pos_ = 0;
  std::uint64_t end_;
};

}  // namespace

Result<LabelArena> ComputeLabelsTopDownExternal(const VertexHierarchy& h,
                                                const IndexOptions& options,
                                                LabelingStats* stats,
                                                IoStats* io) {
  const VertexId n = h.NumVertices();
  // |label(v)| of every label appended to BU; the only per-vertex state
  // kept in RAM until the final scan.
  std::vector<std::uint32_t> lengths(n, 0);

  BlockFile bu;
  const std::string bu_path = NextTempPath(options.tmp_dir, "labels_bu");
  ISLABEL_RETURN_IF_ERROR(bu.Open(bu_path, /*truncate=*/true));

  // Initialization (lines 1-4): residual-core labels are trivial; they seed
  // BU.
  for (VertexId v = 0; v < n; ++v) {
    if (h.level[v] == h.k) {
      ISLABEL_RETURN_IF_ERROR(AppendLabel(&bu, v, {LabelEntry(v, 0)}));
      lengths[v] = 1;
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
      LabelScanner scan(&bu);
      LabelHeader rec;
      std::vector<LabelEntry> label_u;
      bool ok = false;
      while (true) {
        ISLABEL_RETURN_IF_ERROR(scan.Next(&rec, &ok));
        if (!ok) break;
        label_u.resize(rec.count);
        ISLABEL_RETURN_IF_ERROR(scan.ReadEntries(rec.count, label_u.data()));
        const VertexId u = rec.vertex;
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

      // Finish the block: dedupe and append to BU.
      for (std::size_t b = begin; b < end; ++b) {
        const VertexId v = level[b];
        auto& acc = accumulators[b - begin];
        // The shared collapse rule keeps this pipeline bit-identical to
        // the in-memory one.
        acc.resize(SortAndDedupeRange(acc.data(), acc.size()));
        ISLABEL_RETURN_IF_ERROR(AppendLabel(&bu, v, acc));
        lengths[v] = static_cast<std::uint32_t>(acc.size());
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
  LabelScanner scan(&bu);
  LabelHeader rec;
  bool ok = false;
  while (true) {
    ISLABEL_RETURN_IF_ERROR(scan.Next(&rec, &ok));
    if (!ok) break;
    ISLABEL_RETURN_IF_ERROR(
        scan.ReadEntries(rec.count, slab.data() + offsets[rec.vertex]));
  }

  if (io != nullptr) *io += bu.stats();
  bu.Close();
  std::remove(bu_path.c_str());

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
