// LabelArena: all vertex labels in one contiguous slab.
//
// The paper's query cost is dominated by scanning labels (Equation 1 is a
// linear merge, §6.2); the arena stores every label back-to-back in a
// single LabelEntry[] with a CSR offset index, so a query touches exactly
// two contiguous byte ranges instead of chasing per-vertex heap vectors.
// Alongside the offsets the arena keeps a per-label *seed cut*: the index
// of the first entry whose ancestor lies in the core G_k, which lets the
// query engine skip the non-core prefix when extracting Algorithm 1 seeds.
//
// The slab is immutable. The lazy update maintenance of §8.3 writes to an
// overflow side-table instead: the first mutation of a label copies it out
// of the slab, and View() serves the patched copy from then on. Labels of
// vertices inserted after the build live only in the side-table.

#ifndef ISLABEL_CORE_LABEL_ARENA_H_
#define ISLABEL_CORE_LABEL_ARENA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/label_view.h"
#include "util/bit_vector.h"

namespace islabel {

class LabelArena {
 public:
  LabelArena() = default;

  /// Adopts a prebuilt slab + CSR index (offsets.size() == n + 1,
  /// offsets.front() == 0, offsets.back() == slab.size()). Seed cuts
  /// default to 0 until ComputeSeedCuts() runs.
  LabelArena(std::vector<LabelEntry> slab, std::vector<std::uint64_t> offsets);

  /// Number of labels, including side-table appends.
  VertexId NumVertices() const { return n_; }
  std::size_t size() const { return n_; }

  /// Borrowed span over label(v); valid until the arena is destroyed or
  /// label v itself is mutated through the side-table. Unpatched slab
  /// labels pay at most one bit test — never a hash probe — so a single
  /// §8.3 update does not tax every subsequent fetch.
  LabelView View(VertexId v) const {
    if (v < arena_n_) {
      if (patched_.size() != 0 && patched_[v]) {
        return LabelView(overlay_.find(v)->second);
      }
      return LabelView(slab_.data() + offsets_[v],
                       static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]));
    }
    auto it = overlay_.find(v);
    return it != overlay_.end() ? LabelView(it->second) : LabelView();
  }
  LabelView operator[](VertexId v) const { return View(v); }

  /// Index of the first entry of label(v) whose ancestor is in the core
  /// (== View(v).size() when none). 0 for side-table labels — always a
  /// valid conservative scan start.
  std::uint32_t SeedStart(VertexId v) const {
    return (v < arena_n_ && seed_cut_.size() == arena_n_ &&
            (patched_.size() == 0 || !patched_[v]))
               ? seed_cut_[v]
               : 0;
  }

  /// Fills the seed cuts from the hierarchy's level assignment (core ⇔
  /// level == k).
  void ComputeSeedCuts(const std::vector<std::uint32_t>& level,
                       std::uint32_t k);

  std::uint64_t TotalEntries() const;
  /// In-memory footprint of the slab (the figure behind "Label size").
  std::uint64_t SlabBytes() const { return slab_.size() * sizeof(LabelEntry); }
  const LabelEntry* SlabData() const { return slab_.data(); }
  std::uint64_t SlabSize() const { return slab_.size(); }
  const std::vector<std::uint64_t>& Offsets() const { return offsets_; }

  // ---- §8.3 overflow side-table ----

  /// Appends the label of a newly inserted vertex; its id must equal
  /// NumVertices().
  void AppendLabel(VertexId v, std::vector<LabelEntry> label);

  /// Inserts (or min-updates) an entry, copying the label to the
  /// side-table on first mutation.
  void UpsertEntry(VertexId v, const LabelEntry& entry);

  /// Removes the entry for `node`; returns true if it was present. Labels
  /// not containing `node` are left untouched (no side-table copy).
  bool EraseEntry(VertexId v, VertexId node);

  /// Empties label(v) (vertex deletion).
  void ClearLabel(VertexId v);

  /// Number of labels living in the side-table (patched + appended).
  std::size_t SideTableSize() const { return overlay_.size(); }
  bool IsPatched(VertexId v) const {
    if (v < arena_n_) return patched_.size() != 0 && patched_[v];
    return overlay_.count(v) != 0;
  }

  /// Slab-level equality (offsets + entries); side-tables must be empty on
  /// both sides. Backs the parallel-determinism tests.
  friend bool operator==(const LabelArena& a, const LabelArena& b);

 private:
  /// Returns the mutable side-table copy of label(v), creating it from the
  /// slab on first access.
  std::vector<LabelEntry>* Patch(VertexId v);

  std::vector<LabelEntry> slab_;
  std::vector<std::uint64_t> offsets_;   // arena_n_ + 1, monotone
  std::vector<std::uint32_t> seed_cut_;  // arena_n_ (empty until computed)
  VertexId arena_n_ = 0;                 // labels backed by the slab
  VertexId n_ = 0;                       // logical count incl. appends
  /// One bit per slab label, set when it was copied to the side-table;
  /// sized lazily on the first patch (empty = nothing patched).
  BitVector patched_;
  std::unordered_map<VertexId, std::vector<LabelEntry>> overlay_;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_LABEL_ARENA_H_
