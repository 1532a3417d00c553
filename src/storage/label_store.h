// LabelStore: disk-resident vertex labels.
//
// The paper stores labels on disk, sorted by ancestor id within each label,
// and observes that "retrieving a vertex label from disk takes only one
// I/O" (§6.2) — the dominant cost of query Time (a) in Tables 4/5. This
// class reproduces that layout:
//
//   [header][entry region][offset table][footer]
//
// The offset table (8 bytes per vertex) is loaded into memory at Open();
// each GetLabel(v) issues exactly one positioned read covering the label's
// contiguous byte range. Entries are delta-varint coded. An optional
// LoadAll() materializes every label in memory — the paper's IM-ISL mode.
// The writer streams the file out through a RecordWriter.

#ifndef ISLABEL_STORAGE_LABEL_STORE_H_
#define ISLABEL_STORAGE_LABEL_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/label_arena.h"
#include "core/label_entry.h"
#include "core/label_view.h"
#include "storage/block_file.h"
#include "storage/record_stream.h"
#include "util/result.h"
#include "util/status.h"

namespace islabel {

/// Sequential writer; labels must be added for v = 0, 1, ..., n-1 in order
/// (vertices with empty labels are allowed and stored as zero-length).
class LabelStoreWriter {
 public:
  /// Creates/truncates the store for `num_vertices` labels. `store_vias`
  /// controls whether path-reconstruction via vertices are persisted.
  Status Open(const std::string& path, VertexId num_vertices,
              bool store_vias);

  /// Appends label(v) for the next vertex id. Entries must be sorted by
  /// ancestor id (Definition 3 order). Accepts any contiguous label —
  /// arena views and plain vectors alike.
  Status Add(LabelView label);

  /// Writes the offset table + footer and flushes.
  Status Finish();

 private:
  BlockFile file_;
  RecordWriter out_{&file_};
  std::vector<std::uint64_t> offsets_;
  VertexId num_vertices_ = 0;
  VertexId next_vertex_ = 0;
  bool store_vias_ = false;
  std::string encoded_;  // Add()'s scratch: one label, varint-coded
};

/// Read side; see file comment for the layout.
class LabelStore {
 public:
  Status Open(const std::string& path);

  VertexId num_vertices() const { return num_vertices_; }
  bool store_vias() const { return store_vias_; }

  /// Reads label(v) from disk with a single positioned read. Safe to call
  /// concurrently from many threads after Open(): the offset table is
  /// immutable, BlockFile reads are positioned (pread), and the decode
  /// lands in the caller-owned scratch — this is what lets one store back
  /// every engine of a QueryEnginePool in disk-resident mode.
  Status GetLabel(VertexId v, std::vector<LabelEntry>* out);

  /// Total byte size of the entry region — the paper's "Label size" column.
  std::uint64_t LabelBytes() const { return entry_region_bytes_; }

  /// Loads every label into one contiguous LabelArena: the whole entry
  /// region is fetched with a single positioned read and decoded straight
  /// into the slab. Seed cuts are left for the caller (they need the
  /// hierarchy's level assignment).
  Status LoadAll(LabelArena* arena);

  /// Total label entries across all vertices (the Info() size report).
  std::uint64_t TotalEntries() const { return total_entries_; }

  const IoStats& stats() const { return file_.stats(); }
  void ResetStats() { file_.ResetStats(); }

 private:
  Status DecodeLabel(const char* data, std::size_t size,
                     std::vector<LabelEntry>* out) const;
  /// DecodeLabel without the clear: appends, for bulk slab decoding.
  Status DecodeInto(const char* data, std::size_t size,
                    std::vector<LabelEntry>* out) const;

  BlockFile file_;
  std::vector<std::uint64_t> offsets_;  // size num_vertices_+1
  VertexId num_vertices_ = 0;
  bool store_vias_ = false;
  std::uint64_t entry_region_bytes_ = 0;
  std::uint64_t total_entries_ = 0;
};

}  // namespace islabel

#endif  // ISLABEL_STORAGE_LABEL_STORE_H_
