#include "storage/label_store.h"

#include "util/varint.h"

namespace islabel {

namespace {

constexpr std::uint32_t kLabelMagic = 0x49534C4C;  // "ISLL"
constexpr std::uint32_t kLabelVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4;  // magic, ver, n, vias
// Footer: offset-table position (8) + total entries (8) + magic (4).
constexpr std::size_t kFooterBytes = 8 + 8 + 4;

}  // namespace

Status LabelStoreWriter::Open(const std::string& path, VertexId num_vertices,
                              bool store_vias) {
  num_vertices_ = num_vertices;
  next_vertex_ = 0;
  store_vias_ = store_vias;
  offsets_.clear();
  offsets_.reserve(static_cast<std::size_t>(num_vertices) + 1);
  offsets_.push_back(kHeaderBytes);
  ISLABEL_RETURN_IF_ERROR(file_.Open(path, /*truncate=*/true));
  std::string header;
  PutFixed32(&header, kLabelMagic);
  PutFixed32(&header, kLabelVersion);
  PutFixed32(&header, num_vertices);
  PutFixed32(&header, store_vias ? 1 : 0);
  return out_.Write(header.data(), header.size());
}

Status LabelStoreWriter::Add(LabelView label) {
  if (next_vertex_ >= num_vertices_) {
    return Status::FailedPrecondition("more labels than vertices");
  }
  // Delta-code ancestor ids (sorted ascending) and varint the rest.
  VertexId prev = 0;
  encoded_.clear();
  for (std::size_t i = 0; i < label.size(); ++i) {
    const LabelEntry& e = label[i];
    if (i > 0 && e.node <= prev) {
      return Status::InvalidArgument("label entries not sorted by ancestor");
    }
    PutVarint64(&encoded_, i == 0 ? e.node : e.node - prev);
    PutVarint64(&encoded_, e.dist);
    if (store_vias_) {
      PutVarint64(&encoded_, e.via == kInvalidVertex ? 0 : e.via + 1ULL);
    }
    prev = e.node;
  }
  offsets_.push_back(offsets_.back() + encoded_.size());
  ++next_vertex_;
  return out_.Write(encoded_.data(), encoded_.size());
}

Status LabelStoreWriter::Finish() {
  if (next_vertex_ != num_vertices_) {
    return Status::FailedPrecondition(
        "Finish() before all labels were added");
  }
  // The entry region ends where the offset table begins.
  const std::uint64_t table_at = offsets_.back();
  std::string table;
  table.reserve(offsets_.size() * 8 + kFooterBytes);
  for (std::uint64_t off : offsets_) PutFixed64(&table, off);
  PutFixed64(&table, table_at);
  PutFixed64(&table, 0);  // reserved (total entries, filled by readers)
  PutFixed32(&table, kLabelMagic);
  ISLABEL_RETURN_IF_ERROR(out_.Write(table.data(), table.size()));
  return out_.Flush();
}

Status LabelStore::Open(const std::string& path) {
  ISLABEL_RETURN_IF_ERROR(file_.Open(path, /*truncate=*/false));
  if (file_.FileSize() < kHeaderBytes + kFooterBytes) {
    return Status::Corruption("label store too small: " + path);
  }
  char header[kHeaderBytes];
  ISLABEL_RETURN_IF_ERROR(file_.ReadAt(0, header, sizeof(header)));
  Decoder hd(header, sizeof(header));
  std::uint32_t magic, version, n, vias;
  hd.GetFixed32(&magic);
  hd.GetFixed32(&version);
  hd.GetFixed32(&n);
  hd.GetFixed32(&vias);
  if (magic != kLabelMagic) return Status::Corruption("bad magic: " + path);
  if (version != kLabelVersion) {
    return Status::Corruption("unsupported version: " + path);
  }
  num_vertices_ = n;
  store_vias_ = vias != 0;

  char footer[kFooterBytes];
  ISLABEL_RETURN_IF_ERROR(
      file_.ReadAt(file_.FileSize() - kFooterBytes, footer, sizeof(footer)));
  Decoder fd(footer, sizeof(footer));
  std::uint64_t table_at, reserved;
  std::uint32_t footer_magic;
  fd.GetFixed64(&table_at);
  fd.GetFixed64(&reserved);
  fd.GetFixed32(&footer_magic);
  if (footer_magic != kLabelMagic) {
    return Status::Corruption("bad footer magic: " + path);
  }
  const std::uint64_t table_bytes =
      (static_cast<std::uint64_t>(num_vertices_) + 1) * 8;
  if (table_at + table_bytes + kFooterBytes != file_.FileSize()) {
    return Status::Corruption("offset table size mismatch: " + path);
  }
  std::vector<char> raw(table_bytes);
  ISLABEL_RETURN_IF_ERROR(file_.ReadAt(table_at, raw.data(), raw.size()));
  Decoder td(raw.data(), raw.size());
  offsets_.resize(static_cast<std::size_t>(num_vertices_) + 1);
  for (auto& off : offsets_) td.GetFixed64(&off);
  entry_region_bytes_ = offsets_.back() - kHeaderBytes;
  file_.ResetStats();  // open-time reads don't count against queries
  return Status::OK();
}

Status LabelStore::DecodeLabel(const char* data, std::size_t size,
                               std::vector<LabelEntry>* out) const {
  out->clear();
  return DecodeInto(data, size, out);
}

Status LabelStore::DecodeInto(const char* data, std::size_t size,
                              std::vector<LabelEntry>* out) const {
  Decoder dec(data, size);
  VertexId prev = 0;
  bool first = true;
  while (!dec.Done()) {
    std::uint64_t delta, dist, via_plus1 = 0;
    if (!dec.GetVarint64(&delta) || !dec.GetVarint64(&dist)) {
      return Status::Corruption("truncated label entry");
    }
    if (store_vias_ && !dec.GetVarint64(&via_plus1)) {
      return Status::Corruption("truncated label via");
    }
    VertexId node = first ? static_cast<VertexId>(delta)
                          : prev + static_cast<VertexId>(delta);
    out->emplace_back(node, dist,
                      via_plus1 == 0
                          ? kInvalidVertex
                          : static_cast<VertexId>(via_plus1 - 1));
    prev = node;
    first = false;
  }
  return Status::OK();
}

Status LabelStore::GetLabel(VertexId v, std::vector<LabelEntry>* out) {
  if (v >= num_vertices_) {
    return Status::OutOfRange("vertex id out of range");
  }
  const std::uint64_t lo = offsets_[v], hi = offsets_[v + 1];
  out->clear();
  if (lo == hi) return Status::OK();
  // Typical labels are tens-to-hundreds of delta-varint bytes; a stack
  // buffer keeps the concurrent query hot path allocation-free, with a
  // heap fallback for outlier labels.
  const std::size_t len = static_cast<std::size_t>(hi - lo);
  char stack_buf[4096];
  std::vector<char> heap_buf;
  char* raw = stack_buf;
  if (len > sizeof(stack_buf)) {
    heap_buf.resize(len);
    raw = heap_buf.data();
  }
  ISLABEL_RETURN_IF_ERROR(file_.ReadAt(lo, raw, len));
  return DecodeLabel(raw, len, out);
}

Status LabelStore::LoadAll(LabelArena* arena) {
  // One sequential sweep over the entry region, decoded straight into the
  // arena slab — no per-vertex reads, no per-vertex heap vectors.
  const std::uint64_t lo = kHeaderBytes;
  const std::uint64_t hi = offsets_.back();
  std::vector<char> raw(static_cast<std::size_t>(hi - lo));
  if (!raw.empty()) {
    ISLABEL_RETURN_IF_ERROR(file_.ReadAt(lo, raw.data(), raw.size()));
  }
  // Exact slab size in one cheap pre-scan: every varint ends at a byte
  // with the continuation bit clear, and an entry is 2 (or 3, with vias)
  // varints — so the allocation is exact, no regrowth and no shrink copy.
  std::size_t varints = 0;
  for (char c : raw) varints += (static_cast<unsigned char>(c) & 0x80) == 0;
  std::vector<LabelEntry> slab;
  slab.reserve(varints / (store_vias_ ? 3 : 2));
  std::vector<std::uint64_t> csr(static_cast<std::size_t>(num_vertices_) + 1,
                                 0);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    csr[v] = slab.size();
    ISLABEL_RETURN_IF_ERROR(
        DecodeInto(raw.data() + (offsets_[v] - lo),
                   static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]),
                   &slab));
  }
  csr[num_vertices_] = slab.size();
  *arena = LabelArena(std::move(slab), std::move(csr));
  return Status::OK();
}

}  // namespace islabel
