#include "backends/ch_index.h"

#include <filesystem>
#include <limits>
#include <utility>

#include "storage/block_file.h"
#include "util/timer.h"
#include "util/varint.h"

namespace islabel {

namespace {

constexpr std::uint32_t kChMagic = 0x49534C43;  // "ISLC"
constexpr std::uint32_t kChVersion = 1;

std::string ChPath(const std::string& dir) { return dir + "/ch.islc"; }

}  // namespace

CHIndex::CHIndex()
    : pool_(std::make_unique<EnginePool<ContractionHierarchy::Scratch>>(
          [] { return std::make_unique<ContractionHierarchy::Scratch>(); })) {
}

Result<CHIndex> CHIndex::Build(const Graph& g) {
  WallTimer timer;
  auto ch = ContractionHierarchy::Build(g);
  if (!ch.ok()) return ch.status();
  CHIndex index;
  index.ch_ = std::move(ch).value();
  index.build_seconds_ = timer.ElapsedSeconds();
  return index;
}

Status CHIndex::QueryUncached(VertexId s, VertexId t, Distance* out) {
  const auto lease = pool_->Acquire();
  *out = ch_.Query(s, t, lease.get());
  return Status::OK();
}

Status CHIndex::ShortestPath(VertexId s, VertexId t,
                             std::vector<VertexId>* path, Distance* dist) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  const auto lease = pool_->Acquire();
  *dist = ch_.Path(s, t, lease.get(), path);
  return Status::OK();
}

DistanceIndexInfo CHIndex::Info() const {
  DistanceIndexInfo info;
  info.backend = BackendKindName(BackendKind::kCH);
  info.vertices = ch_.NumVertices();
  info.entries = ch_.NumUpEdges();
  info.bytes = info.entries * sizeof(ContractionHierarchy::UpEdge);
  info.detail = "shortcuts=" + std::to_string(ch_.num_shortcuts());
  return info;
}

Status CHIndex::Save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create index directory " + dir + ": " +
                           ec.message());
  }
  const VertexId n = ch_.NumVertices();
  std::string blob;
  PutFixed32(&blob, kChMagic);
  PutFixed32(&blob, kChVersion);
  PutFixed32(&blob, n);
  PutFixed32(&blob, 0);  // flags, reserved
  PutVarint64(&blob, ch_.num_shortcuts());
  for (VertexId v = 0; v < n; ++v) {
    PutVarint64(&blob, ch_.order()[v]);
  }
  for (VertexId v = 0; v < n; ++v) {
    const auto& list = ch_.up()[v];
    PutVarint64(&blob, list.size());
    for (const ContractionHierarchy::UpEdge& e : list) {
      PutVarint64(&blob, e.to);
      PutVarint64(&blob, e.w);
      // via + 1 so "no via" (original edge) encodes as a 1-byte 0.
      PutVarint64(&blob, e.via == kInvalidVertex
                             ? 0
                             : static_cast<std::uint64_t>(e.via) + 1);
    }
  }
  return WriteFile(ChPath(dir), blob);
}

Result<CHIndex> CHIndex::Load(const std::string& dir) {
  std::string blob;
  ISLABEL_RETURN_IF_ERROR(ReadFile(ChPath(dir), &blob));
  Decoder dec(blob);
  std::uint32_t magic, version, n, flags;
  if (!dec.GetFixed32(&magic) || magic != kChMagic) {
    return Status::Corruption("bad CH index magic in " + dir);
  }
  if (!dec.GetFixed32(&version) || version != kChVersion) {
    return Status::Corruption("unsupported CH index version in " + dir);
  }
  if (!dec.GetFixed32(&n) || !dec.GetFixed32(&flags)) {
    return Status::Corruption("truncated CH index header in " + dir);
  }
  // Bound the vertex count by the blob before trusting it with
  // allocations (corrupt files must yield Corruption, not bad_alloc):
  // every vertex takes at least 2 bytes (order varint + degree varint).
  if (n > blob.size() / 2) {
    return Status::Corruption("implausible CH vertex count in " + dir);
  }
  std::uint64_t num_shortcuts = 0;
  if (!dec.GetVarint64(&num_shortcuts)) {
    return Status::Corruption("truncated CH index in " + dir);
  }

  std::vector<std::uint32_t> order(n);
  std::vector<bool> rank_seen(n, false);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t rank;
    if (!dec.GetVarint64(&rank)) {
      return Status::Corruption("truncated CH order in " + dir);
    }
    if (rank >= n || rank_seen[rank]) {
      return Status::Corruption("CH order is not a permutation in " + dir);
    }
    rank_seen[rank] = true;
    order[v] = static_cast<std::uint32_t>(rank);
  }

  std::vector<std::vector<ContractionHierarchy::UpEdge>> up(n);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t degree;
    if (!dec.GetVarint64(&degree)) {
      return Status::Corruption("truncated CH up lists in " + dir);
    }
    // Each edge takes >= 3 bytes (to, w, via varints).
    if (degree > blob.size() / 3) {
      return Status::Corruption("implausible CH degree in " + dir);
    }
    up[v].reserve(degree);
    VertexId prev_to = kInvalidVertex;
    for (std::uint64_t i = 0; i < degree; ++i) {
      std::uint64_t to, w, via;
      if (!dec.GetVarint64(&to) || !dec.GetVarint64(&w) ||
          !dec.GetVarint64(&via)) {
        return Status::Corruption("truncated CH up edge in " + dir);
      }
      if (to >= n || w > std::numeric_limits<Weight>::max() || via > n) {
        return Status::Corruption("CH up edge out of range in " + dir);
      }
      const VertexId to_id = static_cast<VertexId>(to);
      // Invariants the query relies on: upward-only and sorted by target
      // (FindUpEdge binary-searches).
      if (order[to_id] <= order[v]) {
        return Status::Corruption("CH up edge is not upward in " + dir);
      }
      if (!up[v].empty() && prev_to >= to_id) {
        return Status::Corruption("CH up list is not sorted in " + dir);
      }
      prev_to = to_id;
      up[v].push_back(ContractionHierarchy::UpEdge{
          to_id, static_cast<Weight>(w),
          via == 0 ? kInvalidVertex : static_cast<VertexId>(via - 1)});
    }
  }

  CHIndex index;
  index.ch_ = ContractionHierarchy::FromParts(std::move(order), std::move(up),
                                              num_shortcuts);
  return index;
}

}  // namespace islabel
