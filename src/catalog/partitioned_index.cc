#include "catalog/partitioned_index.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "backends/registry.h"
#include "graph/components.h"
#include "storage/block_file.h"
#include "util/parallel.h"
#include "util/varint.h"

namespace islabel {

namespace {

constexpr std::uint32_t kPartitionMagic = 0x49534C50;  // "ISLP"
// Version 2 added the per-part backend name; version 1 directories (all
// parts IS-LABEL) are still readable.
constexpr std::uint32_t kPartitionVersion = 2;
constexpr std::uint32_t kPartitionVersionV1 = 1;

std::string PartitionPath(const std::string& dir) {
  return dir + "/partition.islp";
}

std::string PartDir(const std::string& dir, std::uint32_t part) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "/part%05u", part);
  return dir + buf;
}

}  // namespace

GraphPartition ComponentPartitioner::Partition(const Graph& g) {
  GraphPartition out;
  const VertexId n = g.NumVertices();
  ComponentsResult comps = FindComponents(g);
  out.component = std::move(comps.component);
  out.num_components = comps.num_components;
  out.local_id.assign(n, 0);

  // Component sizes, then part ids for every multi-vertex component.
  // FindComponents numbers components by smallest contained vertex id, so
  // part order (and local-id order below) is deterministic.
  std::vector<VertexId> comp_size(out.num_components, 0);
  for (VertexId v = 0; v < n; ++v) ++comp_size[out.component[v]];
  out.part_of_component.assign(out.num_components, GraphPartition::kNoPart);
  for (std::uint32_t c = 0; c < out.num_components; ++c) {
    if (comp_size[c] >= 2) {
      out.part_of_component[c] =
          static_cast<std::uint32_t>(out.parts.size());
      out.parts.emplace_back();
      out.parts.back().component = c;
      out.parts.back().global_ids.reserve(comp_size[c]);
    }
  }

  // Dense local ids in ascending global-id order per part.
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t p = out.part_of_component[out.component[v]];
    if (p == GraphPartition::kNoPart) continue;
    out.local_id[v] =
        static_cast<VertexId>(out.parts[p].global_ids.size());
    out.parts[p].global_ids.push_back(v);
  }

  // Induced edges, one scan over the CSR.
  std::vector<EdgeList> part_edges(out.parts.size());
  for (std::uint32_t p = 0; p < out.parts.size(); ++p) {
    part_edges[p].EnsureVertices(
        static_cast<VertexId>(out.parts[p].global_ids.size()));
  }
  for (VertexId u = 0; u < n; ++u) {
    const std::uint32_t p = out.part_of_component[out.component[u]];
    if (p == GraphPartition::kNoPart) continue;
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) {
        part_edges[p].Add(out.local_id[u], out.local_id[nbrs[i]], ws[i]);
      }
    }
  }
  for (std::uint32_t p = 0; p < out.parts.size(); ++p) {
    out.parts[p].graph = Graph::FromEdgeList(std::move(part_edges[p]));
  }
  return out;
}

Result<PartitionedIndex> PartitionedIndex::Build(
    const Graph& g, const PartitionOptions& options) {
  ISLABEL_RETURN_IF_ERROR(options.index.Validate());
  GraphPartition partition = ComponentPartitioner::Partition(g);

  PartitionedIndex index;
  index.component_ = std::move(partition.component);
  index.local_id_ = std::move(partition.local_id);
  index.part_of_component_ = std::move(partition.part_of_component);
  index.num_components_ = partition.num_components;

  const std::size_t num_parts = partition.parts.size();
  index.parts_.resize(num_parts);
  std::vector<Status> part_status(num_parts, Status::OK());
  // One sub-index build per component, components in parallel. Builds are
  // independent (each writes only its own slot), so results are identical
  // for every thread count. kAuto resolves per component, so a dataset
  // may legally mix backends across parts.
  ParallelFor(num_parts, options.num_threads, [&](std::size_t p) {
    BackendKind kind = options.backend;
    if (kind == BackendKind::kAuto) {
      kind = ChooseBackendAuto(partition.parts[p].graph);
    }
    auto built = BuildBackend(kind, partition.parts[p].graph, options.index);
    if (!built.ok()) {
      part_status[p] = built.status();
      return;
    }
    index.parts_[p].component = partition.parts[p].component;
    index.parts_[p].global_ids = std::move(partition.parts[p].global_ids);
    index.parts_[p].index = std::move(built).value();
    index.parts_[p].backend = kind;
  });
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!part_status[p].ok()) return part_status[p];
  }
  // Path availability is the intersection over parts (a CH part always
  // has vias; an IS-LABEL part only when built with keep_vias).
  index.vias_enabled_ = options.index.keep_vias;
  if (num_parts > 0) {
    index.vias_enabled_ = true;
    for (const PartEntry& part : index.parts_) {
      index.vias_enabled_ = index.vias_enabled_ && part.index->has_vias();
    }
  }
  return index;
}

PartitionedIndex PartitionedIndex::FromMonolithic(ISLabelIndex index) {
  return FromBackend(std::make_unique<ISLabelIndex>(std::move(index)),
                     BackendKind::kISLabel);
}

PartitionedIndex PartitionedIndex::FromBackend(
    std::unique_ptr<DistanceIndex> index, BackendKind backend) {
  PartitionedIndex out;
  const VertexId n = index->NumVertices();
  out.component_.assign(n, 0);
  out.local_id_.resize(n);
  std::iota(out.local_id_.begin(), out.local_id_.end(), VertexId{0});
  out.vias_enabled_ = index->has_vias();
  if (n == 0) return out;
  out.num_components_ = 1;
  out.part_of_component_.assign(1, 0);
  out.parts_.resize(1);
  out.parts_[0].component = 0;
  out.parts_[0].global_ids = out.local_id_;
  out.parts_[0].index = std::move(index);
  out.parts_[0].backend = backend;
  return out;
}

Status PartitionedIndex::CheckQueryable(VertexId s, VertexId t) const {
  const VertexId n = NumVertices();
  if (s >= n || t >= n) return Status::OutOfRange("vertex id out of range");
  return Status::OK();
}

Status PartitionedIndex::QueryUncached(VertexId s, VertexId t,
                                       Distance* out) {
  const std::uint32_t cs = component_[s];
  if (cs != component_[t]) {
    // The partition map IS the reachability oracle: answer straight from
    // it, no backend call, no label fetch.
    *out = kInfDistance;
    return Status::OK();
  }
  const std::uint32_t p = part_of_component_[cs];
  if (p == GraphPartition::kNoPart) {  // singleton component: s == t
    *out = 0;
    return Status::OK();
  }
  return parts_[p].index->Query(local_id_[s], local_id_[t], out);
}

Status PartitionedIndex::ShortestPath(VertexId s, VertexId t,
                                      std::vector<VertexId>* path,
                                      Distance* dist) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  if (!vias_enabled_) {
    return Status::FailedPrecondition(
        "index was built without vias (IndexOptions::keep_vias)");
  }
  path->clear();
  const std::uint32_t cs = component_[s];
  if (cs != component_[t]) {
    *dist = kInfDistance;
    return Status::OK();
  }
  const std::uint32_t p = part_of_component_[cs];
  if (p == GraphPartition::kNoPart) {  // singleton component: s == t
    *dist = 0;
    path->push_back(s);
    return Status::OK();
  }
  ISLABEL_RETURN_IF_ERROR(
      parts_[p].index->ShortestPath(local_id_[s], local_id_[t], path, dist));
  for (VertexId& v : *path) v = parts_[p].global_ids[v];
  return Status::OK();
}

Status PartitionedIndex::QueryOneToMany(VertexId s,
                                        const std::vector<VertexId>& targets,
                                        std::vector<Distance>* out) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, s));
  for (VertexId t : targets) {
    ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  }
  out->assign(targets.size(), kInfDistance);

  const std::uint32_t cs = component_[s];
  const std::uint32_t p = part_of_component_[cs];
  std::vector<VertexId> local_targets;
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (component_[targets[i]] == cs) {
      local_targets.push_back(local_id_[targets[i]]);
      positions.push_back(i);
    }
  }
  if (p == GraphPartition::kNoPart) {
    // Singleton component: every same-component target is s itself.
    for (std::size_t i : positions) (*out)[i] = 0;
    return Status::OK();
  }
  if (positions.empty()) return Status::OK();
  std::vector<Distance> local_out;
  ISLABEL_RETURN_IF_ERROR(parts_[p].index->QueryOneToMany(
      local_id_[s], local_targets, &local_out));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    (*out)[positions[i]] = local_out[i];
  }
  return Status::OK();
}

DistanceIndexInfo PartitionedIndex::Info() const {
  DistanceIndexInfo info;
  info.vertices = NumVertices();
  bool mixed = false;
  for (const PartEntry& part : parts_) {
    const DistanceIndexInfo part_info = part.index->Info();
    info.entries += part_info.entries;
    info.bytes += part_info.bytes;
    if (info.backend.empty()) {
      info.backend = part_info.backend;
    } else if (info.backend != part_info.backend) {
      mixed = true;
    }
  }
  if (mixed) info.backend = "mixed";
  if (info.backend.empty()) {
    info.backend = BackendKindName(BackendKind::kISLabel);
  }
  info.detail = BackendSummary();
  return info;
}

std::string PartitionedIndex::BackendSummary() const {
  if (parts_.empty()) return "none";
  constexpr std::size_t kMaxListed = 8;
  std::string out;
  for (std::size_t p = 0; p < parts_.size() && p < kMaxListed; ++p) {
    if (p != 0) out += ',';
    const DistanceIndexInfo info = parts_[p].index->Info();
    out += 'p' + std::to_string(p) + '=' + info.backend + '/' +
           std::to_string(info.entries);
  }
  if (parts_.size() > kMaxListed) {
    out += ",+" + std::to_string(parts_.size() - kMaxListed);
  }
  return out;
}

Status PartitionedIndex::Save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create catalog directory " + dir + ": " +
                           ec.message());
  }
  std::string meta;
  PutFixed32(&meta, kPartitionMagic);
  PutFixed32(&meta, kPartitionVersion);
  PutFixed32(&meta, NumVertices());
  PutFixed32(&meta, num_components_);
  PutFixed32(&meta, num_parts());
  PutFixed32(&meta, vias_enabled_ ? 1 : 0);
  for (VertexId v = 0; v < NumVertices(); ++v) {
    PutVarint64(&meta, component_[v]);
    PutVarint64(&meta, local_id_[v]);
  }
  for (const PartEntry& part : parts_) {
    PutFixed32(&meta, part.component);
    PutVarint64(&meta, part.global_ids.size());
    // v2: the part's backend, by name — the tag that keeps a CH part
    // from ever being misparsed as an IS-LABEL one.
    const std::string name = BackendKindName(part.backend);
    PutVarint64(&meta, name.size());
    meta.append(name);
  }
  ISLABEL_RETURN_IF_ERROR(WriteFile(PartitionPath(dir), meta));
  for (std::uint32_t p = 0; p < num_parts(); ++p) {
    ISLABEL_RETURN_IF_ERROR(parts_[p].index->Save(PartDir(dir, p)));
  }
  return Status::OK();
}

Result<PartitionedIndex> PartitionedIndex::Load(const std::string& dir,
                                                bool labels_in_memory) {
  std::error_code ec;
  if (!std::filesystem::exists(PartitionPath(dir), ec)) {
    // A plain single-index directory: sniff its family and serve it as
    // one part. Unrecognized directories fall through to the IS-LABEL
    // loader so the error message names the expected layout.
    auto kind = SniffBackendDir(dir);
    const BackendKind mono_kind =
        kind.ok() ? kind.value() : BackendKind::kISLabel;
    auto mono = LoadBackend(mono_kind, dir, labels_in_memory);
    if (!mono.ok()) return mono.status();
    return FromBackend(std::move(mono).value(), mono_kind);
  }

  std::string meta;
  ISLABEL_RETURN_IF_ERROR(ReadFile(PartitionPath(dir), &meta));
  Decoder dec(meta);
  std::uint32_t magic, version, n, num_components, num_parts, vias_flag;
  if (!dec.GetFixed32(&magic) || magic != kPartitionMagic) {
    return Status::Corruption("bad partition map magic in " + dir);
  }
  if (!dec.GetFixed32(&version) ||
      (version != kPartitionVersion && version != kPartitionVersionV1)) {
    return Status::Corruption("unsupported partition map version in " + dir);
  }
  if (!dec.GetFixed32(&n) || !dec.GetFixed32(&num_components) ||
      !dec.GetFixed32(&num_parts) || !dec.GetFixed32(&vias_flag)) {
    return Status::Corruption("truncated partition map header in " + dir);
  }
  // Bound the header counts by the blob itself before trusting them
  // with allocations (a corrupt file must yield Corruption, not
  // bad_alloc): every vertex takes ≥ 2 bytes of varints, every part
  // ≥ 5 bytes, and components are nonempty so there are at most n.
  if (n > meta.size() / 2 || num_parts > meta.size() / 5 ||
      num_components > n || num_parts > num_components) {
    return Status::Corruption("implausible partition map header in " + dir);
  }

  PartitionedIndex index;
  index.num_components_ = num_components;
  index.vias_enabled_ = vias_flag != 0;
  index.component_.resize(n);
  index.local_id_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t comp, local;
    if (!dec.GetVarint64(&comp) || !dec.GetVarint64(&local)) {
      return Status::Corruption("truncated partition map in " + dir);
    }
    if (comp >= num_components || local >= n) {
      return Status::Corruption("partition map entry out of range in " + dir);
    }
    index.component_[v] = static_cast<std::uint32_t>(comp);
    index.local_id_[v] = static_cast<VertexId>(local);
  }
  index.part_of_component_.assign(num_components, GraphPartition::kNoPart);
  index.parts_.resize(num_parts);
  for (std::uint32_t p = 0; p < num_parts; ++p) {
    std::uint32_t comp;
    std::uint64_t size;
    if (!dec.GetFixed32(&comp) || !dec.GetVarint64(&size)) {
      return Status::Corruption("truncated part table in " + dir);
    }
    if (comp >= num_components || size > n) {
      return Status::Corruption("part table entry out of range in " + dir);
    }
    BackendKind backend = BackendKind::kISLabel;  // all v1 parts
    if (version >= kPartitionVersion) {
      std::uint64_t name_len;
      if (!dec.GetVarint64(&name_len) || name_len > dec.Remaining()) {
        return Status::Corruption("truncated part backend name in " + dir);
      }
      std::string name(name_len, '\0');
      if (!dec.GetBytes(name.data(), name.size())) {
        return Status::Corruption("truncated part backend name in " + dir);
      }
      if (!ParseBackendKind(name, &backend) ||
          backend == BackendKind::kAuto) {
        return Status::Corruption("unknown backend '" + name + "' for part " +
                                  std::to_string(p) + " in " + dir);
      }
    }
    index.parts_[p].component = comp;
    index.parts_[p].global_ids.assign(size, kInvalidVertex);
    index.parts_[p].backend = backend;
    index.part_of_component_[comp] = p;
  }

  // Reconstruct per-part global-id arrays from the vertex map and check
  // the mapping is a bijection part-by-part.
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t p = index.part_of_component_[index.component_[v]];
    if (p == GraphPartition::kNoPart) continue;
    std::vector<VertexId>& ids = index.parts_[p].global_ids;
    const VertexId local = index.local_id_[v];
    if (local >= ids.size() || ids[local] != kInvalidVertex) {
      return Status::Corruption("partition map is not a bijection in " + dir);
    }
    ids[local] = v;
  }
  for (std::uint32_t p = 0; p < num_parts; ++p) {
    for (VertexId id : index.parts_[p].global_ids) {
      if (id == kInvalidVertex) {
        return Status::Corruption("part " + std::to_string(p) +
                                  " has unmapped local ids in " + dir);
      }
    }
  }

  for (std::uint32_t p = 0; p < num_parts; ++p) {
    auto part = LoadBackend(index.parts_[p].backend, PartDir(dir, p),
                            labels_in_memory);
    if (!part.ok()) return part.status();
    if (part.value()->NumVertices() != index.parts_[p].global_ids.size()) {
      return Status::Corruption("part " + std::to_string(p) +
                                " vertex count mismatch in " + dir);
    }
    index.parts_[p].index = std::move(part).value();
  }
  return index;
}

}  // namespace islabel
