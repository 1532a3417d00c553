#include "core/index.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "storage/block_file.h"
#include "storage/label_store.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/varint.h"

namespace islabel {

namespace {

constexpr std::uint32_t kMetaMagic = 0x49534C4D;  // "ISLM"
constexpr std::uint32_t kMetaVersion = 1;

std::string LabelsPath(const std::string& dir) { return dir + "/labels.isl"; }
std::string CorePath(const std::string& dir) { return dir + "/core.islg"; }
std::string MetaPath(const std::string& dir) { return dir + "/meta.islm"; }

}  // namespace

Result<ISLabelIndex> ISLabelIndex::Build(const Graph& g,
                                         const IndexOptions& options) {
  ISLabelIndex index;
  WallTimer total;

  WallTimer phase;
  auto hierarchy = BuildHierarchy(g, options);
  if (!hierarchy.ok()) return hierarchy.status();
  index.hierarchy_ =
      std::make_unique<VertexHierarchy>(std::move(hierarchy).value());
  index.build_stats_.hierarchy_seconds = phase.ElapsedSeconds();

  phase.Restart();
  LabelingStats lstats;
  if (options.memory_budget_bytes != 0) {
    IoStats label_io;
    auto labels = ComputeLabelsTopDownExternal(*index.hierarchy_, options,
                                               &lstats, &label_io);
    if (!labels.ok()) return labels.status();
    *index.labels_ = std::move(labels).value();
    index.hierarchy_->io += label_io;
  } else {
    *index.labels_ =
        ComputeLabelsTopDown(*index.hierarchy_, &lstats, options.num_threads);
  }
  index.build_stats_.labeling_seconds = phase.ElapsedSeconds();
  index.hierarchy_->ReleaseDag();

  index.build_stats_.total_seconds = total.ElapsedSeconds();
  index.build_stats_.k = index.hierarchy_->k;
  index.build_stats_.core_vertices = index.hierarchy_->stats.back().num_vertices;
  index.build_stats_.core_edges = index.hierarchy_->stats.back().num_edges;
  index.build_stats_.label_entries = lstats.total_entries;
  index.build_stats_.label_bytes = lstats.bytes_in_memory;
  index.build_stats_.io = index.hierarchy_->io;
  index.build_stats_.level_stats = index.hierarchy_->stats;
  index.deleted_.Resize(index.hierarchy_->NumVertices());
  index.vias_enabled_ = options.keep_vias;
  index.CreatePool();
  return index;
}

void ISLabelIndex::CreatePool() {
  // The factory captures the heap-held hierarchy and labels, not `this`:
  // the index moves, they do not.
  const VertexHierarchy* hierarchy = hierarchy_.get();
  const LabelProvider provider = store_ != nullptr
                                     ? LabelProvider(store_.get())
                                     : LabelProvider(labels_.get());
  pool_ = std::make_unique<QueryEnginePool>([hierarchy, provider] {
    return std::make_unique<QueryEngine>(hierarchy, provider);
  });
}

void ISLabelIndex::InstallMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr || pool_ == nullptr) return;
  QueryEnginePool::PoolMetrics m;
  m.leases_active = registry->GetGauge("islabel_pool_leases_active",
                                       "Engine leases currently held");
  m.engines_created = registry->GetCounter(
      "islabel_pool_engines_created_total",
      "Query engines constructed across all pools");
  pool_->SetMetrics(m);
}

Status ISLabelIndex::CheckQueryable(VertexId s, VertexId t) const {
  if (hierarchy_ == nullptr) {
    return Status::FailedPrecondition("index not built");
  }
  const VertexId n = hierarchy_->NumVertices();
  if (s >= n || t >= n) return Status::OutOfRange("vertex id out of range");
  if (IsDeleted(s) || IsDeleted(t)) {
    return Status::NotFound("query endpoint was deleted");
  }
  return Status::OK();
}

Status ISLabelIndex::QueryUncached(VertexId s, VertexId t, Distance* out) {
  // The base class ran CheckQueryable (deleted-endpoint check included,
  // before the cache) and snapshotted the cache generation; all that is
  // left is the real engine query.
  QueryEnginePool::Lease lease = pool_->Acquire();
  return lease->Query(s, t, out);
}

Status ISLabelIndex::Query(VertexId s, VertexId t, Distance* out,
                           QueryStats* stats) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  QueryEnginePool::Lease lease = pool_->Acquire();
  return lease->Query(s, t, out, stats);
}

Status ISLabelIndex::QueryBatch(
    const std::vector<std::pair<VertexId, VertexId>>& pairs,
    std::vector<Distance>* out, std::uint32_t num_threads,
    std::vector<Status>* statuses) {
  if (hierarchy_ == nullptr) {
    return Status::FailedPrecondition("index not built");
  }
  out->assign(pairs.size(), kInfDistance);
  if (statuses != nullptr) statuses->assign(pairs.size(), Status::OK());
  if (pairs.empty()) return Status::OK();

  const std::size_t workers = std::min<std::size_t>(
      EffectiveThreads(num_threads), pairs.size());
  // One engine lease per worker chunk, so each worker pays the pool mutex
  // once, not once per query.
  std::vector<Status> first_error(workers, Status::OK());
  ParallelForChunks(
      pairs.size(), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        QueryEnginePool::Lease lease = pool_->Acquire();
        for (std::size_t i = begin; i < end; ++i) {
          Status st = CheckQueryable(pairs[i].first, pairs[i].second);
          if (st.ok()) {
            st = lease->Query(pairs[i].first, pairs[i].second, &(*out)[i]);
          }
          if (!st.ok()) {
            (*out)[i] = kInfDistance;
            if (statuses != nullptr) {
              (*statuses)[i] = std::move(st);
            } else if (first_error[w].ok()) {
              first_error[w] = std::move(st);
            }
          }
        }
      });
  if (statuses == nullptr) {
    for (Status& st : first_error) {
      if (!st.ok()) return std::move(st);
    }
  }
  return Status::OK();
}

Status ISLabelIndex::QueryOneToMany(VertexId s,
                                    const std::vector<VertexId>& targets,
                                    std::vector<Distance>* out) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, s));
  for (VertexId t : targets) {
    ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  }
  QueryEnginePool::Lease lease = pool_->Acquire();
  return lease->QueryOneToMany(s, targets, out);
}

DistanceIndexInfo ISLabelIndex::Info() const {
  DistanceIndexInfo info;
  info.backend = BackendKindName(BackendKind::kISLabel);
  if (hierarchy_ == nullptr) return info;
  info.vertices = hierarchy_->NumVertices();
  // Sizes come from the arena/store, not build_stats_, so Load()ed
  // indexes report real numbers too.
  if (store_ != nullptr) {
    info.entries = store_->TotalEntries();
    info.bytes = store_->LabelBytes();
  } else {
    info.entries = labels_->TotalEntries();
    info.bytes = labels_->SlabBytes();
  }
  info.detail = "k=" + std::to_string(hierarchy_->k);
  return info;
}

void ISLabelIndex::RebuildCore(EdgeList edges) {
  const bool vias = hierarchy_->g_k.has_vias();
  edges.EnsureVertices(hierarchy_->NumVertices());
  hierarchy_->SetCore(Graph::FromEdgeList(std::move(edges), vias));
  // Core sizes changed; keep the stats row describing G_k current.
  hierarchy_->stats.back().num_vertices = 0;
  for (VertexId v = 0; v < hierarchy_->NumVertices(); ++v) {
    if (hierarchy_->InCore(v) && !IsDeleted(v)) {
      ++hierarchy_->stats.back().num_vertices;
    }
  }
  hierarchy_->stats.back().num_edges = hierarchy_->g_k.NumEdges();
}

Status ISLabelIndex::Save(const std::string& dir) const {
  if (hierarchy_ == nullptr) {
    return Status::FailedPrecondition("index not built");
  }
  if (store_ != nullptr) {
    return Status::NotSupported(
        "saving a disk-resident index is not supported; load it in memory");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create index directory " + dir + ": " +
                           ec.message());
  }
  // Labels: one pass over the arena (side-table patches included via the
  // per-vertex views).
  LabelStoreWriter writer;
  ISLABEL_RETURN_IF_ERROR(
      writer.Open(LabelsPath(dir), hierarchy_->NumVertices(), vias_enabled_));
  for (VertexId v = 0; v < hierarchy_->NumVertices(); ++v) {
    ISLABEL_RETURN_IF_ERROR(writer.Add(labels_->View(v)));
  }
  ISLABEL_RETURN_IF_ERROR(writer.Finish());
  // Core graph, back in global ids.
  ISLABEL_RETURN_IF_ERROR(
      WriteGraphBinary(hierarchy_->GlobalCore(), CorePath(dir)));
  // Meta: k + level array (+ deleted set).
  std::string meta;
  PutFixed32(&meta, kMetaMagic);
  PutFixed32(&meta, kMetaVersion);
  PutFixed32(&meta, hierarchy_->k);
  PutFixed32(&meta, hierarchy_->NumVertices());
  PutFixed32(&meta, vias_enabled_ ? 1 : 0);
  for (VertexId v = 0; v < hierarchy_->NumVertices(); ++v) {
    PutVarint64(&meta, hierarchy_->level[v]);
    PutVarint64(&meta, IsDeleted(v) ? 1 : 0);
  }
  return WriteFile(MetaPath(dir), meta);
}

Result<ISLabelIndex> ISLabelIndex::Load(const std::string& dir,
                                        bool labels_in_memory) {
  ISLabelIndex index;
  index.hierarchy_ = std::make_unique<VertexHierarchy>();

  // Meta.
  std::string meta;
  ISLABEL_RETURN_IF_ERROR(ReadFile(MetaPath(dir), &meta));
  Decoder dec(meta);
  std::uint32_t magic, version, k, n;
  if (!dec.GetFixed32(&magic) || magic != kMetaMagic) {
    return Status::Corruption("bad index meta magic");
  }
  if (!dec.GetFixed32(&version) || version != kMetaVersion) {
    return Status::Corruption("unsupported index meta version");
  }
  std::uint32_t vias_flag = 0;
  if (!dec.GetFixed32(&k) || !dec.GetFixed32(&n) ||
      !dec.GetFixed32(&vias_flag)) {
    return Status::Corruption("truncated index meta");
  }
  index.vias_enabled_ = vias_flag != 0;
  index.hierarchy_->k = k;
  index.hierarchy_->level.resize(n);
  index.deleted_.Resize(n);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t level, del;
    if (!dec.GetVarint64(&level) || !dec.GetVarint64(&del)) {
      return Status::Corruption("truncated level array");
    }
    index.hierarchy_->level[v] = static_cast<std::uint32_t>(level);
    if (del != 0) index.deleted_.Set(v);
  }

  // Core graph.
  auto core = ReadGraphBinary(CorePath(dir));
  if (!core.ok()) return core.status();
  // A core that lost its top vertices to deletion may span fewer ids; the
  // level array is authoritative for n. Every core edge must join two
  // level-k vertices, or it has no dense id to search over.
  for (VertexId v = 0; v < core->NumVertices(); ++v) {
    if (core->Degree(v) != 0 && (v >= n || index.hierarchy_->level[v] != k)) {
      return Status::Corruption("core graph edge leaves level k");
    }
  }
  index.hierarchy_->SetCore(*core);
  index.hierarchy_->stats.resize(1);
  index.hierarchy_->stats.back().num_edges = index.hierarchy_->g_k.NumEdges();

  // Labels.
  auto store = std::make_unique<LabelStore>();
  ISLABEL_RETURN_IF_ERROR(store->Open(LabelsPath(dir)));
  if (store->num_vertices() != n) {
    return Status::Corruption("label store vertex count mismatch");
  }
  if (labels_in_memory) {
    // Bulk-read the entry region in one contiguous I/O and decode straight
    // into the arena slab (IM-ISL).
    ISLABEL_RETURN_IF_ERROR(store->LoadAll(index.labels_.get()));
    index.labels_->ComputeSeedCuts(index.hierarchy_->level,
                                   index.hierarchy_->k);
  } else {
    index.store_ = std::move(store);
  }

  std::uint64_t core_vertices = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (index.hierarchy_->level[v] == k && !index.deleted_[v]) ++core_vertices;
  }
  index.hierarchy_->stats.back().num_vertices = core_vertices;
  index.build_stats_.k = k;
  index.build_stats_.core_vertices = core_vertices;
  index.build_stats_.core_edges = index.hierarchy_->g_k.NumEdges();
  index.CreatePool();
  return index;
}

}  // namespace islabel
