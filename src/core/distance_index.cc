#include "core/distance_index.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/parallel.h"

namespace islabel {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kISLabel: return "islabel";
    case BackendKind::kCH: return "ch";
    case BackendKind::kAuto: return "auto";
  }
  return "?";
}

bool ParseBackendKind(std::string_view name, BackendKind* out) {
  if (name == "islabel") {
    *out = BackendKind::kISLabel;
    return true;
  }
  if (name == "ch") {
    *out = BackendKind::kCH;
    return true;
  }
  if (name == "auto") {
    *out = BackendKind::kAuto;
    return true;
  }
  return false;
}

DistanceIndex::~DistanceIndex() = default;

void DistanceIndex::InstallMetrics(obs::MetricRegistry* registry) {
  (void)registry;
}

Status DistanceIndex::CheckQueryable(VertexId s, VertexId t) const {
  const VertexId n = NumVertices();
  if (s >= n || t >= n) return Status::OutOfRange("vertex id out of range");
  return Status::OK();
}

Status DistanceIndex::Query(VertexId s, VertexId t, Distance* out) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  // Generation BEFORE compute: if a mutation lands mid-query, Insert sees
  // a moved generation and drops the answer instead of stamping a stale
  // distance as current. For a catalog handle the snapshot also precedes
  // the index snapshot taken inside QueryUncached (DESIGN.md §12.4).
  DistanceCache* cache = distance_cache();
  std::uint64_t cache_gen = 0;
  if (cache != nullptr) {
    obs::StageTimer span(obs::Stage::kCacheLookup);
    cache_gen = cache->generation();
    if (cache->Lookup(s, t, out)) {
      // Flag the hit on the active trace so the flight recorder can
      // tell cached answers from computed ones (DESIGN.md §17).
      obs::QueryTrace* hit_trace = obs::CurrentTrace();
      if (hit_trace != nullptr) hit_trace->set_cache_hit(true);
      return Status::OK();
    }
  }
  // Kernel time for every backend: the span around QueryUncached (a
  // catalog handle's QueryUncached re-enters this template method, and
  // only the outermost span records).
  Status st;
  {
    obs::KernelSpan span;
    st = QueryUncached(s, t, out);
  }
  if (st.ok() && cache != nullptr) {
    // The insert is cache work too: it closes cache_lookup again.
    obs::StageTimer span(obs::Stage::kCacheLookup);
    cache->Insert(s, t, *out, cache_gen);
  }
  return st;
}

Status DistanceIndex::QueryBatch(
    const std::vector<std::pair<VertexId, VertexId>>& pairs,
    std::vector<Distance>* out, std::uint32_t num_threads,
    std::vector<Status>* statuses) {
  out->assign(pairs.size(), kInfDistance);
  if (statuses != nullptr) statuses->assign(pairs.size(), Status::OK());
  if (pairs.empty()) return Status::OK();

  const std::size_t workers =
      std::min<std::size_t>(EffectiveThreads(num_threads), pairs.size());
  std::vector<Status> first_error(workers, Status::OK());
  ParallelForChunks(
      pairs.size(), workers,
      [&](std::size_t w, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Status st = Query(pairs[i].first, pairs[i].second, &(*out)[i]);
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

Status DistanceIndex::QueryOneToMany(VertexId s,
                                     const std::vector<VertexId>& targets,
                                     std::vector<Distance>* out) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, s));
  for (VertexId t : targets) {
    ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  }
  out->assign(targets.size(), kInfDistance);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ISLABEL_RETURN_IF_ERROR(QueryUncached(s, targets[i], &(*out)[i]));
  }
  return Status::OK();
}

Status DistanceIndex::Save(const std::string& dir) const {
  (void)dir;
  return Status::NotSupported("this backend does not support Save");
}

}  // namespace islabel
