#include "catalog/catalog.h"

#include <algorithm>
#include <optional>

#include "obs/metrics.h"
#include "util/clock.h"

namespace islabel {

const char* DatasetStateName(DatasetState state) {
  switch (state) {
    case DatasetState::kReady: return "ready";
    case DatasetState::kFailed: return "failed";
    case DatasetState::kEmpty: return "empty";
  }
  return "?";
}

/// One named dataset. The index pointer is the only hot-swapped field;
/// everything a query path touches is either immutable after
/// registration (name), snapshotted under `mu` (index), or atomic
/// (counters).
struct Catalog::Dataset {
  Dataset(std::string name, bool labels_in_memory)
      : name(std::move(name)), labels_in_memory(labels_in_memory) {}

  const std::string name;
  const bool labels_in_memory;

  mutable Mutex mu;
  /// Backing directory; repointed by ReloadFrom (snapshot installs).
  std::string dir GUARDED_BY(mu);
  std::shared_ptr<PartitionedIndex> index GUARDED_BY(mu);
  DatasetState state GUARDED_BY(mu) = DatasetState::kEmpty;
  Status load_status GUARDED_BY(mu);

  std::shared_ptr<DistanceCache> cache;  // set before serving starts

  /// Registry-backed counters (labeled {dataset=name}); set once in
  /// Catalog::Register, never null once the dataset is listed.
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Counter* reloads = nullptr;
  obs::Gauge* generation_gauge = nullptr;
  obs::Gauge* index_entries_gauge = nullptr;
  obs::Gauge* index_bytes_gauge = nullptr;
  /// Data version (see DatasetInfo::generation). Written under `mu`
  /// together with the index swap; atomic so protocol reads stay
  /// lock-free (the gauge mirrors it for scrapes and may lag a write by
  /// one instruction — never the other way for protocol decisions).
  std::atomic<std::uint64_t> generation{0};

  /// Publishes `index` (already swapped in) as generation `gen`, with
  /// the gauges that describe it. Catalog::Publish is the one caller
  /// (lint rule catalog-install), and no installed index is mutated in
  /// place, so the size gauges stay exact.
  void SetGeneration(std::uint64_t gen) REQUIRES(mu) {
    generation.store(gen, std::memory_order_release);
    generation_gauge->Set(static_cast<std::int64_t>(gen));
    const DistanceIndexInfo info = index->Info();
    index_entries_gauge->Set(static_cast<std::int64_t>(info.entries));
    index_bytes_gauge->Set(static_cast<std::int64_t>(info.bytes));
  }
};

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

DatasetState Catalog::Handle::state() const {
  MutexLock lock(&dataset_->mu);
  return dataset_->state;
}

std::shared_ptr<PartitionedIndex> Catalog::Handle::index() const {
  MutexLock lock(&dataset_->mu);
  return dataset_->index;
}

DistanceCache* Catalog::Handle::distance_cache() const {
  return dataset_->cache.get();
}

Status Catalog::Handle::Ready(
    std::shared_ptr<PartitionedIndex>* index) const {
  MutexLock lock(&dataset_->mu);
  switch (dataset_->state) {
    case DatasetState::kReady:
      *index = dataset_->index;
      return Status::OK();
    case DatasetState::kFailed:
      return Status::FailedPrecondition("dataset " + dataset_->name +
                                        " failed to load: " +
                                        dataset_->load_status.ToString());
    case DatasetState::kEmpty:
      return Status::FailedPrecondition("dataset " + dataset_->name +
                                        " has no data yet");
  }
  return Status::Internal("unknown dataset state");
}

Status Catalog::Handle::CheckQueryable(VertexId, VertexId) const {
  // Deliberately no range check here: the index snapshot in
  // QueryUncached owns validation, so a failed or empty dataset reports
  // FailedPrecondition rather than OutOfRange-against-zero-vertices.
  dataset_->requests->Inc();
  return Status::OK();
}

Status Catalog::Handle::QueryUncached(VertexId s, VertexId t, Distance* out) {
  // DistanceIndex::Query snapshotted the cache generation before this
  // index snapshot; that order is what keeps a reload from leaving a
  // stale answer in the cache (DESIGN.md §12.4).
  std::shared_ptr<PartitionedIndex> index;
  Status st = Ready(&index);
  if (st.ok()) st = index->Query(s, t, out);
  if (!st.ok()) dataset_->errors->Inc();
  return st;
}

Status Catalog::Handle::ShortestPath(VertexId s, VertexId t,
                                     std::vector<VertexId>* path,
                                     Distance* dist) {
  dataset_->requests->Inc();
  std::shared_ptr<PartitionedIndex> index;
  Status st = Ready(&index);
  if (st.ok()) st = index->ShortestPath(s, t, path, dist);
  if (!st.ok()) dataset_->errors->Inc();
  return st;
}

Status Catalog::Handle::QueryOneToMany(VertexId s,
                                       const std::vector<VertexId>& targets,
                                       std::vector<Distance>* out) {
  dataset_->requests->Inc();
  std::shared_ptr<PartitionedIndex> index;
  Status st = Ready(&index);
  if (st.ok()) st = index->QueryOneToMany(s, targets, out);
  if (!st.ok()) dataset_->errors->Inc();
  return st;
}

VertexId Catalog::Handle::NumVertices() const {
  std::shared_ptr<PartitionedIndex> snapshot = index();
  return snapshot == nullptr ? 0 : snapshot->NumVertices();
}

bool Catalog::Handle::has_vias() const {
  std::shared_ptr<PartitionedIndex> snapshot = index();
  return snapshot != nullptr && snapshot->has_vias();
}

DistanceIndexInfo Catalog::Handle::Info() const {
  std::shared_ptr<PartitionedIndex> snapshot = index();
  if (snapshot != nullptr) return snapshot->Info();
  DistanceIndexInfo info;
  info.detail = DatasetStateName(state());
  return info;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

Catalog::Catalog(obs::MetricRegistry* metrics) {
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics = own_metrics_.get();
  }
  metrics_ = metrics;
  reload_seconds_ =
      metrics_->GetHistogram("islabel_catalog_reload_seconds",
                             "Reload/install duration (load + swap)");
}

std::shared_ptr<Catalog::Dataset> Catalog::Find(
    const std::string& name) const {
  MutexLock lock(&mu_);
  for (const auto& ds : datasets_) {
    if (ds->name == name) return ds;
  }
  return nullptr;
}

Status Catalog::Register(std::shared_ptr<Dataset> ds,
                         std::shared_ptr<PartitionedIndex> index,
                         const std::string& dir) {
  if (ds->name.empty()) return Status::InvalidArgument("dataset name is empty");
  MutexLock lock(&mu_);
  for (const auto& existing : datasets_) {
    if (existing->name == ds->name) {
      return Status::InvalidArgument("dataset " + ds->name +
                                     " is already registered");
    }
  }
  // Resolved only now: a rejected name must not create series, and its
  // {dataset=name} series are the listed dataset's.
  const obs::Labels labels{{"dataset", ds->name}};
  ds->requests = metrics_->GetCounter("islabel_dataset_requests_total",
                                      "Queries routed to the dataset",
                                      labels);
  ds->errors = metrics_->GetCounter("islabel_dataset_errors_total",
                                    "Queries that failed", labels);
  ds->reloads = metrics_->GetCounter("islabel_dataset_reloads_total",
                                     "Successful reloads/installs", labels);
  ds->generation_gauge = metrics_->GetGauge(
      "islabel_dataset_generation", "Current data generation", labels);
  ds->index_entries_gauge = metrics_->GetGauge(
      "islabel_dataset_index_entries",
      "Label entries (IS-LABEL) or up-edges (CH) of the installed index, "
      "summed over parts",
      labels);
  ds->index_bytes_gauge = metrics_->GetGauge(
      "islabel_dataset_index_bytes",
      "Bytes of those entries in the installed index", labels);
  // Published before it is listed, so no reader finds it without its
  // index. It cannot be refused: an unlisted dataset is at generation 0.
  if (index != nullptr) (void)Publish(*ds, std::move(index), dir, 1);
  datasets_.push_back(std::move(ds));
  return Status::OK();
}

Result<std::uint64_t> Catalog::Publish(
    Dataset& ds, std::shared_ptr<PartitionedIndex> index,
    const std::string& dir, std::optional<std::uint64_t> gen) {
  index->InstallMetrics(metrics_);
  std::uint64_t published;
  {
    MutexLock lock(&ds.mu);
    const std::uint64_t current =
        ds.generation.load(std::memory_order_acquire);
    published = gen.value_or(current + 1);
    if (published <= current) {
      return Status::FailedPrecondition(
          "dataset " + ds.name + " is already at generation " +
          std::to_string(current) + " >= " + std::to_string(published));
    }
    ds.index = std::move(index);  // old version lives on in query snapshots
    ds.state = DatasetState::kReady;
    ds.load_status = Status::OK();
    ds.dir = dir;
    ds.SetGeneration(published);
  }
  // Publish-then-bump: an answer computed on the old index carries a
  // generation that is stale before it can be cached (DESIGN.md §12.4).
  if (ds.cache != nullptr) ds.cache->BumpGeneration();
  return published;
}

Status Catalog::Install(Dataset& ds, const std::string& dir,
                        std::optional<std::uint64_t> gen) {
  const std::uint64_t t0 = SystemClock::Default()->NowNanos();
  // The expensive load runs without any lock; queries proceed on the old
  // index throughout, and a directory that fails to load leaves it
  // serving untouched.
  auto loaded = PartitionedIndex::Load(dir, ds.labels_in_memory);
  if (!loaded.ok()) return loaded.status();
  ISLABEL_ASSIGN_OR_RETURN(
      const std::uint64_t published,
      Publish(ds, std::make_shared<PartitionedIndex>(std::move(loaded).value()),
              dir, gen));
  ds.reloads->Inc();
  reload_seconds_->RecordNanos(SystemClock::Default()->NowNanos() - t0);
  if (event_log_ != nullptr) {
    event_log_->Log(obs::EventLevel::kInfo, "islabel.catalog.reload",
                    {{"dataset", ds.name},
                     {"gen", obs::EventLog::U64(published)},
                     {"dir", dir}});
  }
  return Status::OK();
}

Status Catalog::Add(const std::string& name, const std::string& dir,
                    bool labels_in_memory) {
  auto ds = std::make_shared<Dataset>(name, labels_in_memory);
  auto loaded = PartitionedIndex::Load(dir, labels_in_memory);
  std::shared_ptr<PartitionedIndex> index;
  if (loaded.ok()) {
    index = std::make_shared<PartitionedIndex>(std::move(loaded).value());
  } else {
    MutexLock dlock(&ds->mu);  // unpublished; lock only for the analysis
    ds->dir = dir;             // what Reload retries
    ds->state = DatasetState::kFailed;
    ds->load_status = loaded.status();
  }
  ISLABEL_RETURN_IF_ERROR(Register(ds, std::move(index), dir));
  if (event_log_ != nullptr) {
    if (loaded.ok()) {
      event_log_->Log(obs::EventLevel::kInfo, "islabel.catalog.load",
                      {{"dataset", name}, {"dir", dir}});
    } else {
      event_log_->Log(obs::EventLevel::kError, "islabel.catalog.load_failed",
                      {{"dataset", name},
                       {"dir", dir},
                       {"error", loaded.status().ToString()}});
    }
  }
  return Status::OK();
}

Status Catalog::AddIndex(const std::string& name, PartitionedIndex index,
                         std::string dir) {
  return Register(std::make_shared<Dataset>(name, /*labels_in_memory=*/true),
                  std::make_shared<PartitionedIndex>(std::move(index)), dir);
}

Status Catalog::AddEmpty(const std::string& name) {
  return Register(std::make_shared<Dataset>(name, /*labels_in_memory=*/true),
                  nullptr, "");
}

Status Catalog::WaitReady() {
  MutexLock lock(&mu_);
  for (const auto& ds : datasets_) {
    MutexLock dlock(&ds->mu);
    if (ds->state == DatasetState::kFailed) return ds->load_status;
  }
  return Status::OK();
}

Catalog::Handle Catalog::Get(const std::string& name) const {
  return Handle(Find(name));
}

Status Catalog::Reload(const std::string& name) {
  std::shared_ptr<Dataset> ds = Find(name);
  if (ds == nullptr) return Status::NotFound("unknown dataset " + name);
  std::string dir;
  {
    MutexLock lock(&ds->mu);
    dir = ds->dir;
  }
  if (dir.empty()) {
    return Status::FailedPrecondition("dataset " + name +
                                      " has no backing directory");
  }
  return Install(*ds, dir, std::nullopt);  // the current generation + 1
}

Status Catalog::ReloadFrom(const std::string& name, const std::string& dir,
                           std::uint64_t gen) {
  std::shared_ptr<Dataset> ds = Find(name);
  if (ds == nullptr) return Status::NotFound("unknown dataset " + name);
  return Install(*ds, dir, gen);
}

std::uint64_t Catalog::Generation(const std::string& name) const {
  std::shared_ptr<Dataset> ds = Find(name);
  return ds == nullptr ? 0
                       : ds->generation.load(std::memory_order_acquire);
}

std::string Catalog::Dir(const std::string& name) const {
  std::shared_ptr<Dataset> ds = Find(name);
  if (ds == nullptr) return "";
  MutexLock lock(&ds->mu);
  return ds->dir;
}

Status Catalog::SetDistanceCache(const std::string& name,
                                 std::shared_ptr<DistanceCache> cache) {
  std::shared_ptr<Dataset> ds = Find(name);
  if (ds == nullptr) return Status::NotFound("unknown dataset " + name);
  ds->cache = std::move(cache);
  return Status::OK();
}

std::vector<std::string> Catalog::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& ds : datasets_) names.push_back(ds->name);
  return names;
}

std::vector<DatasetInfo> Catalog::List() const {
  std::vector<std::shared_ptr<Dataset>> datasets;
  {
    MutexLock lock(&mu_);
    datasets = datasets_;
  }
  std::vector<DatasetInfo> infos;
  infos.reserve(datasets.size());
  for (const auto& ds : datasets) {
    DatasetInfo info;
    info.name = ds->name;
    info.requests = ds->requests->Value();
    info.errors = ds->errors->Value();
    info.reloads = ds->reloads->Value();
    info.generation = ds->generation.load(std::memory_order_acquire);
    {
      MutexLock dlock(&ds->mu);
      info.state = ds->state;
      if (ds->index != nullptr) {
        info.parts = ds->index->num_parts();
        info.vertices = ds->index->NumVertices();
        info.backends = ds->index->BackendSummary();
      }
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

}  // namespace islabel
