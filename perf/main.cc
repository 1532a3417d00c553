// islabel_perf: the serving benchmark (see perf/README.md).
//
// For each workload it builds the served system (set-up, repeated and
// timed) and serves a seeded request stream through the server's own
// per-line path on one thread, in process: ParseRequest and
// RequestDispatcher::Execute, with the metrics registry a TcpServer
// installs. A discarded warm-up precedes the timed phase, which is cut
// into windows: each window gives its queries per second of the serving
// thread's CPU time and the p50/p99 of its queries' wall-clock service
// times, and the run reports the median window. Answers are verified
// afterwards against fresh single-threaded engines over an independent
// copy of the index, and a few against plain Dijkstra. `--trace 1`
// replaces the timed phase with the per-layer run: a registry on/off A/B,
// cache and pool counters, and an in-process span replay (replay.h).
//
//   islabel_perf [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--out RECORD.json] [--work-dir DIR]
//
// --seconds is the timed phase per workload (default 20). --smoke: scale
// 0.05, 1 s, 0.2 s warm-up.
//
// Prints `workload metric value unit` lines, writes one JSON record, and
// exits 2 if any request failed or any sampled answer was wrong.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline/dijkstra.h"
#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "core/index.h"
#include "obs/metrics.h"
#include "perf/common.h"
#include "perf/datasets.h"
#include "perf/replay.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "util/clock.h"
#include "util/random.h"

namespace islabel {
namespace perf {
namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kChunk = 256;  // requests generated, then served
constexpr std::uint64_t kSwitchEvery = 64;  // catalog: queries per `use`
constexpr std::size_t kReplayRequests = 20000;
constexpr std::size_t kSmokeReplayRequests = 2000;
constexpr std::size_t kZipfPool = 20000;
constexpr double kZipfExponent = 0.99;
constexpr int kDirectReloads = 5;
constexpr int kObsPairs = 5;
constexpr std::size_t kDijkstraChecks = 20;
constexpr std::uint64_t kKeepPrefix = 2000;  // answers kept for checking ...
constexpr std::uint64_t kKeepStride = 1000;  // ... and every this-many-th
/// Nominal ReferenceLoop::NsPerStep, about its median over the baseline
/// runs (1.7-2.4 there): timed metrics are reported as if the reference
/// loop ran at this speed.
constexpr double kReferenceNs = 2.0;

struct DatasetSpec {
  const char* source;
  double scale;
  const char* name;  // catalog dataset name
};

/// One workload. A catalog dataset is two disjoint copies of its graph,
/// partition-built.
struct WorkloadSpec {
  const char* name;
  std::vector<DatasetSpec> datasets;
  bool catalog;
  bool on_disk;
  bool cache;
  bool zipf;  // Zipf over a pool of kZipfPool pairs, else uniform pairs
  /// Queries per timed window: a few tenths of a second of serving, and
  /// enough that one slow search does not move a window's median. For
  /// catalog-reload it is also the reload period.
  std::uint64_t window_queries;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"hot-cached", {{"synth-wiki", 1.0, "wiki"}},
       false, false, true, true, 100000},
      {"core-search", {{"synth-skitter", 1.0, "skitter"}},
       false, false, true, false, 2000},
      {"big-disk", {{"synth-btc", 4.0, "btc"}},
       false, true, false, false, 2000},
      {"catalog-reload",
       {{"synth-google", 0.5, "a"}, {"synth-web", 0.5, "b"}},
       true, false, true, true, 100000},
  };
  return specs;
}

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  double warmup = 2.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string work_dir;
};

// ---------------------------------------------------------------------------
// Inputs and request streams
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<Graph> graphs;  // one per dataset
  std::vector<std::vector<std::pair<VertexId, VertexId>>> pools;
  std::vector<double> zipf_cdf;
};

Inputs MakeInputs(const WorkloadSpec& w, std::uint64_t seed, bool smoke) {
  Inputs in;
  for (std::size_t d = 0; d < w.datasets.size(); ++d) {
    const DatasetSpec& ds = w.datasets[d];
    Graph g = MakeDataset(ds.source, smoke ? 0.05 : ds.scale);
    in.graphs.push_back(w.catalog ? TwoCopies(g) : std::move(g));
    if (!w.zipf) continue;
    Rng rng(Mix(seed, Mix(NameHash(w.name), d)));
    const VertexId n = in.graphs.back().NumVertices();
    auto& pool = in.pools.emplace_back();
    for (std::size_t i = 0; i < kZipfPool; ++i) {
      pool.emplace_back(static_cast<VertexId>(rng.Uniform(n)),
                        static_cast<VertexId>(rng.Uniform(n)));
    }
  }
  if (w.zipf) {
    double sum = 0.0;
    for (std::size_t r = 0; r < kZipfPool; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      in.zipf_cdf.push_back(sum);
    }
    for (double& c : in.zipf_cdf) c /= sum;
  }
  return in;
}

/// Stream ids: each phase draws from its own stream, so no two phases
/// (and no two A/B windows) send the same request sequence.
enum Phase : std::uint64_t { kWarmup = 1, kTimed = 2, kAb = 16 };

/// Request `index` of stream `phase`: a pure function of (workload, seed,
/// phase, index). Catalog streams open every block of kSwitchEvery queries
/// with a `use` that alternates the datasets.
StreamRequest MakeRequest(const WorkloadSpec& w, const Inputs& in,
                          std::uint64_t seed, std::uint64_t phase,
                          std::uint64_t index) {
  StreamRequest r;
  if (w.catalog) {
    const std::uint64_t block = index / (kSwitchEvery + 1);
    r.dataset = static_cast<std::uint8_t>(block % w.datasets.size());
    if (index % (kSwitchEvery + 1) == 0) {
      r.kind = StreamRequest::Kind::kUse;
      return r;
    }
  }
  const std::uint64_t h = Mix(Mix(Mix(seed, NameHash(w.name)), phase), index);
  if (w.zipf) {
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const std::size_t rank = static_cast<std::size_t>(
        std::upper_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u) -
        in.zipf_cdf.begin());
    const auto& pair = in.pools[r.dataset][std::min(rank, kZipfPool - 1)];
    r.s = pair.first;
    r.t = pair.second;
  } else {
    const VertexId n = in.graphs[r.dataset].NumVertices();
    r.s = static_cast<VertexId>(Mix(h, 1) % n);
    r.t = static_cast<VertexId>(Mix(h, 2) % n);
  }
  return r;
}

std::string Line(const WorkloadSpec& w, const StreamRequest& r) {
  if (r.kind == StreamRequest::Kind::kUse) {
    return std::string("use ") + w.datasets[r.dataset].name;
  }
  return std::to_string(r.s) + ' ' + std::to_string(r.t);
}

/// Pins the calling thread to the last CPU it may run on, for the
/// object's lifetime. A guest's CPU 0 takes its device interrupts (on the
/// 4-vCPU machine the baseline ran on, the serving thread was ~10% slower
/// there), and a fixed CPU keeps every run on the same one.
class PinnedToLastCpu {
 public:
  PinnedToLastCpu() {
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) last = c;
    }
    if (last < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToLastCpu() {
    if (pinned_) (void)::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToLastCpu(const PinnedToLastCpu&) = delete;
  PinnedToLastCpu& operator=(const PinnedToLastCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// The benchmark's yardstick for how fast the machine runs one thread
/// right now: random reads from a 1 MiB table, brought back into cache by a
/// sequential pass before they are timed, so what the workload evicted does
/// not count. The host's other tenants slow a serving thread by 20-40% for
/// minutes at a time, and this loop follows part of that (see
/// perf/README.md); the timed metrics are scaled by its speed relative to
/// kReferenceNs.
class ReferenceLoop {
 public:
  ReferenceLoop() : table_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) {
      table_[i] = static_cast<std::uint32_t>(Mix(i));
    }
  }

  /// Nanoseconds of this thread's CPU time per read.
  double NsPerStep() {
    std::uint64_t sum = 0;
    for (std::uint32_t v : table_) sum += v;
    const double t0 = ThreadCpuSeconds();
    for (int i = 0; i < kSteps; ++i) {
      x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += table_[(x_ >> 40) & (kWords - 1)] ^ (x_ >> 7);
    }
    const double ns = (ThreadCpuSeconds() - t0) * 1e9 / kSteps;
    sink_ = sink_ + sum;  // keeps the reads
    return ns;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 18;
  static constexpr int kSteps = 500000;
  std::vector<std::uint32_t> table_;
  std::uint64_t x_ = 1;
  volatile std::uint64_t sink_ = 0;
};

bool ParseDistance(std::string_view line, Distance* d) {
  if (line == "unreachable") {
    *d = kInfDistance;
    return true;
  }
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(line.data(), end, *d);
  return !line.empty() && ec == std::errc() && ptr == end;
}

// ---------------------------------------------------------------------------
// The served system
// ---------------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<ISLabelIndex> index;  // single-index workloads
  std::shared_ptr<server::QueryCache> cache;
  std::unique_ptr<Catalog> catalog;     // catalog-reload
  std::vector<std::shared_ptr<server::QueryCache>> caches;
  std::string dir;                      // saved index (disk, catalog)
  BuildStats build;                     // summed over parts; k = max
  /// The registry a TcpServer would record into: its own in single-index
  /// mode, the catalog's in catalog mode.
  obs::MetricRegistry own_registry;
  obs::MetricRegistry* registry = nullptr;
  // Declared last: it refers to everything above.
  std::unique_ptr<server::RequestDispatcher> dispatcher;
};

void AddBuildStats(const BuildStats& part, BuildStats* total) {
  total->k = std::max(total->k, part.k);
  total->core_vertices += part.core_vertices;
  total->core_edges += part.core_edges;
  total->label_entries += part.label_entries;
  total->hierarchy_seconds += part.hierarchy_seconds;
  total->labeling_seconds += part.labeling_seconds;
}

Status Fail(const std::string& what, const Status& st) {
  return Status::Internal(what + ": " + st.ToString());
}

/// Builds (and saves/loads) the served system and its request dispatcher:
/// the span setup_s measures. Graph generation happened before.
Status SetUp(const WorkloadSpec& w, const Inputs& in, const std::string& dir,
             Deployment* dep) {
  dep->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!w.catalog) {
    auto built = ISLabelIndex::Build(in.graphs[0], IndexOptions{});
    if (!built.ok()) return Fail("build", built.status());
    AddBuildStats(built->build_stats(), &dep->build);
    if (w.on_disk) {
      Status st = built->Save(dir);
      if (!st.ok()) return Fail("save", st);
      auto loaded = ISLabelIndex::Load(dir, /*labels_in_memory=*/false);
      if (!loaded.ok()) return Fail("load", loaded.status());
      dep->index = std::make_unique<ISLabelIndex>(std::move(loaded).value());
    } else {
      dep->index = std::make_unique<ISLabelIndex>(std::move(built).value());
    }
    if (w.cache) {
      dep->cache = std::make_shared<server::QueryCache>();
      dep->index->set_distance_cache(dep->cache);
    }
    dep->dispatcher =
        std::make_unique<server::RequestDispatcher>(dep->index.get());
    dep->registry = &dep->own_registry;
  } else {
    dep->catalog = std::make_unique<Catalog>();
    for (std::size_t d = 0; d < w.datasets.size(); ++d) {
      auto built = PartitionedIndex::Build(in.graphs[d]);
      if (!built.ok()) return Fail("partition build", built.status());
      for (std::uint32_t p = 0; p < built->num_parts(); ++p) {
        const auto* part = dynamic_cast<const ISLabelIndex*>(&built->part(p));
        if (part != nullptr) AddBuildStats(part->build_stats(), &dep->build);
      }
      const std::string ds_dir = dir + "/" + w.datasets[d].name;
      Status st = built->Save(ds_dir);
      if (!st.ok()) return Fail("save", st);
      st = dep->catalog->Add(w.datasets[d].name, ds_dir);
      if (!st.ok()) return Fail("catalog add", st);
    }
    Status st = dep->catalog->WaitReady();
    if (!st.ok()) return Fail("catalog load", st);
    if (w.cache) {
      for (const DatasetSpec& ds : w.datasets) {
        dep->caches.push_back(std::make_shared<server::QueryCache>());
        (void)dep->catalog->SetDistanceCache(ds.name, dep->caches.back());
      }
    }
    dep->dispatcher = std::make_unique<server::RequestDispatcher>(
        dep->catalog.get(), w.datasets[0].name);
    dep->registry = dep->catalog->metrics();
  }
  server::RequestDispatcher::MetricsOptions mo;
  mo.registry = dep->registry;
  dep->dispatcher->InstallMetrics(mo);
  return Status::OK();
}

double IndexMegabytes(const WorkloadSpec& w, Deployment& dep) {
  std::uint64_t bytes = 0;
  if (w.catalog) {
    for (const DatasetSpec& ds : w.datasets) {
      bytes += dep.catalog->Get(ds.name).Info().bytes;
    }
  } else if (w.on_disk) {
    bytes = dep.index->label_store()->LabelBytes();
  } else {
    bytes = dep.index->Info().bytes;
  }
  return static_cast<double>(bytes) / 1e6;
}

/// The IS-LABEL parts currently served for dataset d.
std::vector<ISLabelIndex*> ServedParts(const WorkloadSpec& w, Deployment& dep,
                                       std::shared_ptr<PartitionedIndex>* pin,
                                       std::size_t d) {
  if (!w.catalog) return {dep.index.get()};
  *pin = dep.catalog->Get(w.datasets[d].name).index();
  std::vector<ISLabelIndex*> parts;
  for (std::uint32_t p = 0; p < (*pin)->num_parts(); ++p) {
    parts.push_back(dynamic_cast<ISLabelIndex*>((*pin)->mutable_part(p)));
  }
  return parts;
}

server::QueryCacheStats CacheTotals(Deployment& dep) {
  std::vector<std::shared_ptr<server::QueryCache>> caches = dep.caches;
  if (dep.cache != nullptr) caches.push_back(dep.cache);
  server::QueryCacheStats total;
  for (const auto& c : caches) {
    const server::QueryCacheStats s = c->GetStats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.gen_invalidations += s.gen_invalidations;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Fresh single-threaded engines over an independent copy of every dataset,
/// routed like the catalog does.
class Oracle {
 public:
  void Add(PartitionedIndex index) {
    Entry e;
    e.index = std::make_unique<PartitionedIndex>(std::move(index));
    for (std::uint32_t p = 0; p < e.index->num_parts(); ++p) {
      auto* part = dynamic_cast<ISLabelIndex*>(e.index->mutable_part(p));
      e.engines.push_back(std::make_unique<QueryEngine>(
          &part->hierarchy(), LabelProvider(&part->labels())));
    }
    entries_.push_back(std::move(e));
  }

  Distance Expect(std::uint8_t dataset, VertexId s, VertexId t) {
    Entry& e = entries_[dataset];
    if (e.index->ComponentOf(s) != e.index->ComponentOf(t)) return kInfDistance;
    const std::uint32_t p = e.index->PartOf(s);
    if (p == GraphPartition::kNoPart) return 0;
    Distance d = kInfDistance;
    (void)e.engines[p]->Query(e.index->LocalId(s), e.index->LocalId(t), &d);
    return d;
  }

 private:
  struct Entry {
    std::unique_ptr<PartitionedIndex> index;
    std::vector<std::unique_ptr<QueryEngine>> engines;
  };
  std::vector<Entry> entries_;
};

/// Checks every kept answer against the oracle and the first few against
/// Dijkstra; returns the number of mismatches.
std::uint64_t Verify(const std::vector<Answer>& kept, const Inputs& in,
                     Oracle* oracle, std::uint64_t* checked) {
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Answer& a = kept[i];
    bool ok = oracle->Expect(a.dataset, a.s, a.t) == a.d;
    if (i < kDijkstraChecks) {
      ok = ok && DijkstraP2P(in.graphs[a.dataset], a.s, a.t) == a.d;
    }
    if (!ok) {
      if (mismatches < 5) {
        std::fprintf(stderr, "!! wrong answer: dataset %u, %u %u -> %llu\n",
                     a.dataset, a.s, a.t, static_cast<unsigned long long>(a.d));
      }
      ++mismatches;
    }
  }
  *checked += kept.size();
  return mismatches;
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

/// What serving one stream produced. A window is a run of at least the
/// workload's window_queries queries; a trailing shorter one is dropped.
struct ServeResult {
  std::uint64_t attempted = 0;  // query verbs served
  std::uint64_t errors = 0;     // error or malformed responses, any verb
  double cpu_seconds = 0.0;     // serving thread CPU, all chunks
  std::uint64_t timed = 0;      // queries in the completed windows
  std::vector<double> window_qps;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_ref_ns;  // ReferenceLoop after the window
  std::vector<double> reload_ms;
  std::vector<Answer> kept;
};

struct WorkloadResult {
  std::string name;
  std::vector<Metric> metrics;
  std::map<std::string, double> shares_pct;
  std::map<std::string, double> fingerprint;
  std::string checksum;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;
  std::uint64_t windows = 0;
  std::uint64_t lat_samples = 0;
  bool correct = true;
  std::string error;  // infrastructure failure
};

class Runner {
 public:
  Runner(const WorkloadSpec& w, const Options& opt) : w_(w), opt_(opt) {
    res_.name = w.name;
  }

  WorkloadResult Run() {
    inputs_ = MakeInputs(w_, opt_.seed, opt_.smoke);
    Fingerprint();
    Oracle oracle;
    if (!SetUpRepeated(&oracle)) return res_;

    Account(Serve(kWarmup, opt_.warmup, false));
    if (opt_.trace) {
      TracePhases();
    } else {
      const ServeResult timed = Serve(kTimed, opt_.seconds, true);
      Account(timed);
      // Each window's numbers at the reference speed, then the median.
      const std::vector<double>& ref = timed.window_ref_ns;
      const auto at_reference = [&ref](const std::vector<double>& v,
                                       bool rate) {
        std::vector<double> scaled(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
          const double speed = ref[i] / kReferenceNs;
          scaled[i] = rate ? v[i] * speed : v[i] / speed;
        }
        return Quantile(scaled, 0.5);
      };
      Add("qps", at_reference(timed.window_qps, true), "req/s");
      Add("lat_p50_us", at_reference(timed.window_p50_us, false), "us");
      Add("lat_p99_us", at_reference(timed.window_p99_us, false), "us");
      Add("raw_qps", Quantile(timed.window_qps, 0.5), "req/s");
      Add("raw_lat_p50_us", Quantile(timed.window_p50_us, 0.5), "us");
      Add("reference_ns", Quantile(ref, 0.5), "ns");
      if (w_.catalog) Add("reload_ms", Quantile(timed.reload_ms, 0.5), "ms");
      res_.windows = timed.window_qps.size();
      res_.lat_samples = timed.timed;
    }
    Add("setup_s", Quantile(setup_s_, 0.5), "s");
    Add("index_mb", IndexMegabytes(w_, *dep_), "MB");
    dep_.reset();

    res_.failed += Verify(kept_, inputs_, &oracle, &res_.verified);
    res_.correct = res_.failed == 0 && res_.error.empty();
    Add("fail_ratio",
        static_cast<double>(res_.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, res_.attempted)),
        "ratio");
    return res_;
  }

 private:
  void Add(const std::string& name, double value, const std::string& unit) {
    res_.metrics.push_back({name, value, unit});
  }

  void Fingerprint() {
    double n = 0, m = 0;
    std::uint64_t sum = 0;
    for (const Graph& g : inputs_.graphs) {
      n += g.NumVertices();
      m += static_cast<double>(g.NumEdges());
      sum = Mix(sum, EdgeChecksum(g));
    }
    res_.fingerprint = {{"n", n}, {"m", m}};
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(sum));
    res_.checksum = hex;
  }

  /// kSetupReps timed set-ups (the last one is served) plus the untimed
  /// independent copy the answers are checked against.
  bool SetUpRepeated(Oracle* oracle) {
    const std::string dir = opt_.work_dir + "/" + w_.name;
    if (!w_.catalog && !w_.on_disk) {
      auto copy = ISLabelIndex::Build(inputs_.graphs[0], IndexOptions{});
      if (!copy.ok()) return Infra("oracle build: " + copy.status().ToString());
      oracle->Add(PartitionedIndex::FromMonolithic(std::move(copy).value()));
    }
    for (int rep = 0; rep < kSetupReps; ++rep) {
      dep_.reset();
      dep_ = std::make_unique<Deployment>();
      const std::int64_t t0 = NowNs();
      const Status st = SetUp(w_, inputs_, dir, dep_.get());
      setup_s_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      if (!st.ok()) return Infra("setup: " + st.ToString());
    }
    if (w_.catalog || w_.on_disk) {
      for (const DatasetSpec& ds : w_.datasets) {
        auto copy = PartitionedIndex::Load(
            w_.catalog ? dir + "/" + ds.name : dir, /*labels_in_memory=*/true);
        if (!copy.ok()) {
          return Infra("oracle load: " + copy.status().ToString());
        }
        oracle->Add(std::move(copy).value());
      }
    }
    const BuildStats& b = dep_->build;
    res_.fingerprint["k"] = b.k;
    res_.fingerprint["label_entries"] = static_cast<double>(b.label_entries);
    Add("build.hierarchy_s", b.hierarchy_seconds, "s");
    Add("build.labeling_s", b.labeling_seconds, "s");
    Add("build.k", b.k, "count");
    Add("build.core_vertices", static_cast<double>(b.core_vertices), "count");
    Add("build.core_edges", static_cast<double>(b.core_edges), "count");
    Add("build.label_entries", static_cast<double>(b.label_entries), "count");
    return true;
  }

  bool Infra(const std::string& error) {
    std::fprintf(stderr, "!! %s: %s\n", w_.name, error.c_str());
    res_.error = error;
    res_.correct = false;
    return false;
  }

  void Account(const ServeResult& r) {
    res_.attempted += r.attempted;
    res_.failed += r.errors;
    kept_.insert(kept_.end(), r.kept.begin(), r.kept.end());
  }

  /// Serves stream `phase` for `seconds` on this thread, the way a server
  /// worker executes a connection's lines. Requests are generated kChunk
  /// at a time outside the timing. A query's service time is the wall
  /// time of its parse + execute. A window closes at the first chunk end
  /// after the workload's window_queries queries; its rate is its queries
  /// over the serving thread's CPU time, which leaves out any time the
  /// host took the vCPU away. Catalog workloads reload a dataset
  /// (alternating) after every window, outside the timing.
  ServeResult Serve(std::uint64_t phase, double seconds, bool keep) {
    const PinnedToLastCpu pin;
    ServeResult r;
    server::RequestDispatcher& dispatcher = *dep_->dispatcher;
    server::RequestDispatcher::Session session;
    const SystemClock clock;
    std::vector<StreamRequest> reqs(kChunk);
    std::vector<std::string> lines(kChunk);
    std::vector<std::string> responses(kChunk);
    std::vector<std::int64_t> stamps(kChunk + 1);
    std::vector<double> window_lat_us;
    std::uint64_t window_queries = 0;
    double window_cpu = 0.0;
    std::uint64_t reloads = 0;
    const std::int64_t end =
        NowNs() + static_cast<std::int64_t>(seconds * 1e9);

    for (std::uint64_t base = 0; NowNs() < end; base += kChunk) {
      for (std::size_t k = 0; k < kChunk; ++k) {
        reqs[k] = MakeRequest(w_, inputs_, opt_.seed, phase, base + k);
        lines[k] = Line(w_, reqs[k]);
      }
      if (w_.catalog && r.attempted >= (reloads + 1) * w_.window_queries) {
        const std::string name =
            w_.datasets[reloads++ % w_.datasets.size()].name;
        const std::int64_t t0 = NowNs();
        const std::string resp = dispatcher.Execute(
            server::ParseRequest("reload " + name), &session);
        r.reload_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
        if (resp != "ok: reloaded " + name) ++r.errors;
      }

      const double cpu0 = ThreadCpuSeconds();
      for (std::size_t k = 0; k < kChunk; ++k) {
        stamps[k] = NowNs();
        // As TcpServer::ParseLines: parse time feeds the request's trace.
        const bool time_parse = dispatcher.tracing_enabled();
        const std::uint64_t p0 = time_parse ? clock.NowMicros() : 0;
        server::Request req = server::ParseRequest(lines[k]);
        if (time_parse) {
          req.parse_us = static_cast<std::uint32_t>(clock.NowMicros() - p0);
        }
        responses[k] = dispatcher.Execute(req, &session);
      }
      stamps[kChunk] = NowNs();
      const double cpu = ThreadCpuSeconds() - cpu0;
      r.cpu_seconds += cpu;
      window_cpu += cpu;

      for (std::size_t k = 0; k < kChunk; ++k) {
        const StreamRequest& q = reqs[k];
        if (q.kind == StreamRequest::Kind::kUse) {
          if (responses[k] !=
              std::string("ok: using ") + w_.datasets[q.dataset].name) {
            ++r.errors;
          }
          continue;
        }
        ++r.attempted;
        ++window_queries;
        Distance d = 0;
        if (!ParseDistance(responses[k], &d)) {
          ++r.errors;
          continue;
        }
        window_lat_us.push_back(
            static_cast<double>(stamps[k + 1] - stamps[k]) * 1e-3);
        const std::uint64_t index = base + k;
        if (keep && (index < kKeepPrefix || index % kKeepStride == 0)) {
          r.kept.push_back(Answer{q.dataset, q.s, q.t, d});
        }
      }
      if (window_queries >= w_.window_queries) {
        r.window_qps.push_back(static_cast<double>(window_queries) /
                               std::max(1e-9, window_cpu));
        r.window_p50_us.push_back(Quantile(window_lat_us, 0.50));
        r.window_p99_us.push_back(Quantile(window_lat_us, 0.99));
        r.window_ref_ns.push_back(reference_.NsPerStep());
        r.timed += window_queries;
        window_lat_us.clear();
        window_queries = 0;
        window_cpu = 0.0;
      }
    }
    return r;
  }

  void TracePhases() {
    // Registry on/off A/B in alternating windows (the order flips every
    // pair so drift cancels); overhead = median over pairs.
    const int pairs = opt_.smoke ? 1 : kObsPairs;
    const double window = opt_.seconds / (2.0 * pairs);
    const server::QueryCacheStats cache0 = CacheTotals(*dep_);
    std::vector<double> overhead;
    for (int p = 0; p < pairs; ++p) {
      double qps[2] = {0.0, 0.0};  // [off, on]
      for (int k = 0; k < 2; ++k) {
        const bool on = (k == 0) == (p % 2 == 0);
        dep_->registry->set_enabled(on);
        const ServeResult r = Serve(kAb + 2 * p + k, window, false);
        Account(r);
        qps[on ? 1 : 0] = static_cast<double>(r.attempted) /
                          std::max(1e-9, r.cpu_seconds);
      }
      overhead.push_back(100.0 * (qps[0] - qps[1]) / std::max(1.0, qps[0]));
    }
    dep_->registry->set_enabled(true);
    Add("obs.metrics_overhead_pct", Quantile(overhead, 0.5), "%");

    const server::QueryCacheStats cache1 = CacheTotals(*dep_);
    const auto delta = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double hits = delta(cache1.hits, cache0.hits);
    const double lookups = hits + delta(cache1.misses, cache0.misses);
    Add("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
    Add("cache.evictions", delta(cache1.evictions, cache0.evictions), "count");
    Add("cache.gen_invalidations",
        delta(cache1.gen_invalidations, cache0.gen_invalidations), "count");
    double engines = 0;
    for (std::size_t d = 0; d < w_.datasets.size(); ++d) {
      std::shared_ptr<PartitionedIndex> pin;
      for (ISLabelIndex* part : ServedParts(w_, *dep_, &pin, d)) {
        engines += static_cast<double>(part->engine_pool()->EnginesCreated());
      }
    }
    Add("pool.engines_created", engines, "count");

    // The replayed sequence is the timed phase's. Its caches start from
    // what the served caches hold on average: the whole pool when nothing
    // invalidates them, the next window's requests' answers when
    // reloads do (each dataset is invalidated every second reload), and
    // nothing for uniform pairs, which do not repeat.
    const auto request = [this](std::uint64_t j) {
      return MakeRequest(w_, inputs_, opt_.seed, kTimed, j);
    };
    const std::uint64_t replay_n = opt_.smoke ? kSmokeReplayRequests
                                              : kReplayRequests;
    std::vector<StreamRequest> replayed, warm;
    for (std::uint64_t j = 0; j < replay_n; ++j) replayed.push_back(request(j));
    if (w_.zipf && w_.catalog) {
      for (std::uint64_t j = replay_n; j < replay_n + w_.window_queries;
           ++j) {
        warm.push_back(request(j));
      }
    } else if (w_.zipf) {
      for (std::size_t d = 0; d < inputs_.pools.size(); ++d) {
        for (const auto& [s, t] : inputs_.pools[d]) {
          StreamRequest r;
          r.dataset = static_cast<std::uint8_t>(d);
          r.s = s;
          r.t = t;
          warm.push_back(r);
        }
      }
    }
    std::vector<ServedDataset> served(w_.datasets.size());
    for (std::size_t d = 0; d < served.size(); ++d) {
      served[d].parts = ServedParts(w_, *dep_, &served[d].partitioned, d);
      if (w_.on_disk) served[d].labels_file = dep_->dir + "/labels.isl";
    }
    const ReplayResult rep =
        Replay(served, w_.cache, replayed, warm,
               opt_.work_dir + "/trace_" + w_.name + ".jsonl");
    res_.metrics.insert(res_.metrics.end(), rep.metrics.begin(),
                        rep.metrics.end());
    res_.shares_pct = rep.shares_pct;
    res_.shares_pct["sum"] = rep.shares_sum_pct;
    if (std::abs(rep.shares_sum_pct - 100.0) > 10.0) {
      std::fprintf(stderr, "!! %s: layer self-time shares sum to %.1f%%\n",
                   w_.name, rep.shares_sum_pct);
    }
    Add("catalog.reload_ms.p50", DirectReloads(), "ms");
  }

  /// Catalog::Reload called directly. Single-index workloads host their
  /// saved index in a scratch catalog for this, so the number prices the
  /// same load-and-swap path on every workload.
  double DirectReloads() {
    Catalog scratch;
    Catalog* catalog = dep_->catalog.get();
    std::vector<std::string> names;
    for (const DatasetSpec& ds : w_.datasets) names.push_back(ds.name);
    if (catalog == nullptr) {
      catalog = &scratch;
      const std::string dir = opt_.work_dir + "/" + w_.name;
      if (!w_.on_disk) (void)dep_->index->Save(dir);
      if (!scratch.Add(names[0], dir, !w_.on_disk).ok() ||
          !scratch.WaitReady().ok()) {
        Infra("scratch catalog load");
        return 0.0;
      }
    }
    std::vector<double> ms;
    for (int i = 0; i < kDirectReloads; ++i) {
      const std::int64_t t0 = NowNs();
      const Status st =
          catalog->Reload(names[static_cast<std::size_t>(i) % names.size()]);
      ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      if (!st.ok()) Infra("reload: " + st.ToString());
    }
    return Quantile(ms, 0.5);
  }

  const WorkloadSpec& w_;
  const Options& opt_;
  ReferenceLoop reference_;
  Inputs inputs_;
  std::unique_ptr<Deployment> dep_;
  std::vector<double> setup_s_;
  std::vector<Answer> kept_;
  WorkloadResult res_;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Shortest text that reads back as exactly `v`.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

std::string GitSha() {
  std::string sha = "unknown";
  std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return sha;
  char buf[64] = {};
  if (std::fgets(buf, sizeof(buf), p) != nullptr && std::strlen(buf) >= 40) {
    sha.assign(buf, 40);
  }
  ::pclose(p);
  return sha;
}

std::string Record(const Options& opt,
                   const std::vector<WorkloadResult>& results) {
  std::string j = "{\n  \"schema\": 2,\n";
  j += "  \"git_sha\": \"" + GitSha() + "\",\n";
  j += "  \"nproc\": " +
       std::to_string(std::thread::hardware_concurrency()) + ",\n";
  j += "  \"compiler\": \"" + std::string(ISLABEL_PERF_COMPILER) + "\",\n";
  j += "  \"flags\": \"" + std::string(ISLABEL_PERF_FLAGS) + "\",\n";
  j += "  \"build_type\": \"" + std::string(ISLABEL_PERF_BUILD_TYPE) + "\",\n";
  j += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  j += "  \"trace\": " + std::string(opt.trace ? "true" : "false") + ",\n";
  j += "  \"smoke\": " + std::string(opt.smoke ? "true" : "false") + ",\n";
  j += "  \"phases_s\": {\"warmup\": " + JsonNumber(opt.warmup) +
       ", \"timed\": " + JsonNumber(opt.seconds) + "},\n";
  j += "  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    const WorkloadSpec& w = *std::find_if(
        Workloads().begin(), Workloads().end(),
        [&](const WorkloadSpec& s) { return r.name == s.name; });
    j += i == 0 ? "\n" : ",\n";
    j += "    \"" + r.name + "\": {\n";
    j += "      \"fingerprint\": {\"edge_checksum\": \"" + r.checksum + "\"";
    for (const auto& [k, v] : r.fingerprint) {
      j += ", \"" + k + "\": " + JsonNumber(v);
    }
    j += "},\n";
    j += "      \"settings\": {\"setup_reps\": " + std::to_string(kSetupReps) +
         ", \"chunk\": " + std::to_string(kChunk) +
         ", \"window_queries\": " + std::to_string(w.window_queries) +
         ", \"switch_every\": " + std::to_string(kSwitchEvery) + "},\n";
    j += "      \"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"error\": \"" + r.error + "\",\n";
    j += "      \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"verified\": " + std::to_string(r.verified) +
         ", \"windows\": " + std::to_string(r.windows) +
         ", \"lat_samples\": " + std::to_string(r.lat_samples) + ",\n";
    if (!r.shares_pct.empty()) {
      j += "      \"self_share_pct\": {";
      bool first = true;
      for (const auto& [k, v] : r.shares_pct) {
        j += std::string(first ? "" : ", ") + "\"" + k + "\": " + JsonNumber(v);
        first = false;
      }
      j += "},\n";
    }
    j += "      \"metrics\": {";
    for (std::size_t m = 0; m < r.metrics.size(); ++m) {
      const Metric& mt = r.metrics[m];
      j += std::string(m == 0 ? "\n" : ",\n") + "        \"" + mt.name +
           "\": {\"value\": " + JsonNumber(mt.value) + ", \"unit\": \"" +
           mt.unit + "\"}";
    }
    j += "\n      }\n    }";
  }
  j += "\n  }\n}\n";
  return j;
}

int Usage() {
  std::fprintf(stderr,
               "usage: islabel_perf [--workload NAME]... [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] "
               "[--out FILE] [--work-dir DIR]\n");
  return 1;
}

}  // namespace
}  // namespace perf
}  // namespace islabel

int main(int argc, char** argv) {
  using namespace islabel::perf;
  Options opt;
  const std::filesystem::path bin_dir =
      std::filesystem::absolute(argv[0]).parent_path();
  opt.out = (bin_dir / "perf_record.json").string();
  opt.work_dir = (bin_dir / "perf_work").string();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workloads.push_back(value());
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value());
    } else if (arg == "--trace") {
      opt.trace = std::string(value()) != "0";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else {
      return Usage();
    }
  }
  if (opt.smoke) {
    opt.seconds = 1.0;
    opt.warmup = 0.2;
  }
  if (!(opt.seconds > 0)) return Usage();
  if (opt.workloads.empty()) {
    for (const WorkloadSpec& w : Workloads()) opt.workloads.push_back(w.name);
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  std::vector<WorkloadResult> results;
  bool infra_error = false;
  for (const std::string& name : opt.workloads) {
    const auto it =
        std::find_if(Workloads().begin(), Workloads().end(),
                     [&](const WorkloadSpec& w) { return name == w.name; });
    if (it == Workloads().end()) {
      std::fprintf(stderr, "unknown workload %s\n", name.c_str());
      return Usage();
    }
    results.push_back(Runner(*it, opt).Run());
    const WorkloadResult& r = results.back();
    infra_error = infra_error || !r.error.empty();
    for (const Metric& m : r.metrics) {
      std::printf("%-15s %-28s %16.4f %s\n", r.name.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    for (const auto& [layer, pct] : r.shares_pct) {
      std::printf("%-15s %-28s %16.4f %%\n", r.name.c_str(),
                  ("self_share." + layer).c_str(), pct);
    }
    std::fflush(stdout);
  }

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  const std::string record = Record(opt, results);
  std::fwrite(record.data(), 1, record.size(), f);
  std::fclose(f);
  std::printf("record: %s\n", opt.out.c_str());
  if (infra_error) return 1;
  for (const WorkloadResult& r : results) {
    if (r.failed != 0) return 2;
  }
  return 0;
}
