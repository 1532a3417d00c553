#include "perf/replay.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/label.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "storage/label_store.h"

namespace islabel {
namespace perf {

namespace {

constexpr int kMaxOverheadPairs = 5;
constexpr std::int64_t kMinOverheadNs = 2'000'000'000;

enum Layer : std::uint8_t {
  kRequest,
  kParse,
  kLookup,
  kAcquire,
  kFetch,
  kMerge,
  kKernel,
  kRelease,
  kInsert,
  kEncode,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "request",      "protocol.parse", "cache.lookup", "pool.acquire",
    "label.fetch",  "eq1.merge",      "kernel.query", "pool.release",
    "cache.insert", "protocol.encode"};

/// Where one query goes: answered by the partition map alone
/// (cross-component pairs), or into one IS-LABEL index.
struct Route {
  bool direct = false;
  Distance answer = kInfDistance;
  ISLabelIndex* index = nullptr;
  LabelProvider* fetch = nullptr;  // what the replayed label.fetch reads
  VertexId s = 0;
  VertexId t = 0;
};

/// Routes a (dataset, s, t) query the way the catalog does, and owns the
/// label providers the replayed fetches read through.
class Router {
 public:
  explicit Router(const std::vector<ServedDataset>& served) : served_(served) {
    providers_.resize(served.size());
    for (std::size_t d = 0; d < served.size(); ++d) {
      for (ISLabelIndex* part : served[d].parts) {
        if (!part->labels_on_disk()) {
          providers_[d].push_back(
              std::make_unique<LabelProvider>(&part->labels()));
          continue;
        }
        store_ = part->label_store();
        auto second = std::make_unique<LabelStore>();
        if (!second->Open(served[d].labels_file).ok()) {
          std::fprintf(stderr, "cannot open %s\n",
                       served[d].labels_file.c_str());
          std::abort();
        }
        providers_[d].push_back(std::make_unique<LabelProvider>(second.get()));
        second_stores_.push_back(std::move(second));
      }
    }
  }

  /// The served label store in disk mode, else nullptr.
  LabelStore* store() const { return store_; }

  Route RouteQuery(std::uint8_t dataset, VertexId s, VertexId t) const {
    const ServedDataset& ds = served_[dataset];
    Route r;
    r.s = s;
    r.t = t;
    std::uint32_t part = 0;
    if (ds.partitioned != nullptr) {
      const PartitionedIndex& idx = *ds.partitioned;
      if (idx.ComponentOf(s) != idx.ComponentOf(t)) {
        r.direct = true;
        return r;
      }
      part = idx.PartOf(s);
      if (part == GraphPartition::kNoPart) {
        r.direct = true;
        r.answer = 0;
        return r;
      }
      r.s = idx.LocalId(s);
      r.t = idx.LocalId(t);
    }
    r.index = ds.parts[part];
    r.fetch = providers_[dataset][part].get();
    return r;
  }

 private:
  const std::vector<ServedDataset>& served_;
  std::vector<std::vector<std::unique_ptr<LabelProvider>>> providers_;
  std::vector<std::unique_ptr<LabelStore>> second_stores_;
  LabelStore* store_ = nullptr;
};

struct Span {
  std::uint32_t request = 0;
  Layer layer = kRequest;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Per-layer samples and counts of the traced pass.
struct Accum {
  std::vector<double> ns[kNumLayers];
  std::vector<double> search_self_ns;
  double self_ns[kNumLayers] = {};  // summed self time per span name
  double search_self_total_ns = 0.0;
  std::uint64_t kernels = 0;
  std::uint64_t searched = 0;
  std::uint64_t types[4] = {};
  double entries = 0.0;
  double intersections = 0.0;
  double settled = 0.0;
  double relaxed = 0.0;
};

/// Runs request lines through the serving call chain. With `spans` set,
/// every call is timed and recorded; without it no clock is read.
class Pass {
 public:
  Pass(const Router* router, std::vector<Span>* spans, Accum* accum)
      : router_(router), spans_(spans), accum_(accum) {}

  /// One `S T` line against `cache` (null = uncached). Computed answers
  /// are appended to `computed` when given.
  void Query(std::uint32_t id, std::uint8_t dataset, const std::string& line,
             server::QueryCache* cache, std::vector<Answer>* computed) {
    std::int64_t ts[kNumLayers][2] = {};
    bool ran[kNumLayers] = {};
    const auto now = [this] { return spans_ != nullptr ? NowNs() : 0; };
    const auto timed = [&](Layer layer, auto&& fn) {
      ts[layer][0] = now();
      fn();
      ts[layer][1] = now();
      ran[layer] = true;
    };

    ts[kRequest][0] = now();
    server::Request req;
    timed(kParse, [&] { req = server::ParseRequest(line); });
    Distance d = kInfDistance;
    bool hit = false;
    std::uint64_t gen = 0;
    timed(kLookup, [&] {
      if (cache != nullptr) {
        gen = cache->generation();
        hit = cache->Lookup(req.s, req.t, &d);
      }
    });
    QueryStats qs;
    LabelView ls;
    LabelView lt;
    Eq1Result eq1;
    if (!hit) {
      const Route route = router_->RouteQuery(dataset, req.s, req.t);
      if (route.direct) {
        d = route.answer;
      } else {
        QueryEnginePool::Lease lease;
        timed(kAcquire, [&] { lease = route.index->engine_pool()->Acquire(); });
        const VertexHierarchy& h = route.index->hierarchy();
        if (route.s != route.t) {
          timed(kFetch, [&] {
            Fetch(h, route, route.s, 0, &ls);
            Fetch(h, route, route.t, 1, &lt);
          });
          timed(kMerge, [&] { eq1 = EvaluateEq1(ls, lt); });
        }
        timed(kKernel, [&] { (void)lease->Query(route.s, route.t, &d, &qs); });
        timed(kRelease, [&] { lease = QueryEnginePool::Lease(); });
      }
      timed(kInsert, [&] {
        if (cache != nullptr) cache->Insert(req.s, req.t, d, gen);
      });
      if (computed != nullptr) {
        computed->push_back(Answer{dataset, req.s, req.t, d});
      }
    }
    std::string out;
    timed(kEncode, [&] { out = server::FormatDistance(d); });
    ts[kRequest][1] = now();
    ran[kRequest] = true;

    if (spans_ == nullptr) return;
    double children = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
      if (!ran[l]) continue;
      const double dur = static_cast<double>(ts[l][1] - ts[l][0]);
      spans_->push_back(Span{id, static_cast<Layer>(l), ts[l][0], ts[l][1]});
      accum_->ns[l].push_back(dur);
      if (l != kRequest) {
        children += dur;
        accum_->self_ns[l] += dur;
      }
    }
    accum_->self_ns[kRequest] += accum_->ns[kRequest].back() - children;
    if (ran[kKernel]) {
      const double self = std::max(
          0.0, static_cast<double>(ts[kKernel][1] - ts[kKernel][0]) -
                   static_cast<double>(ts[kFetch][1] - ts[kFetch][0]) -
                   static_cast<double>(ts[kMerge][1] - ts[kMerge][0]));
      accum_->search_self_ns.push_back(self);
      accum_->search_self_total_ns += self;
      ++accum_->kernels;
      if (qs.used_search) ++accum_->searched;
      ++accum_->types[static_cast<int>(qs.location)];
      accum_->entries += static_cast<double>(ls.size() + lt.size());
      accum_->intersections += static_cast<double>(eq1.intersection_size);
      accum_->settled += static_cast<double>(qs.settled);
      accum_->relaxed += static_cast<double>(qs.relaxed);
    }
  }

 private:
  /// The kernel's label lookup for one endpoint: core vertices carry the
  /// trivial label {(v, 0)} without touching the provider.
  void Fetch(const VertexHierarchy& h, const Route& route, VertexId v,
             int side, LabelView* view) {
    if (h.InCore(v)) {
      self_[side] = LabelEntry(v, 0);
      *view = LabelView(&self_[side], 1);
      return;
    }
    std::uint64_t ios = 0;
    (void)route.fetch->View(v, view, &scratch_[side], &ios);
  }

  const Router* router_;
  std::vector<Span>* spans_;
  Accum* accum_;
  std::vector<LabelEntry> scratch_[2];
  LabelEntry self_[2];
};

/// Adds the kernel-path samples and counts of `from` (the cache fill) to
/// `to` (the traced replay): pool, label, eq1, kernel and search numbers
/// then describe every kernel execution of the run, so a workload whose
/// replay is all cache hits still reports what its misses cost. The
/// front-end layers and the self-time shares stay the replay's own.
void MergeKernelPath(const Accum& from, Accum* to) {
  for (Layer l : {kAcquire, kFetch, kMerge, kKernel, kRelease}) {
    to->ns[l].insert(to->ns[l].end(), from.ns[l].begin(), from.ns[l].end());
  }
  to->search_self_ns.insert(to->search_self_ns.end(),
                            from.search_self_ns.begin(),
                            from.search_self_ns.end());
  to->kernels += from.kernels;
  to->searched += from.searched;
  for (int t = 0; t < 4; ++t) to->types[t] += from.types[t];
  to->entries += from.entries;
  to->intersections += from.intersections;
  to->settled += from.settled;
  to->relaxed += from.relaxed;
}

using Caches = std::vector<std::unique_ptr<server::QueryCache>>;

Caches FreshCaches(bool cached, std::size_t datasets) {
  Caches caches(datasets);
  if (cached) {
    for (auto& c : caches) c = std::make_unique<server::QueryCache>();
  }
  return caches;
}

/// Walks the queries of `seq` and returns the wall time in ns. A query
/// carries the dataset its session selected, so the `use` lines that
/// switched it are skipped.
std::int64_t RunSequence(Pass* pass, const std::vector<StreamRequest>& seq,
                         const std::vector<std::string>& lines,
                         Caches* caches, std::vector<Answer>* computed) {
  std::uint32_t id = 0;
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i].kind != StreamRequest::Kind::kQuery) continue;
    const std::uint8_t dataset = seq[i].dataset;
    pass->Query(id++, dataset, lines[i], (*caches)[dataset].get(), computed);
  }
  return NowNs() - start;
}

std::vector<std::string> Lines(const std::vector<StreamRequest>& seq) {
  std::vector<std::string> lines(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    lines[i] = std::to_string(seq[i].s) + " " + std::to_string(seq[i].t);
  }
  return lines;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  std::size_t root = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer == kRequest) root = i;
    std::fprintf(f,
                 "{\"request\":%u,\"span\":%zu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld}\n",
                 s.request, i, kLayerNames[s.layer],
                 static_cast<long long>(s.start - origin),
                 static_cast<long long>(s.end - origin),
                 s.layer == kRequest ? -1LL : static_cast<long long>(root));
  }
  std::fclose(f);
}

}  // namespace

ReplayResult Replay(const std::vector<ServedDataset>& served, bool cached,
                    const std::vector<StreamRequest>& replayed,
                    const std::vector<StreamRequest>& warm,
                    const std::string& span_path) {
  const Router router(served);
  const std::size_t datasets = served.size();
  const std::vector<std::string> lines = Lines(replayed);

  // Every pass starts from the same cache contents: the answers `warm`
  // computes, inserted in order into fresh caches. The fill is traced too,
  // for its kernel executions (see MergeKernelPath).
  std::vector<Answer> warmed;
  Accum fill;
  {
    std::vector<Span> unused;
    Caches scratch = FreshCaches(cached, datasets);
    Pass pass(&router, &unused, &fill);
    RunSequence(&pass, warm, Lines(warm), &scratch, &warmed);
  }
  const auto warm_caches = [&] {
    Caches caches = FreshCaches(cached, datasets);
    for (const Answer& a : warmed) {
      if (caches[a.dataset] != nullptr) {
        caches[a.dataset]->Insert(a.s, a.t, a.d);
      }
    }
    return caches;
  };

  // Untraced and traced passes alternate (the order flips every pair) until
  // kMinOverheadNs of replay has run; the overhead is the median pair's.
  std::vector<Span> spans;
  spans.reserve(replayed.size() * kNumLayers);
  Accum acc;
  LabelStore* store = router.store();
  IoStats io_before, io_after;
  std::vector<double> overhead;
  std::int64_t elapsed = 0;
  for (int pair = 0; pair < kMaxOverheadPairs &&
                     (pair == 0 || elapsed < kMinOverheadNs);
       ++pair) {
    std::int64_t ns[2] = {0, 0};  // [untraced, traced]
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 1) == (pair % 2 == 0);
      Caches caches = warm_caches();
      if (traced) {
        spans.clear();
        acc = Accum{};
        Pass pass(&router, &spans, &acc);
        io_before = store != nullptr ? store->stats() : IoStats{};
        ns[1] = RunSequence(&pass, replayed, lines, &caches, nullptr);
        io_after = store != nullptr ? store->stats() : IoStats{};
      } else {
        Pass pass(&router, nullptr, nullptr);
        ns[0] = RunSequence(&pass, replayed, lines, &caches, nullptr);
      }
    }
    elapsed += ns[0] + ns[1];
    overhead.push_back(100.0 * static_cast<double>(ns[1] - ns[0]) /
                       static_cast<double>(std::max<std::int64_t>(1, ns[0])));
  }
  WriteSpans(spans, span_path);

  ReplayResult out;
  const double replay_kernels = static_cast<double>(acc.kernels);
  MergeKernelPath(fill, &acc);
  auto& m = out.metrics;
  const auto pct = [&m](const std::string& name, const std::vector<double>& v,
                        double scale, const std::string& unit) {
    m.push_back({name + ".p50", Quantile(v, 0.50) * scale, unit});
    m.push_back({name + ".p99", Quantile(v, 0.99) * scale, unit});
  };
  // Per kernel execution; 0 when every answer came from the cache.
  const auto per_kernel = [&acc](double total) {
    return acc.kernels == 0 ? 0.0 : total / static_cast<double>(acc.kernels);
  };
  pct("protocol.parse_ns", acc.ns[kParse], 1.0, "ns");
  pct("protocol.encode_ns", acc.ns[kEncode], 1.0, "ns");
  pct("cache.lookup_ns", acc.ns[kLookup], 1.0, "ns");
  pct("cache.insert_ns", acc.ns[kInsert], 1.0, "ns");
  pct("pool.acquire_ns", acc.ns[kAcquire], 1.0, "ns");
  pct("label.fetch_ns", acc.ns[kFetch], 1.0, "ns");
  m.push_back({"label.entries_per_query", per_kernel(acc.entries), "count"});
  const double reads =
      static_cast<double>(io_after.block_reads - io_before.block_reads);
  const double bytes =
      static_cast<double>(io_after.bytes_read - io_before.bytes_read);
  m.push_back({"storage.ios_per_query",
               replay_kernels == 0 ? 0.0 : reads / replay_kernels, "count"});
  m.push_back({"storage.bytes_per_query",
               replay_kernels == 0 ? 0.0 : bytes / replay_kernels, "B"});
  pct("eq1.merge_ns", acc.ns[kMerge], 1.0, "ns");
  const double searched = static_cast<double>(acc.searched);
  m.push_back(
      {"eq1.intersection_per_query", per_kernel(acc.intersections), "count"});
  m.push_back({"eq1.answered_ratio",
               per_kernel(static_cast<double>(acc.kernels) - searched),
               "ratio"});
  pct("kernel.query_us", acc.ns[kKernel], 1e-3, "us");
  pct("search.self_us", acc.search_self_ns, 1e-3, "us");
  m.push_back({"search.settled_per_query", per_kernel(acc.settled), "count"});
  m.push_back({"search.relaxed_per_query", per_kernel(acc.relaxed), "count"});
  m.push_back({"search.ratio", per_kernel(searched), "ratio"});
  for (int type = 1; type <= 3; ++type) {
    m.push_back({"query.type" + std::to_string(type) + "_share",
                 per_kernel(static_cast<double>(acc.types[type])), "ratio"});
  }
  m.push_back({"trace.overhead_pct", Quantile(overhead, 0.5), "%"});

  double request_total = 0.0;
  for (double v : acc.ns[kRequest]) request_total += v;
  request_total = std::max(1.0, request_total);
  const auto share = [&](std::initializer_list<double> parts) {
    double sum = 0.0;
    for (double p : parts) sum += p;
    return 100.0 * sum / request_total;
  };
  const double* self = acc.self_ns;
  out.shares_pct = {
      {"protocol", share({self[kParse], self[kEncode]})},
      {"cache", share({self[kLookup], self[kInsert]})},
      {"pool", share({self[kAcquire], self[kRelease]})},
      {"label", share({self[kFetch]})},
      {"eq1", share({self[kMerge]})},
      {"search", share({acc.search_self_total_ns})},
      {"other", share({self[kRequest]})},
  };
  for (const auto& [layer, value] : out.shares_pct) out.shares_sum_pct += value;
  out.request_p50_us = Quantile(acc.ns[kRequest], 0.5) * 1e-3;
  return out;
}

}  // namespace perf
}  // namespace islabel
