// TCP serving bench: loopback clients against the epoll server.
//
// For every generator dataset this bench builds the index, starts the
// TCP server on an ephemeral loopback port, and drives it with four
// concurrent client connections sending a Zipf-skewed repeated-pair
// workload (the scale-free query skew that makes a result cache pay),
// pipelined in chunks. Legs per dataset:
//   * no cache        — baseline server QPS,
//   * sharded cache   — same workload, cache hit-rate recorded,
//   * A/B, run twice  — same cached workload with one instrumentation
//     switch on, then off; the QPS delta is that switch's overhead:
//       - telemetry: a fully instrumented server (registry + pool +
//         cache + per-stage traces) with the registry flipped to no-op.
//         The delta is printed, not gated; the in-process price is
//         perf/'s obs.metrics_overhead_pct on hot-cached (DESIGN.md
//         §16.1). A Prometheus snapshot of the instrumented run goes to
//         METRICS_server.prom (override: ISLABEL_BENCH_METRICS).
//       - flight recorder: the recorder wired into the dispatcher
//         alongside the live registry (so per-stage tracing runs in both
//         runs), disabled in the off run; isolates Record() (DESIGN.md
//         §17 budgets <5%). A tracez dump of the recording run goes to
//         TRACEZ_server.txt (override: ISLABEL_BENCH_TRACEZ).
//   * after an update — InsertVertex bumps the cache generation; served
//     answers are re-verified against a fresh engine, proving invalidated
//     entries are recomputed, not served stale.
// Every response in every leg is checked against the single-threaded
// engine; any mismatch fails the bench with exit code 2 (same contract
// as bench_query_throughput). Results go to BENCH_server.json (override:
// ISLABEL_BENCH_JSON). ISLABEL_SCALE / ISLABEL_QUERIES as usual.
//
// A final catalog leg exercises the multi-dataset serving layer: two
// disconnected datasets built as partitioned catalogs and hosted by one
// catalog-mode server, four clients switching datasets with `use` while
// a fifth connection issues `reload` continuously. Served answers are
// re-verified against fresh per-part engines (routing map + one
// QueryEngine per component); results go to BENCH_catalog.json
// (override: ISLABEL_BENCH_CATALOG_JSON), mismatches exit 2.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "core/index.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "server/tcp_server.h"
#include "util/random.h"
#include "util/timer.h"

using namespace islabel;
using namespace islabel::bench;

namespace {

constexpr unsigned kClients = 4;
constexpr std::size_t kPipelineChunk = 64;

/// Blocking loopback client: sends a chunk of requests in one write,
/// reads the same number of response lines back.
class BenchClient {
 public:
  explicit BenchClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct WorkloadOp {
  VertexId s = 0;
  VertexId t = 0;
  std::string expect;
};

/// One client's request stream: `count` ops drawn Zipf-ish (quadratic
/// skew toward low indices) from the distinct-pair pool, so popular
/// pairs repeat both within and across clients.
std::vector<std::size_t> SkewedIndices(std::size_t count, std::size_t pool,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> indices;
  indices.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t u = rng.Uniform(pool);
    indices.push_back(static_cast<std::size_t>(u * u / pool));  // quadratic skew
  }
  return indices;
}

struct LegResult {
  double seconds = 0.0;
  double qps = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
};

/// Runs the full multi-client workload against a started server; every
/// response is compared with its precomputed expectation.
LegResult RunWorkload(std::uint16_t port,
                      const std::vector<std::vector<WorkloadOp>>& per_client) {
  LegResult result;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> completed{0};
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(per_client.size());
  for (const std::vector<WorkloadOp>& ops : per_client) {
    threads.emplace_back([&, ops_ptr = &ops] {
      BenchClient client(port);
      if (!client.ok()) {
        mismatches.fetch_add(ops_ptr->size());
        return;
      }
      const std::vector<WorkloadOp>& work = *ops_ptr;
      std::string line;
      for (std::size_t begin = 0; begin < work.size();
           begin += kPipelineChunk) {
        const std::size_t end =
            std::min(begin + kPipelineChunk, work.size());
        std::string burst;
        for (std::size_t i = begin; i < end; ++i) {
          burst += std::to_string(work[i].s);
          burst += ' ';
          burst += std::to_string(work[i].t);
          burst += '\n';
        }
        if (!client.Send(burst)) {
          mismatches.fetch_add(end - begin);
          return;
        }
        for (std::size_t i = begin; i < end; ++i) {
          if (!client.ReadLine(&line) || line != work[i].expect) {
            mismatches.fetch_add(1);
          }
          completed.fetch_add(1);
        }
      }
      client.Send("quit\n");
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = timer.ElapsedSeconds();
  result.requests = completed.load();
  result.mismatches = mismatches.load();
  result.qps = result.seconds > 0
                   ? static_cast<double>(result.requests) / result.seconds
                   : 0.0;
  return result;
}

/// One instrumentation switch priced by an on/off pair of runs.
struct AbLeg {
  const char* name;
  server::RequestDispatcher::MetricsOptions telemetry;
  std::function<void(bool)> set_enabled;
  /// Archives what the enabled run recorded.
  std::function<void()> snapshot;
};

struct AbResult {
  LegResult on;
  LegResult off;
  /// QPS lost to the switch, as a percentage of the off run's QPS.
  double overhead_pct = 0.0;
};

/// Serves `index` from a fresh dispatcher and server for one run of
/// `workload`, with `telemetry` installed on the dispatcher (a fresh
/// registry when it names none: every TCP server records into one). A
/// leg that cannot even start counts in `infra_failures`, so it fails
/// the gate instead of vacuously passing it with zero verified answers.
LegResult RunServerLeg(const std::string& leg, ISLabelIndex* index,
                       server::RequestDispatcher::MetricsOptions telemetry,
                       const server::TcpServerOptions& opts,
                       const std::vector<std::vector<WorkloadOp>>& workload,
                       std::uint64_t* infra_failures) {
  obs::MetricRegistry fresh;
  if (telemetry.registry == nullptr) telemetry.registry = &fresh;
  server::RequestDispatcher dispatcher(index);
  dispatcher.InstallMetrics(telemetry);
  server::TcpServer srv(&dispatcher, opts);
  if (!srv.Start().ok()) {
    std::fprintf(stderr, "!! %s leg failed to start\n", leg.c_str());
    ++*infra_failures;
    return {};
  }
  const LegResult result = RunWorkload(srv.port(), workload);
  srv.Stop();
  srv.Wait();
  return result;
}

/// Runs `workload` against a server with `leg.telemetry` installed, first
/// with the switch on, then off. Each run gets a fresh cache (counting
/// into the leg's registry), so both start cold.
AbResult RunAbLeg(const AbLeg& leg, ISLabelIndex* index,
                  const server::TcpServerOptions& opts,
                  const std::vector<std::vector<WorkloadOp>>& workload,
                  const std::string& dataset,
                  std::uint64_t* infra_failures) {
  AbResult result;
  for (const bool enabled : {true, false}) {
    server::QueryCacheOptions copts;
    copts.metrics = leg.telemetry.registry;
    index->set_distance_cache(std::make_shared<server::QueryCache>(copts));
    leg.set_enabled(enabled);
    LegResult& out = enabled ? result.on : result.off;
    out = RunServerLeg(dataset + " " + leg.name + (enabled ? " on" : " off"),
                       index, leg.telemetry, opts, workload, infra_failures);
    if (enabled && out.requests > 0) leg.snapshot();
  }
  leg.set_enabled(true);
  if (result.off.qps > 0.0) {
    result.overhead_pct =
        (result.off.qps - result.on.qps) / result.off.qps * 100.0;
  }
  return result;
}

/// Writes `text` to `path`; true on success.
bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------
// Catalog leg: multi-dataset hosting + reload under load
// ---------------------------------------------------------------------------

/// Answers queries the way the catalog must: route via the partition
/// map, then one fresh QueryEngine per part — the independent ground
/// truth the served responses are verified against.
class FreshPartEngines {
 public:
  explicit FreshPartEngines(PartitionedIndex* index) : index_(index) {
    engines_.reserve(index->num_parts());
    for (std::uint32_t p = 0; p < index->num_parts(); ++p) {
      // The bench builds its catalogs with the default (IS-LABEL)
      // backend, so the downcast is structural, not speculative.
      auto* part = dynamic_cast<ISLabelIndex*>(index->mutable_part(p));
      engines_.push_back(std::make_unique<QueryEngine>(
          &part->hierarchy(), LabelProvider(&part->labels())));
    }
  }

  std::string Expect(VertexId s, VertexId t) {
    if (index_->ComponentOf(s) != index_->ComponentOf(t)) {
      return server::FormatDistance(kInfDistance);
    }
    const std::uint32_t p = index_->PartOf(s);
    if (p == GraphPartition::kNoPart) return server::FormatDistance(0);
    Distance d = 0;
    (void)engines_[p]->Query(index_->LocalId(s), index_->LocalId(t), &d);
    return server::FormatDistance(d);
  }

 private:
  PartitionedIndex* index_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
};

struct CatalogLegResult {
  double seconds = 0.0;
  double qps = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t reloads = 0;
  std::uint64_t mismatches = 0;
  std::uint32_t parts = 0;
};

/// Builds two disconnected datasets (each dataset = two offset copies of
/// a generator graph, so the partitioner produces multiple parts), saves
/// them as catalog directories, and serves both from one catalog-mode
/// TCP server while clients switch datasets and a reloader hot-swaps
/// them continuously.
CatalogLegResult RunCatalogLeg(double scale, std::size_t num_pairs) {
  CatalogLegResult result;
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("islabel_bench_catalog_" + std::to_string(::getpid())))
          .string();
  // Unconditional cleanup: the early-failure returns below must not
  // leak the temp catalog directories.
  struct TempDirGuard {
    std::string path;
    ~TempDirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } guard{root};
  const std::vector<std::string> sources = {DatasetNames()[0],
                                            DatasetNames()[1]};
  const std::vector<std::string> names = {"cat0", "cat1"};

  Catalog catalog;
  std::vector<std::unique_ptr<PartitionedIndex>> verify;
  std::vector<std::vector<std::pair<VertexId, VertexId>>> pairs(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    Dataset d = MakeDataset(sources[i], scale);
    // Two offset copies of the component → a genuinely partitioned
    // dataset with guaranteed cross-component pairs.
    EdgeList edges = d.graph.ToEdgeList();
    const VertexId half = d.graph.NumVertices();
    const std::size_t original = edges.size();
    for (std::size_t e = 0; e < original; ++e) {
      const Edge copy = edges.edges()[e];
      edges.Add(copy.u + half, copy.v + half, copy.w);
    }
    Graph g = Graph::FromEdgeList(std::move(edges));
    auto built = PartitionedIndex::Build(g);
    if (!built.ok()) {
      std::fprintf(stderr, "!! catalog dataset build failed: %s\n",
                   built.status().ToString().c_str());
      ++result.mismatches;
      return result;
    }
    const std::string dir = root + "/" + names[i];
    if (!built->Save(dir).ok() || !catalog.Add(names[i], dir).ok()) {
      std::fprintf(stderr, "!! catalog dataset save/add failed\n");
      ++result.mismatches;
      return result;
    }
    result.parts += built->num_parts();
    // Ground truth: an independently loaded copy + fresh per-part
    // engines. Queries mix same-component and cross-component pairs.
    auto fresh = PartitionedIndex::Load(dir);
    if (!fresh.ok()) {
      std::fprintf(stderr, "!! catalog dataset reload failed\n");
      ++result.mismatches;
      return result;
    }
    verify.push_back(
        std::make_unique<PartitionedIndex>(std::move(fresh).value()));
    pairs[i] = MakeQueries(g, num_pairs, 400 + i);
  }
  if (!catalog.WaitReady().ok()) {
    std::fprintf(stderr, "!! catalog load failed\n");
    ++result.mismatches;
    return result;
  }
  for (const std::string& name : names) {
    (void)catalog.SetDistanceCache(name,
                                   std::make_shared<server::QueryCache>());
  }

  // Per-client rounds alternating datasets; expectations from the fresh
  // per-part engines.
  struct Round {
    std::string use_line;
    std::string burst;
    std::vector<std::string> expect;
  };
  constexpr int kRounds = 4;
  std::vector<std::vector<Round>> plans(kClients);
  {
    std::vector<FreshPartEngines> engines;
    engines.reserve(verify.size());
    for (auto& v : verify) engines.emplace_back(v.get());
    for (unsigned c = 0; c < kClients; ++c) {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t d = (c + static_cast<unsigned>(r)) % names.size();
        Round round;
        round.use_line = "use " + names[d] + "\n";
        const auto indices =
            SkewedIndices(pairs[d].size(), pairs[d].size(), 500 + 10 * c + r);
        for (std::size_t idx : indices) {
          const auto [s, t] = pairs[d][idx];
          round.burst += std::to_string(s) + " " + std::to_string(t) + "\n";
          round.expect.push_back(engines[d].Expect(s, t));
        }
        plans[c].push_back(std::move(round));
      }
    }
  }

  server::RequestDispatcher dispatcher(&catalog, names[0]);
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = catalog.metrics();
  dispatcher.InstallMetrics(mopts);
  server::TcpServerOptions sopts;
  sopts.port = 0;
  sopts.num_workers = kClients + 1;  // clients + the reloader
  server::TcpServer srv(&dispatcher, sopts);
  if (!srv.Start().ok()) {
    std::fprintf(stderr, "!! catalog server failed to start\n");
    ++result.mismatches;
    return result;
  }

  std::atomic<bool> stop_reloading{false};
  std::atomic<std::uint64_t> reloads{0};
  std::thread reloader([&] {
    BenchClient client(srv.port());
    if (!client.ok()) return;
    std::string line;
    int flips = 0;
    while (!stop_reloading.load(std::memory_order_acquire)) {
      const std::string name = names[static_cast<std::size_t>(flips++) %
                                     names.size()];
      if (!client.Send("reload " + name + "\n") || !client.ReadLine(&line) ||
          line != "ok: reloaded " + name) {
        return;
      }
      reloads.fetch_add(1, std::memory_order_relaxed);
    }
    client.Send("quit\n");
  });

  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> completed{0};
  WallTimer timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BenchClient client(srv.port());
      if (!client.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      std::string line;
      for (const Round& round : plans[c]) {
        if (!client.Send(round.use_line + round.burst) ||
            !client.ReadLine(&line) ||
            line.rfind("ok: using ", 0) != 0) {
          mismatches.fetch_add(round.expect.size());
          return;
        }
        for (const std::string& expect : round.expect) {
          if (!client.ReadLine(&line) || line != expect) {
            mismatches.fetch_add(1);
          }
          completed.fetch_add(1);
        }
      }
      client.Send("quit\n");
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = timer.ElapsedSeconds();
  stop_reloading.store(true, std::memory_order_release);
  reloader.join();
  srv.Stop();
  srv.Wait();

  result.requests = completed.load();
  result.reloads = reloads.load();
  result.mismatches += mismatches.load();
  result.qps = result.seconds > 0
                   ? static_cast<double>(result.requests) / result.seconds
                   : 0.0;
  // A leg with zero reloads never exercised hot swap: count it as an
  // infrastructure failure rather than a vacuous pass.
  if (result.reloads == 0) {
    std::fprintf(stderr, "!! catalog leg completed without any reload\n");
    ++result.mismatches;
  }
  return result;
}

}  // namespace

int main() {
  const double scale = ScaleFromEnv();
  const std::size_t num_pairs = QueriesFromEnv();
  const char* json_env = std::getenv("ISLABEL_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_server.json";
  const char* metrics_env = std::getenv("ISLABEL_BENCH_METRICS");
  const std::string metrics_path =
      metrics_env != nullptr ? metrics_env : "METRICS_server.prom";
  const char* tracez_env = std::getenv("ISLABEL_BENCH_TRACEZ");
  const std::string tracez_path =
      tracez_env != nullptr ? tracez_env : "TRACEZ_server.txt";
  bool wrote_metrics_snapshot = false;
  bool wrote_tracez_snapshot = false;
  std::uint64_t total_mismatches = 0;

  PrintHeader("TCP serving (epoll server, 4 loopback clients)",
              "Zipf-skewed repeated pairs; cached vs uncached vs "
              "post-update");
  std::printf("%-14s %10s %10s %8s %9s %10s\n", "dataset", "QPS",
              "QPS+cache", "hit%", "post-upd", "requests");

  std::string json = "{\n  \"bench\": \"server\",\n";
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": %.3f, \"clients\": %u, \"distinct_pairs\": "
                  "%zu,\n  \"datasets\": [\n",
                  scale, kClients, num_pairs);
    json += buf;
  }

  bool first_dataset = true;
  for (const std::string& name : DatasetNames()) {
    Dataset d = MakeDataset(name, scale);
    auto built = ISLabelIndex::Build(d.graph, IndexOptions{});
    if (!built.ok()) {
      std::printf("%-14s build failed: %s\n", d.name.c_str(),
                  built.status().ToString().c_str());
      continue;
    }
    // Declared before the index so the instruments the pool bridge
    // hands out stay valid for the index's whole lifetime.
    obs::MetricRegistry registry;
    ISLabelIndex index = std::move(built).value();

    // Distinct pairs + single-threaded ground truth.
    const auto pairs = MakeQueries(d.graph, num_pairs, 99);
    QueryEngine engine(&index.hierarchy(), LabelProvider(&index.labels()));
    std::vector<std::string> expect(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      Distance dist = 0;
      (void)engine.Query(pairs[i].first, pairs[i].second, &dist);
      expect[i] = server::FormatDistance(dist);
    }

    // Per-client skewed request streams (4x the distinct pool each, so
    // repeats are guaranteed).
    std::vector<std::vector<WorkloadOp>> workload(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
      const auto indices =
          SkewedIndices(4 * pairs.size(), pairs.size(), 1000 + c);
      workload[c].reserve(indices.size());
      for (std::size_t idx : indices) {
        workload[c].push_back(
            {pairs[idx].first, pairs[idx].second, expect[idx]});
      }
    }

    server::TcpServerOptions sopts;
    sopts.port = 0;
    sopts.num_workers = kClients;

    std::uint64_t infra_failures = 0;

    // Leg 1: no cache.
    const LegResult uncached =
        RunServerLeg(d.name + " uncached", &index, /*telemetry=*/{}, sopts,
                     workload, &infra_failures);

    // Leg 2: sharded LRU cache in front of the engine.
    auto cache = std::make_shared<server::QueryCache>();
    index.set_distance_cache(cache);
    const LegResult cached =
        RunServerLeg(d.name + " cached", &index, /*telemetry=*/{}, sopts,
                     workload, &infra_failures);
    const server::QueryCacheStats cache_stats = cache->GetStats();
    const double hit_rate =
        cache_stats.hits + cache_stats.misses > 0
            ? static_cast<double>(cache_stats.hits) /
                  static_cast<double>(cache_stats.hits + cache_stats.misses)
            : 0.0;

    // Leg 3: the A/B pairs. Telemetry runs a server wired with the full
    // metrics stack (pool bridge, metric-backed cache, per-verb/per-stage
    // histograms) and flips the registry to no-op. The flight recorder
    // keeps that registry live in both runs, so per-stage tracing runs in
    // both and toggling the recorder isolates Record() from the trace
    // stamping the telemetry pair already priced.
    index.InstallMetrics(&registry);
    server::RequestDispatcher::MetricsOptions mopts;
    mopts.registry = &registry;
    const AbResult telemetry = RunAbLeg(
        {"telemetry", mopts,
         [&](bool on) { registry.set_enabled(on); },
         [&] {
           // A real scrape archived next to the JSON numbers.
           if (!wrote_metrics_snapshot) {
             wrote_metrics_snapshot =
                 WriteTextFile(metrics_path, registry.RenderPrometheus());
           }
         }},
        &index, sopts, workload, d.name, &infra_failures);
    obs::FlightRecorder recorder{obs::FlightRecorderOptions{}};
    server::RequestDispatcher::MetricsOptions fopts = mopts;
    fopts.flight_recorder = &recorder;
    const AbResult recorder_ab = RunAbLeg(
        {"recorder", fopts,
         [&](bool on) { recorder.set_enabled(on); },
         [&] {
           if (!wrote_tracez_snapshot) {
             wrote_tracez_snapshot = WriteTextFile(
                 tracez_path,
                 recorder.RenderTracez(
                     obs::FlightRecorder::TracezMode::kRecent, 0, 64) +
                     "\n");
           }
         }},
        &index, sopts, workload, d.name, &infra_failures);
    // Leg 4 verifies the leg-2 cache's generation bump; point the index
    // back at it.
    index.set_distance_cache(cache);

    // Leg 4: update invalidation. InsertVertex bumps the cache
    // generation; the served answers must match a FRESH engine on the
    // updated index — bit-identical cached vs uncached across the update.
    LegResult post_update;
    {
      std::vector<std::pair<VertexId, Weight>> adj = {
          {0, 1}, {d.graph.NumVertices() / 2, 1}};
      const Status updated = index.InsertVertex(index.NumVertices(), adj);
      if (updated.ok()) {
        QueryEngine fresh(&index.hierarchy(),
                          LabelProvider(&index.labels()));
        const std::size_t sample = std::min<std::size_t>(pairs.size(), 200);
        std::vector<std::vector<WorkloadOp>> verify(kClients);
        for (unsigned c = 0; c < kClients; ++c) {
          verify[c].reserve(2 * sample);
          // Two passes per client: the first misses (generation bumped),
          // the second hits — both must match the fresh engine.
          for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < sample; ++i) {
              Distance dist = 0;
              (void)fresh.Query(pairs[i].first, pairs[i].second, &dist);
              verify[c].push_back({pairs[i].first, pairs[i].second,
                                   server::FormatDistance(dist)});
            }
          }
        }
        post_update =
            RunServerLeg(d.name + " post-update", &index, /*telemetry=*/{},
                         sopts, verify, &infra_failures);
      } else {
        std::fprintf(stderr, "!! post-update leg skipped (%s): %s\n",
                     d.name.c_str(), updated.ToString().c_str());
        ++infra_failures;
      }
    }

    std::uint64_t mismatches = infra_failures;
    std::uint64_t dataset_requests = 0;
    const LegResult* legs[] = {&uncached,       &cached,
                               &telemetry.on,   &telemetry.off,
                               &recorder_ab.on, &recorder_ab.off,
                               &post_update};
    for (const LegResult* leg : legs) {
      mismatches += leg->mismatches;
      dataset_requests += leg->requests;
    }
    total_mismatches += mismatches;
    std::printf("%-14s %10.0f %10.0f %7.1f%% %9.0f %10llu\n", d.name.c_str(),
                uncached.qps, cached.qps, hit_rate * 100, post_update.qps,
                static_cast<unsigned long long>(dataset_requests));
    std::printf("  telemetry A/B: on %.0f QPS, off %.0f QPS, overhead "
                "%+.2f%%\n",
                telemetry.on.qps, telemetry.off.qps, telemetry.overhead_pct);
    std::printf("  flight recorder A/B: on %.0f QPS, off %.0f QPS, overhead "
                "%+.2f%%\n",
                recorder_ab.on.qps, recorder_ab.off.qps,
                recorder_ab.overhead_pct);
    if (mismatches != 0) {
      std::printf("  !! %llu served answers mismatch the single-threaded "
                  "engine\n",
                  static_cast<unsigned long long>(mismatches));
    }

    char buf[1024];
    if (!first_dataset) json += ",\n";
    first_dataset = false;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"vertices\": %u, \"edges\": %llu,\n"
        "     \"qps_uncached\": %.1f, \"qps_cached\": %.1f, "
        "\"qps_post_update\": %.1f,\n"
        "     \"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"cache_hit_rate\": %.4f, \"cache_entries\": %llu,\n"
        "     \"qps_metrics_on\": %.1f, \"qps_metrics_off\": %.1f, "
        "\"metrics_overhead_pct\": %.2f,\n"
        "     \"qps_recorder_on\": %.1f, \"qps_recorder_off\": %.1f, "
        "\"recorder_overhead_pct\": %.2f,\n"
        "     \"requests\": %llu, \"mismatches\": %llu}",
        d.name.c_str(), d.graph.NumVertices(),
        static_cast<unsigned long long>(d.graph.NumEdges()), uncached.qps,
        cached.qps, post_update.qps,
        static_cast<unsigned long long>(cache_stats.hits),
        static_cast<unsigned long long>(cache_stats.misses), hit_rate,
        static_cast<unsigned long long>(cache_stats.entries), telemetry.on.qps,
        telemetry.off.qps, telemetry.overhead_pct, recorder_ab.on.qps,
        recorder_ab.off.qps, recorder_ab.overhead_pct,
        static_cast<unsigned long long>(dataset_requests),
        static_cast<unsigned long long>(mismatches));
    json += buf;
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::printf("\ncould not write %s\n", json_path.c_str());
    return 1;
  }
  if (wrote_metrics_snapshot) {
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (wrote_tracez_snapshot) {
    std::printf("wrote %s\n", tracez_path.c_str());
  }

  // ---- Catalog leg: multi-dataset + reload under load ----
  PrintHeader("Partitioned catalog (2 datasets, reload under load)",
              "4 clients switching datasets + continuous hot-swap reloads; "
              "answers re-verified against fresh per-part engines");
  std::printf("%-14s %10s %10s %8s %9s\n", "leg", "QPS", "requests",
              "reloads", "parts");
  const CatalogLegResult catalog_leg =
      RunCatalogLeg(scale, std::min<std::size_t>(num_pairs, 400));
  total_mismatches += catalog_leg.mismatches;
  std::printf("%-14s %10.0f %10llu %8llu %9u\n", "catalog", catalog_leg.qps,
              static_cast<unsigned long long>(catalog_leg.requests),
              static_cast<unsigned long long>(catalog_leg.reloads),
              catalog_leg.parts);
  if (catalog_leg.mismatches != 0) {
    std::printf("  !! %llu catalog answers mismatch the fresh per-part "
                "engines\n",
                static_cast<unsigned long long>(catalog_leg.mismatches));
  }
  const char* catalog_env = std::getenv("ISLABEL_BENCH_CATALOG_JSON");
  const std::string catalog_json_path =
      catalog_env != nullptr ? catalog_env : "BENCH_catalog.json";
  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\n  \"bench\": \"catalog\",\n  \"scale\": %.3f, \"clients\": %u,\n"
        "  \"qps\": %.1f, \"requests\": %llu, \"reloads\": %llu,\n"
        "  \"parts\": %u, \"seconds\": %.3f, \"mismatches\": %llu\n}\n",
        scale, kClients, catalog_leg.qps,
        static_cast<unsigned long long>(catalog_leg.requests),
        static_cast<unsigned long long>(catalog_leg.reloads),
        catalog_leg.parts, catalog_leg.seconds,
        static_cast<unsigned long long>(catalog_leg.mismatches));
    std::FILE* cf = std::fopen(catalog_json_path.c_str(), "w");
    if (cf != nullptr) {
      std::fputs(buf, cf);
      std::fclose(cf);
      std::printf("wrote %s\n", catalog_json_path.c_str());
    } else {
      std::printf("could not write %s\n", catalog_json_path.c_str());
      return 1;
    }
  }
  return total_mismatches == 0 ? 0 : 2;
}
