// Replication bench: replica read-scaling and the failover window.
//
// One primary (catalog-mode TCP server + PrimaryHooks) snapshots a
// partitioned dataset to real ReplicaAgents over loopback; each replica
// installs through the generation-ordered hot-swap path and serves the
// same dataset. Two legs:
//
//   * read scaling — 4 ReplicaSetClient threads spread a fixed workload
//     round-robin over 1 replica, then 2 replicas; QPS per leg.
//   * failover window — a single client streams queries across
//     {primary, r0, r1} with per-request latency recorded; the primary
//     is killed a third of the way in. The p99/max latency of the leg
//     IS the failover window: exactly the requests that had their
//     first-choice endpoint die pay it.
//
// Every served answer in every leg is verified against fresh per-part
// engines built from an independently loaded copy of the dataset; any
// mismatch fails the bench with exit code 2 (same contract as
// bench_server). Results go to BENCH_repl.json (override:
// ISLABEL_BENCH_JSON). ISLABEL_SCALE / ISLABEL_QUERIES as usual.
// After the legs, replica 0's Prometheus exposition is written to
// METRICS_repl.prom (override: ISLABEL_BENCH_METRICS) so the run
// leaves a real scrape of the replication metric families behind.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "obs/metrics.h"
#include "repl/primary.h"
#include "repl/replica.h"
#include "repl/replica_set_client.h"
#include "repl/transport.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/tcp_server.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/timer.h"

using namespace islabel;
using namespace islabel::bench;

namespace {

constexpr unsigned kClients = 4;

/// Routing map + one fresh QueryEngine per part: the independent ground
/// truth every served response is verified against.
class FreshPartEngines {
 public:
  explicit FreshPartEngines(PartitionedIndex* index) : index_(index) {
    engines_.reserve(index->num_parts());
    for (std::uint32_t p = 0; p < index->num_parts(); ++p) {
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

/// A full replica node: its own catalog, a real-network agent that
/// pulled the snapshot from the primary, and a serving TCP server whose
/// dispatcher carries the agent's replication hooks.
struct ReplicaNode {
  Catalog catalog;
  repl::TcpTransport transport;
  SystemClock clock;
  Rng rng{12345};
  std::unique_ptr<repl::ReplicaAgent> agent;
  std::unique_ptr<server::RequestDispatcher> dispatcher;
  std::unique_ptr<server::TcpServer> server;
  std::string endpoint;
};

struct Workload {
  std::string line;    // "s t"
  std::string expect;  // verified response
};

struct LegResult {
  double qps = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
};

/// kClients threads, each with its own ReplicaSetClient over
/// `endpoints`, all draining the same request list.
LegResult RunReadLeg(const std::vector<std::string>& endpoints,
                     const std::vector<Workload>& work) {
  LegResult result;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> completed{0};
  WallTimer timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      repl::TcpTransport transport;
      SystemClock clock;
      Rng rng(9000 + c);
      repl::ReplicaSetOptions opts;
      opts.endpoints = endpoints;
      repl::ReplicaSetClient client(&transport, &clock, &rng, opts);
      for (const Workload& w : work) {
        Result<std::string> got = client.Query(w.line);
        if (!got.ok() || *got != w.expect) mismatches.fetch_add(1);
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = timer.ElapsedSeconds();
  result.requests = completed.load();
  result.mismatches = mismatches.load();
  result.qps = seconds > 0 ? static_cast<double>(result.requests) / seconds
                           : 0.0;
  return result;
}

double PercentileMs(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

}  // namespace

int main() {
  const double scale = ScaleFromEnv();
  const std::size_t num_pairs = QueriesFromEnv();
  const char* json_env = std::getenv("ISLABEL_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_repl.json";

  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("islabel_bench_repl_" + std::to_string(::getpid())))
          .string();
  struct TempDirGuard {
    std::string path;
    ~TempDirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } guard{root};

  // ---- Dataset: two offset copies of a generator graph, so the
  // partitioner produces multiple parts and cross-component pairs exist.
  Dataset d = MakeDataset(DatasetNames()[0], scale);
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
    std::fprintf(stderr, "!! dataset build failed: %s\n",
                 built.status().ToString().c_str());
    return 2;
  }
  const std::string data_dir = root + "/data";
  if (!built->Save(data_dir).ok()) {
    std::fprintf(stderr, "!! dataset save failed\n");
    return 2;
  }

  // Ground truth from an independently loaded copy.
  auto fresh = PartitionedIndex::Load(data_dir);
  if (!fresh.ok()) {
    std::fprintf(stderr, "!! dataset reload failed\n");
    return 2;
  }
  PartitionedIndex verify_index = std::move(fresh).value();
  FreshPartEngines engines(&verify_index);

  const auto pairs = MakeQueries(g, num_pairs, 99);
  std::vector<Workload> work;
  work.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    work.push_back({std::to_string(s) + " " + std::to_string(t),
                    engines.Expect(s, t)});
  }

  // ---- Primary: catalog-mode server + replication hooks.
  Catalog primary_catalog;
  if (!primary_catalog.Add("d", data_dir).ok() ||
      !primary_catalog.WaitReady().ok()) {
    std::fprintf(stderr, "!! primary catalog load failed\n");
    return 2;
  }
  repl::PrimaryHooks primary_hooks(&primary_catalog);
  server::RequestDispatcher primary_dispatcher(&primary_catalog, "d");
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = primary_catalog.metrics();
  primary_dispatcher.InstallMetrics(mopts);
  primary_dispatcher.set_replication_hooks(&primary_hooks);
  server::TcpServerOptions sopts;
  sopts.port = 0;
  sopts.num_workers = kClients;
  auto primary =
      std::make_unique<server::TcpServer>(&primary_dispatcher, sopts);
  if (!primary->Start().ok()) {
    std::fprintf(stderr, "!! primary failed to start\n");
    return 2;
  }
  const std::string primary_endpoint =
      "127.0.0.1:" + std::to_string(primary->port());

  // ---- Replicas: pull the snapshot over loopback, then serve it.
  constexpr unsigned kReplicas = 2;
  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  for (unsigned i = 0; i < kReplicas; ++i) {
    auto node = std::make_unique<ReplicaNode>();
    repl::ReplicaOptions ropts;
    ropts.primary = primary_endpoint;
    ropts.root = root + "/replica" + std::to_string(i);
    node->agent = std::make_unique<repl::ReplicaAgent>(
        &node->catalog, &node->transport, &node->clock, &node->rng, ropts);
    const Status synced = node->agent->SyncNow();
    if (!synced.ok()) {
      std::fprintf(stderr, "!! replica %u sync failed: %s\n", i,
                   synced.ToString().c_str());
      return 2;
    }
    node->dispatcher =
        std::make_unique<server::RequestDispatcher>(&node->catalog, "d");
    server::RequestDispatcher::MetricsOptions node_mopts;
    node_mopts.registry = node->catalog.metrics();
    node->dispatcher->InstallMetrics(node_mopts);
    node->dispatcher->set_replication_hooks(node->agent.get());
    node->server =
        std::make_unique<server::TcpServer>(node->dispatcher.get(), sopts);
    if (!node->server->Start().ok()) {
      std::fprintf(stderr, "!! replica %u failed to start\n", i);
      return 2;
    }
    node->endpoint = "127.0.0.1:" + std::to_string(node->server->port());
    replicas.push_back(std::move(node));
  }

  std::uint64_t total_mismatches = 0;

  // ---- Leg 1: read scaling across replica counts.
  PrintHeader("Replica read scaling (ReplicaSetClient, 4 client threads)",
              "same workload over 1 replica, then 2; answers verified "
              "against fresh per-part engines");
  std::printf("%-14s %10s %10s %10s\n", "endpoints", "QPS", "requests",
              "mismatch");
  std::vector<LegResult> scaling;
  for (unsigned n = 1; n <= kReplicas; ++n) {
    std::vector<std::string> endpoints;
    for (unsigned i = 0; i < n; ++i) endpoints.push_back(replicas[i]->endpoint);
    const LegResult leg = RunReadLeg(endpoints, work);
    total_mismatches += leg.mismatches;
    scaling.push_back(leg);
    std::printf("%u replica%-6s %10.0f %10llu %10llu\n", n,
                n == 1 ? "" : "s", leg.qps,
                static_cast<unsigned long long>(leg.requests),
                static_cast<unsigned long long>(leg.mismatches));
  }

  // ---- Leg 2: failover window. One client over {primary, r0, r1};
  // the primary dies a third of the way through the request stream.
  PrintHeader("Failover window (primary killed mid-stream)",
              "per-request latency across the kill; p99/max = the window");
  std::vector<double> latencies_ms;
  std::uint64_t failover_mismatches = 0;
  std::uint64_t failovers = 0;
  {
    repl::TcpTransport transport;
    SystemClock clock;
    Rng rng(4242);
    repl::ReplicaSetOptions opts;
    opts.endpoints = {primary_endpoint};
    for (const auto& node : replicas) opts.endpoints.push_back(node->endpoint);
    repl::ReplicaSetClient client(&transport, &clock, &rng, opts);

    const std::size_t requests = 3 * std::min<std::size_t>(work.size(), 600);
    const std::size_t kill_at = requests / 3;
    latencies_ms.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      if (i == kill_at && primary != nullptr) {
        primary->Stop();
        primary->Wait();
        primary.reset();
      }
      const Workload& w = work[i % work.size()];
      const auto start = std::chrono::steady_clock::now();
      Result<std::string> got = client.Query(w.line);
      const auto stop = std::chrono::steady_clock::now();
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(stop - start).count());
      if (!got.ok() || *got != w.expect) ++failover_mismatches;
    }
    failovers = client.failovers();
    // The kill must actually have been observed: a leg where no request
    // ever left its first-choice endpoint never measured failover.
    if (failovers == 0) {
      std::fprintf(stderr, "!! failover leg saw no failovers\n");
      ++failover_mismatches;
    }
  }
  total_mismatches += failover_mismatches;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = PercentileMs(latencies_ms, 0.50);
  const double p99 = PercentileMs(latencies_ms, 0.99);
  const double mx = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  std::printf("%-14s %10s %10s %10s %10s %10s\n", "leg", "requests",
              "p50 ms", "p99 ms", "max ms", "failovers");
  std::printf("%-14s %10zu %10.3f %10.3f %10.3f %10llu\n", "failover",
              latencies_ms.size(), p50, p99, mx,
              static_cast<unsigned long long>(failovers));
  if (failover_mismatches != 0) {
    std::printf("  !! %llu failover-leg answers mismatch the fresh engines\n",
                static_cast<unsigned long long>(failover_mismatches));
  }

  // Snapshot replica 0's Prometheus exposition (its catalog owns the
  // registry the server, pool, and replication gauges feed) so CI
  // archives a real scrape of the replication families next to the JSON.
  {
    const char* metrics_env = std::getenv("ISLABEL_BENCH_METRICS");
    const std::string metrics_path =
        metrics_env != nullptr ? metrics_env : "METRICS_repl.prom";
    const std::string prom =
        replicas[0]->catalog.metrics()->RenderPrometheus();
    std::FILE* pf = std::fopen(metrics_path.c_str(), "w");
    if (pf != nullptr) {
      std::fwrite(prom.data(), 1, prom.size(), pf);
      std::fclose(pf);
      std::printf("wrote %s\n", metrics_path.c_str());
    }
  }

  for (auto& node : replicas) {
    node->server->Stop();
    node->server->Wait();
  }

  // ---- JSON.
  std::string json = "{\n  \"bench\": \"repl\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": %.3f, \"clients\": %u, \"distinct_pairs\": "
                  "%zu,\n  \"read_scaling\": [\n",
                  scale, kClients, work.size());
    json += buf;
  }
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"replicas\": %zu, \"qps\": %.1f, \"requests\": "
                  "%llu, \"mismatches\": %llu}%s\n",
                  i + 1, scaling[i].qps,
                  static_cast<unsigned long long>(scaling[i].requests),
                  static_cast<unsigned long long>(scaling[i].mismatches),
                  i + 1 < scaling.size() ? "," : "");
    json += buf;
  }
  {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "  ],\n  \"failover\": {\"requests\": %zu, \"p50_ms\": "
                  "%.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f, \"failovers\": "
                  "%llu, \"mismatches\": %llu}\n}\n",
                  latencies_ms.size(), p50, p99, mx,
                  static_cast<unsigned long long>(failovers),
                  static_cast<unsigned long long>(failover_mismatches));
    json += buf;
  }
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::printf("\ncould not write %s\n", json_path.c_str());
    return 1;
  }
  return total_mismatches == 0 ? 0 : 2;
}
