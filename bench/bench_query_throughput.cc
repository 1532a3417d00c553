// IM-ISL query throughput bench with machine-readable output.
//
// For every built-in generator dataset this bench:
//   * builds the index and records build/labeling times and label size,
//   * times ComputeLabelsTopDown at 1/2/4 threads (the level-parallel
//     Algorithm 4) to track labeling scalability,
//   * measures in-memory query QPS and p50/p99 latency over the arena
//     layout,
//   * splits latency by the paper's three query location types (Table 5),
//   * measures multi-threaded serving QPS through the QueryEnginePool at
//     1/2/4/hw threads, in IM mode and against a disk-resident reload of
//     the same index (concurrent pread path), checking every concurrent
//     answer against the single-threaded ones, and
//   * validates answers against a Dijkstra differential baseline.
//
// Results are printed as a table and written as JSON (default
// BENCH_query.json, override with ISLABEL_BENCH_JSON) so CI can archive a
// perf trajectory. Environment: ISLABEL_SCALE, ISLABEL_QUERIES as usual.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baseline/dijkstra.h"
#include "bench/bench_common.h"
#include "core/index.h"
#include "util/timer.h"

using namespace islabel;
using namespace islabel::bench;

namespace {

struct LocationBucket {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double MeanUs() const { return count == 0 ? 0.0 : total_us / count; }
};

struct LayoutResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  LocationBucket by_location[3];  // index = LocationType - 1
};

double Percentile(std::vector<double>* lat, double p) {
  if (lat->empty()) return 0.0;
  std::sort(lat->begin(), lat->end());
  const std::size_t i = std::min(
      lat->size() - 1, static_cast<std::size_t>(p * (lat->size() - 1)));
  return (*lat)[i];
}

/// Times one layout in three sweeps: warmup; a pure-throughput sweep timed
/// only by the outer clock (no per-query instrumentation, so fixed harness
/// overhead cannot compress the A/B ratio); and a per-query sweep for the
/// latency percentiles and the per-location split.
LayoutResult MeasureLayout(QueryEngine* engine,
                           const std::vector<std::pair<VertexId, VertexId>>&
                               queries) {
  LayoutResult r;
  Distance d = 0;
  for (auto [s, t] : queries) (void)engine->Query(s, t, &d);

  WallTimer total;
  for (auto [s, t] : queries) (void)engine->Query(s, t, &d);
  const double secs = total.ElapsedSeconds();
  r.qps = secs > 0 ? static_cast<double>(queries.size()) / secs : 0.0;

  std::vector<double> lat;
  lat.reserve(queries.size());
  QueryStats stats;
  for (auto [s, t] : queries) {
    WallTimer one;
    (void)engine->Query(s, t, &d, &stats);
    const double us = one.ElapsedSeconds() * 1e6;
    lat.push_back(us);
    auto& bucket = r.by_location[static_cast<int>(stats.location) - 1];
    ++bucket.count;
    bucket.total_us += us;
  }
  double sum = 0.0;
  for (double u : lat) sum += u;
  r.mean_us = lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
  r.p50_us = Percentile(&lat, 0.50);
  r.p99_us = Percentile(&lat, 0.99);
  return r;
}

/// Concurrent serving sweep: QPS through the index's QueryEnginePool at
/// each thread count, all answers checked against `expect` (built single-
/// threaded). A warmup batch populates the pool before timing.
struct ConcurrencyResult {
  std::vector<unsigned> threads;
  std::vector<double> qps;
  std::uint64_t mismatches = 0;
};

std::vector<unsigned> ThreadCounts() {
  std::vector<unsigned> counts = {1, 2, 4};
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

ConcurrencyResult MeasureConcurrent(
    ISLabelIndex* index,
    const std::vector<std::pair<VertexId, VertexId>>& queries,
    const std::vector<Distance>& expect) {
  ConcurrencyResult r;
  r.threads = ThreadCounts();
  std::vector<Distance> got;
  (void)index->QueryBatch(queries, &got, r.threads.back());  // warmup
  for (unsigned t : r.threads) {
    WallTimer timer;
    (void)index->QueryBatch(queries, &got, t);
    const double secs = timer.ElapsedSeconds();
    r.qps.push_back(secs > 0 ? static_cast<double>(queries.size()) / secs
                             : 0.0);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (got[i] != expect[i]) ++r.mismatches;
    }
  }
  return r;
}

void JsonQpsArray(std::string* out, const char* name,
                  const ConcurrencyResult& r) {
  *out += std::string("\"") + name + "\": [";
  char buf[64];
  for (std::size_t i = 0; i < r.qps.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.1f%s", r.qps[i],
                  i + 1 < r.qps.size() ? ", " : "");
    *out += buf;
  }
  *out += "]";
}

void JsonLayout(std::string* out, const char* name, const LayoutResult& r) {
  static const char* kLocNames[3] = {"both_in_core", "one_in_core",
                                     "none_in_core"};
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"qps\": %.1f, \"p50_us\": %.3f, "
                "\"p99_us\": %.3f, \"mean_us\": %.3f, \"by_location\": {",
                name, r.qps, r.p50_us, r.p99_us, r.mean_us);
  *out += buf;
  for (int i = 0; i < 3; ++i) {
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"count\": %llu, \"mean_us\": %.3f}%s",
                  kLocNames[i],
                  static_cast<unsigned long long>(r.by_location[i].count),
                  r.by_location[i].MeanUs(), i < 2 ? ", " : "");
    *out += buf;
  }
  *out += "}}";
}

}  // namespace

int main() {
  const double scale = ScaleFromEnv();
  const std::size_t num_queries = QueriesFromEnv();
  std::uint64_t total_mismatches = 0;
  const char* json_env = std::getenv("ISLABEL_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_query.json";

  PrintHeader("Query throughput (IM-ISL, arena layout)",
              "single-threaded engine, then the engine pool");
  std::printf("%-14s %9s %9s %9s %8s %9s\n", "dataset", "QPS", "p50(us)",
              "p99(us)", "build(s)", "lab x4");

  std::string json = "{\n  \"bench\": \"query_throughput\",\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": %.3f,\n  \"queries\": %zu,\n"
                  "  \"datasets\": [\n",
                  scale, num_queries);
    json += buf;
  }

  bool first_dataset = true;
  for (const std::string& name : DatasetNames()) {
    Dataset d = MakeDataset(name, scale);
    WallTimer build_timer;
    auto built = ISLabelIndex::Build(d.graph, IndexOptions{});
    if (!built.ok()) {
      std::printf("%-14s build failed: %s\n", d.name.c_str(),
                  built.status().ToString().c_str());
      continue;
    }
    ISLabelIndex index = std::move(built).value();
    const double build_seconds = build_timer.ElapsedSeconds();
    const BuildStats& bs = index.build_stats();

    // Labeling scalability: same hierarchy, 1/2/4 threads. The arenas are
    // byte-identical by construction (tests assert it); only time varies.
    auto hierarchy = BuildHierarchy(d.graph, IndexOptions{});
    double labeling_seconds[3] = {0, 0, 0};
    const std::uint32_t thread_counts[3] = {1, 2, 4};
    if (hierarchy.ok()) {
      for (int i = 0; i < 3; ++i) {
        WallTimer t;
        LabelArena arena =
            ComputeLabelsTopDown(*hierarchy, nullptr, thread_counts[i]);
        labeling_seconds[i] = t.ElapsedSeconds();
        (void)arena;
      }
    }
    const double labeling_speedup_at_4 =
        labeling_seconds[2] > 0 ? labeling_seconds[0] / labeling_seconds[2]
                                : 0.0;

    const auto queries = MakeQueries(d.graph, num_queries, 99);

    // Arena layout (the production path).
    QueryEngine arena_engine(&index.hierarchy(),
                             LabelProvider(&index.labels()));
    const LayoutResult arena = MeasureLayout(&arena_engine, queries);

    // Dijkstra differential: every answer must match exactly.
    const std::size_t validate =
        std::min<std::size_t>(queries.size(), 200);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < validate; ++i) {
      Distance got = 0;
      if (!arena_engine.Query(queries[i].first, queries[i].second, &got)
               .ok() ||
          got != DijkstraP2P(d.graph, queries[i].first, queries[i].second)) {
        ++mismatches;
      }
    }

    // Multi-threaded serving through the engine pool, answers checked
    // against the single-threaded engine.
    std::vector<Distance> expect(queries.size(), kInfDistance);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      (void)arena_engine.Query(queries[i].first, queries[i].second,
                               &expect[i]);
    }
    const ConcurrencyResult conc_im = MeasureConcurrent(&index, queries,
                                                        expect);

    // Disk-resident leg: reload the saved index with labels on disk so
    // every query pays its label preads, then run the same sweep.
    ConcurrencyResult conc_disk;
    {
      const std::string dir =
          (std::filesystem::temp_directory_path() /
           ("islabel_bench_mt_" + d.name))
              .string();
      const Status saved = index.Save(dir);
      if (saved.ok()) {
        auto disk = ISLabelIndex::Load(dir, /*labels_in_memory=*/false);
        if (disk.ok()) {
          conc_disk = MeasureConcurrent(&disk.value(), queries, expect);
        } else {
          std::fprintf(stderr,
                       "!! disk concurrency leg skipped (%s): load: %s\n",
                       d.name.c_str(), disk.status().ToString().c_str());
        }
      } else {
        std::fprintf(stderr,
                     "!! disk concurrency leg skipped (%s): save: %s\n",
                     d.name.c_str(), saved.ToString().c_str());
      }
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }

    std::printf("%-14s %9.0f %9.2f %9.2f %8.2f %8.2fx\n", d.name.c_str(),
                arena.qps, arena.p50_us, arena.p99_us, build_seconds,
                labeling_speedup_at_4);
    std::printf("  mt-QPS");
    for (std::size_t i = 0; i < conc_im.threads.size(); ++i) {
      std::printf(" im@%u=%.0f", conc_im.threads[i], conc_im.qps[i]);
    }
    for (std::size_t i = 0; i < conc_disk.threads.size(); ++i) {
      std::printf(" disk@%u=%.0f", conc_disk.threads[i], conc_disk.qps[i]);
    }
    std::printf("\n");
    if (mismatches != 0) {
      std::printf("  !! %llu of %zu validated queries mismatch Dijkstra\n",
                  static_cast<unsigned long long>(mismatches), validate);
    }
    const std::uint64_t conc_mismatches =
        conc_im.mismatches + conc_disk.mismatches;
    if (conc_mismatches != 0) {
      std::printf(
          "  !! %llu concurrent answers disagree with the single-threaded "
          "engine\n",
          static_cast<unsigned long long>(conc_mismatches));
    }
    total_mismatches += mismatches + conc_mismatches;

    char buf[512];
    if (!first_dataset) json += ",\n";
    first_dataset = false;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"vertices\": %u, \"edges\": %llu, "
        "\"k\": %u,\n"
        "     \"build_seconds\": %.4f, \"hierarchy_seconds\": %.4f, "
        "\"labeling_seconds\": %.4f,\n"
        "     \"label_entries\": %llu, \"label_bytes\": %llu,\n"
        "     \"labeling_scaling\": {\"threads\": [1, 2, 4], \"seconds\": "
        "[%.4f, %.4f, %.4f], \"speedup_at_4\": %.3f},\n",
        d.name.c_str(), d.graph.NumVertices(),
        static_cast<unsigned long long>(d.graph.NumEdges()), index.k(),
        build_seconds, bs.hierarchy_seconds, bs.labeling_seconds,
        static_cast<unsigned long long>(bs.label_entries),
        static_cast<unsigned long long>(bs.label_bytes), labeling_seconds[0],
        labeling_seconds[1], labeling_seconds[2], labeling_speedup_at_4);
    json += buf;
    json += "     \"concurrency\": {\"threads\": [";
    for (std::size_t i = 0; i < conc_im.threads.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%u%s", conc_im.threads[i],
                    i + 1 < conc_im.threads.size() ? ", " : "");
      json += buf;
    }
    json += "], ";
    JsonQpsArray(&json, "im_qps", conc_im);
    json += ", ";
    JsonQpsArray(&json, "disk_qps", conc_disk);
    std::snprintf(buf, sizeof(buf), ", \"mismatches\": %llu},\n",
                  static_cast<unsigned long long>(conc_im.mismatches +
                                                  conc_disk.mismatches));
    json += buf;
    json += "     \"layouts\": {\n";
    JsonLayout(&json, "arena", arena);
    json += "\n     },\n";
    std::snprintf(buf, sizeof(buf),
                  "     \"validated_queries\": %zu, \"mismatches\": %llu}",
                  validate,
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
  // Correctness is part of the bench contract: mismatching Dijkstra is a
  // failure, not a footnote.
  return total_mismatches == 0 ? 0 : 2;
}
