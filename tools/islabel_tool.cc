// islabel: command-line front end for the library.
//
//   islabel gen    --type <ba|er|rmat|grid|clique-community> --n N ...
//   islabel stats  --graph FILE
//   islabel build  --graph FILE --index DIR [--sigma S | --k K] [...]
//   islabel partition-build --graph FILE --catalog DIR [--threads N] [...]
//   islabel query  --index DIR [--disk] [--path] S T [S T ...]
//   islabel batch  --index DIR [--disk] [--threads T] [--in FILE]
//   islabel serve  --index DIR | --dataset NAME=DIR [--dataset NAME=DIR...]
//                  [--disk] [--listen HOST:PORT] [--threads N] [--cache-mb M]
//   islabel serve  --replicate-from HOST:PORT --repl-root DIR
//                  [--listen HOST:PORT] [--poll-ms N]
//   islabel query  --endpoints H:P,H:P,... S T [S T ...]
//   islabel repl-status --endpoints H:P,H:P,...
//   islabel bench  --index DIR [--queries N] [--disk]
//
// Graphs are text edge lists ("u v [w]" per line, '#' comments — SNAP
// compatible) or DIMACS ".gr" files (autodetected by extension). Indexes
// are the three-file directories of ISLabelIndex; `partition-build`
// writes a catalog directory (partition map + one sub-index per
// connected component). `batch` answers a file/stdin of "s t" pairs in
// parallel over the engine pool; `serve` speaks the line-oriented wire
// protocol of server/protocol.h on stdin/stdout, or over TCP with
// --listen (see CmdServe). Repeated --dataset flags host several indexes
// in one process behind the `use`/`datasets`/`reload` verbs.
//
// Replication: a catalog-mode TCP server is automatically a primary
// (it answers `version` / `heartbeat` / `replicate`). `serve
// --replicate-from` starts a replica: an initially-empty catalog that
// pulls snapshots from the primary, serves whatever generation it has,
// and keeps polling. `query --endpoints` queries a whole replica set
// with failover; `repl-status` prints per-endpoint generations and
// the islabel_repl_* series of each endpoint's `metrics`.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/dijkstra.h"
#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "core/index.h"
#include "graph/generators.h"
#include "obs/flight_recorder.h"
#include "obs/io_bridge.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "graph/graph_io.h"
#include "graph/components.h"
#include "graph/stats.h"
#include "repl/primary.h"
#include "repl/replica.h"
#include "repl/replica_set_client.h"
#include "repl/transport.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "server/tcp_server.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/timer.h"

using namespace islabel;

namespace {

struct Args {
  std::map<std::string, std::string> options;
  /// Every --key value occurrence in order, for repeatable flags
  /// (--dataset); `options` keeps only the last occurrence.
  std::vector<std::pair<std::string, std::string>> ordered;
  std::vector<std::string> positional;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& dflt) const {
    auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  std::vector<std::string> GetAll(const std::string& key) const {
    std::vector<std::string> values;
    for (const auto& [k, v] : ordered) {
      if (k == key) values.push_back(v);
    }
    return values;
  }
  long GetInt(const std::string& key, long dflt) const {
    auto it = options.find(key);
    return it == options.end() ? dflt : std::atol(it->second.c_str());
  }
  double GetDouble(const std::string& key, double dflt) const {
    auto it = options.find(key);
    return it == options.end() ? dflt : std::atof(it->second.c_str());
  }
};

bool IsBooleanFlag(const std::string& key) {
  return key == "lcc" || key == "no-vias" || key == "disk" ||
         key == "path";
}

Args Parse(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::string key = argv[i] + 2;
      if (!IsBooleanFlag(key) && i + 1 < argc &&
          std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.options[key] = argv[++i];
        args.ordered.emplace_back(key, argv[i]);
      } else {
        // A named string sidesteps GCC 12's spurious -Wrestrict on
        // short-literal assignment at -O2 (GCC PR105329).
        static const std::string kSet = "1";
        args.options[key] = kSet;
      }
    } else {
      args.positional.push_back(argv[i]);
    }
  }
  return args;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  islabel gen   --type <ba|er|rmat|grid|clique-community> --n N\n"
      "                [--m M] [--weights LO,HI] [--seed S] [--lcc]\n"
      "                --out FILE\n"
      "  islabel stats --graph FILE\n"
      "  islabel build --graph FILE --index DIR [--sigma S] [--k K]\n"
      "                [--no-vias] [--external-mb MB] [--tmp DIR]\n"
      "  islabel partition-build --graph FILE --catalog DIR [--sigma S]\n"
      "                [--k K] [--no-vias] [--threads N]\n"
      "                [--backend islabel|ch|auto]\n"
      "  islabel query --index DIR [--disk] [--path] S T [S T ...]\n"
      "  islabel batch --index DIR [--disk] [--threads T] [--in FILE]\n"
      "  islabel serve --index DIR | --dataset NAME=DIR [--dataset ...]\n"
      "                [--disk] [--listen HOST:PORT] [--threads N]\n"
      "                [--cache-mb M] [--idle-timeout-ms N]\n"
      "                [--max-buffered-kb N] [--slow-query-ms N]\n"
      "                [--flight-recorder-capacity N] [--log-level L]\n"
      "                [--log-file PATH]\n"
      "  islabel serve --replicate-from HOST:PORT --repl-root DIR\n"
      "                [--listen HOST:PORT] [--poll-ms N] [--threads N]\n"
      "  islabel query --endpoints H:P,H:P,... S T [S T ...]\n"
      "  islabel repl-status --endpoints H:P,H:P,... [--timeout-ms N]\n"
      "  islabel bench --index DIR [--queries N] [--disk]\n");
  return 2;
}

/// DIMACS road-network files are detected by extension, for both the
/// reader (LoadGraph) and the writer (CmdGen) — one rule, two sides.
bool HasGrExtension(const std::string& path) {
  return path.size() >= 3 && path.compare(path.size() - 3, 3, ".gr") == 0;
}

int CmdGen(const Args& args) {
  const std::string type = args.Get("type", "ba");
  const VertexId n = static_cast<VertexId>(args.GetInt("n", 10000));
  const long m = args.GetInt("m", 4);
  Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 42)));
  EdgeList edges;
  if (type == "ba") {
    edges = GenerateBarabasiAlbert(n, static_cast<std::uint32_t>(m), &rng);
  } else if (type == "er") {
    edges = GenerateErdosRenyi(n, static_cast<std::uint64_t>(m) * n, &rng);
  } else if (type == "rmat") {
    std::uint32_t scale = 1;
    while ((1u << (scale + 1)) <= n) ++scale;
    edges = GenerateRMat(scale, static_cast<std::uint64_t>(m) * n, 0.57,
                         0.19, 0.19, &rng);
  } else if (type == "grid") {
    std::uint32_t side = 2;
    while ((side + 1) * (side + 1) <= n) ++side;
    edges = GenerateGrid2D(side, side);
  } else if (type == "clique-community") {
    edges = GenerateCliqueCommunity(n, static_cast<VertexId>(m > 1 ? m : 16),
                                    0.3, 0.1, 32.0, &rng);
  } else {
    std::fprintf(stderr, "unknown --type %s\n", type.c_str());
    return 2;
  }
  const std::string weights = args.Get("weights", "");
  if (!weights.empty()) {
    unsigned lo = 1, hi = 1;
    if (std::sscanf(weights.c_str(), "%u,%u", &lo, &hi) != 2 || lo > hi ||
        lo == 0) {
      std::fprintf(stderr, "--weights expects LO,HI\n");
      return 2;
    }
    AssignUniformWeights(&edges, lo, hi, &rng);
  }
  Graph g = Graph::FromEdgeList(std::move(edges));
  if (args.Has("lcc")) g = ExtractLargestComponent(g).graph;
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  // Honor the same extension convention LoadGraph reads by, so a
  // generated .gr file round-trips through build/stats/partition-build.
  Status st =
      HasGrExtension(out) ? WriteDimacsGraph(g, out) : WriteEdgeListText(g, out);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u vertices, %llu edges\n", out.c_str(),
              g.NumVertices(), static_cast<unsigned long long>(g.NumEdges()));
  return 0;
}

Result<Graph> LoadGraph(const Args& args) {
  const std::string path = args.Get("graph", "");
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  auto edges =
      HasGrExtension(path) ? ReadDimacsGraph(path) : ReadEdgeListText(path);
  if (!edges.ok()) return edges.status();
  return Graph::FromEdgeList(std::move(edges).value());
}

int CmdStats(const Args& args) {
  auto g = LoadGraph(args);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  GraphStats s = ComputeStats(*g);
  ComponentsResult comps = FindComponents(*g);
  std::printf("vertices:       %s\n", HumanCount(s.num_vertices).c_str());
  std::printf("edges:          %s\n", HumanCount(s.num_edges).c_str());
  std::printf("avg degree:     %.2f\n", s.avg_degree);
  std::printf("max degree:     %u\n", s.max_degree);
  std::printf("components:     %u (largest %s)\n", comps.num_components,
              HumanCount(comps.largest_size).c_str());
  std::printf("text size:      %s\n", HumanBytes(s.disk_size_bytes).c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  auto g = LoadGraph(args);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  const std::string dir = args.Get("index", "");
  if (dir.empty()) {
    std::fprintf(stderr, "--index is required\n");
    return 2;
  }
  IndexOptions opts;
  opts.sigma = args.GetDouble("sigma", 0.95);
  opts.forced_k = static_cast<std::uint32_t>(args.GetInt("k", 0));
  opts.keep_vias = !args.Has("no-vias");
  opts.memory_budget_bytes =
      static_cast<std::uint64_t>(args.GetInt("external-mb", 0)) << 20;
  opts.tmp_dir = args.Get("tmp", "/tmp");

  WallTimer t;
  auto built = ISLabelIndex::Build(*g, opts);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const BuildStats& bs = built->build_stats();
  std::printf("built in %.2fs: k=%u, core %s vertices / %s edges, "
              "%s label entries\n",
              t.ElapsedSeconds(), bs.k, HumanCount(bs.core_vertices).c_str(),
              HumanCount(bs.core_edges).c_str(),
              HumanCount(bs.label_entries).c_str());
  Status st = built->Save(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s\n", dir.c_str());
  return 0;
}

// partition-build: splits the graph into connected components, builds one
// sub-index per multi-vertex component (components in parallel), and
// saves the partition map + per-part index dirs as one catalog directory
// servable via `islabel serve --dataset NAME=DIR`.
int CmdPartitionBuild(const Args& args) {
  auto g = LoadGraph(args);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  const std::string dir = args.Get("catalog", "");
  if (dir.empty()) {
    std::fprintf(stderr, "--catalog is required\n");
    return 2;
  }
  PartitionOptions opts;
  opts.index.sigma = args.GetDouble("sigma", 0.95);
  opts.index.forced_k = static_cast<std::uint32_t>(args.GetInt("k", 0));
  opts.index.keep_vias = !args.Has("no-vias");
  opts.num_threads = static_cast<std::uint32_t>(args.GetInt("threads", 0));
  const std::string backend = args.Get("backend", "islabel");
  if (!ParseBackendKind(backend, &opts.backend)) {
    std::fprintf(stderr, "--backend expects islabel, ch or auto, got '%s'\n",
                 backend.c_str());
    return 2;
  }

  WallTimer t;
  auto built = PartitionedIndex::Build(*g, opts);
  if (!built.ok()) {
    std::fprintf(stderr, "partition-build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::printf("partitioned %u vertices into %u components (%u indexed "
              "parts) in %.2fs\n",
              built->NumVertices(), built->num_components(),
              built->num_parts(), t.ElapsedSeconds());
  for (std::uint32_t p = 0; p < built->num_parts(); ++p) {
    const DistanceIndexInfo info = built->part(p).Info();
    std::printf("  part %u: backend=%s, %u vertices, %s entries (%s), %s\n",
                p, info.backend.c_str(), built->part(p).NumVertices(),
                HumanCount(info.entries).c_str(),
                HumanBytes(info.bytes).c_str(), info.detail.c_str());
  }
  Status st = built->Save(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved catalog to %s\n", dir.c_str());
  return 0;
}

/// Splits a comma-separated --endpoints value.
std::vector<std::string> SplitEndpoints(const std::string& value) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t end = std::min(value.find(',', begin), value.size());
    if (end > begin) out.push_back(value.substr(begin, end - begin));
    if (end == value.size()) break;
    begin = end + 1;
  }
  return out;
}

/// query --endpoints: sends each pair to a replica set with failover
/// instead of loading a local index.
int QueryReplicaSet(const Args& args) {
  repl::ReplicaSetOptions opts;
  opts.endpoints = SplitEndpoints(args.Get("endpoints", ""));
  if (opts.endpoints.empty()) return Usage();
  opts.request_timeout_ms =
      static_cast<std::uint64_t>(args.GetInt("timeout-ms", 5000));
  repl::TcpTransport transport;
  SystemClock clock;
  Rng rng(0x5e7);
  repl::ReplicaSetClient client(&transport, &clock, &rng, opts);
  int failures = 0;
  for (std::size_t i = 0; i + 1 < args.positional.size(); i += 2) {
    const std::string line =
        args.positional[i] + " " + args.positional[i + 1];
    Result<std::string> response = client.Query(line);
    if (!response.ok()) {
      std::fprintf(stderr, "query '%s' failed: %s\n", line.c_str(),
                   response.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("%s %s\n", line.c_str(), response.value().c_str());
  }
  const std::uint64_t n_failovers = client.failovers();
  if (n_failovers > 0) {
    std::fprintf(stderr, "(%llu failovers)\n",
                 static_cast<unsigned long long>(n_failovers));
  }
  return failures == 0 ? 0 : 1;
}

int CmdQuery(const Args& args) {
  if (args.Has("endpoints")) {
    if (args.positional.size() < 2 || args.positional.size() % 2 != 0) {
      return Usage();
    }
    return QueryReplicaSet(args);
  }
  const std::string dir = args.Get("index", "");
  if (dir.empty() || args.positional.size() < 2 ||
      args.positional.size() % 2 != 0) {
    return Usage();
  }
  auto loaded = ISLabelIndex::Load(dir, /*labels_in_memory=*/!args.Has("disk"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  ISLabelIndex index = std::move(loaded).value();
  for (std::size_t i = 0; i + 1 < args.positional.size(); i += 2) {
    const VertexId s =
        static_cast<VertexId>(std::atol(args.positional[i].c_str()));
    const VertexId t =
        static_cast<VertexId>(std::atol(args.positional[i + 1].c_str()));
    if (args.Has("path")) {
      std::vector<VertexId> path;
      Distance d = 0;
      Status st = index.ShortestPath(s, t, &path, &d);
      if (!st.ok()) {
        std::fprintf(stderr, "query (%u,%u) failed: %s\n", s, t,
                     st.ToString().c_str());
        continue;
      }
      if (d == kInfDistance) {
        std::printf("dist(%u, %u) = unreachable\n", s, t);
        continue;
      }
      std::printf("dist(%u, %u) = %llu; path:", s, t,
                  static_cast<unsigned long long>(d));
      for (VertexId v : path) std::printf(" %u", v);
      std::printf("\n");
    } else {
      Distance d = 0;
      QueryStats stats;
      Status st = index.Query(s, t, &d, &stats);
      if (!st.ok()) {
        std::fprintf(stderr, "query (%u,%u) failed: %s\n", s, t,
                     st.ToString().c_str());
        continue;
      }
      if (d == kInfDistance) {
        std::printf("dist(%u, %u) = unreachable\n", s, t);
      } else {
        std::printf("dist(%u, %u) = %llu  (label IOs: %llu, settled: %llu)\n",
                    s, t, static_cast<unsigned long long>(d),
                    static_cast<unsigned long long>(stats.label_ios),
                    static_cast<unsigned long long>(stats.settled));
      }
    }
  }
  return 0;
}

Result<ISLabelIndex> LoadIndexArg(const Args& args) {
  const std::string dir = args.Get("index", "");
  if (dir.empty()) return Status::InvalidArgument("--index is required");
  return ISLabelIndex::Load(dir, /*labels_in_memory=*/!args.Has("disk"));
}

/// How ReadRequestLine ended.
enum class LineRead { kLine, kEnd, kTooLong };

/// Reads one '\n'-terminated line of `in` into *line, without the '\n'.
/// Stops at server::kMaxRequestLineBytes: a longer line is kTooLong, and
/// what is left of it stays unread, so no input can grow *line past the
/// protocol's limit.
LineRead ReadRequestLine(std::istream& in, std::string* line) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      return line->empty() ? LineRead::kEnd : LineRead::kLine;
    }
    if (c == '\n') return LineRead::kLine;
    if (line->size() == server::kMaxRequestLineBytes) return LineRead::kTooLong;
    line->push_back(static_cast<char>(c));
  }
}

// batch: reads "s t" pairs (one per line, '#' comments) from --in FILE or
// stdin, answers them all with QueryBatch over the engine pool, and prints
// "s t dist" per pair in input order. A line over the protocol's request
// limit fails the run with its line number.
int CmdBatch(const Args& args) {
  auto loaded = LoadIndexArg(args);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  ISLabelIndex index = std::move(loaded).value();

  std::istream* in = &std::cin;
  std::ifstream file;
  const std::string in_path = args.Get("in", "");
  if (!in_path.empty()) {
    file.open(in_path);
    if (!file.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
      return 1;
    }
    in = &file;
  }

  std::vector<std::pair<VertexId, VertexId>> pairs;
  std::string line;
  std::size_t line_no = 0;
  LineRead r;
  while ((r = ReadRequestLine(*in, &line)) != LineRead::kEnd) {
    ++line_no;
    if (r == LineRead::kTooLong) {
      std::fprintf(stderr,
                   "line %zu: request line too long (limit %zu bytes)\n",
                   line_no, server::kMaxRequestLineBytes);
      return 1;
    }
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    VertexId s = 0, t = 0;
    if (!(ls >> s >> t)) {
      std::fprintf(stderr, "skipping malformed line: %s\n", line.c_str());
      continue;
    }
    pairs.emplace_back(s, t);
  }

  const std::uint32_t threads =
      static_cast<std::uint32_t>(args.GetInt("threads", 0));
  std::vector<Distance> dists;
  std::vector<Status> statuses;
  WallTimer t;
  Status st = index.QueryBatch(pairs, &dists, threads, &statuses);
  const double secs = t.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "batch failed: %s\n", st.ToString().c_str());
    return 1;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!statuses[i].ok()) {
      std::printf("%u %u error: %s\n", pairs[i].first, pairs[i].second,
                  statuses[i].ToString().c_str());
    } else if (dists[i] == kInfDistance) {
      std::printf("%u %u unreachable\n", pairs[i].first, pairs[i].second);
    } else {
      std::printf("%u %u %llu\n", pairs[i].first, pairs[i].second,
                  static_cast<unsigned long long>(dists[i]));
    }
  }
  std::fprintf(stderr, "%zu queries in %.3fs (%.0f QPS)\n", pairs.size(),
               secs, secs > 0 ? static_cast<double>(pairs.size()) / secs : 0);
  return 0;
}

// serve: the line-oriented wire protocol of server/protocol.h
// ("S T", "one S T1 T2...", "path S T", "metrics", "quit"), one response
// per request. Default front end is stdin/stdout (trivially
// scriptable); --listen HOST:PORT serves the same protocol over TCP with
// the epoll server (--threads workers, SIGINT/SIGTERM shut it down
// gracefully). --cache-mb M puts a sharded LRU distance cache in front
// of the engine (default 64 MB in TCP mode, off in stdin mode); cache
// entries are invalidated by generation on every index update, so cached
// answers are always identical to freshly computed ones.
/// Parses --listen HOST:PORT and the connection guards into `sopts`.
/// Returns 0, or 2 on bad input.
int ParseListenOption(const Args& args, server::TcpServerOptions* sopts) {
  const std::string listen = args.Get("listen", "");
  const std::size_t colon = listen.rfind(':');
  const std::string port_str =
      colon == std::string::npos ? "" : listen.substr(colon + 1);
  char* port_end = nullptr;
  const unsigned long port =
      port_str.empty() ? 65536ul
                       : std::strtoul(port_str.c_str(), &port_end, 10);
  if (colon == std::string::npos || colon == 0 || port > 65535 ||
      port_end == nullptr || *port_end != '\0') {
    std::fprintf(stderr,
                 "--listen expects HOST:PORT (port 0-65535, 0 = "
                 "ephemeral)\n");
    return 2;
  }
  sopts->host = listen.substr(0, colon);
  sopts->port = static_cast<std::uint16_t>(port);
  sopts->num_workers = static_cast<std::uint32_t>(args.GetInt("threads", 0));
  sopts->install_signal_handlers = true;
  // The CLI server faces real clients: slowloris guard on by default
  // (library default is off). --idle-timeout-ms 0 disables.
  sopts->idle_timeout_ms =
      static_cast<std::uint32_t>(args.GetInt("idle-timeout-ms", 60'000));
  sopts->max_buffered_bytes =
      static_cast<std::size_t>(args.GetInt("max-buffered-kb", 1024)) << 10;
  return 0;
}

/// The serve-mode observability plane (DESIGN.md §17): a structured
/// JSON-lines event log on stderr or --log-file, and the flight
/// recorder behind the `tracez` verb. Declare it before anything that
/// logs (catalog, servers) so it is destroyed last.
struct ServeObservability {
  FILE* log_file = nullptr;
  std::unique_ptr<obs::EventLog> event_log;
  std::unique_ptr<obs::FlightRecorder> recorder;

  ~ServeObservability() {
    // Members (the event log among them) are destroyed after this body,
    // but EventLog never calls the sink from its destructor, so closing
    // here is safe.
    if (log_file != nullptr) std::fclose(log_file);
  }

  /// Builds the plane from --log-level / --log-file /
  /// --flight-recorder-capacity. Returns 0, or 2 on bad input.
  int Init(const Args& args) {
    obs::EventLogOptions lopts;
    if (!obs::ParseEventLevel(args.Get("log-level", "info"),
                              &lopts.min_level)) {
      std::fprintf(stderr,
                   "--log-level expects debug, info, warn or error\n");
      return 2;
    }
    const std::string path = args.Get("log-file", "");
    if (!path.empty()) {
      log_file = std::fopen(path.c_str(), "a");
      if (log_file == nullptr) {
        std::fprintf(stderr, "cannot open --log-file %s\n", path.c_str());
        return 2;
      }
    }
    // One fprintf per event: the stdio stream lock keeps concurrent
    // workers' lines whole (EventLog calls the sink unlocked).
    FILE* out = log_file != nullptr ? log_file : stderr;
    lopts.sink = [out](const std::string& line) {
      std::fprintf(out, "%s\n", line.c_str());
      std::fflush(out);
    };
    event_log = std::make_unique<obs::EventLog>(lopts);

    const long capacity = args.GetInt("flight-recorder-capacity", 8192);
    if (capacity > 0) {
      obs::FlightRecorderOptions fopts;
      fopts.capacity_per_thread = static_cast<std::size_t>(capacity);
      recorder = std::make_unique<obs::FlightRecorder>(fopts);
    }
    return 0;
  }
};

/// The front end of every serve mode: installs the dispatcher's
/// telemetry once (`registry`, the flight recorder, the event log,
/// --slow-query-ms), then serves the wire protocol over TCP with
/// --listen, or on stdin/stdout without it, one response per request.
/// `on_listening` runs once the TCP server accepts connections.
int ServeFrontEnd(const Args& args, server::RequestDispatcher* dispatcher,
                  obs::MetricRegistry* registry,
                  const ServeObservability& sobs,
                  const std::function<void()>& on_listening = {}) {
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = registry;
  mopts.slow_query_threshold_ms =
      static_cast<std::uint64_t>(args.GetInt("slow-query-ms", 0));
  mopts.flight_recorder = sobs.recorder.get();
  mopts.event_log = sobs.event_log.get();
  dispatcher->InstallMetrics(mopts);

  if (!args.Has("listen")) {
    std::fprintf(stderr, "reading requests on stdin; 'quit' to stop\n");
    server::RequestDispatcher::Session session;
    // Parse timing feeds the QueryTrace, exactly like the TCP front end.
    const Clock* clock = dispatcher->clock();
    const bool time_parse = dispatcher->tracing_enabled();
    std::string line;
    LineRead r;
    while ((r = ReadRequestLine(std::cin, &line)) != LineRead::kEnd) {
      if (r == LineRead::kTooLong) {
        // Ends the session, as the TCP server closes the connection.
        std::printf("%s\n", server::kLineTooLongError);
        std::fflush(stdout);
        break;
      }
      const std::uint64_t t0 = time_parse ? clock->NowMicros() : 0;
      server::Request req = server::ParseRequest(line);
      if (time_parse) {
        req.parse_us = static_cast<std::uint32_t>(clock->NowMicros() - t0);
      }
      if (req.kind == server::RequestKind::kNone) continue;
      if (req.kind == server::RequestKind::kQuit) break;
      const std::string response = dispatcher->Execute(req, &session);
      std::printf("%s\n", response.c_str());
      std::fflush(stdout);
    }
    return 0;
  }

  server::TcpServerOptions sopts;
  const int rc = ParseListenOption(args, &sopts);
  if (rc != 0) return rc;
  server::TcpServer tcp_server(dispatcher, sopts);
  Status st = tcp_server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "listening on %s:%u; SIGINT/SIGTERM to stop\n",
               sopts.host.c_str(), tcp_server.port());
  if (on_listening) on_listening();
  tcp_server.Wait();
  const server::TcpServerStats stats = tcp_server.stats();
  std::fprintf(stderr,
               "served %llu requests (%llu errors) over %llu connections\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.connections_accepted));
  return 0;
}

/// Catalog serve: every --dataset NAME=DIR is loaded in turn; once all
/// are ready the front end (stdin or TCP) serves them behind the `use` /
/// `datasets` / `reload` verbs, one generation-invalidated result cache
/// per dataset.
int ServeCatalog(const Args& args,
                 const std::vector<std::string>& dataset_specs) {
  ServeObservability sobs;
  const int obs_rc = sobs.Init(args);
  if (obs_rc != 0) return obs_rc;
  Catalog catalog;
  catalog.set_event_log(sobs.event_log.get());
  std::vector<std::string> names;
  for (const std::string& spec : dataset_specs) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      std::fprintf(stderr, "--dataset expects NAME=DIR, got '%s'\n",
                   spec.c_str());
      return 2;
    }
    const std::string name = spec.substr(0, eq);
    // The wire grammar must be able to address every hosted dataset.
    if (!server::IsValidDatasetName(name)) {
      std::fprintf(stderr,
                   "--dataset name '%s' is not addressable by `use` "
                   "(allowed: [A-Za-z0-9._-])\n",
                   name.c_str());
      return 2;
    }
    Status st = catalog.Add(name, spec.substr(eq + 1),
                            /*labels_in_memory=*/!args.Has("disk"));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    names.push_back(name);
  }
  Status ready = catalog.WaitReady();
  if (!ready.ok()) {
    std::fprintf(stderr, "dataset load failed: %s\n",
                 ready.ToString().c_str());
    return 1;
  }

  const bool tcp = args.Has("listen");
  const long cache_mb = args.GetInt("cache-mb", tcp ? 64 : 0);
  if (cache_mb > 0) {
    for (const std::string& name : names) {
      server::QueryCacheOptions copts;
      copts.capacity_bytes = static_cast<std::size_t>(cache_mb) << 20;
      copts.metrics = catalog.metrics();
      copts.metrics_dataset = name;
      const Status cache_st = catalog.SetDistanceCache(
          name, std::make_shared<server::QueryCache>(copts));
      if (!cache_st.ok()) {
        std::fprintf(stderr, "cannot install cache for %s: %s\n",
                     name.c_str(), cache_st.ToString().c_str());
        return 1;
      }
    }
  }
  for (const islabel::DatasetInfo& info : catalog.List()) {
    std::fprintf(stderr, "dataset %s: %llu vertices, %u parts\n",
                 info.name.c_str(),
                 static_cast<unsigned long long>(info.vertices), info.parts);
  }

  server::RequestDispatcher dispatcher(&catalog, names.front());
  // Every catalog-mode TCP server can act as a replication primary: the
  // verbs cost nothing until a replica pulls.
  std::optional<repl::PrimaryHooks> primary_hooks;
  if (tcp) {
    primary_hooks.emplace(&catalog);
    dispatcher.set_replication_hooks(&*primary_hooks);
  }
  std::fprintf(stderr,
               "serving %zu datasets (default %s, cache %ld MB/dataset)\n",
               names.size(), names.front().c_str(),
               cache_mb > 0 ? cache_mb : 0);
  return ServeFrontEnd(args, &dispatcher, catalog.metrics(), sobs);
}

/// Replica serve: an initially-empty catalog that pulls snapshots from
/// --replicate-from and hot-swaps them in as they arrive, while the TCP
/// front end serves whatever generation is installed
/// (stale-but-consistent during a partition).
int ServeReplica(const Args& args) {
  if (!args.Has("listen")) {
    std::fprintf(stderr, "--replicate-from requires --listen HOST:PORT\n");
    return 2;
  }
  ServeObservability sobs;
  const int obs_rc = sobs.Init(args);
  if (obs_rc != 0) return obs_rc;
  Catalog catalog;
  catalog.set_event_log(sobs.event_log.get());
  repl::TcpTransport transport;
  SystemClock clock;
  Rng rng(0x4e91);

  repl::ReplicaOptions ropts;
  ropts.primary = args.Get("replicate-from", "");
  ropts.root = args.Get("repl-root", "repl-data");
  ropts.poll_interval_ms =
      static_cast<std::uint64_t>(args.GetInt("poll-ms", 1000));
  ropts.event_log = sobs.event_log.get();
  repl::ReplicaAgent agent(&catalog, &transport, &clock, &rng, ropts);

  server::RequestDispatcher dispatcher(&catalog, /*default_dataset=*/"");
  dispatcher.set_replication_hooks(&agent);
  std::fprintf(stderr, "replica of %s (root %s, poll %llu ms)\n",
               ropts.primary.c_str(), ropts.root.c_str(),
               static_cast<unsigned long long>(ropts.poll_interval_ms));
  const int ret = ServeFrontEnd(args, &dispatcher, catalog.metrics(), sobs,
                                [&agent] { agent.RunBackground(); });
  agent.StopBackground();
  return ret;
}

int CmdServe(const Args& args) {
  if (args.Has("replicate-from")) return ServeReplica(args);
  const std::vector<std::string> dataset_specs = args.GetAll("dataset");
  if (!dataset_specs.empty()) return ServeCatalog(args, dataset_specs);

  // Declared before the index so every registered instrument (pool
  // series, cache counters, the io bridge) outlives its writers.
  ServeObservability sobs;
  const int obs_rc = sobs.Init(args);
  if (obs_rc != 0) return obs_rc;
  obs::MetricRegistry registry;
  auto loaded = LoadIndexArg(args);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  ISLabelIndex index = std::move(loaded).value();
  index.InstallMetrics(&registry);
  if (index.labels_on_disk()) {
    obs::BridgeIoStats(&registry, {},
                       [store = index.label_store()] {
                         return store->stats();
                       });
  }

  const long cache_mb = args.GetInt("cache-mb", args.Has("listen") ? 64 : 0);
  if (cache_mb > 0) {
    server::QueryCacheOptions copts;
    copts.capacity_bytes = static_cast<std::size_t>(cache_mb) << 20;
    copts.metrics = &registry;
    index.set_distance_cache(std::make_shared<server::QueryCache>(copts));
  }

  server::RequestDispatcher dispatcher(&index);
  std::fprintf(stderr, "serving %u vertices (%s labels, cache %ld MB)\n",
               index.NumVertices(), args.Has("disk") ? "disk" : "in-memory",
               cache_mb > 0 ? cache_mb : 0);
  return ServeFrontEnd(args, &dispatcher, &registry, sobs);
}

// repl-status: per endpoint, reachability and dataset generations
// (`version`), then the islabel_repl_* samples of its `metrics`
// exposition, so an operator can see replica lag at a glance.
int CmdReplStatus(const Args& args) {
  const std::vector<std::string> endpoints =
      SplitEndpoints(args.Get("endpoints", ""));
  if (endpoints.empty()) return Usage();
  const std::uint64_t timeout_ms =
      static_cast<std::uint64_t>(args.GetInt("timeout-ms", 3000));
  repl::TcpTransport transport;
  SystemClock clock;
  int down = 0;
  for (const std::string& endpoint : endpoints) {
    Result<std::unique_ptr<repl::Connection>> conn =
        transport.Connect(endpoint, timeout_ms);
    if (!conn.ok()) {
      std::printf("%s DOWN %s\n", endpoint.c_str(),
                  conn.status().ToString().c_str());
      ++down;
      continue;
    }
    repl::Channel channel(std::move(conn).value());
    const Deadline deadline = Deadline::After(timeout_ms, &clock);
    std::string version;
    std::vector<std::string> repl_samples;
    Status st = channel.SendLine("version");
    if (st.ok()) st = channel.ReadLine(&version, deadline);
    if (st.ok()) st = channel.SendLine("metrics");
    // The exposition runs through a final "# EOF" line.
    std::string line;
    while (st.ok()) {
      st = channel.ReadLine(&line, deadline);
      if (!st.ok() || line == "# EOF" || line.rfind("error: ", 0) == 0) {
        break;
      }
      if (line.rfind("islabel_repl_", 0) == 0) repl_samples.push_back(line);
    }
    if (!st.ok()) {
      std::printf("%s DOWN %s\n", endpoint.c_str(), st.ToString().c_str());
      ++down;
      continue;
    }
    std::printf("%s UP %s\n", endpoint.c_str(), version.c_str());
    for (const std::string& sample : repl_samples) {
      std::printf("%s    %s\n", endpoint.c_str(), sample.c_str());
    }
  }
  return down == 0 ? 0 : 1;
}

int CmdBench(const Args& args) {
  const std::string dir = args.Get("index", "");
  if (dir.empty()) return Usage();
  auto loaded = ISLabelIndex::Load(dir, !args.Has("disk"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  ISLabelIndex index = std::move(loaded).value();
  const std::size_t count =
      static_cast<std::size_t>(args.GetInt("queries", 1000));
  Rng rng(7);
  double time_a = 0, time_b = 0;
  std::uint64_t ios = 0;
  WallTimer t;
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(index.NumVertices()));
    const VertexId u = static_cast<VertexId>(rng.Uniform(index.NumVertices()));
    Distance d = 0;
    QueryStats stats;
    if (!index.Query(s, u, &d, &stats).ok()) continue;
    time_a += stats.label_fetch_seconds;
    time_b += stats.search_seconds;
    ios += stats.label_ios;
  }
  std::printf("%zu queries: total %.3f ms/query (Time(a) %.3f ms, Time(b) "
              "%.3f ms, %.2f label IOs/query)\n",
              count, t.ElapsedMillis() / count, time_a * 1e3 / count,
              time_b * 1e3 / count, static_cast<double>(ios) / count);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Args args = Parse(argc, argv, 2);
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "build") return CmdBuild(args);
  if (cmd == "partition-build") return CmdPartitionBuild(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "batch") return CmdBatch(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "repl-status") return CmdReplStatus(args);
  if (cmd == "bench") return CmdBench(args);
  return Usage();
}
