// End-to-end tests for the islabel CLI: drives the real binary (path
// injected by CMake as ISLABEL_TOOL_PATH) through gen → build → query /
// batch / serve pipelines and asserts on the exact protocol responses,
// validated against the library loaded in-process.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "core/index.h"
#include "graph/graph_io.h"
#include "repl/primary.h"
#include "server/dispatcher.h"
#include "server/tcp_server.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;

/// Runs `command` under sh, captures stdout (stderr discarded), returns
/// the exit code.
int RunCommand(const std::string& command, std::string* stdout_text) {
  stdout_text->clear();
  std::FILE* pipe = ::popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    stdout_text->append(buf, n);
  }
  const int rc = ::pclose(pipe);
  return WEXITSTATUS(rc);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t nl = text.find('\n', begin);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(begin, nl - begin));
    begin = nl + 1;
  }
  return lines;
}

class ToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tool_ = ISLABEL_TOOL_PATH;
    ASSERT_TRUE(std::filesystem::exists(tool_))
        << "islabel binary not built at " << tool_;
    dir_ = (std::filesystem::temp_directory_path() /
            ("islabel_tool_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    graph_path_ = dir_ + "/g.txt";
    index_dir_ = dir_ + "/idx";

    // A deterministic weighted graph written through the library, then
    // indexed through the CLI.
    graph_ = MakeTestGraph(Family::kErdosRenyi, 200, /*weighted=*/true, 9);
    ASSERT_TRUE(WriteEdgeListText(graph_, graph_path_).ok());
    std::string out;
    ASSERT_EQ(RunCommand(tool_ + " build --graph " + graph_path_ +
                             " --index " + index_dir_,
                         &out),
              0)
        << out;
    ASSERT_NE(out.find("saved to"), std::string::npos) << out;

    auto loaded = ISLabelIndex::Load(index_dir_);
    ASSERT_TRUE(loaded.ok());
    index_ = std::move(loaded).value();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Distance Dist(VertexId s, VertexId t) {
    Distance d = 0;
    EXPECT_TRUE(index_.Query(s, t, &d).ok());
    return d;
  }
  std::string DistStr(VertexId s, VertexId t) {
    const Distance d = Dist(s, t);
    return d == kInfDistance ? "unreachable" : std::to_string(d);
  }

  std::string tool_;
  std::string dir_;
  std::string graph_path_;
  std::string index_dir_;
  Graph graph_;
  ISLabelIndex index_;
};

TEST_F(ToolTest, QueryCommandAnswersPairs) {
  std::string out;
  ASSERT_EQ(
      RunCommand(tool_ + " query --index " + index_dir_ + " 1 2 3 4", &out),
      0);
  EXPECT_NE(out.find("dist(1, 2) = " + DistStr(1, 2)), std::string::npos)
      << out;
  EXPECT_NE(out.find("dist(3, 4) = " + DistStr(3, 4)), std::string::npos)
      << out;
}

TEST_F(ToolTest, ServeAnswersProtocolOverPipes) {
  std::string out;
  const std::string script =
      "printf '1 2\\none 1 2 3\\npath 1 5\\nmetrics\\nquit\\n'";
  ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --index " +
                           index_dir_ + " --cache-mb 8",
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_GT(lines.size(), 4u) << out;
  EXPECT_EQ(lines[0], DistStr(1, 2));
  EXPECT_EQ(lines[1],
            DistStr(1, 2) + " " + DistStr(1, 3));
  // path response: "D: v0 ... vk" (or unreachable).
  if (Dist(1, 5) == kInfDistance) {
    EXPECT_EQ(lines[2], "unreachable");
  } else {
    EXPECT_EQ(lines[2].substr(0, lines[2].find(':')), DistStr(1, 5));
  }
  EXPECT_EQ(lines.back(), "# EOF") << out;
  EXPECT_NE(out.find("\nislabel_server_requests_total 4\n"), std::string::npos)
      << out;
}

TEST_F(ToolTest, ServeRejectsMalformedRequests) {
  // The PR-4 satellite fix: trailing garbage and non-numeric ids answer
  // with a usage error instead of being silently truncated.
  std::string out;
  const std::string script =
      "printf '1 2 junk\\n1 x\\nnonsense req\\nstats\\n7 8\\nquit\\n'";
  ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --index " +
                           index_dir_,
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 5u) << out;
  EXPECT_EQ(lines[0], "error: usage: S T");
  EXPECT_EQ(lines[1], "error: usage: S T");
  EXPECT_EQ(lines[2], "error: unrecognized request: nonsense req");
  // The retired `stats` verb; `metrics` is the counter exposition.
  EXPECT_EQ(lines[3], "error: unrecognized request: stats");
  EXPECT_EQ(lines[4], DistStr(7, 8));  // the loop keeps serving
}

// A request line of exactly the protocol's limit is served; one byte more
// is answered with an error and ends the session, as the TCP server closes
// the connection, so the request after it is never answered.
TEST_F(ToolTest, ServeEndsSessionOnOverlongRequestLine) {
  const std::string input_path = dir_ + "/overlong.txt";
  {
    std::ofstream f(input_path);
    std::string at_limit = "3 4";
    at_limit.resize(server::kMaxRequestLineBytes, ' ');
    f << "1 2\n" << at_limit << "\n"
      << std::string(server::kMaxRequestLineBytes + 1, '7') << "\n5 6\nquit\n";
  }
  std::string out;
  ASSERT_EQ(RunCommand(tool_ + " serve --index " + index_dir_ + " < " +
                           input_path,
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 3u) << out;
  EXPECT_EQ(lines[0], DistStr(1, 2));
  EXPECT_EQ(lines[1], DistStr(3, 4));
  EXPECT_EQ(lines[2], server::kLineTooLongError);
}

TEST_F(ToolTest, ServeDiskModeMatchesInMemory) {
  std::string out;
  const std::string script = "printf '1 2\\n3 4\\nquit\\n'";
  ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --index " +
                           index_dir_ + " --disk",
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 2u) << out;
  EXPECT_EQ(lines[0], DistStr(1, 2));
  EXPECT_EQ(lines[1], DistStr(3, 4));
}

TEST_F(ToolTest, BatchAnswersPairsFile) {
  const std::string pairs_path = dir_ + "/pairs.txt";
  std::FILE* f = std::fopen(pairs_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "1 2\n3 4\n# comment\n5 6\n");
  std::fclose(f);
  std::string out;
  ASSERT_EQ(RunCommand(tool_ + " batch --index " + index_dir_ + " --in " +
                           pairs_path,
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 3u) << out;
  EXPECT_EQ(lines[0], "1 2 " + DistStr(1, 2));
  EXPECT_EQ(lines[1], "3 4 " + DistStr(3, 4));
  EXPECT_EQ(lines[2], "5 6 " + DistStr(5, 6));
}

// batch reads its pairs under the same limit: a line one byte over it
// fails the run with its line number, before any pair is answered.
TEST_F(ToolTest, BatchRejectsOverlongLineWithItsNumber) {
  const std::string pairs_path = dir_ + "/overlong_pairs.txt";
  {
    std::ofstream f(pairs_path);
    std::string at_limit = "3 4";
    at_limit.resize(server::kMaxRequestLineBytes, ' ');
    f << "1 2\n" << at_limit << "\n# comment\n"
      << std::string(server::kMaxRequestLineBytes + 1, '7') << "\n5 6\n";
  }
  std::string out;  // stdout and stderr
  ASSERT_EQ(RunCommand("{ " + tool_ + " batch --index " + index_dir_ +
                           " --in " + pairs_path + " 2>&1; }",
                       &out),
            1);
  EXPECT_NE(out.find("line 4: request line too long"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("1 2 " + DistStr(1, 2)), std::string::npos) << out;
}

TEST_F(ToolTest, BenchPrintsSummaryLine) {
  std::string out;
  ASSERT_EQ(RunCommand(tool_ + " bench --index " + index_dir_ +
                           " --queries 20",
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 1u) << out;
  EXPECT_EQ(lines[0].rfind("20 queries: total ", 0), 0u) << out;
  EXPECT_NE(lines[0].find(" ms/query (Time(a) "), std::string::npos) << out;
  // In-memory labels: Time (a) reads nothing from disk.
  EXPECT_NE(lines[0].find(", 0.00 label IOs/query)"), std::string::npos)
      << out;
}

TEST_F(ToolTest, PartitionBuildAndCatalogServe) {
  // A disconnected graph (two ER halves + isolated vertices) through
  // partition-build, then served as two named datasets with the catalog
  // verbs over stdin pipes.
  const Graph dg =
      MakeTestGraph(Family::kDisconnected, 120, /*weighted=*/true, 31);
  const std::string dg_path = dir_ + "/dg.txt";
  ASSERT_TRUE(WriteEdgeListText(dg, dg_path).ok());
  const std::string cat_dir = dir_ + "/cat";
  std::string out;
  ASSERT_EQ(RunCommand(tool_ + " partition-build --graph " + dg_path +
                           " --catalog " + cat_dir,
                       &out),
            0)
      << out;
  EXPECT_NE(out.find("saved catalog to"), std::string::npos) << out;
  EXPECT_NE(out.find("components"), std::string::npos) << out;

  // Ground truth through the library over the same catalog directory.
  auto loaded = PartitionedIndex::Load(cat_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto dist = [&](VertexId s, VertexId t) {
    Distance d = 0;
    EXPECT_TRUE(loaded->Query(s, t, &d).ok());
    return d == kInfDistance ? std::string("unreachable") : std::to_string(d);
  };
  // One same-component, one cross-component pair.
  const VertexId cross = dg.NumVertices() / 2 + 1;
  ASSERT_NE(loaded->ComponentOf(0), loaded->ComponentOf(cross));

  const std::string script =
      "printf '0 1\\n0 " + std::to_string(cross) +
      "\\nuse beta\\n0 1\\nreload alpha\\nuse nope\\ndatasets\\nmetrics\\n"
      "quit\\n'";
  ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --dataset alpha=" +
                           cat_dir + " --dataset beta=" + cat_dir +
                           " --cache-mb 4",
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_GT(lines.size(), 8u) << out;
  EXPECT_EQ(lines[0], dist(0, 1));
  EXPECT_EQ(lines[1], "unreachable");
  EXPECT_EQ(lines[2], "ok: using beta");
  EXPECT_EQ(lines[3], dist(0, 1));  // same dirs → same answers
  EXPECT_EQ(lines[4], "ok: reloaded alpha");
  EXPECT_EQ(lines[5], "error: NotFound: unknown dataset nope");
  EXPECT_EQ(lines[6].rfind("datasets:", 0), 0u) << lines[6];
  EXPECT_NE(lines[6].find("alpha:ready:"), std::string::npos) << lines[6];
  EXPECT_NE(lines[6].find("beta:ready:"), std::string::npos) << lines[6];
  EXPECT_EQ(lines.back(), "# EOF") << out;
  for (const char* sample :
       {"islabel_dataset_requests_total{dataset=\"alpha\"} 2",
        "islabel_dataset_requests_total{dataset=\"beta\"} 1",
        "islabel_dataset_reloads_total{dataset=\"alpha\"} 1"}) {
    EXPECT_NE(std::find(lines.begin(), lines.end(), sample), lines.end())
        << sample << "\n" << out;
  }
}

TEST_F(ToolTest, ReplStatusReportsUpAndDownEndpoints) {
  // An in-process primary over the fixture's index, and an endpoint
  // nothing listens on.
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("d", index_dir_).ok());
  ASSERT_TRUE(catalog.WaitReady().ok());
  repl::PrimaryHooks hooks(&catalog);
  server::RequestDispatcher dispatcher(&catalog, "d");
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = catalog.metrics();
  dispatcher.InstallMetrics(mopts);
  dispatcher.set_replication_hooks(&hooks);
  server::TcpServerOptions opts;
  opts.num_workers = 1;
  server::TcpServer primary(&dispatcher, opts);
  ASSERT_TRUE(primary.Start().ok());
  const std::string up = "127.0.0.1:" + std::to_string(primary.port());

  std::string out;
  EXPECT_EQ(RunCommand(tool_ + " repl-status --timeout-ms 2000 --endpoints " +
                           up + ",127.0.0.1:1",
                       &out),
            1)
      << out;
  const std::vector<std::string> lines = SplitLines(out);
  EXPECT_NE(std::find(lines.begin(), lines.end(), up + " UP version: d:1"),
            lines.end())
      << out;
  EXPECT_NE(out.find(up + "    islabel_repl_heartbeats_total "),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("127.0.0.1:1 DOWN "), std::string::npos) << out;
  primary.Stop();
  primary.Wait();
}

TEST_F(ToolTest, ServeMetricsVerbSingleIndexMode) {
  std::string out;
  const std::string script = "printf '1 2\\n1 2\\nmetrics\\nquit\\n'";
  ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --index " +
                           index_dir_ + " --cache-mb 8 --slow-query-ms 5000",
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_GE(lines.size(), 4u) << out;
  EXPECT_EQ(lines[0], DistStr(1, 2));
  EXPECT_EQ(lines[1], DistStr(1, 2));
  // The Prometheus blob ends with exactly "# EOF" and nothing after.
  EXPECT_EQ(lines.back(), "# EOF") << out;
  EXPECT_NE(out.find("# TYPE islabel_server_requests_total counter"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("islabel_server_requests_total 3"), std::string::npos)
      << out;
  EXPECT_NE(out.find(
                "islabel_server_request_seconds_count{verb=\"distance\"} 2"),
            std::string::npos)
      << out;
  // Single-index mode bridges the engine pool and the cache too.
  EXPECT_NE(out.find("islabel_pool_engines_created_total"), std::string::npos)
      << out;
  EXPECT_NE(out.find("islabel_cache_hits_total"), std::string::npos) << out;
}

TEST_F(ToolTest, ServeMetricsVerbCatalogMode) {
  const Graph dg =
      MakeTestGraph(Family::kDisconnected, 120, /*weighted=*/true, 31);
  const std::string dg_path = dir_ + "/dg.txt";
  ASSERT_TRUE(WriteEdgeListText(dg, dg_path).ok());
  const std::string cat_dir = dir_ + "/cat";
  std::string out;
  ASSERT_EQ(RunCommand(tool_ + " partition-build --graph " + dg_path +
                           " --catalog " + cat_dir,
                       &out),
            0)
      << out;
  const std::string script = "printf '0 1\\nuse beta\\n0 1\\nmetrics\\nquit\\n'";
  ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --dataset alpha=" +
                           cat_dir + " --dataset beta=" + cat_dir +
                           " --cache-mb 4",
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  EXPECT_EQ(lines.back(), "# EOF") << out;
  // Dataset routing shows up as labels in the catalog's registry.
  EXPECT_NE(out.find("islabel_dataset_requests_total{dataset=\"alpha\"} 1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("islabel_dataset_requests_total{dataset=\"beta\"} 1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("islabel_cache_hits_total{dataset=\"alpha\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("islabel_server_requests_total 4"), std::string::npos)
      << out;
}

TEST_F(ToolTest, PartitionBuildChAndAutoBackendsServeUnchangedProtocol) {
  // A road-like grid through `partition-build --backend ch`, then
  // `--backend auto` (which must also pick CH here) — both catalogs are
  // served through the unchanged wire protocol and answer exactly like
  // the library.
  const Graph grid = MakeTestGraph(Family::kGrid, 140, /*weighted=*/true, 37);
  const std::string grid_path = dir_ + "/grid.txt";
  ASSERT_TRUE(WriteEdgeListText(grid, grid_path).ok());

  for (const std::string backend : {"ch", "auto"}) {
    SCOPED_TRACE(backend);
    const std::string cat_dir = dir_ + "/cat_" + backend;
    std::string out;
    ASSERT_EQ(RunCommand(tool_ + " partition-build --graph " + grid_path +
                             " --catalog " + cat_dir + " --backend " +
                             backend,
                         &out),
              0)
        << out;
    // The per-part summary names the chosen backend.
    EXPECT_NE(out.find("backend=ch"), std::string::npos) << out;

    auto loaded = PartitionedIndex::Load(cat_dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_GE(loaded->num_parts(), 1u);
    EXPECT_EQ(loaded->part_backend(0), BackendKind::kCH);
    auto dist = [&](VertexId s, VertexId t) {
      Distance d = 0;
      EXPECT_TRUE(loaded->Query(s, t, &d).ok());
      return d == kInfDistance ? std::string("unreachable")
                               : std::to_string(d);
    };

    const std::string script = "printf '0 1\\n2 9\\npath 0 5\\nquit\\n'";
    ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --dataset g=" +
                             cat_dir,
                         &out),
              0);
    const std::vector<std::string> lines = SplitLines(out);
    ASSERT_EQ(lines.size(), 3u) << out;
    EXPECT_EQ(lines[0], dist(0, 1));
    EXPECT_EQ(lines[1], dist(2, 9));
    EXPECT_EQ(lines[2].rfind(dist(0, 5) + ":", 0), 0u) << lines[2];
  }
}

TEST_F(ToolTest, PartitionBuildRejectsUnknownBackend) {
  std::string out;
  EXPECT_EQ(RunCommand(tool_ + " partition-build --graph " + graph_path_ +
                           " --catalog " + dir_ + "/nope --backend bogus",
                       &out),
            2);
}

TEST_F(ToolTest, ServeSingleIndexRejectsCatalogVerbs) {
  std::string out;
  const std::string script = "printf 'use other\\n1 2\\nquit\\n'";
  ASSERT_EQ(RunCommand(script + " | " + tool_ + " serve --index " +
                           index_dir_,
                       &out),
            0);
  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 2u) << out;
  EXPECT_EQ(lines[0], "error: NotSupported: no catalog (single-dataset server)");
  EXPECT_EQ(lines[1], DistStr(1, 2));
}

TEST_F(ToolTest, BuildAcceptsDimacsGraphs) {
  const std::string gr_path = dir_ + "/g.gr";
  ASSERT_TRUE(WriteDimacsGraph(graph_, gr_path).ok());
  const std::string gr_index = dir_ + "/gr_idx";
  std::string out;
  ASSERT_EQ(RunCommand(tool_ + " build --graph " + gr_path + " --index " +
                           gr_index,
                       &out),
            0)
      << out;
  auto loaded = ISLabelIndex::Load(gr_index);
  ASSERT_TRUE(loaded.ok());
  // The DIMACS round trip indexes the same graph: answers match.
  Distance d = 0;
  ASSERT_TRUE(loaded->Query(1, 2, &d).ok());
  EXPECT_EQ(d, Dist(1, 2));
}

TEST_F(ToolTest, GenStatsRoundTrip) {
  const std::string gen_path = dir_ + "/gen.txt";
  std::string out;
  ASSERT_EQ(RunCommand(tool_ + " gen --type grid --n 100 --out " + gen_path,
                       &out),
            0);
  EXPECT_NE(out.find("wrote"), std::string::npos) << out;
  ASSERT_EQ(RunCommand(tool_ + " stats --graph " + gen_path, &out), 0);
  EXPECT_NE(out.find("vertices:"), std::string::npos) << out;

  // A .gr output writes DIMACS, so the tool round-trips its own file.
  const std::string gr_path = dir_ + "/gen.gr";
  ASSERT_EQ(RunCommand(tool_ + " gen --type grid --n 100 --out " + gr_path,
                       &out),
            0);
  ASSERT_EQ(RunCommand(tool_ + " stats --graph " + gr_path, &out), 0);
  EXPECT_NE(out.find("vertices:"), std::string::npos) << out;
}

}  // namespace
}  // namespace islabel
