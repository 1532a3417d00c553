// Unit tests for the external-memory substrate: block file, record
// streams, external sorter, label store, graph I/O.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/label_entry.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "storage/block_file.h"
#include "storage/external_sorter.h"
#include "storage/label_store.h"
#include "storage/record_stream.h"
#include "util/random.h"

namespace islabel {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "islabel_storage_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) { return dir_ + "/" + name; }
  std::string dir_;
};

// ---------- BlockFile ----------

TEST_F(StorageTest, BlockFileAppendAndRead) {
  BlockFile f;
  ASSERT_TRUE(f.Open(Path("bf"), true).ok());
  std::uint64_t off1 = 0, off2 = 0;
  ASSERT_TRUE(f.Append("hello", 5, &off1).ok());
  ASSERT_TRUE(f.Append("world", 5, &off2).ok());
  EXPECT_EQ(off1, 0u);
  EXPECT_EQ(off2, 5u);
  EXPECT_EQ(f.FileSize(), 10u);
  char buf[5];
  ASSERT_TRUE(f.ReadAt(5, buf, 5).ok());
  EXPECT_EQ(std::string(buf, 5), "world");
  ASSERT_TRUE(f.ReadAt(0, buf, 5).ok());
  EXPECT_EQ(std::string(buf, 5), "hello");
}

TEST_F(StorageTest, BlockFileReadPastEofFails) {
  BlockFile f;
  ASSERT_TRUE(f.Open(Path("bf"), true).ok());
  ASSERT_TRUE(f.Append("abc", 3, nullptr).ok());
  char buf[8];
  EXPECT_TRUE(f.ReadAt(0, buf, 8).IsOutOfRange());
}

TEST_F(StorageTest, BlockFileCountsSeeksAndSequentialReads) {
  BlockFile f;
  ASSERT_TRUE(f.Open(Path("bf"), true, /*block_size=*/16).ok());
  std::string data(64, 'x');
  ASSERT_TRUE(f.Append(data.data(), data.size(), nullptr).ok());
  f.ResetStats();
  char buf[16];
  ASSERT_TRUE(f.ReadAt(0, buf, 16).ok());   // seek
  ASSERT_TRUE(f.ReadAt(16, buf, 16).ok());  // sequential
  ASSERT_TRUE(f.ReadAt(48, buf, 16).ok());  // seek
  EXPECT_EQ(f.stats().seeks, 2u);
  EXPECT_EQ(f.stats().bytes_read, 48u);
  EXPECT_EQ(f.stats().block_reads, 3u);
}

TEST_F(StorageTest, BlockFileOpenMissingForReadFails) {
  // Opening for reading never creates: a loader leaves a directory as it
  // found it.
  BlockFile f;
  EXPECT_TRUE(f.Open(Path("nonexistent"), false).IsIOError());
  std::string contents;
  EXPECT_TRUE(ReadFile(Path("nonexistent"), &contents).IsIOError());
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(StorageTest, WholeFileRoundTrip) {
  const std::string data("meta\0bytes", 10);
  ASSERT_TRUE(WriteFile(Path("meta"), data).ok());
  std::string back;
  ASSERT_TRUE(ReadFile(Path("meta"), &back).ok());
  EXPECT_EQ(back, data);
  ASSERT_TRUE(WriteFile(Path("meta"), "x").ok());  // truncates
  ASSERT_TRUE(ReadFile(Path("meta"), &back).ok());
  EXPECT_EQ(back, "x");
}

// ---------- RecordWriter / RecordReader ----------

TEST_F(StorageTest, RecordStreamRoundTrip) {
  // Fixed records and a head-plus-payload record, across many blocks.
  BlockFile f;
  ASSERT_TRUE(f.Open(Path("rs"), true).ok());
  RecordWriter w(&f);
  for (std::uint64_t i = 0; i < 20000; ++i) ASSERT_TRUE(w.Add(i).ok());
  const std::vector<std::uint32_t> payload(30000, 7);
  ASSERT_TRUE(w.Add(std::uint64_t{payload.size()}).ok());
  ASSERT_TRUE(
      w.Write(payload.data(), payload.size() * sizeof(std::uint32_t)).ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(f.FileSize(), 20001 * 8 + payload.size() * 4);

  RecordReader r(&f);
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(r.Next(&v));
    ASSERT_EQ(v, i);
  }
  ASSERT_TRUE(r.Next(&v));
  std::vector<std::uint32_t> back(v);
  ASSERT_TRUE(r.Read(back.data(), back.size()).ok());
  EXPECT_EQ(back, payload);
  EXPECT_FALSE(r.Next(&v));
  EXPECT_TRUE(r.status().ok());
  // A payload past the end of the file is an error, not the end.
  std::uint32_t missing = 0;
  EXPECT_TRUE(r.Read(&missing, 1).IsIOError());
}

TEST_F(StorageTest, RecordReaderReportsTruncatedFileAsError) {
  BlockFile f;
  ASSERT_TRUE(f.Open(Path("rs"), true).ok());
  RecordWriter w(&f);
  for (std::uint64_t i = 0; i < 200000; ++i) ASSERT_TRUE(w.Add(i).ok());
  ASSERT_TRUE(w.Flush().ok());
  // Cut the file under an open reader: the first block reads, the second
  // comes up short.
  RecordReader r(&f);
  std::filesystem::resize_file(Path("rs"), kDefaultBlockSize);
  std::uint64_t v = 0, read = 0;
  while (r.Next(&v)) ++read;
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
  EXPECT_EQ(read, kDefaultBlockSize / sizeof(v));
}

TEST_F(StorageTest, RecordReaderReportsPartialRecordAsError) {
  BlockFile f;
  ASSERT_TRUE(f.Open(Path("rs"), true).ok());
  ASSERT_TRUE(f.Append("0123456789", 10, nullptr).ok());
  RecordReader r(&f);
  std::uint64_t v = 0;
  ASSERT_TRUE(r.Next(&v));
  EXPECT_FALSE(r.Next(&v));  // two bytes of a record
  EXPECT_TRUE(r.status().IsIOError());
}

// ---------- ExternalSorter ----------

TEST_F(StorageTest, SorterPureInMemory) {
  ExternalSorter<std::uint64_t> sorter("", 1 << 20);
  Rng rng(1);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.Uniform(1 << 30));
    ASSERT_TRUE(sorter.Add(values.back()).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  std::sort(values.begin(), values.end());
  std::uint64_t v;
  for (std::uint64_t expected : values) {
    ASSERT_TRUE(sorter.Next(&v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_FALSE(sorter.Next(&v));
  EXPECT_EQ(sorter.num_runs(), 0u);
}

TEST_F(StorageTest, SorterSpillsAndMerges) {
  // Budget of 256 bytes => 32 records per run => many runs for 5000 values.
  ExternalSorter<std::uint64_t> sorter(dir_, 256);
  Rng rng(2);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(rng.Uniform(1 << 30));
    ASSERT_TRUE(sorter.Add(values.back()).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_GT(sorter.num_runs(), 10u);
  std::sort(values.begin(), values.end());
  std::uint64_t v;
  for (std::uint64_t expected : values) {
    ASSERT_TRUE(sorter.Next(&v));
    ASSERT_EQ(v, expected);
  }
  EXPECT_FALSE(sorter.Next(&v));
  EXPECT_GT(sorter.stats().bytes_written, 0u);
  EXPECT_GT(sorter.stats().bytes_read, 0u);
}

TEST_F(StorageTest, SorterCustomComparatorAndStruct) {
  struct Rec {
    std::uint32_t key;
    std::uint32_t payload;
  };
  struct ByKeyDesc {
    bool operator()(const Rec& a, const Rec& b) const {
      return a.key > b.key;
    }
  };
  ExternalSorter<Rec, ByKeyDesc> sorter(dir_, 64, ByKeyDesc{});
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(sorter.Add({i, i * 2}).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  Rec r;
  std::uint32_t expected = 499;
  while (sorter.Next(&r)) {
    EXPECT_EQ(r.key, expected);
    EXPECT_EQ(r.payload, expected * 2);
    --expected;
  }
  EXPECT_EQ(expected, UINT32_MAX);  // consumed all 500
}

TEST_F(StorageTest, SorterDuplicatesSurvive) {
  ExternalSorter<std::uint32_t> sorter(dir_, 64);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(sorter.Add(7).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  int count = 0;
  std::uint32_t v;
  while (sorter.Next(&v)) {
    EXPECT_EQ(v, 7u);
    ++count;
  }
  EXPECT_EQ(count, 300);
}

TEST_F(StorageTest, SorterReportsTruncatedRunAsError) {
  // Two spilled runs of 100,000 records; cut each run file to 64 KiB
  // after Finish(). The merge must fail with IOError, not end early.
  ExternalSorter<std::uint64_t> sorter(dir_, 100000 * sizeof(std::uint64_t));
  Rng rng(4);
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(sorter.Add(rng.Next()).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  ASSERT_EQ(sorter.num_runs(), 2u);
  int cut = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::filesystem::resize_file(entry.path(), 64 * 1024);
    ++cut;
  }
  ASSERT_EQ(cut, 2);
  std::uint64_t v = 0, drained = 0;
  while (sorter.Next(&v)) ++drained;
  EXPECT_LT(drained, 200000u);
  EXPECT_TRUE(sorter.status().IsIOError()) << sorter.status().ToString();
}

TEST_F(StorageTest, SorterRemovesItsRuns) {
  {
    ExternalSorter<std::uint64_t> sorter(dir_, 256);
    for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(sorter.Add(i).ok());
    ASSERT_TRUE(sorter.Finish().ok());
    EXPECT_FALSE(std::filesystem::is_empty(dir_));
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(StorageTest, SorterEmptyInput) {
  ExternalSorter<std::uint64_t> sorter(dir_, 1024);
  ASSERT_TRUE(sorter.Finish().ok());
  std::uint64_t v;
  EXPECT_FALSE(sorter.Next(&v));
}

// ---------- LabelStore ----------

std::vector<std::vector<LabelEntry>> MakeLabels(VertexId n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<LabelEntry>> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t len = rng.Uniform(8);  // includes empty labels
    VertexId node = 0;
    for (std::size_t i = 0; i < len; ++i) {
      node += 1 + static_cast<VertexId>(rng.Uniform(50));
      labels[v].emplace_back(node, rng.Uniform(1000),
                             rng.Bernoulli(0.5)
                                 ? kInvalidVertex
                                 : static_cast<VertexId>(rng.Uniform(n)));
    }
  }
  return labels;
}

TEST_F(StorageTest, LabelStoreRoundTripWithVias) {
  const VertexId n = 200;
  auto labels = MakeLabels(n, 77);
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), n, /*store_vias=*/true).ok());
  for (const auto& l : labels) ASSERT_TRUE(writer.Add(l).ok());
  ASSERT_TRUE(writer.Finish().ok());

  LabelStore store;
  ASSERT_TRUE(store.Open(Path("labels")).ok());
  EXPECT_EQ(store.num_vertices(), n);
  EXPECT_TRUE(store.store_vias());
  std::vector<LabelEntry> got;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_TRUE(store.GetLabel(v, &got).ok());
    ASSERT_EQ(got.size(), labels[v].size()) << "vertex " << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], labels[v][i]);
    }
  }
}

TEST_F(StorageTest, LabelStoreRoundTripWithoutVias) {
  const VertexId n = 50;
  auto labels = MakeLabels(n, 13);
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), n, /*store_vias=*/false).ok());
  for (const auto& l : labels) ASSERT_TRUE(writer.Add(l).ok());
  ASSERT_TRUE(writer.Finish().ok());

  LabelStore store;
  ASSERT_TRUE(store.Open(Path("labels")).ok());
  std::vector<LabelEntry> got;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_TRUE(store.GetLabel(v, &got).ok());
    ASSERT_EQ(got.size(), labels[v].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, labels[v][i].node);
      EXPECT_EQ(got[i].dist, labels[v][i].dist);
      EXPECT_EQ(got[i].via, kInvalidVertex);  // vias stripped
    }
  }
}

TEST_F(StorageTest, LabelStoreLoadAllMatchesGetLabel) {
  const VertexId n = 120;
  auto labels = MakeLabels(n, 99);
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), n, true).ok());
  for (const auto& l : labels) ASSERT_TRUE(writer.Add(l).ok());
  ASSERT_TRUE(writer.Finish().ok());

  LabelStore store;
  ASSERT_TRUE(store.Open(Path("labels")).ok());
  LabelArena all;
  ASSERT_TRUE(store.LoadAll(&all).ok());
  ASSERT_EQ(all.size(), n);
  std::vector<LabelEntry> got;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_TRUE(store.GetLabel(v, &got).ok());
    EXPECT_EQ(all.View(v).ToVector(), got);
    EXPECT_EQ(got, labels[v]);
  }
}

TEST_F(StorageTest, LabelStoreOneReadPerLabel) {
  const VertexId n = 64;
  auto labels = MakeLabels(n, 3);
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), n, true).ok());
  for (const auto& l : labels) ASSERT_TRUE(writer.Add(l).ok());
  ASSERT_TRUE(writer.Finish().ok());

  LabelStore store;
  ASSERT_TRUE(store.Open(Path("labels")).ok());
  std::vector<LabelEntry> got;
  ASSERT_TRUE(store.GetLabel(10, &got).ok());
  ASSERT_TRUE(store.GetLabel(53, &got).ok());
  // Two positioned reads for non-empty labels; empty labels cost zero.
  EXPECT_LE(store.stats().seeks, 2u);
  EXPECT_LE(store.stats().block_reads, 2u);
}

TEST_F(StorageTest, LabelStoreRejectsUnsortedLabel) {
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), 1, false).ok());
  std::vector<LabelEntry> bad = {LabelEntry(5, 1), LabelEntry(3, 1)};
  EXPECT_TRUE(writer.Add(bad).IsInvalidArgument());
}

TEST_F(StorageTest, LabelStoreFinishRequiresAllLabels) {
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), 3, false).ok());
  const std::vector<LabelEntry> one = {LabelEntry(1, 1)};
  ASSERT_TRUE(writer.Add(one).ok());
  EXPECT_TRUE(writer.Finish().IsFailedPrecondition());
}

TEST_F(StorageTest, LabelStoreDetectsCorruption) {
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), 2, false).ok());
  const std::vector<LabelEntry> one = {LabelEntry(1, 1)};
  ASSERT_TRUE(writer.Add(one).ok());
  ASSERT_TRUE(writer.Add(LabelView()).ok());
  ASSERT_TRUE(writer.Finish().ok());
  // Truncate the file: footer magic lost.
  std::filesystem::resize_file(Path("labels"),
                               std::filesystem::file_size(Path("labels")) - 3);
  LabelStore store;
  EXPECT_FALSE(store.Open(Path("labels")).ok());
}

TEST_F(StorageTest, LabelStoreOutOfRangeVertex) {
  LabelStoreWriter writer;
  ASSERT_TRUE(writer.Open(Path("labels"), 1, false).ok());
  ASSERT_TRUE(writer.Add({}).ok());
  ASSERT_TRUE(writer.Finish().ok());
  LabelStore store;
  ASSERT_TRUE(store.Open(Path("labels")).ok());
  std::vector<LabelEntry> got;
  EXPECT_TRUE(store.GetLabel(5, &got).IsOutOfRange());
}

// ---------- Graph I/O ----------

TEST_F(StorageTest, GraphTextRoundTrip) {
  Rng rng(8);
  EdgeList el = GenerateErdosRenyi(80, 200, &rng);
  AssignUniformWeights(&el, 1, 5, &rng);
  Graph g = Graph::FromEdgeList(el);
  ASSERT_TRUE(WriteEdgeListText(g, Path("g.txt")).ok());
  auto back = ReadEdgeListText(Path("g.txt"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Graph g2 = Graph::FromEdgeList(std::move(back).value());
  ASSERT_EQ(g2.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto a = g.Neighbors(v), b = g2.Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
      EXPECT_EQ(g.NeighborWeights(v)[i], g2.NeighborWeights(v)[i]);
    }
  }
}

TEST_F(StorageTest, GraphTextHandlesCommentsAndImplicitWeight) {
  {
    std::FILE* f = std::fopen(Path("g.txt").c_str(), "w");
    std::fputs("# comment\n% another\n0 1\n1 2 5\n\n", f);
    std::fclose(f);
  }
  auto el = ReadEdgeListText(Path("g.txt"));
  ASSERT_TRUE(el.ok());
  Graph g = Graph::FromEdgeList(std::move(el).value());
  EXPECT_EQ(g.EdgeWeight(0, 1), 1u);
  EXPECT_EQ(g.EdgeWeight(1, 2), 5u);
}

TEST_F(StorageTest, GraphTextRejectsMalformed) {
  {
    std::FILE* f = std::fopen(Path("g.txt").c_str(), "w");
    std::fputs("0 zebra\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadEdgeListText(Path("g.txt")).ok());
}

TEST_F(StorageTest, GraphTextErrorsNameTheLine) {
  {
    std::FILE* f = std::fopen(Path("g.txt").c_str(), "w");
    std::fputs("# header\n0 1 4\nbroken line\n", f);
    std::fclose(f);
  }
  auto el = ReadEdgeListText(Path("g.txt"));
  ASSERT_FALSE(el.ok());
  EXPECT_NE(el.status().message().find("line 3"), std::string::npos)
      << el.status().ToString();
}

TEST_F(StorageTest, GraphTextAcceptsCrLf) {
  {
    std::FILE* f = std::fopen(Path("g.txt").c_str(), "wb");
    std::fputs("# comment\r\n\r\n0 1 4\r\n1 2\r\n", f);
    std::fclose(f);
  }
  auto el = ReadEdgeListText(Path("g.txt"));
  ASSERT_TRUE(el.ok()) << el.status().ToString();
  Graph g = Graph::FromEdgeList(std::move(el).value());
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.EdgeWeight(0, 1), 4u);
  EXPECT_EQ(g.EdgeWeight(1, 2), 1u);  // implicit weight survives the \r
}

// ---------- DIMACS (.gr / .co) ----------

TEST_F(StorageTest, DimacsGraphRoundTrip) {
  Rng rng(13);
  EdgeList el = GenerateErdosRenyi(60, 150, &rng);
  AssignUniformWeights(&el, 1, 9, &rng);
  Graph g = Graph::FromEdgeList(el);
  ASSERT_TRUE(WriteDimacsGraph(g, Path("g.gr")).ok());
  auto back = ReadDimacsGraph(Path("g.gr"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // The writer emits both arc orientations; normalization merges them
  // back into exactly the original undirected edge set.
  Graph g2 = Graph::FromEdgeList(std::move(back).value());
  ASSERT_EQ(g2.NumVertices(), g.NumVertices());
  ASSERT_EQ(g2.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto a = g.Neighbors(v), b = g2.Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
      EXPECT_EQ(g.NeighborWeights(v)[i], g2.NeighborWeights(v)[i]);
    }
  }
}

TEST_F(StorageTest, DimacsGraphParsesHandWrittenFile) {
  {
    std::FILE* f = std::fopen(Path("g.gr").c_str(), "w");
    const std::string long_comment = "c " + std::string(500, 'x') + "\n";
    std::fputs(long_comment.c_str(), f);  // longer than the parse buffer
    std::fputs(
        "c DIMACS shortest-path example\n"
        "c ids are 1-based\n"
        "p sp 4 4\n"
        "a 1 2 7\n"
        "a 2 1 7\n"
        "a 3 4 2\n"
        "\n"
        "a 4 3 2\n",
        f);
    std::fclose(f);
  }
  auto el = ReadDimacsGraph(Path("g.gr"));
  ASSERT_TRUE(el.ok()) << el.status().ToString();
  Graph g = Graph::FromEdgeList(std::move(el).value());
  EXPECT_EQ(g.NumVertices(), 4u);  // header pins N even with gaps
  EXPECT_EQ(g.NumEdges(), 2u);     // reverse arcs merged
  EXPECT_EQ(g.EdgeWeight(0, 1), 7u);
  EXPECT_EQ(g.EdgeWeight(2, 3), 2u);
}

TEST_F(StorageTest, DimacsGraphRejectsMalformed) {
  struct Case {
    const char* content;
    const char* needle;  // expected in the error message
  };
  const Case cases[] = {
      {"a 1 2 3\n", "before 'p sp' header"},
      {"p sp x y\n", "line 1"},
      {"p sp 4 1\na 1 5 2\n", "out of [1, N]"},
      {"p sp 4 1\na 0 2 2\n", "out of [1, N]"},
      {"p sp 4 1\na 1 2 0\n", "weight out of range"},
      {"p sp 4 2\na 1 2 3\n", "promises 2 arcs"},
      {"p sp 4 1\np sp 4 1\n", "duplicate 'p' header"},
      {"q nonsense\n", "unrecognized DIMACS line 1"},
  };
  for (const Case& c : cases) {
    std::FILE* f = std::fopen(Path("g.gr").c_str(), "w");
    std::fputs(c.content, f);
    std::fclose(f);
    auto el = ReadDimacsGraph(Path("g.gr"));
    ASSERT_FALSE(el.ok()) << c.content;
    EXPECT_NE(el.status().message().find(c.needle), std::string::npos)
        << c.content << " -> " << el.status().ToString();
  }
}

TEST_F(StorageTest, GraphBinaryRoundTripWithVias) {
  EdgeList el(6);
  el.Add(0, 1, 3, 5);
  el.Add(1, 2, 1);
  el.Add(2, 4, 7, 3);
  Graph g = Graph::FromEdgeList(el, /*keep_vias=*/true);
  ASSERT_TRUE(WriteGraphBinary(g, Path("g.bin")).ok());
  auto back = ReadGraphBinary(Path("g.bin"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Graph& g2 = *back;
  ASSERT_TRUE(g2.has_vias());
  ASSERT_EQ(g2.NumEdges(), 3u);
  EXPECT_EQ(g2.NeighborVias(0)[0], 5u);
  EXPECT_EQ(g2.EdgeWeight(2, 4), 7u);
}

TEST_F(StorageTest, GraphBinaryDetectsBadMagic) {
  {
    std::FILE* f = std::fopen(Path("g.bin").c_str(), "wb");
    std::fputs("garbage file content", f);
    std::fclose(f);
  }
  auto back = ReadGraphBinary(Path("g.bin"));
  EXPECT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST_F(StorageTest, GraphBinaryLargeRoundTrip) {
  Rng rng(21);
  EdgeList el = GenerateBarabasiAlbert(3000, 4, &rng);
  AssignUniformWeights(&el, 1, 100, &rng);
  Graph g = Graph::FromEdgeList(el);
  ASSERT_TRUE(WriteGraphBinary(g, Path("g.bin")).ok());
  auto back = ReadGraphBinary(Path("g.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumVertices(), g.NumVertices());
  EXPECT_EQ(back->NumEdges(), g.NumEdges());
  EXPECT_EQ(back->MemoryBytes(), g.MemoryBytes());
}

}  // namespace
}  // namespace islabel
