// Concurrent serving: N threads hammering one index must produce answers
// byte-identical to the single-threaded engine, in both the in-memory and
// the disk-resident label modes, and the batched APIs (QueryBatch,
// QueryOneToMany) must agree with the plain query loop.
// This suite is the workload of the gating ThreadSanitizer CI job — keep
// the graphs small enough that TSan finishes in seconds.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>
#include <vector>

#include "baseline/dijkstra.h"
#include "core/engine_pool.h"
#include "core/index.h"
#include "tests/test_common.h"
#include "util/parallel.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

constexpr unsigned kThreads = 4;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "islabel_conc_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

/// Single-threaded reference answers through the index's own entry point.
std::vector<Distance> Reference(
    ISLabelIndex* index,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  std::vector<Distance> out(pairs.size(), kInfDistance);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(index->Query(pairs[i].first, pairs[i].second, &out[i]).ok());
  }
  return out;
}

/// Runs every pair on `threads` concurrent threads (disjoint chunks) and
/// checks each answer against `expect`.
void HammerAndCheck(ISLabelIndex* index,
                    const std::vector<std::pair<VertexId, VertexId>>& pairs,
                    const std::vector<Distance>& expect, unsigned threads) {
  std::vector<Distance> got(pairs.size(), kInfDistance);
  ParallelForChunks(pairs.size(), threads,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        EXPECT_TRUE(index
                                        ->Query(pairs[i].first,
                                                pairs[i].second, &got[i])
                                        .ok());
                      }
                    });
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i], expect[i])
        << "pair (" << pairs[i].first << "," << pairs[i].second << ")";
  }
}

TEST_F(ConcurrencyTest, InMemoryQueriesMatchSingleThread) {
  for (Family family : {Family::kBarabasiAlbert, Family::kGrid,
                        Family::kDisconnected}) {
    Graph g = MakeTestGraph(family, 200, /*weighted=*/true, 11);
    auto built = ISLabelIndex::Build(g);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ISLabelIndex index = std::move(built).value();
    const auto pairs = SampleQueryPairs(g, 240, 17);
    const auto expect = Reference(&index, pairs);
    HammerAndCheck(&index, pairs, expect, kThreads);
  }
}

TEST_F(ConcurrencyTest, AllThreadsSamePairsContended) {
  // Every thread runs the SAME pairs, maximizing contention on the pool
  // and on shared label bytes.
  Graph g = MakeTestGraph(Family::kErdosRenyi, 180, /*weighted=*/true, 5);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const auto pairs = SampleQueryPairs(g, 150, 23);
  const auto expect = Reference(&index, pairs);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < kThreads; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        Distance d = kInfDistance;
        EXPECT_TRUE(
            index.Query(pairs[i].first, pairs[i].second, &d).ok());
        EXPECT_EQ(d, expect[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

TEST_F(ConcurrencyTest, DiskResidentQueriesMatchSingleThread) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 220, /*weighted=*/true, 7);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  auto disk = ISLabelIndex::Load(dir_, /*labels_in_memory=*/false);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE(disk->labels_on_disk());

  const auto pairs = SampleQueryPairs(g, 240, 29);
  const auto expect = Reference(&built.value(), pairs);
  // Concurrent preads against one shared LabelStore.
  HammerAndCheck(&disk.value(), pairs, expect, kThreads);
}

TEST_F(ConcurrencyTest, ConcurrentShortestPathsAreValid) {
  Graph g = MakeTestGraph(Family::kWattsStrogatz, 150, /*weighted=*/true, 3);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const auto pairs = SampleQueryPairs(g, 60, 31);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      const std::size_t begin = pairs.size() * w / kThreads;
      const std::size_t end = pairs.size() * (w + 1) / kThreads;
      for (std::size_t i = begin; i < end; ++i) {
        std::vector<VertexId> path;
        Distance d = 0;
        ASSERT_TRUE(
            index.ShortestPath(pairs[i].first, pairs[i].second, &path, &d)
                .ok());
        testing::AssertValidPath(g, pairs[i].first, pairs[i].second, path, d);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

TEST_F(ConcurrencyTest, QueryBatchMatchesLoop) {
  Graph g = MakeTestGraph(Family::kRMat, 256, /*weighted=*/true, 13);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const auto pairs = SampleQueryPairs(g, 300, 37);
  const auto expect = Reference(&index, pairs);
  for (std::uint32_t threads : {1u, 2u, kThreads}) {
    std::vector<Distance> got;
    ASSERT_TRUE(index.QueryBatch(pairs, &got, threads).ok());
    ASSERT_EQ(got, expect) << "threads=" << threads;
  }
}

TEST_F(ConcurrencyTest, QueryBatchReportsPerPairErrors) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 100, /*weighted=*/false, 2);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const VertexId n = index.NumVertices();
  std::vector<std::pair<VertexId, VertexId>> pairs = {
      {0, 1}, {n, 0}, {2, 3}};
  std::vector<Distance> got;
  std::vector<Status> statuses;
  ASSERT_TRUE(index.QueryBatch(pairs, &got, 2, &statuses).ok());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsOutOfRange());
  EXPECT_EQ(got[1], kInfDistance);
  EXPECT_TRUE(statuses[2].ok());
  // Without a statuses vector the first per-pair error is returned, but
  // the healthy pairs still complete.
  std::vector<Distance> got2;
  Status st = index.QueryBatch(pairs, &got2, 2);
  EXPECT_TRUE(st.IsOutOfRange());
  EXPECT_EQ(got2[0], got[0]);
  EXPECT_EQ(got2[2], got[2]);
}

TEST_F(ConcurrencyTest, OneToManyMatchesLoopInMemory) {
  for (Family family : {Family::kBarabasiAlbert, Family::kDisconnected}) {
    Graph g = MakeTestGraph(family, 200, /*weighted=*/true, 19);
    auto built = ISLabelIndex::Build(g);
    ASSERT_TRUE(built.ok());
    ISLabelIndex index = std::move(built).value();
    const VertexId n = index.NumVertices();
    Rng rng(41);
    for (int round = 0; round < 6; ++round) {
      const VertexId s = static_cast<VertexId>(rng.Uniform(n));
      std::vector<VertexId> targets;
      for (int j = 0; j < 40; ++j) {
        targets.push_back(static_cast<VertexId>(rng.Uniform(n)));
      }
      targets.push_back(s);           // self target
      targets.push_back(targets[0]);  // duplicate target
      std::vector<Distance> got;
      ASSERT_TRUE(index.QueryOneToMany(s, targets, &got).ok());
      ASSERT_EQ(got.size(), targets.size());
      for (std::size_t j = 0; j < targets.size(); ++j) {
        Distance expect = kInfDistance;
        ASSERT_TRUE(index.Query(s, targets[j], &expect).ok());
        ASSERT_EQ(got[j], expect)
            << "s=" << s << " t=" << targets[j] << " round=" << round;
      }
    }
  }
}

TEST_F(ConcurrencyTest, OneToManyMatchesLoopOnDisk) {
  Graph g = MakeTestGraph(Family::kGrid, 196, /*weighted=*/true, 23);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  auto disk = ISLabelIndex::Load(dir_, /*labels_in_memory=*/false);
  ASSERT_TRUE(disk.ok());
  const VertexId n = disk->NumVertices();
  Rng rng(43);
  for (int round = 0; round < 4; ++round) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(n));
    std::vector<VertexId> targets;
    for (int j = 0; j < 30; ++j) {
      targets.push_back(static_cast<VertexId>(rng.Uniform(n)));
    }
    std::vector<Distance> got;
    ASSERT_TRUE(disk->QueryOneToMany(s, targets, &got).ok());
    for (std::size_t j = 0; j < targets.size(); ++j) {
      Distance expect = kInfDistance;
      ASSERT_TRUE(built->Query(s, targets[j], &expect).ok());
      ASSERT_EQ(got[j], expect) << "s=" << s << " t=" << targets[j];
    }
  }
}

TEST_F(ConcurrencyTest, PoolRecyclesEnginesSequentially) {
  Graph g = MakeTestGraph(Family::kPath, 60, /*weighted=*/false, 1);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  // Sequential queries lease and return one engine over and over.
  Distance d = 0;
  for (VertexId t = 1; t < 40; ++t) {
    ASSERT_TRUE(index.Query(0, t, &d).ok());
  }
  EXPECT_EQ(index.engine_pool()->EnginesCreated(), 1u);
  // Holding N leases at once forces N distinct engines.
  {
    QueryEnginePool::Lease a = index.engine_pool()->Acquire();
    QueryEnginePool::Lease b = index.engine_pool()->Acquire();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(index.engine_pool()->EnginesCreated(), 2u);
  }
  // Both returned; the next lease recycles.
  QueryEnginePool::Lease c = index.engine_pool()->Acquire();
  EXPECT_EQ(index.engine_pool()->EnginesCreated(), 2u);
}

TEST_F(ConcurrencyTest, PoolOutlivesUpdates) {
  // The index builds its engine pool once. Updates keep it, and a pooled
  // engine absorbs an update at its next query. After the build, an
  // insert and a delete, kThreads threads query the index, and every
  // answer must equal an engine built fresh over the updated index.
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 150, /*weighted=*/true, 23);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  QueryEnginePool* const pool = index.engine_pool();
  std::size_t created = 0;
  auto hammer = [&](const std::vector<std::pair<VertexId, VertexId>>& pairs,
                    std::vector<Distance>* expect) {
    QueryEngine fresh(&index.hierarchy(), LabelProvider(&index.labels()));
    expect->assign(pairs.size(), kInfDistance);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_TRUE(
          fresh.Query(pairs[i].first, pairs[i].second, &(*expect)[i]).ok());
    }
    HammerAndCheck(&index, pairs, *expect, kThreads);
    EXPECT_EQ(index.engine_pool(), pool);
    EXPECT_GE(pool->EnginesCreated(), created);
    EXPECT_LE(pool->EnginesCreated(), kThreads);
    created = pool->EnginesCreated();
  };
  std::vector<Distance> expect;
  hammer(SampleQueryPairs(g, 100, 29), &expect);

  // Insert a vertex with one below-core and one core neighbor; it joins
  // G_k, bridged to the below-core neighbor's core ancestors.
  VertexId below = kInvalidVertex, core = kInvalidVertex;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    (index.InCore(u) ? core : below) = u;
  }
  ASSERT_NE(below, kInvalidVertex);
  ASSERT_NE(core, kInvalidVertex);
  const VertexId v = g.NumVertices();
  ASSERT_TRUE(index.InsertVertex(v, {{below, 3}, {core, 4}}).ok());
  ASSERT_TRUE(index.InCore(v));
  EdgeList el = g.ToEdgeList();
  el.EnsureVertices(v + 1);
  el.Add(v, below, 3);
  el.Add(v, core, 4);
  const Graph updated = Graph::FromEdgeList(std::move(el));
  auto pairs = SampleQueryPairs(updated, 100, 31);
  for (VertexId u = 0; u < v; u += 15) pairs.emplace_back(v, u);
  hammer(pairs, &expect);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(expect[i], DijkstraP2P(updated, pairs[i].first,
                                     pairs[i].second))
        << "pair (" << pairs[i].first << "," << pairs[i].second << ")";
  }

  // Delete a below-core vertex (lazy §8.3: answers between survivors may
  // keep a stale transit, as a fresh engine's do).
  VertexId gone = kInvalidVertex;
  for (VertexId u = 0; u < v && gone == kInvalidVertex; ++u) {
    if (!index.InCore(u) && u != below) gone = u;
  }
  ASSERT_NE(gone, kInvalidVertex);
  ASSERT_TRUE(index.DeleteVertex(gone).ok());
  pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                             [gone](const auto& p) {
                               return p.first == gone || p.second == gone;
                             }),
              pairs.end());
  hammer(pairs, &expect);
}

TEST_F(ConcurrencyTest, ConcurrentOneToManyAcrossThreads) {
  // Several threads each running one-to-many batches on their own leased
  // engine (exercises the warm forward ball under TSan).
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 180, /*weighted=*/true, 61);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const VertexId n = index.NumVertices();
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < n; t += 3) targets.push_back(t);
  std::vector<Distance> expect;
  ASSERT_TRUE(index.QueryOneToMany(7 % n, targets, &expect).ok());
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < kThreads; ++w) {
    pool.emplace_back([&] {
      std::vector<Distance> got;
      ASSERT_TRUE(index.QueryOneToMany(7 % n, targets, &got).ok());
      ASSERT_EQ(got, expect);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace
}  // namespace islabel
