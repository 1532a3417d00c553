// The pluggable backend layer: CHIndex correctness against Dijkstra,
// save/load round-trips, the registry's auto heuristic, mixed-backend
// partitioned catalogs, manifest corruption handling, and concurrent CH
// querying (the TSan leg for CH's leases from the engine pool,
// core/engine_pool.h, which IS-LABEL's engines come from too).
//
// Every distance assertion here is pinned bit-identical to Dijkstra —
// both CH and IS-LABEL are exact methods, so the backends must agree
// with the oracle AND with each other on every pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backends/ch_index.h"
#include "backends/registry.h"
#include "baseline/dijkstra.h"
#include "catalog/partitioned_index.h"
#include "core/distance_index.h"
#include "core/index.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "tests/test_common.h"
#include "util/random.h"

namespace islabel {
namespace {

using testing::AllFamilies;
using testing::AssertValidPath;
using testing::Family;
using testing::FamilyName;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

class BackendsDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "islabel_backends_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// CHIndex exactness
// ---------------------------------------------------------------------------

/// Road-like and scale-free regimes, weighted and unweighted: CH must be
/// exact everywhere, not just on the graphs its heuristic prefers.
TEST(CHIndexTest, MatchesDijkstraAcrossFamilies) {
  for (Family family : AllFamilies()) {
    for (bool weighted : {false, true}) {
      SCOPED_TRACE(std::string(FamilyName(family)) +
                   (weighted ? "/weighted" : "/unweighted"));
      Graph g = MakeTestGraph(family, 150, weighted, 17);
      auto built = CHIndex::Build(g);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      for (const auto& [s, t] : SampleQueryPairs(g, 60, 19)) {
        Distance got = 0;
        ASSERT_TRUE(built->Query(s, t, &got).ok());
        EXPECT_EQ(got, DijkstraP2P(g, s, t)) << "pair (" << s << "," << t
                                             << ")";
      }
    }
  }
}

TEST(CHIndexTest, PathsAreValidAndOptimal) {
  for (Family family : {Family::kGrid, Family::kBarabasiAlbert,
                        Family::kWattsStrogatz, Family::kDisconnected}) {
    SCOPED_TRACE(FamilyName(family));
    Graph g = MakeTestGraph(family, 140, /*weighted=*/true, 23);
    auto built = CHIndex::Build(g);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE(built->has_vias());
    for (const auto& [s, t] : SampleQueryPairs(g, 50, 29)) {
      std::vector<VertexId> path;
      Distance d = 0;
      ASSERT_TRUE(built->ShortestPath(s, t, &path, &d).ok());
      EXPECT_EQ(d, DijkstraP2P(g, s, t));
      AssertValidPath(g, s, t, path, d);
    }
  }
}

TEST(CHIndexTest, RejectsOutOfRangeQueries) {
  Graph g = MakeTestGraph(Family::kGrid, 50, /*weighted=*/true, 3);
  auto built = CHIndex::Build(g);
  ASSERT_TRUE(built.ok());
  Distance d = 0;
  EXPECT_EQ(built->Query(0, g.NumVertices(), &d).code(),
            StatusCode::kOutOfRange);
  std::vector<VertexId> path;
  EXPECT_EQ(built->ShortestPath(g.NumVertices(), 0, &path, &d).code(),
            StatusCode::kOutOfRange);
}

TEST_F(BackendsDirTest, CHSaveLoadRoundTrip) {
  Graph g = MakeTestGraph(Family::kGrid, 130, /*weighted=*/true, 31);
  auto built = CHIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());

  auto loaded = CHIndex::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumVertices(), built->NumVertices());
  EXPECT_EQ(loaded->num_shortcuts(), built->num_shortcuts());
  EXPECT_EQ(loaded->Info().entries, built->Info().entries);
  for (const auto& [s, t] : SampleQueryPairs(g, 80, 37)) {
    Distance fresh = 0, reloaded = 0;
    ASSERT_TRUE(built->Query(s, t, &fresh).ok());
    ASSERT_TRUE(loaded->Query(s, t, &reloaded).ok());
    EXPECT_EQ(fresh, reloaded);
    std::vector<VertexId> path;
    Distance d = 0;
    ASSERT_TRUE(loaded->ShortestPath(s, t, &path, &d).ok());
    AssertValidPath(g, s, t, path, d);
  }
}

TEST_F(BackendsDirTest, CHLoadRejectsTruncatedFile) {
  Graph g = MakeTestGraph(Family::kGrid, 80, /*weighted=*/true, 41);
  auto built = CHIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  const std::string file = dir_ + "/ch.islc";
  const auto full = std::filesystem::file_size(file);
  std::filesystem::resize_file(file, full / 2);
  auto loaded = CHIndex::Load(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// The registry and the auto heuristic
// ---------------------------------------------------------------------------

TEST(RegistryTest, BackendKindNamesRoundTrip) {
  for (BackendKind kind :
       {BackendKind::kISLabel, BackendKind::kCH, BackendKind::kAuto}) {
    BackendKind parsed;
    ASSERT_TRUE(ParseBackendKind(BackendKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  BackendKind parsed;
  EXPECT_FALSE(ParseBackendKind("nosuchb", &parsed));
  EXPECT_FALSE(ParseBackendKind("", &parsed));
}

/// The documented classifier: bounded-degree grids are road-like → CH;
/// hub-dominated stars are skewed → IS-LABEL.
TEST(RegistryTest, AutoPicksCHForGridsAndISLabelForStars) {
  Graph grid = MakeTestGraph(Family::kGrid, 150, /*weighted=*/true, 5);
  Graph star = MakeTestGraph(Family::kStar, 150, /*weighted=*/true, 5);
  EXPECT_TRUE(LooksRoadLike(ComputeStats(grid)));
  EXPECT_FALSE(LooksRoadLike(ComputeStats(star)));
  EXPECT_EQ(ChooseBackendAuto(grid), BackendKind::kCH);
  EXPECT_EQ(ChooseBackendAuto(star), BackendKind::kISLabel);
}

TEST(RegistryTest, BuildBackendIsExactForBothFamilies) {
  Graph g = MakeTestGraph(Family::kWattsStrogatz, 120, /*weighted=*/true, 7);
  for (BackendKind kind : {BackendKind::kISLabel, BackendKind::kCH}) {
    SCOPED_TRACE(BackendKindName(kind));
    auto built = BuildBackend(kind, g);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(built.value()->Info().backend, BackendKindName(kind));
    for (const auto& [s, t] : SampleQueryPairs(g, 60, 11)) {
      Distance got = 0;
      ASSERT_TRUE(built.value()->Query(s, t, &got).ok());
      EXPECT_EQ(got, DijkstraP2P(g, s, t));
    }
  }
}

TEST_F(BackendsDirTest, SniffIdentifiesSavedDirs) {
  Graph g = MakeTestGraph(Family::kGrid, 60, /*weighted=*/true, 13);
  const std::string ch_dir = dir_ + "/ch";
  const std::string isl_dir = dir_ + "/isl";
  auto ch = CHIndex::Build(g);
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(ch->Save(ch_dir).ok());
  auto isl = ISLabelIndex::Build(g);
  ASSERT_TRUE(isl.ok());
  ASSERT_TRUE(isl->Save(isl_dir).ok());

  auto sniff_ch = SniffBackendDir(ch_dir);
  ASSERT_TRUE(sniff_ch.ok());
  EXPECT_EQ(sniff_ch.value(), BackendKind::kCH);
  auto sniff_isl = SniffBackendDir(isl_dir);
  ASSERT_TRUE(sniff_isl.ok());
  EXPECT_EQ(sniff_isl.value(), BackendKind::kISLabel);
  EXPECT_EQ(SniffBackendDir(dir_ + "/nope").status().code(),
            StatusCode::kNotFound);
}

/// A plain CH directory (no partition manifest) must be servable through
/// PartitionedIndex::Load's monolithic fallback, same as IS-LABEL dirs.
TEST_F(BackendsDirTest, MonolithicCHDirLoadsAsCatalog) {
  Graph g = MakeTestGraph(Family::kGrid, 100, /*weighted=*/true, 43);
  auto ch = CHIndex::Build(g);
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(ch->Save(dir_).ok());

  auto loaded = PartitionedIndex::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_parts(), 1u);
  EXPECT_EQ(loaded->part_backend(0), BackendKind::kCH);
  for (const auto& [s, t] : SampleQueryPairs(g, 40, 47)) {
    Distance got = 0;
    ASSERT_TRUE(loaded->Query(s, t, &got).ok());
    EXPECT_EQ(got, DijkstraP2P(g, s, t));
  }
}

/// Loading never writes: a CH directory whose ch.islc is briefly missing
/// fails to load without leaving files behind (an empty meta.islm would
/// make every later load sniff it as IS-LABEL), and loads once it is back.
TEST_F(BackendsDirTest, FailedLoadLeavesDirectoryUntouched) {
  Graph g = MakeTestGraph(Family::kGrid, 60, /*weighted=*/true, 29);
  auto ch = CHIndex::Build(g);
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(ch->Save(dir_).ok());
  const std::string file = dir_ + "/ch.islc";
  const std::string aside = dir_ + "/ch.islc.aside";
  std::filesystem::rename(file, aside);
  auto listing = [&] {
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      names.push_back(e.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> before = listing();

  EXPECT_FALSE(PartitionedIndex::Load(dir_).ok());
  EXPECT_EQ(listing(), before);

  std::filesystem::rename(aside, file);
  auto loaded = PartitionedIndex::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->part_backend(0), BackendKind::kCH);
}

// ---------------------------------------------------------------------------
// Mixed-backend partitioned catalogs
// ---------------------------------------------------------------------------

/// Two components with opposite structure: a grid (bounded degree →
/// road-like → CH under auto) and a star (hub degree n-1 → IS-LABEL).
/// Returns the combined graph; the grid occupies ids [0, grid_n), the
/// star the rest.
Graph MakeMixedGraph(VertexId* grid_n_out) {
  EdgeList grid = GenerateGrid2D(9, 9);
  const VertexId grid_n = grid.num_vertices();
  EdgeList star = GenerateStar(80);
  EdgeList combined = std::move(grid);
  for (const Edge& e : star.edges()) {
    combined.Add(e.u + grid_n, e.v + grid_n, e.w);
  }
  Rng rng(61);
  AssignUniformWeights(&combined, 1, 8, &rng);
  *grid_n_out = grid_n;
  return Graph::FromEdgeList(std::move(combined));
}

TEST_F(BackendsDirTest, AutoBuildsMixedCatalogPinnedToDijkstra) {
  VertexId grid_n = 0;
  Graph g = MakeMixedGraph(&grid_n);
  PartitionOptions opts;
  opts.backend = BackendKind::kAuto;
  auto built = PartitionedIndex::Build(g, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->num_parts(), 2u);

  // Auto must split the families: the grid part on CH, the star part on
  // IS-LABEL (parts are ordered by smallest global id → part 0 is grid).
  EXPECT_EQ(built->part_backend(0), BackendKind::kCH);
  EXPECT_EQ(built->part_backend(1), BackendKind::kISLabel);
  EXPECT_EQ(built->Info().backend, "mixed");
  EXPECT_NE(built->BackendSummary().find("p0=ch/"), std::string::npos)
      << built->BackendSummary();
  EXPECT_NE(built->BackendSummary().find("p1=islabel/"), std::string::npos)
      << built->BackendSummary();

  for (const auto& [s, t] : SampleQueryPairs(g, 120, 67)) {
    Distance got = 0;
    ASSERT_TRUE(built->Query(s, t, &got).ok());
    EXPECT_EQ(got, DijkstraP2P(g, s, t)) << "pair (" << s << "," << t << ")";
    std::vector<VertexId> path;
    Distance d = 0;
    ASSERT_TRUE(built->ShortestPath(s, t, &path, &d).ok());
    AssertValidPath(g, s, t, path, d);
  }

  // Round-trip: backends and answers survive Save/Load.
  ASSERT_TRUE(built->Save(dir_).ok());
  auto loaded = PartitionedIndex::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_parts(), 2u);
  EXPECT_EQ(loaded->part_backend(0), BackendKind::kCH);
  EXPECT_EQ(loaded->part_backend(1), BackendKind::kISLabel);
  for (const auto& [s, t] : SampleQueryPairs(g, 80, 71)) {
    Distance fresh = 0, reloaded = 0;
    ASSERT_TRUE(built->Query(s, t, &fresh).ok());
    ASSERT_TRUE(loaded->Query(s, t, &reloaded).ok());
    EXPECT_EQ(fresh, reloaded);
  }
}

TEST_F(BackendsDirTest, ExplicitCHCatalogIsExact) {
  Graph g = MakeTestGraph(Family::kDisconnected, 240, /*weighted=*/true, 73);
  PartitionOptions opts;
  opts.backend = BackendKind::kCH;
  auto built = PartitionedIndex::Build(g, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (std::uint32_t p = 0; p < built->num_parts(); ++p) {
    EXPECT_EQ(built->part_backend(p), BackendKind::kCH);
  }
  EXPECT_EQ(built->Info().backend, "ch");
  for (const auto& [s, t] : SampleQueryPairs(g, 100, 79)) {
    Distance got = 0;
    ASSERT_TRUE(built->Query(s, t, &got).ok());
    EXPECT_EQ(got, DijkstraP2P(g, s, t));
  }
}

/// The satellite contract: a manifest naming a backend this build does
/// not know must fail with Corruption naming the offender — never be
/// misparsed as an IS-LABEL directory.
TEST_F(BackendsDirTest, UnknownBackendNameYieldsCorruption) {
  Graph g = MakeTestGraph(Family::kGrid, 80, /*weighted=*/true, 83);
  auto built = PartitionedIndex::Build(g, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());

  // Patch the manifest in place: "islabel" → "nosuchb" (same length, so
  // every offset and varint stays valid — only the name is unknown).
  const std::string manifest = dir_ + "/partition.islp";
  std::string blob;
  {
    std::ifstream in(manifest, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t pos = blob.find("islabel");
  ASSERT_NE(pos, std::string::npos);
  blob.replace(pos, 7, "nosuchb");
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  auto loaded = PartitionedIndex::Load(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find("nosuchb"), std::string::npos)
      << loaded.status().ToString();
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan leg)
// ---------------------------------------------------------------------------

/// Many threads hammer one CHIndex through every query entry point while
/// comparing against precomputed expected answers. Under TSan this
/// exercises the engine pool's lease/release protocol.
TEST(CHConcurrencyTest, ParallelQueriesAreExactAndRaceFree) {
  Graph g = MakeTestGraph(Family::kGrid, 140, /*weighted=*/true, 89);
  auto built = CHIndex::Build(g);
  ASSERT_TRUE(built.ok());
  CHIndex index = std::move(built).value();

  const auto pairs = SampleQueryPairs(g, 64, 97);
  std::vector<Distance> expected(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = DijkstraP2P(g, pairs[i].first, pairs[i].second);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t i =
            (static_cast<std::size_t>(w) * 31 + static_cast<std::size_t>(r)) %
            pairs.size();
        const auto [s, t] = pairs[i];
        if (r % 3 == 0) {
          std::vector<VertexId> path;
          Distance d = 0;
          if (!index.ShortestPath(s, t, &path, &d).ok() || d != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          Distance d = 0;
          if (!index.Query(s, t, &d).ok() || d != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Same shape one level up: concurrent queries against a mixed-backend
/// partitioned index (CH and IS-LABEL parts leased simultaneously).
TEST(CHConcurrencyTest, MixedCatalogParallelQueries) {
  VertexId grid_n = 0;
  Graph g = MakeMixedGraph(&grid_n);
  PartitionOptions opts;
  opts.backend = BackendKind::kAuto;
  auto built = PartitionedIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  PartitionedIndex index = std::move(built).value();

  const auto pairs = SampleQueryPairs(g, 48, 101);
  std::vector<Distance> expected(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = DijkstraP2P(g, pairs[i].first, pairs[i].second);
  }

  constexpr int kThreads = 6;
  constexpr int kRounds = 30;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t i =
            (static_cast<std::size_t>(w) * 17 + static_cast<std::size_t>(r)) %
            pairs.size();
        Distance d = 0;
        if (!index.Query(pairs[i].first, pairs[i].second, &d).ok() ||
            d != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace islabel
