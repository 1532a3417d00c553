// Heap allocations on the serving hot path (DESIGN.md §7.2, §11.1).
//
// This binary replaces the global operator new and delete with versions
// that count the calling thread's allocations, so a test can assert that
// a scope allocates nothing:
//   * a warm cache hit, from the request line through ParseRequest and
//     RequestDispatcher::Execute with a metrics registry installed, over
//     an ISLabelIndex with a QueryCache and over a Catalog dataset with
//     one;
//   * a warm QueryEngine::Query, labels in memory and on disk, re-serving
//     pairs it has already served: an engine's buffers grow to fit the
//     largest query it has served, then stop.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "core/index.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "tests/test_common.h"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  ++t_allocations;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every form is replaced, so that under ASan, whose runtime defines the
// forms a program leaves out, each block is allocated and freed by the
// same pair (malloc and free): std::stable_sort takes its buffer from the
// nothrow form and returns it through the plain delete.
void* operator new(std::size_t n) {
  return CountedAlloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t align) {
  return CountedAlloc(n, static_cast<std::size_t>(align));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(n, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace islabel {
namespace {

using server::ParseRequest;
using server::QueryCache;
using server::Request;
using server::RequestDispatcher;
using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

/// Allocations made by this thread since construction.
class AllocationCount {
 public:
  AllocationCount() : start_(t_allocations) {}
  std::uint64_t Get() const { return t_allocations - start_; }

 private:
  std::uint64_t start_;
};

TEST(AllocCounter, CountsThisThreadsAllocations) {
  const AllocationCount count;
  void* plain = ::operator new(24);
  void* aligned = ::operator new(64, std::align_val_t{64});
  ::operator delete(aligned, std::align_val_t{64});
  ::operator delete(plain);
  EXPECT_EQ(count.Get(), 2u);
}

/// The request lines of `pairs`, built before any counted scope.
std::vector<std::string> DistanceLines(
    const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  std::vector<std::string> lines;
  for (const auto& [s, t] : pairs) {
    lines.push_back(std::to_string(s) + " " + std::to_string(t));
  }
  return lines;
}

/// Serves `lines` the way a TcpServer worker does (a timed parse, then
/// Execute) and returns the allocations of the second pass, in which
/// every line is a cache hit.
std::uint64_t WarmHitAllocations(RequestDispatcher* dispatcher,
                                 const std::vector<std::string>& lines) {
  RequestDispatcher::Session session;
  std::uint64_t allocations = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& line : lines) {
      const AllocationCount count;
      const std::uint64_t t0 = dispatcher->clock()->NowMicros();
      Request req = ParseRequest(line);
      req.parse_us =
          static_cast<std::uint32_t>(dispatcher->clock()->NowMicros() - t0);
      const std::string response = dispatcher->Execute(req, &session);
      if (pass == 1) allocations += count.Get();
      EXPECT_EQ(response.rfind("error", 0), std::string::npos) << response;
    }
  }
  return allocations;
}

TEST(AllocHotPath, WarmCacheHitOnAnIndexAllocatesNothing) {
  const Graph g =
      MakeTestGraph(Family::kBarabasiAlbert, 2000, /*weighted=*/true, 3);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  auto cache = std::make_shared<QueryCache>();
  index.set_distance_cache(cache);
  obs::MetricRegistry registry;
  RequestDispatcher dispatcher(&index);
  RequestDispatcher::MetricsOptions mo;
  mo.registry = &registry;
  dispatcher.InstallMetrics(mo);
  ASSERT_TRUE(dispatcher.tracing_enabled());

  const auto lines = DistanceLines(SampleQueryPairs(g, 200, 5));
  const std::uint64_t hits = cache->GetStats().hits;
  EXPECT_EQ(WarmHitAllocations(&dispatcher, lines), 0u);
  EXPECT_GE(cache->GetStats().hits, hits + lines.size());
}

TEST(AllocHotPath, WarmCacheHitOnACatalogDatasetAllocatesNothing) {
  const Graph g =
      MakeTestGraph(Family::kDisconnected, 2000, /*weighted=*/true, 4);
  auto built = PartitionedIndex::Build(g);
  ASSERT_TRUE(built.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddIndex("d", std::move(built).value()).ok());
  auto cache = std::make_shared<QueryCache>();
  ASSERT_TRUE(catalog.SetDistanceCache("d", cache).ok());
  RequestDispatcher dispatcher(&catalog, "d");
  RequestDispatcher::MetricsOptions mo;
  mo.registry = catalog.metrics();
  dispatcher.InstallMetrics(mo);
  ASSERT_TRUE(dispatcher.tracing_enabled());

  const auto lines = DistanceLines(SampleQueryPairs(g, 200, 6));
  const std::uint64_t hits = cache->GetStats().hits;
  EXPECT_EQ(WarmHitAllocations(&dispatcher, lines), 0u);
  EXPECT_GE(cache->GetStats().hits, hits + lines.size());
}

TEST(AllocHotPath, ParseAllocatesOnlyWhatTheRequestHolds) {
  // Lines of 8 tokens or fewer tokenize on the stack: a request with no
  // string or list to fill allocates nothing, and an 8-token `one`
  // allocates its target list once.
  for (const char* line :
       {"17 4242", "17 4242 tid=a3", "path 3 9 tid=a3", "quit", "metrics",
        "tracez slow 5 tid=a3", "tracez id ff", "version tid=a3",
        "replicate g1 7", "use d", "# comment", "  \t "}) {
    const AllocationCount count;
    const Request r = ParseRequest(line);
    EXPECT_EQ(count.Get(), 0u) << line;
  }
  const AllocationCount count;
  const Request r = ParseRequest("one 7 1 2 3 4 5 tid=a3");
  EXPECT_EQ(count.Get(), 1u);
  EXPECT_EQ(r.targets.size(), 5u);
}

/// Serves `pairs` twice through `engine`; returns the allocations of the
/// second pass.
std::uint64_t SecondPassAllocations(
    QueryEngine* engine,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  std::uint64_t allocations = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [s, t] : pairs) {
      Distance d = 0;
      const AllocationCount count;
      const Status st = engine->Query(s, t, &d);
      if (pass == 1) allocations += count.Get();
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
  return allocations;
}

TEST(AllocHotPath, WarmEngineAllocatesNothingOnServedPairs) {
  const Graph g =
      MakeTestGraph(Family::kCliqueCommunity, 3000, /*weighted=*/true, 7);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  const auto pairs = SampleQueryPairs(g, 300, 8);

  QueryEngine in_memory(&built->hierarchy(), LabelProvider(&built->labels()));
  EXPECT_EQ(SecondPassAllocations(&in_memory, pairs), 0u);

  const std::string dir =
      ::testing::TempDir() + "islabel_alloc_" + std::to_string(::getpid());
  ASSERT_TRUE(built->Save(dir).ok());
  auto loaded = ISLabelIndex::Load(dir, /*labels_in_memory=*/false);
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->label_store(), nullptr);
  QueryEngine on_disk(&loaded->hierarchy(),
                      LabelProvider(loaded->label_store()));
  EXPECT_EQ(SecondPassAllocations(&on_disk, pairs), 0u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace islabel
