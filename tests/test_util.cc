// Unit tests for the utility substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/bit_vector.h"
#include "util/indexed_heap.h"
#include "util/io_stats.h"
#include "util/logging.h"
#include "util/radix_heap.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/varint.h"

namespace islabel {
namespace {

// ---------- Status / Result ----------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(static_cast<bool>(s));
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(Status, CopyingSharesRep) {
  Status a = Status::NotFound("x");
  Status b = a;
  EXPECT_TRUE(b.IsNotFound());
  EXPECT_EQ(a, b);
}

TEST(Status, AllCodesStringify) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "InvalidArgument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotSupported), "NotSupported");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(Status, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return Status::Corruption("bad"); };
  auto outer = [&]() -> Status {
    ISLABEL_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsCorruption());
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(Result, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------- Rng ----------

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i) diff += (a.Next() != b.Next());
  EXPECT_GT(diff, 0);
}

TEST(Rng, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::map<std::uint64_t, int> seen;
  for (int i = 0; i < 3000; ++i) ++seen[rng.Uniform(8)];
  EXPECT_EQ(seen.size(), 8u);  // all buckets hit
  for (const auto& [k, c] : seen) EXPECT_GT(c, 200);  // roughly uniform
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_hit |= (v == -3);
    hi_hit |= (v == 3);
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.25);
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------- BitVector ----------

TEST(BitVector, SetGetClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_FALSE(bv[0]);
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv[0]);
  EXPECT_TRUE(bv[64]);
  EXPECT_TRUE(bv[129]);
  EXPECT_EQ(bv.Count(), 3u);
  bv.Clear(64);
  EXPECT_FALSE(bv[64]);
  EXPECT_EQ(bv.Count(), 2u);
}

TEST(BitVector, InitializedTrueTrimsTail) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.Count(), 70u);
}

TEST(BitVector, FindNextSet) {
  BitVector bv(200);
  bv.Set(3);
  bv.Set(64);
  bv.Set(199);
  EXPECT_EQ(bv.FindNextSet(0), 3u);
  EXPECT_EQ(bv.FindNextSet(4), 64u);
  EXPECT_EQ(bv.FindNextSet(65), 199u);
  EXPECT_EQ(bv.FindNextSet(200), 200u);
  bv.Clear(3);
  EXPECT_EQ(bv.FindNextSet(0), 64u);
}

TEST(BitVector, ResetZeroes) {
  BitVector bv(100, true);
  bv.Reset();
  EXPECT_EQ(bv.Count(), 0u);
  EXPECT_EQ(bv.size(), 100u);
}

// ---------- IndexedHeap ----------

TEST(IndexedHeap, BasicOrdering) {
  IndexedHeap h(10);
  h.Push(3, 30);
  h.Push(1, 10);
  h.Push(2, 20);
  EXPECT_EQ(h.Size(), 3u);
  EXPECT_EQ(h.MinItem(), 1u);
  auto [i1, k1] = h.PopMin();
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(k1, 10u);
  auto [i2, k2] = h.PopMin();
  EXPECT_EQ(i2, 2u);
  auto [i3, k3] = h.PopMin();
  EXPECT_EQ(i3, 3u);
  EXPECT_TRUE(h.Empty());
}

TEST(IndexedHeap, DecreaseKey) {
  IndexedHeap h(5);
  h.Push(0, 100);
  h.Push(1, 50);
  h.DecreaseKey(0, 10);
  EXPECT_EQ(h.MinItem(), 0u);
  EXPECT_EQ(h.KeyOf(0), 10u);
}

TEST(IndexedHeap, PushOrDecrease) {
  IndexedHeap h(5);
  EXPECT_TRUE(h.PushOrDecrease(2, 20));
  EXPECT_FALSE(h.PushOrDecrease(2, 30));  // larger: no change
  EXPECT_TRUE(h.PushOrDecrease(2, 5));
  EXPECT_EQ(h.KeyOf(2), 5u);
}

TEST(IndexedHeap, RandomizedAgainstStdHeap) {
  Rng rng(99);
  IndexedHeap h(1000);
  std::map<std::uint32_t, std::uint64_t> model;  // item -> key
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t item = static_cast<std::uint32_t>(rng.Uniform(1000));
    if (!h.Contains(item)) {
      std::uint64_t key = rng.Uniform(1 << 20);
      h.Push(item, key);
      model[item] = key;
    } else if (rng.Bernoulli(0.5)) {
      std::uint64_t key = h.KeyOf(item) == 0 ? 0 : rng.Uniform(h.KeyOf(item));
      h.DecreaseKey(item, key);
      model[item] = key;
    } else {
      auto [i, k] = h.PopMin();
      // Must be a minimal key in the model.
      std::uint64_t min_key = UINT64_MAX;
      for (const auto& [mi, mk] : model) min_key = std::min(min_key, mk);
      EXPECT_EQ(k, min_key);
      EXPECT_EQ(model[i], k);
      model.erase(i);
    }
    EXPECT_EQ(h.Size(), model.size());
  }
}

// ---------- RadixHeap ----------

TEST(RadixHeap, MonotoneSequence) {
  RadixHeap h;
  h.Push(1, 5);
  h.Push(2, 3);
  h.Push(3, 9);
  auto [i1, k1] = h.PopMin();
  EXPECT_EQ(k1, 3u);
  h.Push(4, 4);  // >= last popped key
  auto [i2, k2] = h.PopMin();
  EXPECT_EQ(k2, 4u);
  auto [i3, k3] = h.PopMin();
  EXPECT_EQ(k3, 5u);
  auto [i4, k4] = h.PopMin();
  EXPECT_EQ(k4, 9u);
  EXPECT_TRUE(h.Empty());
}

TEST(RadixHeap, RandomizedMonotoneAgainstPriorityQueue) {
  Rng rng(5);
  RadixHeap h;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      model;
  std::uint64_t last = 0;
  for (int step = 0; step < 50000; ++step) {
    if (model.empty() || rng.Bernoulli(0.6)) {
      std::uint64_t key = last + rng.Uniform(1000);
      h.Push(0, key);
      model.push(key);
    } else {
      auto [item, key] = h.PopMin();
      EXPECT_EQ(key, model.top());
      model.pop();
      last = key;
    }
  }
}

TEST(RadixHeap, DijkstraEquivalence) {
  // A radix-heap Dijkstra (monotone keys + lazy deletion) must agree with
  // the indexed-binary-heap implementation.
  Rng rng(31);
  // Small random weighted graph, adjacency as vectors.
  const std::uint32_t n = 200;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> adj(n);
  for (int e = 0; e < 600; ++e) {
    std::uint32_t u = static_cast<std::uint32_t>(rng.Uniform(n));
    std::uint32_t v = static_cast<std::uint32_t>(rng.Uniform(n));
    if (u == v) continue;
    std::uint32_t w = 1 + static_cast<std::uint32_t>(rng.Uniform(9));
    adj[u].push_back({v, w});
    adj[v].push_back({u, w});
  }
  auto dijkstra_binary = [&](std::uint32_t s) {
    std::vector<std::uint64_t> dist(n, UINT64_MAX);
    IndexedHeap heap(n);
    dist[s] = 0;
    heap.Push(s, 0);
    while (!heap.Empty()) {
      auto [v, d] = heap.PopMin();
      for (auto [u, w] : adj[v]) {
        if (d + w < dist[u]) {
          dist[u] = d + w;
          heap.PushOrDecrease(u, d + w);
        }
      }
    }
    return dist;
  };
  auto dijkstra_radix = [&](std::uint32_t s) {
    std::vector<std::uint64_t> dist(n, UINT64_MAX);
    RadixHeap heap;
    dist[s] = 0;
    heap.Push(s, 0);
    while (!heap.Empty()) {
      auto [v, d] = heap.PopMin();
      if (d != dist[v]) continue;  // stale entry
      for (auto [u, w] : adj[v]) {
        if (d + w < dist[u]) {
          dist[u] = d + w;
          heap.Push(u, d + w);
        }
      }
    }
    return dist;
  };
  for (std::uint32_t s : {0u, 13u, 77u}) {
    EXPECT_EQ(dijkstra_binary(s), dijkstra_radix(s)) << "source " << s;
  }
}

// ---------- Varint ----------

TEST(Varint, RoundTripValues) {
  const std::uint64_t values[] = {0,       1,        127,        128,
                                  16383,   16384,    UINT32_MAX, 1ULL << 40,
                                  UINT64_MAX - 1, UINT64_MAX};
  std::string buf;
  for (std::uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec(buf);
  for (std::uint64_t v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(dec.GetVarint64(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(dec.Done());
}

TEST(Varint, SignedZigzag) {
  const std::int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  std::string buf;
  for (std::int64_t v : values) PutVarintSigned64(&buf, v);
  Decoder dec(buf);
  for (std::int64_t v : values) {
    std::int64_t got = 0;
    ASSERT_TRUE(dec.GetVarintSigned64(&got));
    EXPECT_EQ(got, v);
  }
}

TEST(Varint, FixedWidthRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  std::uint32_t a;
  std::uint64_t b;
  ASSERT_TRUE(dec.GetFixed32(&a));
  ASSERT_TRUE(dec.GetFixed64(&b));
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
}

TEST(Varint, TruncationDetected) {
  std::string buf;
  PutVarint64(&buf, 1 << 20);
  buf.pop_back();
  Decoder dec(buf);
  std::uint64_t v;
  EXPECT_FALSE(dec.GetVarint64(&v));
}

TEST(Varint, FixedTruncationDetected) {
  std::string buf = "abc";
  Decoder dec(buf);
  std::uint32_t v;
  EXPECT_FALSE(dec.GetFixed32(&v));
}

TEST(Varint, SmallValuesAreCompact) {
  std::string buf;
  PutVarint64(&buf, 100);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  PutVarint64(&buf, 300);
  EXPECT_EQ(buf.size(), 2u);
}

// ---------- IoStats ----------

TEST(IoStats, Accumulates) {
  IoStats a, b;
  a.seeks = 2;
  a.bytes_read = 100;
  b.seeks = 3;
  b.bytes_written = 50;
  a += b;
  EXPECT_EQ(a.seeks, 5u);
  EXPECT_EQ(a.bytes_read, 100u);
  EXPECT_EQ(a.bytes_written, 50u);
}

TEST(IoStats, ModeledHddTime) {
  IoStats s;
  s.seeks = 10;  // 10 * 10ms = 0.1 s
  s.bytes_read = 100 * 1000 * 1000;  // 1 s at 100 MB/s
  EXPECT_NEAR(s.ModeledHddSeconds(), 1.1, 1e-9);
}

// ---------- Timer ----------

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMicros(), 0);
}

// ---------- ISLABEL_DCHECK ----------

TEST(DcheckDeathTest, FailedCheckLogsAndAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "ISLABEL_DCHECK is compiled out under NDEBUG";
#else
  int calls = 0;
  ISLABEL_DCHECK(++calls == 1) << "never printed";
  EXPECT_EQ(calls, 1);
  EXPECT_DEATH(ISLABEL_DCHECK(calls == 2) << "context " << 42,
               "Check failed: calls == 2 context 42");
#endif
}

// An id lookup binary-searches its list, so on a weight-ordered one (G_k's,
// Csr::SortListsByWeight) it must abort rather than answer wrong.
TEST(DcheckDeathTest, IdLookupOnWeightOrderedListAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "ISLABEL_DCHECK is compiled out under NDEBUG";
#else
  EdgeList edges(3);
  edges.Add(0, 1, 5);
  edges.Add(0, 2, 1);
  Graph g = Graph::FromEdgeList(std::move(edges));
  EXPECT_EQ(g.EdgeWeight(0, 1), 5u);
  g.SortListsByWeight();
  ASSERT_EQ(g.Neighbors(0)[0], 2u);
  EXPECT_DEATH((void)g.EdgeWeight(0, 1), "which is not id-ordered");
#endif
}

TEST(Dcheck, ConditionIsNotEvaluatedUnderNdebug) {
  int calls = 0;
  ISLABEL_DCHECK(++calls > 0);
#ifdef NDEBUG
  EXPECT_EQ(calls, 0);
#else
  EXPECT_EQ(calls, 1);
#endif
}

}  // namespace
}  // namespace islabel
