// Tests for the network serving subsystem: the wire protocol parser and
// formatters, the sharded LRU query cache (including generation-based
// invalidation across the §8.3 update paths), the cache hook inside
// ISLabelIndex::Query, and a loopback integration test that drives the
// epoll TCP server with concurrent, pipelined, and partially-written
// requests. The whole file runs under the TSan preset in CI.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backends/ch_index.h"
#include "baseline/dijkstra.h"
#include "core/index.h"
#include "loopback_client.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs_test_util.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "server/tcp_server.h"
#include "tests/test_common.h"
#include "util/clock.h"

namespace islabel {
namespace {

using server::ParseRequest;
using server::QueryCache;
using server::QueryCacheOptions;
using server::QueryCacheStats;
using server::Request;
using server::RequestKind;
using server::TcpServer;
using server::TcpServerOptions;
using testing::Family;
using testing::LoopbackClient;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

// ---------------------------------------------------------------------------
// Protocol parsing
// ---------------------------------------------------------------------------

TEST(Protocol, ParsesDistanceRequest) {
  Request r = ParseRequest("17 4242");
  ASSERT_EQ(r.kind, RequestKind::kDistance);
  EXPECT_EQ(r.s, 17u);
  EXPECT_EQ(r.t, 4242u);
  // Extra whitespace (spaces/tabs) is insignificant.
  r = ParseRequest("  17 \t 4242  ");
  ASSERT_EQ(r.kind, RequestKind::kDistance);
  EXPECT_EQ(r.s, 17u);
  EXPECT_EQ(r.t, 4242u);
}

TEST(Protocol, RejectsTrailingGarbageOnDistance) {
  // The PR-3 stdin loop silently ignored the tail of "1 2 junk"; the
  // shared parser pins the strict behavior.
  Request r = ParseRequest("1 2 junk");
  ASSERT_EQ(r.kind, RequestKind::kInvalid);
  EXPECT_EQ(r.error, "error: usage: S T");
  EXPECT_EQ(ParseRequest("1 2 3").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("1").kind, RequestKind::kInvalid);
}

TEST(Protocol, RejectsNonNumericIds) {
  EXPECT_EQ(ParseRequest("1 two").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("1 2x").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("-1 2").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("1.5 2").kind, RequestKind::kInvalid);
  // Larger than uint32: not a valid vertex id.
  EXPECT_EQ(ParseRequest("4294967296 1").kind, RequestKind::kInvalid);
  // Unknown verbs report the full line.
  Request r = ParseRequest("frobnicate 1 2");
  ASSERT_EQ(r.kind, RequestKind::kInvalid);
  EXPECT_EQ(r.error, "error: unrecognized request: frobnicate 1 2");
}

TEST(Protocol, ParsesOneToMany) {
  Request r = ParseRequest("one 7 1 2 3");
  ASSERT_EQ(r.kind, RequestKind::kOneToMany);
  EXPECT_EQ(r.s, 7u);
  EXPECT_EQ(r.targets, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(ParseRequest("one 7").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("one 7 x").kind, RequestKind::kInvalid);
}

TEST(Protocol, ParsesPathStatsQuit) {
  Request r = ParseRequest("path 3 9");
  ASSERT_EQ(r.kind, RequestKind::kPath);
  EXPECT_EQ(r.s, 3u);
  EXPECT_EQ(r.t, 9u);
  EXPECT_EQ(ParseRequest("path 3").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("path 3 9 2").kind, RequestKind::kInvalid);
  // `stats` is retired: `metrics` is the one counter exposition.
  const Request stats = ParseRequest("stats");
  EXPECT_EQ(stats.kind, RequestKind::kInvalid);
  EXPECT_EQ(stats.error, "error: unrecognized request: stats");
  EXPECT_EQ(ParseRequest("quit").kind, RequestKind::kQuit);
  EXPECT_EQ(ParseRequest("exit").kind, RequestKind::kQuit);
  EXPECT_EQ(ParseRequest("quit now").kind, RequestKind::kInvalid);
}

TEST(Protocol, SkipsBlankAndComments) {
  EXPECT_EQ(ParseRequest("").kind, RequestKind::kNone);
  EXPECT_EQ(ParseRequest("   \t ").kind, RequestKind::kNone);
  EXPECT_EQ(ParseRequest("# a comment").kind, RequestKind::kNone);
  // CRLF clients work.
  EXPECT_EQ(ParseRequest("1 2\r").kind, RequestKind::kDistance);
  EXPECT_EQ(ParseRequest("\r").kind, RequestKind::kNone);
}

TEST(Protocol, FormatsResponses) {
  EXPECT_EQ(server::FormatDistance(42), "42");
  EXPECT_EQ(server::FormatDistance(kInfDistance), "unreachable");
  EXPECT_EQ(server::FormatDistances({1, kInfDistance, 3}),
            "1 unreachable 3");
  EXPECT_EQ(server::FormatPath(5, {1, 2, 3}), "5: 1 2 3");
  EXPECT_EQ(server::FormatPath(kInfDistance, {}), "unreachable");
  EXPECT_EQ(server::FormatError(Status::NotFound("gone")),
            "error: NotFound: gone");
}

// ---------------------------------------------------------------------------
// QueryCache
// ---------------------------------------------------------------------------

TEST(QueryCache, HitAfterMiss) {
  QueryCache cache;
  Distance d = 0;
  EXPECT_FALSE(cache.Lookup(1, 2, &d));
  cache.Insert(1, 2, 77);
  ASSERT_TRUE(cache.Lookup(1, 2, &d));
  EXPECT_EQ(d, 77u);
  const QueryCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryCache, CanonicalizesUndirectedPairs) {
  QueryCache cache;
  cache.Insert(9, 4, 13);
  Distance d = 0;
  ASSERT_TRUE(cache.Lookup(4, 9, &d));  // (t, s) shares the entry
  EXPECT_EQ(d, 13u);
  EXPECT_EQ(cache.GetStats().entries, 1u);
  cache.Insert(4, 9, 13);  // reinsert under the swapped order: no growth
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(QueryCache, GenerationInvalidates) {
  QueryCache cache;
  cache.Insert(1, 2, 5);
  cache.BumpGeneration();
  Distance d = 0;
  EXPECT_FALSE(cache.Lookup(1, 2, &d)) << "stale entry must never be served";
  EXPECT_EQ(cache.GetStats().entries, 0u) << "stale entry erased lazily";
  cache.Insert(1, 2, 9);
  ASSERT_TRUE(cache.Lookup(1, 2, &d));
  EXPECT_EQ(d, 9u);
}

TEST(QueryCache, EvictsLeastRecentlyUsedAtCapacity) {
  QueryCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 2 * QueryCache::kBytesPerEntry;  // 2 entries
  QueryCache cache(opts);
  ASSERT_EQ(cache.capacity_entries(), 2u);
  cache.Insert(1, 10, 100);
  cache.Insert(2, 10, 200);
  Distance d = 0;
  ASSERT_TRUE(cache.Lookup(1, 10, &d));  // touch: 1 becomes MRU
  cache.Insert(3, 10, 300);              // evicts 2 (LRU), not 1
  EXPECT_TRUE(cache.Lookup(1, 10, &d));
  EXPECT_FALSE(cache.Lookup(2, 10, &d));
  EXPECT_TRUE(cache.Lookup(3, 10, &d));
  const QueryCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(QueryCache, BoundedUnderChurn) {
  QueryCacheOptions opts;
  opts.num_shards = 4;
  opts.capacity_bytes = 64 * QueryCache::kBytesPerEntry;
  QueryCache cache(opts);
  for (VertexId i = 0; i < 10000; ++i) cache.Insert(i, i + 1, i);
  EXPECT_LE(cache.GetStats().entries, cache.capacity_entries());
}

// ---------------------------------------------------------------------------
// The cache hook in ISLabelIndex::Query
// ---------------------------------------------------------------------------

TEST(IndexCache, CachedAnswersMatchUncached) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 300, /*weighted=*/true, 7);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const auto pairs = SampleQueryPairs(g, 200, 11);

  // Uncached ground truth first.
  std::vector<Distance> expect(pairs.size(), 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(
        index.Query(pairs[i].first, pairs[i].second, &expect[i]).ok());
  }

  auto cache = std::make_shared<QueryCache>();
  index.set_distance_cache(cache);
  // Pass 1 fills the cache; pass 2 must hit it; pass 3 queries the
  // reversed pairs, which share canonical entries. Every answer must be
  // bit-identical to the uncached one.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const VertexId s = pass == 2 ? pairs[i].second : pairs[i].first;
      const VertexId t = pass == 2 ? pairs[i].first : pairs[i].second;
      Distance d = 0;
      ASSERT_TRUE(index.Query(s, t, &d).ok());
      ASSERT_EQ(d, expect[i]) << "pair " << i << " pass " << pass;
    }
  }
  const QueryCacheStats stats = cache->GetStats();
  EXPECT_GT(stats.hits, 0u);
  // Passes 2 and 3 are all hits (pass 1 missed at most once per pair).
  EXPECT_GE(stats.hits, 2 * pairs.size());
}

TEST(IndexCache, StatsQueriesBypassTheCache) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 100, /*weighted=*/true, 3);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  auto cache = std::make_shared<QueryCache>();
  index.set_distance_cache(cache);
  Distance d = 0;
  ASSERT_TRUE(index.Query(1, 2, &d).ok());  // fills the cache
  QueryStats qstats;
  ASSERT_TRUE(index.Query(1, 2, &d, &qstats).ok());
  // An instrumented query must have run the real engine.
  EXPECT_EQ(cache->GetStats().hits, 0u);
}

TEST(IndexCache, InsertVertexInvalidates) {
  // A weighted path: inserting a new vertex adjacent to both endpoints
  // creates a shortcut, so the cached end-to-end distance must change.
  Graph g = MakeTestGraph(Family::kPath, 12, /*weighted=*/true, 4);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const VertexId s = 0, t = g.NumVertices() - 1;

  auto cache = std::make_shared<QueryCache>();
  index.set_distance_cache(cache);
  Distance before = 0;
  ASSERT_TRUE(index.Query(s, t, &before).ok());
  ASSERT_TRUE(index.Query(s, t, &before).ok());  // now cached
  ASSERT_GT(before, 2u);

  const VertexId v = g.NumVertices();
  ASSERT_TRUE(index.InsertVertex(v, {{s, 1}, {t, 1}}).ok());

  Distance after = 0;
  ASSERT_TRUE(index.Query(s, t, &after).ok());
  EXPECT_EQ(after, 2u) << "stale cached distance served across InsertVertex";
  // And the new answer is itself cached and stable.
  Distance again = 0;
  ASSERT_TRUE(index.Query(s, t, &again).ok());
  EXPECT_EQ(again, after);
}

TEST(IndexCache, DeleteVertexInvalidatesAndPinsStaleTransit) {
  // The §8.3 pinned scenario from test_updates.cc, now with the cache in
  // front: after DeleteVertex the generation bump forces a recompute, and
  // the recomputed answer must equal what the engine answers uncached —
  // the documented stale-transit distance, NOT a cache artifact.
  Graph g = MakeTestGraph(Family::kPath, 12, /*weighted=*/true, 4);
  IndexOptions opts;
  opts.forced_k = 2;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  VertexId v = kInvalidVertex;
  for (VertexId u = 1; u + 1 < g.NumVertices(); ++u) {
    if (!index.InCore(u)) {
      v = u;
      break;
    }
  }
  ASSERT_NE(v, kInvalidVertex);
  const VertexId a = v - 1, b = v + 1;
  const Distance transit = g.EdgeWeight(a, v) + g.EdgeWeight(v, b);

  auto cache = std::make_shared<QueryCache>();
  index.set_distance_cache(cache);
  Distance pre = 0;
  ASSERT_TRUE(index.Query(a, b, &pre).ok());
  ASSERT_EQ(pre, transit);
  Distance via = 0;
  ASSERT_TRUE(index.Query(a, v, &via).ok());  // cache the deleted endpoint

  ASSERT_TRUE(index.DeleteVertex(v).ok());

  // Cached pairs naming the deleted endpoint fail before the cache.
  Distance d = 0;
  EXPECT_TRUE(index.Query(a, v, &d).IsNotFound());
  EXPECT_TRUE(index.Query(v, b, &d).IsNotFound());

  // a-b recomputes under the new generation...
  const std::uint64_t hits_before = cache->GetStats().hits;
  Distance post = 0;
  ASSERT_TRUE(index.Query(a, b, &post).ok());
  EXPECT_EQ(cache->GetStats().hits, hits_before)
      << "a-b was served from a stale cache entry across DeleteVertex";
  // ...and still answers the pinned §8.3 stale-transit distance, exactly
  // as the uncached engine does.
  EXPECT_EQ(post, transit);
  Distance cached_post = 0;
  ASSERT_TRUE(index.Query(a, b, &cached_post).ok());
  EXPECT_EQ(cached_post, post);
  EXPECT_GT(cache->GetStats().hits, hits_before);
}

TEST(IndexCache, CoreDeleteVertexInvalidates) {
  // Deleting a core vertex rebuilds G_k. On a path it cuts the only route
  // between the two ends, so their cached distance must not be served
  // again: the next query misses and answers what an identical uncached
  // index answers after the same delete.
  Graph g = MakeTestGraph(Family::kPath, 12, /*weighted=*/true, 4);
  IndexOptions opts;
  opts.forced_k = 2;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  auto twin_built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(twin_built.ok());
  ISLabelIndex twin = std::move(twin_built).value();
  const VertexId s = 0, t = g.NumVertices() - 1;

  VertexId c = kInvalidVertex;
  for (VertexId u = s + 1; u < t && c == kInvalidVertex; ++u) {
    if (index.InCore(u)) c = u;
  }
  ASSERT_NE(c, kInvalidVertex);

  auto cache = std::make_shared<QueryCache>();
  index.set_distance_cache(cache);
  Distance before = 0;
  ASSERT_TRUE(index.Query(s, t, &before).ok());
  ASSERT_TRUE(index.Query(s, t, &before).ok());  // now cached
  ASSERT_EQ(cache->GetStats().hits, 1u);

  ASSERT_TRUE(index.DeleteVertex(c).ok());
  ASSERT_TRUE(twin.DeleteVertex(c).ok());
  Distance after = 0;
  ASSERT_TRUE(index.Query(s, t, &after).ok());
  EXPECT_EQ(cache->GetStats().hits, 1u)
      << "s-t was served from a stale cache entry across a core delete";
  Distance uncached = 0;
  ASSERT_TRUE(twin.Query(s, t, &uncached).ok());
  EXPECT_EQ(after, uncached);
  EXPECT_NE(after, before);
}

// ---------------------------------------------------------------------------
// TCP loopback integration
// ---------------------------------------------------------------------------

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeTestGraph(Family::kErdosRenyi, 300, /*weighted=*/true, 21);
    auto built = ISLabelIndex::Build(graph_);
    ASSERT_TRUE(built.ok());
    index_ = std::move(built).value();
    cache_ = std::make_shared<QueryCache>();
    index_.set_distance_cache(cache_);
    server::RequestDispatcher::MetricsOptions mopts;
    mopts.registry = &registry_;
    dispatcher_.InstallMetrics(mopts);

    TcpServerOptions opts;
    opts.port = 0;  // ephemeral
    opts.num_workers = 4;
    server_ = std::make_unique<TcpServer>(&dispatcher_, opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);

    // Single-threaded ground truth through a private engine (bypasses
    // both the pool and the cache).
    engine_ = std::make_unique<QueryEngine>(&index_.hierarchy(),
                                            LabelProvider(&index_.labels()));
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      server_->Wait();
    }
  }

  Distance Expected(VertexId s, VertexId t) {
    Distance d = 0;
    EXPECT_TRUE(engine_->Query(s, t, &d).ok());
    return d;
  }

  Graph graph_;
  ISLabelIndex index_;
  std::shared_ptr<QueryCache> cache_;
  obs::MetricRegistry registry_;
  server::RequestDispatcher dispatcher_{&index_};
  std::unique_ptr<TcpServer> server_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(TcpServerTest, AnswersMixedRequests) {
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("1 2\n");
  EXPECT_EQ(client.ReadLine(), server::FormatDistance(Expected(1, 2)));

  client.Send("one 1 2 3 4\n");
  EXPECT_EQ(client.ReadLine(),
            server::FormatDistances(
                {Expected(1, 2), Expected(1, 3), Expected(1, 4)}));

  client.Send("path 1 5\n");
  const std::string path_line = client.ReadLine();
  const Distance d15 = Expected(1, 5);
  if (d15 == kInfDistance) {
    EXPECT_EQ(path_line, "unreachable");
  } else {
    std::istringstream is(path_line);
    Distance dist = 0;
    char colon = 0;
    ASSERT_TRUE(is >> dist >> colon);
    EXPECT_EQ(dist, d15);
    EXPECT_EQ(colon, ':');
    std::vector<VertexId> path;
    VertexId vertex = 0;
    while (is >> vertex) path.push_back(vertex);
    testing::AssertValidPath(graph_, 1, 5, path, dist);
  }

  client.Send("1 2 junk\n");
  EXPECT_EQ(client.ReadLine(), "error: usage: S T");
  client.Send("bogus\n");
  EXPECT_EQ(client.ReadLine(), "error: unrecognized request: bogus");
  client.Send("9999999 1\n");
  EXPECT_EQ(client.ReadLine(), "error: OutOfRange: vertex id out of range");

  client.Send("stats\n");
  EXPECT_EQ(client.ReadLine(), "error: unrecognized request: stats");

  client.Send("quit\n");
  EXPECT_EQ(client.ReadLine(), "<eof>");
}

TEST_F(TcpServerTest, PipelinedRequestsAnswerInOrder) {
  const auto pairs = SampleQueryPairs(graph_, 64, 5);
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (const auto& [s, t] : pairs) {
    burst += std::to_string(s) + " " + std::to_string(t) + "\n";
  }
  client.Send(burst);  // everything in one write
  for (const auto& [s, t] : pairs) {
    ASSERT_EQ(client.ReadLine(), server::FormatDistance(Expected(s, t)))
        << "pipelined (" << s << ", " << t << ")";
  }
}

TEST_F(TcpServerTest, PartialWritesReassemble) {
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // One request dribbled byte-wise across many TCP segments...
  const std::string req = "one 1 2 3\n";
  for (char c : req) {
    client.Send(std::string(1, c));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(client.ReadLine(),
            server::FormatDistances({Expected(1, 2), Expected(1, 3)}));
  // ...and a split that lands mid-token, plus the next request's head in
  // the same segment as the previous tail.
  client.Send("pa");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  client.Send("th 1 5\n7 ");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  client.Send("9\n");
  const std::string path_line = client.ReadLine();
  const Distance d15 = Expected(1, 5);
  if (d15 == kInfDistance) {
    EXPECT_EQ(path_line, "unreachable");
  } else {
    EXPECT_EQ(path_line.substr(0, path_line.find(':')),
              server::FormatDistance(d15));
  }
  EXPECT_EQ(client.ReadLine(), server::FormatDistance(Expected(7, 9)));
}

TEST_F(TcpServerTest, ConcurrentClientsGetCorrectAnswers) {
  // ≥ 4 concurrent connections, each mixing pipelined bursts, one/path
  // requests, repeated pairs (cache hits), and a metrics scrape. Every
  // distance is checked against the single-threaded engine.
  constexpr int kClients = 6;
  constexpr std::size_t kPairsPerClient = 40;

  // Precompute per-client workloads and expected answers (the engine is
  // not thread-safe, so ground truth is established up front).
  struct Op {
    std::string request;
    std::string expected;  // empty = a metrics scrape, read through # EOF
  };
  std::vector<std::vector<Op>> workloads(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto pairs = SampleQueryPairs(graph_, kPairsPerClient,
                                  /*seed=*/100 + c % 3);  // overlap → hits
    std::vector<Op>& ops = workloads[c];
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      if (i % 10 == 3) {
        ops.push_back({"one " + std::to_string(s) + " " + std::to_string(t) +
                           " " + std::to_string((t + 1) % graph_.NumVertices()),
                       server::FormatDistances(
                           {Expected(s, t),
                            Expected(s, (t + 1) % graph_.NumVertices())})});
      } else if (i % 10 == 7) {
        ops.push_back({"metrics", ""});
      } else {
        ops.push_back({std::to_string(s) + " " + std::to_string(t),
                       server::FormatDistance(Expected(s, t))});
      }
    }
  }

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LoopbackClient client(server_->port());
      if (!client.connected()) {
        failures[c] = "connect failed";
        return;
      }
      const std::vector<Op>& ops = workloads[c];
      // Mix transport patterns per client: pipelined bursts for even
      // clients, partial writes for odd ones.
      if (c % 2 == 0) {
        std::string burst;
        for (const Op& op : ops) burst += op.request + "\n";
        client.Send(burst);
      } else {
        for (const Op& op : ops) {
          const std::string line = op.request + "\n";
          const std::size_t half = line.size() / 2;
          client.Send(line.substr(0, half));
          client.Send(line.substr(half));
        }
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].expected.empty()) {
          // The scrape races the other clients' counter updates; it must
          // still arrive whole, through its terminator.
          const std::string last = client.ReadThroughEof().back();
          if (last != "# EOF") {
            failures[c] = "bad metrics response at: " + last;
            return;
          }
          continue;
        }
        const std::string got = client.ReadLine();
        if (got == "<eof>") {
          failures[c] = "premature eof at op " + std::to_string(i);
          return;
        }
        if (got != ops[i].expected) {
          failures[c] = "op " + std::to_string(i) + " (" + ops[i].request +
                        "): got '" + got + "' want '" + ops[i].expected + "'";
          return;
        }
      }
      client.Send("quit\n");
      if (client.ReadLine() != "<eof>") failures[c] = "quit did not close";
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  const auto stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_GT(stats.requests, 0u);
  // Overlapping workloads → the shared cache must have been hit.
  EXPECT_GT(cache_->GetStats().hits, 0u);
}

TEST_F(TcpServerTest, RequestsAfterQuitAreDropped) {
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("1 2\nquit\n3 4\n5 6\n");
  EXPECT_EQ(client.ReadLine(), server::FormatDistance(Expected(1, 2)));
  EXPECT_EQ(client.ReadLine(), "<eof>");
}

TEST_F(TcpServerTest, SurvivesAbruptDisconnect) {
  {
    LoopbackClient client(server_->port());
    ASSERT_TRUE(client.connected());
    client.Send("1 2\n");
    // Close without reading the response or sending quit.
  }
  // The server must still serve new connections.
  LoopbackClient client2(server_->port());
  ASSERT_TRUE(client2.connected());
  client2.Send("3 4\n");
  EXPECT_EQ(client2.ReadLine(), server::FormatDistance(Expected(3, 4)));
}

TEST_F(TcpServerTest, OverlongLineIsRejected) {
  TcpServerOptions opts;
  opts.port = 0;
  opts.num_workers = 1;
  TcpServer small(&dispatcher_, opts);
  ASSERT_TRUE(small.Start().ok());
  LoopbackClient client(small.port());
  ASSERT_TRUE(client.connected());
  client.Send(std::string((1u << 20) + 1, '7'));  // no newline, 1 MiB + 1
  EXPECT_EQ(client.ReadLine(), "error: request line too long");
  EXPECT_EQ(client.ReadLine(), "<eof>");
  small.Stop();
  small.Wait();
}

TEST_F(TcpServerTest, StopDrainsAndCloses) {
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("1 2\n");
  EXPECT_EQ(client.ReadLine(), server::FormatDistance(Expected(1, 2)));
  server_->Stop();
  server_->Wait();
  EXPECT_EQ(client.ReadLine(), "<eof>");
  EXPECT_EQ(server_->stats().connections_open, 0u);
}

// ---------------------------------------------------------------------------
// Slowloris guard: idle timeout + buffered-input cap
// ---------------------------------------------------------------------------

TEST_F(TcpServerTest, IdleConnectionIsTimedOut) {
  TcpServerOptions opts;
  opts.port = 0;
  opts.num_workers = 1;
  opts.idle_timeout_ms = 150;
  TcpServer guarded(&dispatcher_, opts);
  ASSERT_TRUE(guarded.Start().ok());
  LoopbackClient idle(guarded.port());
  ASSERT_TRUE(idle.connected());
  // Send nothing; the sweep must close us with an error response.
  EXPECT_EQ(idle.ReadLine(), "error: timeout");
  EXPECT_EQ(idle.ReadLine(), "<eof>");
  EXPECT_GE(guarded.stats().idle_closed, 1u);
  guarded.Stop();
  guarded.Wait();
}

TEST_F(TcpServerTest, ByteDribblingClientIsTimedOut) {
  // The classic slowloris: dribble one byte of a never-finished request
  // line at a rate slow enough to stay under the idle timeout per byte
  // would defeat a naive last-byte-received check — which is why the
  // input cap exists. Dribble fast but never send '\n': the buffered
  // partial line crosses max_buffered_bytes and the connection dies.
  TcpServerOptions opts;
  opts.port = 0;
  opts.num_workers = 1;
  opts.idle_timeout_ms = 10'000;  // idle sweep alone won't fire in time
  opts.max_buffered_bytes = 48;
  TcpServer guarded(&dispatcher_, opts);
  ASSERT_TRUE(guarded.Start().ok());
  LoopbackClient dribbler(guarded.port());
  ASSERT_TRUE(dribbler.connected());
  // One byte past the cap: the server can close only after the last
  // send, so no send races the close.
  for (std::size_t i = 0; i <= opts.max_buffered_bytes; ++i) {
    dribbler.Send("7");
  }
  EXPECT_EQ(dribbler.ReadLine(), "error: timeout");
  EXPECT_EQ(dribbler.ReadLine(), "<eof>");
  EXPECT_GE(guarded.stats().idle_closed, 1u);

  // A well-behaved client on the same server is untouched.
  LoopbackClient good(guarded.port());
  ASSERT_TRUE(good.connected());
  good.Send("1 2\n");
  EXPECT_EQ(good.ReadLine(), server::FormatDistance(Expected(1, 2)));
  guarded.Stop();
  guarded.Wait();
}

TEST_F(TcpServerTest, ActiveClientSurvivesIdleSweeps) {
  TcpServerOptions opts;
  opts.port = 0;
  opts.num_workers = 1;
  opts.idle_timeout_ms = 200;
  TcpServer guarded(&dispatcher_, opts);
  ASSERT_TRUE(guarded.Start().ok());
  LoopbackClient client(guarded.port());
  ASSERT_TRUE(client.connected());
  // Keep issuing requests across several idle windows; activity must
  // keep resetting the timer.
  for (int round = 0; round < 6; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    client.Send("1 2\n");
    ASSERT_EQ(client.ReadLine(), server::FormatDistance(Expected(1, 2)))
        << "round " << round;
  }
  guarded.Stop();
  guarded.Wait();
}

TEST_F(TcpServerTest, GuardOffByDefault) {
  // The fixture server runs with both guards disabled; an idle
  // connection must survive well past any plausible sweep interval.
  LoopbackClient idle(server_->port());
  ASSERT_TRUE(idle.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  idle.Send("1 2\n");
  EXPECT_EQ(idle.ReadLine(), server::FormatDistance(Expected(1, 2)));
  EXPECT_EQ(server_->stats().idle_closed, 0u);
}

// ---------------------------------------------------------------------------
// EMFILE / ENFILE accept shed
// ---------------------------------------------------------------------------

TEST_F(TcpServerTest, AcceptShedsUnderFdPressure) {
  // Lower the process fd limit so accept() hits EMFILE, then keep
  // connecting. The server must shed (close an idle connection or drop
  // the newcomer via the reserve fd) instead of spinning or dying, and
  // must serve normally once pressure lifts.
  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);

  // Count currently-open descriptors, then leave just a little headroom.
  std::size_t open_fds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++open_fds;
  }
  rlimit lowered = original;
  lowered.rlim_cur = open_fds + 10;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  struct RestoreLimit {
    rlimit saved;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore{original};

  // Exhaust the descriptor pool with our own sockets FIRST, then
  // connect them: the kernel completes loopback connects through the
  // listen backlog without the server accepting, so when the event
  // loop drains the backlog there are zero free descriptors and every
  // accept() is an EMFILE — the shed path, deterministically.
  std::vector<int> herd;
  for (int i = 0; i < 64; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;  // pool exhausted: exactly what we want
    herd.push_back(fd);
  }
  ASSERT_FALSE(herd.empty());
  std::size_t connected = 0;
  for (const int fd : herd) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      ++connected;
    }
  }
  ASSERT_GT(connected, 0u);

  // Give the event loop a beat to work through the accept backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GE(server_->stats().accept_shed, 1u);

  // Release our fds and the rlimit; the server must still answer.
  for (const int fd : herd) ::close(fd);
  ::setrlimit(RLIMIT_NOFILE, &original);
  LoopbackClient after(server_->port());
  ASSERT_TRUE(after.connected());
  after.Send("1 2\n");
  EXPECT_EQ(after.ReadLine(), server::FormatDistance(Expected(1, 2)));
}

// ---------------------------------------------------------------------------
// Telemetry (DESIGN.md §16)
// ---------------------------------------------------------------------------

TEST_F(TcpServerTest, MetricsVerbWithoutRegistryUsesServerOwnedDefault) {
  // The fixture wires nothing into its dispatcher but a registry (no
  // index instruments, no cache metrics): `metrics` renders it and the
  // server's counters record into it (DESIGN.md §16).
  ASSERT_NE(dispatcher_.metrics(), nullptr);
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("1 2\n");
  client.ReadLine();
  client.Send("metrics\n");
  const std::vector<std::string> lines = client.ReadThroughEof();
  ASSERT_EQ(lines.back(), "# EOF");
  bool saw_requests_series = false;
  for (const std::string& line : lines) {
    if (line.rfind("islabel_server_requests_total", 0) == 0) {
      saw_requests_series = true;
    }
  }
  EXPECT_TRUE(saw_requests_series);
  client.Send("metrics now\n");
  EXPECT_EQ(client.ReadLine(), "error: usage: metrics");
}

TEST_F(TcpServerTest, StartFailsWithoutRegistry) {
  // A server records its connection instruments into its dispatcher's
  // registry, so a dispatcher without telemetry installed is refused
  // before any socket is opened.
  server::RequestDispatcher bare(&index_);
  TcpServerOptions opts;
  opts.num_workers = 1;
  TcpServer server(&bare, opts);
  const Status st = server.Start();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_EQ(server.port(), 0);
}

// Reads lines until "# EOF" (inclusive) and checks Prometheus text
// shape: HELP/TYPE pairs, parsable sample values, no blank lines.
std::vector<std::string> ReadMetricsResponse(LoopbackClient* client) {
  std::vector<std::string> lines = client->ReadThroughEof();
  if (lines.back() == "<eof>") lines.pop_back();
  std::set<std::string> typed;
  for (const std::string& line : lines) {
    EXPECT_FALSE(line.empty());
    if (line.empty() || line == "# EOF") continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream t(line.substr(7));
      std::string name, kind;
      t >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      typed.insert(name);
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    if (sp == std::string::npos) continue;
    char* end = nullptr;
    (void)std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparsable sample value: " << line;
  }
  EXPECT_FALSE(typed.empty());
  return lines;
}

std::uint64_t MetricValue(const std::vector<std::string>& lines,
                          const std::string& series) {
  for (const std::string& line : lines) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::strtoull(line.c_str() + series.size() + 1, nullptr, 10);
    }
  }
  ADD_FAILURE() << "series not found: " << series;
  return 0;
}

/// Sum over every series of `family` (e.g. the cache's per-shard split).
std::uint64_t MetricSum(const std::vector<std::string>& lines,
                        const std::string& family) {
  std::uint64_t sum = 0;
  bool found = false;
  for (const std::string& line : lines) {
    if (line.rfind(family + "{", 0) == 0 || line.rfind(family + " ", 0) == 0) {
      const std::size_t sp = line.rfind(' ');
      sum += std::strtoull(line.c_str() + sp + 1, nullptr, 10);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "family not found: " << family;
  return sum;
}

TEST(TcpServerMetrics, MetricsVerbRendersPrometheusOverLoopback) {
  Graph graph = MakeTestGraph(Family::kErdosRenyi, 200, true, 7);
  auto built = ISLabelIndex::Build(graph);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  obs::MetricRegistry registry;
  index.InstallMetrics(&registry);
  QueryCacheOptions copts;
  copts.metrics = &registry;
  auto cache = std::make_shared<QueryCache>(copts);
  index.set_distance_cache(cache);
  server::RequestDispatcher dispatcher(&index);
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = &registry;
  dispatcher.InstallMetrics(mopts);
  TcpServerOptions opts;
  opts.port = 0;
  opts.num_workers = 2;
  TcpServer server(&dispatcher, opts);
  ASSERT_TRUE(server.Start().ok());

  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("1 2\n1 2\none 1 2 3\nmetrics\n");
  (void)client.ReadLine();
  (void)client.ReadLine();
  (void)client.ReadLine();
  const std::vector<std::string> lines = ReadMetricsResponse(&client);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");

  // The exposition spans server, cache and pool families.
  EXPECT_EQ(MetricValue(lines, "islabel_server_requests_total"), 4u);
  EXPECT_EQ(MetricValue(lines, "islabel_server_connections_accepted_total"),
            1u);
  EXPECT_EQ(MetricValue(lines,
                        "islabel_server_request_seconds_count{verb="
                        "\"distance\"}"),
            2u);
  EXPECT_EQ(
      MetricValue(lines, "islabel_server_request_seconds_count{verb=\"one\"}"),
      1u);
  // The repeated pair hit the result cache (per-shard series sum up;
  // the one-to-many verb bypasses the pair cache).
  EXPECT_EQ(MetricSum(lines, "islabel_cache_hits_total"), 1u);
  EXPECT_EQ(MetricSum(lines, "islabel_cache_misses_total"), 1u);
  // Every query verb records every stage (zeros included), so each
  // stage's count equals the query-verb count.
  for (const char* stage :
       {"parse", "cache_lookup", "pool_wait", "kernel", "encode"}) {
    EXPECT_EQ(MetricValue(lines,
                          std::string("islabel_query_stage_seconds_count{"
                                      "stage=\"") +
                              stage + "\"}"),
              3u)
        << stage;
  }

  // A second scrape must advance the request counter (the scrape itself
  // is a request) and stay well-formed.
  client.Send("metrics\n");
  const std::vector<std::string> again = ReadMetricsResponse(&client);
  EXPECT_EQ(MetricValue(again, "islabel_server_requests_total"), 5u);

  client.Send("quit\n");
  EXPECT_EQ(client.ReadLine(), "<eof>");
  server.Stop();
  server.Wait();
}

TEST(DispatcherMetrics, SlowQueryLineGoesToSinkWithStageBreakdown) {
  Graph graph = MakeTestGraph(Family::kPath, 32, true, 3);
  auto built = ISLabelIndex::Build(graph);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  ManualClock clock;
  Mutex mu;
  std::vector<std::string> events;
  obs::EventLogOptions lopts;
  lopts.clock = &clock;
  lopts.sink = obs_test::CapturingSink(&mu, &events);
  obs::EventLog log(lopts);

  server::RequestDispatcher dispatcher(&index);
  obs::MetricRegistry registry;
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = &registry;
  mopts.clock = &clock;
  mopts.slow_query_threshold_ms = 1;
  mopts.event_log = &log;
  dispatcher.InstallMetrics(mopts);

  // The manual clock never advances during execution, so total latency
  // is exactly the parse time the front end reports — deterministic.
  Request fast = ParseRequest("1 2");
  fast.parse_us = 999;  // 0.999ms < 1ms threshold
  (void)dispatcher.Execute(fast);
  EXPECT_TRUE(events.empty());

  Request slow = ParseRequest("1 2");
  slow.parse_us = 5000;
  (void)dispatcher.Execute(slow);
  ASSERT_EQ(events.size(), 1u);
  for (const char* field :
       {"\"event\":\"islabel.server.slow_query\"", "\"verb\":\"distance\"",
        "\"total_us\":\"5000\"", "\"parse_us\":\"5000\"",
        "\"kernel_us\":\""}) {
    EXPECT_NE(events[0].find(field), std::string::npos)
        << field << " in " << events[0];
  }
  EXPECT_EQ(
      registry.GetCounter("islabel_server_slow_queries_total", "")->Value(),
      1u);
}

TEST(DispatcherMetrics, SlowQueryFallsBackToEventLogWithTraceId) {
  Graph graph = MakeTestGraph(Family::kPath, 32, true, 3);
  auto built = ISLabelIndex::Build(graph);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  ManualClock clock;
  Mutex mu;
  std::vector<std::string> events;
  obs::EventLogOptions lopts;
  lopts.clock = &clock;
  lopts.sink = obs_test::CapturingSink(&mu, &events);
  obs::EventLog log(lopts);

  server::RequestDispatcher dispatcher(&index);
  obs::MetricRegistry registry;
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = &registry;
  mopts.clock = &clock;
  mopts.slow_query_threshold_ms = 1;
  mopts.event_log = &log;
  dispatcher.InstallMetrics(mopts);

  Request slow = ParseRequest("1 2 tid=abc");
  slow.parse_us = 5000;
  (void)dispatcher.Execute(slow);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"event\":\"islabel.server.slow_query\""),
            std::string::npos)
      << events[0];
  // The dispatcher's TraceScope is active when the event fires, so the
  // request's trace id auto-attaches.
  EXPECT_NE(events[0].find("\"tid\":\"abc\""), std::string::npos)
      << events[0];
  EXPECT_NE(events[0].find("\"verb\":\"distance\""), std::string::npos);
}

/// A backend whose every verb takes `work_us` of manual-clock time and
/// answers 1: deterministic kernel work.
class SlowBackend : public DistanceIndex {
 public:
  SlowBackend(ManualClock* clock, std::uint64_t work_us)
      : clock_(clock), work_us_(work_us) {}

  Status ShortestPath(VertexId s, VertexId t, std::vector<VertexId>* path,
                      Distance* dist) override {
    clock_->AdvanceMicros(work_us_);
    *path = {s, t};
    *dist = 1;
    return Status::OK();
  }
  Status QueryOneToMany(VertexId, const std::vector<VertexId>& targets,
                        std::vector<Distance>* out) override {
    clock_->AdvanceMicros(work_us_);
    out->assign(targets.size(), 1);
    return Status::OK();
  }
  VertexId NumVertices() const override { return 8; }
  bool has_vias() const override { return true; }
  DistanceIndexInfo Info() const override { return {}; }

 protected:
  Status QueryUncached(VertexId, VertexId, Distance* out) override {
    clock_->AdvanceMicros(work_us_);
    *out = 1;
    return Status::OK();
  }

 private:
  ManualClock* clock_;
  std::uint64_t work_us_;
};

TEST(DispatcherMetrics, EveryQueryVerbChargesItsBackendTimeToKernel) {
  ManualClock clock;
  SlowBackend backend(&clock, /*work_us=*/2000);
  Mutex mu;
  std::vector<std::string> events;
  obs::EventLogOptions lopts;
  lopts.clock = &clock;
  lopts.sink = obs_test::CapturingSink(&mu, &events);
  obs::EventLog log(lopts);

  server::RequestDispatcher dispatcher(&backend);
  obs::MetricRegistry registry;
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = &registry;
  mopts.clock = &clock;
  mopts.slow_query_threshold_ms = 1;
  mopts.event_log = &log;
  dispatcher.InstallMetrics(mopts);

  // Only the backend advances the clock, so whichever verb carries the
  // request, all of its latency is kernel time.
  for (const char* line : {"0 7", "one 0 1 2", "path 0 7"}) {
    events.clear();
    const std::string response = dispatcher.Execute(ParseRequest(line));
    EXPECT_EQ(response.rfind("error:", 0), std::string::npos) << response;
    ASSERT_EQ(events.size(), 1u) << line;
    for (const char* field :
         {"\"total_us\":\"2000\"", "\"kernel_us\":\"2000\""}) {
      EXPECT_NE(events[0].find(field), std::string::npos)
          << line << ": " << field << " in " << events[0];
    }
  }
}

/// Reads a ManualClock and counts every read. With `tick_us`, each read
/// also moves the clock on, so time that fell between two spans would
/// show as a gap between the stages and the total.
class CountingClock : public Clock {
 public:
  explicit CountingClock(ManualClock* base, std::uint64_t tick_us = 0)
      : base_(base), tick_us_(tick_us) {}

  std::uint64_t NowMs() const override { return Read() / 1000; }
  std::uint64_t NowMicros() const override { return Read(); }
  std::uint64_t NowNanos() const override { return Read() * 1000; }
  std::uint64_t reads() const { return reads_.load(); }

 private:
  std::uint64_t Read() const {
    reads_.fetch_add(1);
    const std::uint64_t now = base_->NowMicros();
    base_->AdvanceMicros(tick_us_);
    return now;
  }

  ManualClock* base_;
  std::uint64_t tick_us_;
  mutable std::atomic<std::uint64_t> reads_{0};
};

TEST(DispatcherMetrics, StageBoundariesCostOneClockReadEach) {
  // The budget: one read per stage boundary. A hit crosses three (the
  // trace's start, cache_lookup, encode). A miss through one engine
  // lease crosses seven (start, cache_lookup, kernel up to the lease,
  // pool_wait, kernel, the cache insert's cache_lookup, encode), on
  // either backend: both lease from the one engine pool.
  Graph graph = MakeTestGraph(Family::kPath, 32, true, 3);
  auto islabel = ISLabelIndex::Build(graph);
  ASSERT_TRUE(islabel.ok());
  auto ch = CHIndex::Build(graph);
  ASSERT_TRUE(ch.ok());
  std::vector<std::unique_ptr<DistanceIndex>> backends;
  backends.push_back(
      std::make_unique<ISLabelIndex>(std::move(islabel).value()));
  backends.push_back(std::make_unique<CHIndex>(std::move(ch).value()));
  for (const std::unique_ptr<DistanceIndex>& index : backends) {
    SCOPED_TRACE(index->Info().backend);
    auto cache = std::make_shared<QueryCache>(QueryCacheOptions{});
    index->set_distance_cache(cache);
    ManualClock base;
    CountingClock clock(&base);
    server::RequestDispatcher dispatcher(index.get());
    obs::MetricRegistry registry;
    server::RequestDispatcher::MetricsOptions mopts;
    mopts.registry = &registry;
    mopts.clock = &clock;
    dispatcher.InstallMetrics(mopts);

    std::uint64_t before = clock.reads();
    const std::string miss = dispatcher.Execute(ParseRequest("0 7"));
    EXPECT_EQ(clock.reads() - before, 7u) << "miss";
    before = clock.reads();
    const std::string hit = dispatcher.Execute(ParseRequest("0 7"));
    EXPECT_EQ(clock.reads() - before, 3u) << "hit";
    EXPECT_EQ(miss.rfind("error:", 0), std::string::npos) << miss;
    EXPECT_EQ(hit, miss);
    EXPECT_EQ(cache->GetStats().hits, 1u);
  }

  // The tiling: every query verb's five stages sum to its total, even
  // when every clock read moves time on.
  ManualClock base;
  CountingClock clock(&base, /*tick_us=*/1);
  SlowBackend backend(&base, /*work_us=*/2000);
  ManualClock log_clock;
  Mutex mu;
  std::vector<std::string> events;
  obs::EventLogOptions lopts;
  lopts.clock = &log_clock;
  lopts.sink = obs_test::CapturingSink(&mu, &events);
  obs::EventLog log(lopts);
  server::RequestDispatcher dispatcher(&backend);
  obs::MetricRegistry registry;
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = &registry;
  mopts.clock = &clock;
  mopts.slow_query_threshold_ms = 1;
  mopts.event_log = &log;
  dispatcher.InstallMetrics(mopts);

  auto field = [](const std::string& event, const std::string& key) {
    const std::string quoted = "\"" + key + "\":\"";
    const std::size_t at = event.find(quoted);
    EXPECT_NE(at, std::string::npos) << key << " in " << event;
    if (at == std::string::npos) return std::uint64_t{0};
    return static_cast<std::uint64_t>(
        std::strtoull(event.c_str() + at + quoted.size(), nullptr, 10));
  };
  for (const char* line : {"0 7", "one 0 1 2", "path 0 7"}) {
    events.clear();
    Request req = ParseRequest(line);
    req.parse_us = 5;
    const std::string response = dispatcher.Execute(req);
    EXPECT_EQ(response.rfind("error:", 0), std::string::npos) << response;
    ASSERT_EQ(events.size(), 1u) << line;
    std::uint64_t stages = 0;
    for (const char* key : {"parse_us", "cache_us", "pool_wait_us",
                            "kernel_us", "encode_us"}) {
      stages += field(events[0], key);
    }
    EXPECT_EQ(stages, field(events[0], "total_us")) << line << ": "
                                                    << events[0];
    EXPECT_GE(field(events[0], "kernel_us"), 2000u) << line;
  }
}

// ---------------------------------------------------------------------------
// Distributed tracing + flight recorder (DESIGN.md §17)
// ---------------------------------------------------------------------------

TEST_F(TcpServerTest, TrailingTidTokenIsAcceptedOnEveryVerbAndValidated) {
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // The trailing token is stripped before per-verb arity checks, so it
  // rides on query and admin verbs alike.
  client.Send("1 2 tid=deadbeef\n");
  EXPECT_EQ(client.ReadLine(), server::FormatDistance(Expected(1, 2)));
  client.Send("1 2 tid=DEADBEEF\n");  // either case parses
  EXPECT_EQ(client.ReadLine(), server::FormatDistance(Expected(1, 2)));
  client.Send("metrics tid=ff\n");
  EXPECT_EQ(ReadMetricsResponse(&client).back(), "# EOF");

  const std::string usage = "error: usage: tid=HEX (1-16 hex digits, nonzero)";
  client.Send("1 2 tid=xyz\n");
  EXPECT_EQ(client.ReadLine(), usage);
  client.Send("1 2 tid=0\n");  // zero is never a valid wire id
  EXPECT_EQ(client.ReadLine(), usage);
  client.Send("1 2 tid=11112222333344445\n");  // 17 hex digits
  EXPECT_EQ(client.ReadLine(), usage);
  client.Send("tid=abc\n");  // a bare tid token tags nothing
  EXPECT_EQ(client.ReadLine(), usage);
}

TEST_F(TcpServerTest, TracezGrammarAndMissingRecorder) {
  // The fixture's server has no flight recorder: well-formed scrapes
  // answer NotSupported, malformed ones fail parsing first.
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("tracez\n");
  EXPECT_EQ(client.ReadLine(),
            "error: NotSupported: flight recorder not enabled");
  const std::string usage = "error: usage: tracez [slow|errors|id HEX] [N]";
  for (const char* bad : {"tracez bogus", "tracez id", "tracez id zz",
                          "tracez id 0", "tracez 0", "tracez slow 5 9",
                          "tracez id abc extra"}) {
    client.Send(std::string(bad) + "\n");
    EXPECT_EQ(client.ReadLine(), usage) << bad;
  }
}

TEST(TcpServerTracing, FlightRecorderCapturesRequestsAndTracezRetrievesById) {
  Graph graph = MakeTestGraph(Family::kErdosRenyi, 200, true, 7);
  auto built = ISLabelIndex::Build(graph);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  obs::FlightRecorderOptions ropts;
  ropts.capacity_per_thread = 64;
  obs::FlightRecorder recorder(ropts);
  obs::MetricRegistry registry;
  server::RequestDispatcher dispatcher(&index);
  server::RequestDispatcher::MetricsOptions mopts;
  mopts.registry = &registry;
  mopts.flight_recorder = &recorder;
  dispatcher.InstallMetrics(mopts);
  TcpServerOptions opts;
  opts.port = 0;
  opts.num_workers = 2;
  TcpServer server(&dispatcher, opts);
  ASSERT_TRUE(server.Start().ok());

  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("1 2 tid=deadbeef\n");
  EXPECT_EQ(client.ReadLine().rfind("error:", 0), std::string::npos);
  client.Send("900000 2 tid=cafe\n");  // out of range: an error response
  EXPECT_EQ(client.ReadLine(), "error: OutOfRange: vertex id out of range");

  // Retrieval by id returns exactly that trace.
  client.Send("tracez id deadbeef\n");
  std::vector<std::string> lines = client.ReadThroughEof();
  ASSERT_EQ(lines.size(), 3u);  // header, one trace, terminator
  EXPECT_EQ(lines[0].rfind("tracez: ", 0), 0u);
  EXPECT_NE(lines[0].find("shown=1"), std::string::npos);
  EXPECT_NE(lines[0].find("enabled=1"), std::string::npos);
  EXPECT_EQ(lines[1].rfind("trace id=deadbeef seq=", 0), 0u);
  EXPECT_NE(lines[1].find("verb=distance"), std::string::npos);
  EXPECT_NE(lines[1].find("status=ok"), std::string::npos);
  EXPECT_EQ(lines.back(), "# EOF");

  // The errors view keeps only the failed request.
  client.Send("tracez errors\n");
  lines = client.ReadThroughEof();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].rfind("trace id=cafe ", 0), 0u);
  EXPECT_NE(lines[1].find("status=error"), std::string::npos);

  // tracez scrapes are themselves never recorded: after two scrapes the
  // recorder still holds exactly the two query requests.
  client.Send("tracez\n");
  lines = client.ReadThroughEof();
  EXPECT_NE(lines[0].find("records=2 shown=2"), std::string::npos)
      << lines[0];

  // Disabling the recorder turns Record into a no-op but keeps the
  // scrape path alive.
  recorder.set_enabled(false);
  client.Send("3 4 tid=beef\n");
  (void)client.ReadLine();
  client.Send("tracez\n");
  lines = client.ReadThroughEof();
  EXPECT_NE(lines[0].find("records=2"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("enabled=0"), std::string::npos) << lines[0];

  client.Send("quit\n");
  EXPECT_EQ(client.ReadLine(), "<eof>");
  server.Stop();
  server.Wait();
}

}  // namespace
}  // namespace islabel
