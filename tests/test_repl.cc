// Tests for the replicated serving tier (src/repl/): the snapshot
// container, the fault-injection harness, the primary/replica protocol
// over a real loopback server, and the ReplicaSetClient failover path.
//
// The centerpiece is the deterministic failover acceptance test: one
// primary and two replicas on loopback, time from a ManualClock and
// faults from a FaultInjector, the primary killed mid-snapshot-transfer.
// The replicas must keep serving answers bit-identical to fresh engines
// of the generations they hold, the partial snapshot must never be
// installed, and a later reload must propagate once the primary
// recovers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "loopback_client.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs_test_util.h"
#include "repl/fault_injector.h"
#include "repl/primary.h"
#include "repl/replica.h"
#include "repl/replica_set_client.h"
#include "repl/snapshot.h"
#include "repl/transport.h"
#include "server/protocol.h"
#include "server/tcp_server.h"
#include "tests/test_common.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/retry.h"

namespace islabel {
namespace {

namespace fs = std::filesystem;

using repl::Channel;
using repl::Connection;
using repl::Crc32;
using repl::FaultInjectingTransport;
using repl::FaultInjector;
using repl::FaultRule;
using repl::PrimaryHooks;
using repl::ReplicaAgent;
using repl::ReplicaOptions;
using repl::ReplicaSetClient;
using repl::ReplicaSetOptions;
using repl::SnapshotInfo;
using repl::TcpTransport;
using server::RequestDispatcher;
using server::TcpServer;
using server::TcpServerOptions;
using testing::Family;
using testing::LoopbackClient;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVectors) {
  // The IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t a = Crc32(std::string_view(data).substr(0, split));
    const std::uint32_t whole =
        repl::Crc32Extend(a, std::string_view(data).substr(split));
    EXPECT_EQ(whole, Crc32(data)) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("islabel_repl_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  void WriteFile(const std::string& rel, const std::string& contents) {
    const fs::path p = fs::path(dir_) / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::binary);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    ASSERT_TRUE(out.good());
  }

  static std::string ReadFile(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string dir_;
};

TEST_F(SnapshotTest, RoundTripsADirectoryTree) {
  WriteFile("src/partition.islp", "manifest bytes\x00\x01\x02");
  WriteFile("src/part00000/meta.islm", std::string(1000, 'x'));
  WriteFile("src/part00000/labels.isl", "labels\nwith\nnewlines\n");
  WriteFile("src/empty.bin", "");

  std::string blob;
  ASSERT_TRUE(repl::BuildSnapshot(Path("src"), &blob).ok());
  SnapshotInfo info;
  ASSERT_TRUE(repl::ValidateSnapshot(blob, &info).ok());
  EXPECT_EQ(info.file_count, 4u);
  EXPECT_EQ(info.paths,
            (std::vector<std::string>{"empty.bin", "part00000/labels.isl",
                                      "part00000/meta.islm",
                                      "partition.islp"}));

  ASSERT_TRUE(repl::InstallSnapshot(blob, Path("dst")).ok());
  for (const std::string& rel : info.paths) {
    EXPECT_EQ(ReadFile(fs::path(Path("dst")) / rel),
              ReadFile(fs::path(Path("src")) / rel))
        << rel;
  }
}

TEST_F(SnapshotTest, BuildIsDeterministic) {
  WriteFile("src/b", "bbb");
  WriteFile("src/a", "aaa");
  WriteFile("src/sub/c", "ccc");
  std::string first, second;
  ASSERT_TRUE(repl::BuildSnapshot(Path("src"), &first).ok());
  ASSERT_TRUE(repl::BuildSnapshot(Path("src"), &second).ok());
  EXPECT_EQ(first, second);
}

TEST_F(SnapshotTest, RejectsTrailingGarbage) {
  WriteFile("src/f", "data");
  std::string blob;
  ASSERT_TRUE(repl::BuildSnapshot(Path("src"), &blob).ok());
  blob += '\0';
  const Status st = repl::ValidateSnapshot(blob, nullptr);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(SnapshotTest, RejectedInstallLeavesDestinationUntouched) {
  WriteFile("src/f", "data");
  std::string blob;
  ASSERT_TRUE(repl::BuildSnapshot(Path("src"), &blob).ok());
  blob[blob.size() / 2] ^= 0x40;  // flip a payload bit
  EXPECT_FALSE(repl::InstallSnapshot(blob, Path("dst")).ok());
  EXPECT_FALSE(fs::exists(Path("dst")));
}

TEST_F(SnapshotTest, MissingDirectoryIsAnError) {
  std::string blob;
  EXPECT_FALSE(repl::BuildSnapshot(Path("nope"), &blob).ok());
}

// ---------------------------------------------------------------------------
// Replication fixture: a real catalog-mode primary on loopback
// ---------------------------------------------------------------------------

class ReplTest : public SnapshotTest {
 protected:
  void SetUp() override {
    SnapshotTest::SetUp();
    // v1: a weighted grid. v2: the same grid plus a unit shortcut edge
    // between the far corners, so v1/v2 answers provably differ.
    graph_v1_ = MakeTestGraph(Family::kGrid, 80, /*weighted=*/true, 301);
    EdgeList el = graph_v1_.ToEdgeList();
    el.Add(0, graph_v1_.NumVertices() - 1, 1);
    graph_v2_ = Graph::FromEdgeList(std::move(el));

    SaveDataset(graph_v1_, "d");
    SaveDataset(graph_v1_, "v1_copy");

    ASSERT_TRUE(primary_catalog_.Add("d", Path("d")).ok());
    ASSERT_TRUE(primary_catalog_.WaitReady().ok());
    primary_hooks_ = std::make_unique<PrimaryHooks>(&primary_catalog_,
                                                    /*chunk_bytes=*/512);
    RequestDispatcher::MetricsOptions mopts;
    mopts.registry = primary_catalog_.metrics();
    primary_dispatcher_.InstallMetrics(mopts);
    primary_dispatcher_.set_replication_hooks(primary_hooks_.get());
    StartPrimary(/*port=*/0);
  }

  void TearDown() override {
    StopPrimary();
    SnapshotTest::TearDown();
  }

  void SaveDataset(const Graph& g, const std::string& name) {
    auto built = PartitionedIndex::Build(g);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(Path(name)).ok());
  }

  void StartPrimary(std::uint16_t port) {
    TcpServerOptions opts;
    opts.port = port;
    opts.num_workers = 2;
    primary_server_ = std::make_unique<TcpServer>(&primary_dispatcher_, opts);
    ASSERT_TRUE(primary_server_->Start().ok());
    primary_port_ = primary_server_->port();
    primary_endpoint_ = "127.0.0.1:" + std::to_string(primary_port_);
  }

  void StopPrimary() {
    if (primary_server_ != nullptr) {
      primary_server_->Stop();
      primary_server_->Wait();
      primary_server_.reset();
    }
  }

  /// Publishes v2 on the primary: overwrite the dataset directory and
  /// hot-swap reload (generation 1 → 2).
  void PublishV2() {
    fs::remove_all(Path("d"));
    SaveDataset(graph_v2_, "d");
    ASSERT_TRUE(primary_catalog_.Reload("d").ok());
    ASSERT_EQ(primary_catalog_.Generation("d"), 2u);
  }

  /// One replica: its own catalog, snapshot root, agent, and serving
  /// TcpServer whose dispatcher carries the agent's replication hooks.
  struct Replica {
    Catalog catalog;
    std::unique_ptr<ReplicaAgent> agent;
    std::unique_ptr<RequestDispatcher> dispatcher;
    std::unique_ptr<TcpServer> server;
    std::string endpoint;
  };

  std::unique_ptr<Replica> MakeReplica(const std::string& tag,
                                       repl::Transport* transport,
                                       Clock* clock, Rng* rng,
                                       const std::string& default_name = "d",
                                       obs::FlightRecorder* recorder = nullptr,
                                       obs::EventLog* event_log = nullptr) {
    auto r = std::make_unique<Replica>();
    ReplicaOptions opts;
    opts.primary = primary_endpoint_;
    opts.root = Path("root_" + tag);
    opts.poll_interval_ms = 1000;
    opts.request_timeout_ms = 5000;
    opts.primary_timeout_ms = 3000;
    opts.event_log = event_log;
    r->agent = std::make_unique<ReplicaAgent>(&r->catalog, transport, clock,
                                              rng, opts);
    r->dispatcher =
        std::make_unique<RequestDispatcher>(&r->catalog, default_name);
    RequestDispatcher::MetricsOptions mopts;
    mopts.registry = r->catalog.metrics();
    mopts.flight_recorder = recorder;
    r->dispatcher->InstallMetrics(mopts);
    r->dispatcher->set_replication_hooks(r->agent.get());
    TcpServerOptions sopts;
    sopts.port = 0;
    sopts.num_workers = 2;
    r->server = std::make_unique<TcpServer>(r->dispatcher.get(), sopts);
    EXPECT_TRUE(r->server->Start().ok());
    r->endpoint = "127.0.0.1:" + std::to_string(r->server->port());
    return r;
  }

  static void StopReplica(Replica* r) {
    if (r->server != nullptr) {
      r->server->Stop();
      r->server->Wait();
    }
  }

  /// Expected response lines for `pairs` from an independently loaded
  /// copy of the saved dataset at `name` — the bit-identical ground
  /// truth served answers are compared against.
  std::vector<std::string> FreshEngineLines(
      const std::string& name,
      const std::vector<std::pair<VertexId, VertexId>>& pairs) {
    auto fresh = PartitionedIndex::Load(Path(name));
    EXPECT_TRUE(fresh.ok());
    std::vector<std::string> lines;
    lines.reserve(pairs.size());
    for (const auto& [s, t] : pairs) {
      Distance d = 0;
      EXPECT_TRUE(fresh->Query(s, t, &d).ok());
      lines.push_back(server::FormatDistance(d));
    }
    return lines;
  }

  /// Asserts that the server at `port` answers every pair exactly like
  /// the fresh engine over the `name` dataset directory.
  void ExpectServesGeneration(
      std::uint16_t port, const std::string& name,
      const std::vector<std::pair<VertexId, VertexId>>& pairs) {
    const std::vector<std::string> expect = FreshEngineLines(name, pairs);
    LoopbackClient client(port);
    ASSERT_TRUE(client.connected());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(client.Ask(std::to_string(pairs[i].first) + " " +
                           std::to_string(pairs[i].second)),
                expect[i])
          << "pair " << i << " against " << name;
    }
  }

  Graph graph_v1_;
  Graph graph_v2_;
  Catalog primary_catalog_;
  std::unique_ptr<PrimaryHooks> primary_hooks_;
  RequestDispatcher primary_dispatcher_{&primary_catalog_, "d"};
  std::unique_ptr<TcpServer> primary_server_;
  std::uint16_t primary_port_ = 0;
  std::string primary_endpoint_;
};

// ---------------------------------------------------------------------------
// Protocol verbs on the primary
// ---------------------------------------------------------------------------

TEST_F(ReplTest, PrimaryAnswersVersionHeartbeatAndStats) {
  LoopbackClient client(primary_port_);
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.Ask("version"), "version: d:1");
  EXPECT_EQ(client.Ask("heartbeat"), "pong");
  EXPECT_EQ(client.Ask("replicate d 1"), "uptodate d 1");
  EXPECT_EQ(client.Ask("replicate nope 0"),
            "error: NotFound: unknown dataset nope");
  EXPECT_EQ(client.Ask("replicate d"), "error: usage: replicate NAME GEN");
  client.Send("metrics\n");
  const std::vector<std::string> metrics = client.ReadThroughEof();
  ASSERT_EQ(metrics.back(), "# EOF");
  for (const char* sample : {"islabel_repl_heartbeats_total 1",
                             "islabel_dataset_generation{dataset=\"d\"} 1"}) {
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), sample),
              metrics.end())
        << sample;
  }
}

TEST_F(ReplTest, ReplicationVerbsRefusedWithoutHooks) {
  RequestDispatcher dispatcher(&primary_catalog_, "d");
  RequestDispatcher::MetricsOptions mopts;
  mopts.registry = primary_catalog_.metrics();
  dispatcher.InstallMetrics(mopts);
  TcpServerOptions opts;
  opts.port = 0;
  TcpServer bare(&dispatcher, opts);
  ASSERT_TRUE(bare.Start().ok());
  LoopbackClient client(bare.port());
  EXPECT_EQ(client.Ask("version"),
            "error: NotSupported: replication not enabled");
  bare.Stop();
  bare.Wait();
}

// ---------------------------------------------------------------------------
// Fault injector against a live connection
// ---------------------------------------------------------------------------

class FaultTest : public ReplTest {
 protected:
  SystemClock clock_;
  TcpTransport tcp_;
  FaultInjector faults_;

  std::unique_ptr<Channel> Open() {
    FaultInjectingTransport transport(&tcp_, &faults_);
    auto conn = transport.Connect(primary_endpoint_, 5000);
    EXPECT_TRUE(conn.ok());
    return std::make_unique<Channel>(std::move(conn).value());
  }
};

TEST_F(FaultTest, FailConnect) {
  faults_.AddRule({FaultRule::Kind::kFailConnect, "", 0, 1});
  FaultInjectingTransport transport(&tcp_, &faults_);
  EXPECT_TRUE(transport.Connect(primary_endpoint_, 5000)
                  .status()
                  .IsUnavailable());
  EXPECT_EQ(faults_.stats().connects_failed, 1u);
  // The rule fired once; the next connect goes through.
  EXPECT_TRUE(transport.Connect(primary_endpoint_, 5000).ok());
}

TEST_F(FaultTest, DropSendLosesExactlyOneRequest) {
  auto ch = Open();
  faults_.AddRule({FaultRule::Kind::kDropSend, "", 0, 1});
  ASSERT_TRUE(ch->SendLine("heartbeat").ok());  // silently dropped
  ASSERT_TRUE(ch->SendLine("heartbeat").ok());  // delivered
  std::string line;
  const Deadline deadline = Deadline::After(5000, &clock_);
  ASSERT_TRUE(ch->ReadLine(&line, deadline).ok());
  EXPECT_EQ(line, "pong");
  EXPECT_EQ(faults_.stats().sends_dropped, 1u);
  // Exactly one response: the dropped request never reached the server.
  faults_.AddRule({FaultRule::Kind::kTimeoutRecv, "", 0, 1});
  EXPECT_TRUE(ch->ReadLine(&line, deadline).IsDeadlineExceeded());
}

TEST_F(FaultTest, DuplicateSendYieldsTwoResponses) {
  auto ch = Open();
  faults_.AddRule({FaultRule::Kind::kDuplicateSend, "", 0, 1});
  ASSERT_TRUE(ch->SendLine("heartbeat").ok());
  std::string line;
  const Deadline deadline = Deadline::After(5000, &clock_);
  ASSERT_TRUE(ch->ReadLine(&line, deadline).ok());
  EXPECT_EQ(line, "pong");
  ASSERT_TRUE(ch->ReadLine(&line, deadline).ok());
  EXPECT_EQ(line, "pong");
  EXPECT_EQ(faults_.stats().sends_duplicated, 1u);
}

TEST_F(FaultTest, PartialSendSeversTheConnection) {
  auto ch = Open();
  faults_.AddRule({FaultRule::Kind::kPartialSend, "", 4, 1});
  EXPECT_TRUE(ch->SendLine("heartbeat").IsUnavailable());
  EXPECT_EQ(faults_.stats().sends_truncated, 1u);
}

TEST_F(FaultTest, CorruptRecvByteFlipsTheResponse) {
  auto ch = Open();
  ASSERT_TRUE(ch->SendLine("heartbeat").ok());
  faults_.AddRule({FaultRule::Kind::kCorruptRecvByte, "", 0, 1});
  std::string line;
  const Deadline deadline = Deadline::After(5000, &clock_);
  ASSERT_TRUE(ch->ReadLine(&line, deadline).ok());
  EXPECT_EQ(line, "qong");  // 'p' ^ 0x01
  EXPECT_EQ(faults_.stats().bytes_corrupted, 1u);
}

TEST_F(FaultTest, CutAfterRecvBytesSeversMidStream) {
  auto ch = Open();
  ASSERT_TRUE(ch->SendLine("heartbeat").ok());
  faults_.AddRule({FaultRule::Kind::kCutAfterRecvBytes, "", 2, 1});
  std::string line;
  const Deadline deadline = Deadline::After(5000, &clock_);
  // Only "po" is delivered before the cut; the line never completes.
  EXPECT_TRUE(ch->ReadLine(&line, deadline).IsUnavailable());
  EXPECT_EQ(faults_.stats().connections_cut, 1u);
}

// ---------------------------------------------------------------------------
// Replica sync and install
// ---------------------------------------------------------------------------

TEST_F(ReplTest, ReplicaBootstrapsDiscoverInstallServe) {
  ManualClock clock(0);
  Rng rng(11);
  TcpTransport tcp;
  auto r = MakeReplica("r1", &tcp, &clock, &rng);

  // Before the first sync the replica has no datasets and says so.
  {
    LoopbackClient client(r->server->port());
    EXPECT_EQ(client.Ask("1 2"), "error: NotFound: unknown dataset d");
  }

  const Status synced = r->agent->SyncNow();
  ASSERT_TRUE(synced.ok()) << synced.ToString();
  EXPECT_EQ(r->catalog.Generation("d"), 1u);
  EXPECT_TRUE(fs::exists(Path("root_r1") + "/d/gen-1"));
  const ReplicaAgent::Stats stats = r->agent->stats();
  EXPECT_EQ(stats.pulls, 1u);
  EXPECT_EQ(stats.installs, 1u);
  EXPECT_EQ(stats.lag_gens, 0u);
  EXPECT_TRUE(stats.primary_up);

  // Served answers are bit-identical to a fresh engine over v1 (new
  // connection: the old session cached the unknown-dataset handle miss).
  ExpectServesGeneration(r->server->port(), "v1_copy",
                         SampleQueryPairs(graph_v1_, 40, 401));

  // The replica's own serving face answers the replication verbs.
  LoopbackClient client(r->server->port());
  EXPECT_EQ(client.Ask("version"), "version: d:1");
  EXPECT_EQ(client.Ask("heartbeat"), "pong");
  EXPECT_EQ(client.Ask("replicate d 0"),
            "error: NotSupported: replica does not serve snapshots (d)");
  client.Send("metrics\n");
  const std::vector<std::string> metrics = client.ReadThroughEof();
  ASSERT_EQ(metrics.back(), "# EOF");
  for (const char* sample :
       {"islabel_repl_lag_gens 0", "islabel_repl_installs_total 1"}) {
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), sample),
              metrics.end())
        << sample;
  }

  StopReplica(r.get());
}

TEST_F(ReplTest, BareQueriesResolveTheOnlyDatasetWithoutDefault) {
  // A real replica starts with an empty catalog and no default dataset
  // name (it discovers names at sync time), yet failover clients send
  // bare "S T" lines. Once exactly one dataset is hosted the choice is
  // unambiguous and the dispatcher must serve it.
  ManualClock clock(0);
  Rng rng(23);
  TcpTransport tcp;
  auto r = MakeReplica("r_nodefault", &tcp, &clock, &rng,
                       /*default_name=*/"");
  {
    LoopbackClient client(r->server->port());
    const std::string pre = client.Ask("1 2");
    EXPECT_NE(pre.find("error: FailedPrecondition: no dataset selected"),
              std::string::npos)
        << pre;
  }
  ASSERT_TRUE(r->agent->SyncNow().ok());
  ExpectServesGeneration(r->server->port(), "v1_copy",
                         SampleQueryPairs(graph_v1_, 10, 409));
  StopReplica(r.get());
}

TEST_F(ReplTest, SecondSyncIsUptodateAndReloadPropagates) {
  ManualClock clock(0);
  Rng rng(12);
  TcpTransport tcp;
  auto r = MakeReplica("r1", &tcp, &clock, &rng);
  ASSERT_TRUE(r->agent->SyncNow().ok());
  ASSERT_TRUE(r->agent->SyncNow().ok());
  EXPECT_EQ(r->agent->stats().pulls, 1u) << "already current: no re-pull";

  PublishV2();
  ASSERT_TRUE(r->agent->SyncNow().ok());
  EXPECT_EQ(r->catalog.Generation("d"), 2u);
  EXPECT_TRUE(fs::exists(Path("root_r1") + "/d/gen-2"));
  EXPECT_FALSE(fs::exists(Path("root_r1") + "/d/gen-1"))
      << "superseded generation cleaned up";
  ExpectServesGeneration(r->server->port(), "d",
                         SampleQueryPairs(graph_v2_, 40, 402));
  StopReplica(r.get());
}

TEST_F(ReplTest, TickHonorsPollIntervalAndBackoff) {
  ManualClock clock(0);
  Rng rng(13);
  TcpTransport tcp;
  auto r = MakeReplica("r1", &tcp, &clock, &rng);

  EXPECT_TRUE(r->agent->Tick());   // due immediately at t=0
  EXPECT_FALSE(r->agent->Tick());  // next poll is 1000ms out
  clock.AdvanceMs(999);
  EXPECT_FALSE(r->agent->Tick());
  clock.AdvanceMs(1);
  EXPECT_TRUE(r->agent->Tick());
  EXPECT_EQ(r->agent->stats().polls, 2u);
  StopReplica(r.get());
}

TEST_F(ReplTest, CorruptedStreamIsRejectedAndRetrySucceeds) {
  ManualClock clock(0);
  Rng rng(14);
  TcpTransport tcp;
  FaultInjector faults;
  FaultInjectingTransport transport(&tcp, &faults);
  auto r = MakeReplica("r1", &transport, &clock, &rng);

  // Flip one byte deep in the snapshot stream (past the version
  // exchange and the headers, inside chunk payload).
  faults.AddRule({FaultRule::Kind::kCorruptRecvByte, "", 700, 1});
  const Status st = r->agent->SyncNow();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(r->catalog.Generation("d"), 0u) << "corrupt stream installed";
  EXPECT_FALSE(fs::exists(Path("root_r1") + "/d/gen-1"));

  // The rule is spent; the retry pulls a clean stream.
  ASSERT_TRUE(r->agent->SyncNow().ok());
  EXPECT_EQ(r->catalog.Generation("d"), 1u);
  EXPECT_EQ(r->agent->stats().failures, 1u);
  StopReplica(r.get());
}

// ---------------------------------------------------------------------------
// The deterministic failover acceptance test
// ---------------------------------------------------------------------------

TEST_F(ReplTest, FailoverMidTransferKeepsReplicasServing) {
  ManualClock clock(0);
  Rng rng1(21), rng2(22), rng_client(23);
  TcpTransport tcp;
  FaultInjector faults1, faults2;
  FaultInjectingTransport transport1(&tcp, &faults1);
  FaultInjectingTransport transport2(&tcp, &faults2);
  auto r1 = MakeReplica("r1", &transport1, &clock, &rng1);
  auto r2 = MakeReplica("r2", &transport2, &clock, &rng2);

  // Both replicas bootstrap to generation 1.
  ASSERT_TRUE(r1->agent->SyncNow().ok());
  ASSERT_TRUE(r2->agent->SyncNow().ok());

  // The primary publishes generation 2. Replica 1 syncs it cleanly;
  // replica 2's transfer is severed mid-stream (the primary "dies"
  // partway through shipping the snapshot) and the primary then goes
  // down for real.
  PublishV2();
  ASSERT_TRUE(r1->agent->SyncNow().ok());
  ASSERT_EQ(r1->catalog.Generation("d"), 2u);

  // Cut after 600 bytes delivered on replica 2's next connection: past
  // the version reply and the snapshot/chunk headers (chunk_bytes=512),
  // inside the stream — a mid-transfer kill.
  faults2.AddRule({FaultRule::Kind::kCutAfterRecvBytes, "", 600, 1});
  const Status cut = r2->agent->SyncNow();
  EXPECT_FALSE(cut.ok());
  EXPECT_EQ(faults2.stats().connections_cut, 1u);
  StopPrimary();

  // The partial snapshot must never be installed: replica 2 still
  // serves generation 1, and no gen-2 directory exists under its root.
  EXPECT_EQ(r2->catalog.Generation("d"), 1u);
  EXPECT_FALSE(fs::exists(Path("root_r2") + "/d/gen-2"));

  // Both replicas keep serving, each bit-identical to a fresh engine of
  // the generation it holds (stale-but-consistent for replica 2).
  const auto pairs_v1 = SampleQueryPairs(graph_v1_, 40, 403);
  const auto pairs_v2 = SampleQueryPairs(graph_v2_, 40, 404);
  ExpectServesGeneration(r1->server->port(), "d", pairs_v2);
  ExpectServesGeneration(r2->server->port(), "v1_copy", pairs_v1);

  // Replica 2 notices the primary is gone once the silence outlives
  // primary_timeout_ms; queries still succeed throughout.
  EXPECT_FALSE(r2->agent->SyncNow().ok());
  clock.AdvanceMs(3001);
  EXPECT_FALSE(r2->agent->primary_up());

  // A failover-aware client spread over [dead primary, r1, r2] keeps
  // getting answers; the dead endpoint is routed around.
  ReplicaSetOptions copts;
  copts.endpoints = {primary_endpoint_, r1->endpoint, r2->endpoint};
  copts.request_timeout_ms = 2000;
  copts.overall_timeout_ms = 4000;
  copts.sleep_ms = [&clock](std::uint64_t ms) { clock.AdvanceMs(ms); };
  ReplicaSetClient client(&tcp, &clock, &rng_client, copts);
  const std::vector<std::string> v1_lines =
      FreshEngineLines("v1_copy", pairs_v1);
  const std::vector<std::string> v2_lines = FreshEngineLines("d", pairs_v1);
  for (std::size_t i = 0; i < pairs_v1.size(); ++i) {
    Result<std::string> got =
        client.Query(std::to_string(pairs_v1[i].first) + " " +
                     std::to_string(pairs_v1[i].second));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Depending on which replica answered, the response matches the v1
    // or the v2 engine — always a consistent generation, never garbage.
    EXPECT_TRUE(*got == v1_lines[i] || *got == v2_lines[i])
        << "pair " << i << ": got '" << *got << "'";
  }
  EXPECT_GT(client.failovers(), 0u);
  for (const auto& ep : client.endpoint_stats()) {
    if (ep.endpoint == primary_endpoint_) {
      EXPECT_FALSE(ep.healthy);
    }
  }

  // Recovery: the primary comes back on the same port; replica 2's next
  // sync pulls the generation it missed and converges with replica 1.
  StartPrimary(primary_port_);
  ASSERT_TRUE(r2->agent->SyncNow().ok());
  EXPECT_EQ(r2->catalog.Generation("d"), 2u);
  ExpectServesGeneration(r2->server->port(), "d", pairs_v2);
  EXPECT_EQ(r2->agent->stats().lag_gens, 0u);
  EXPECT_TRUE(r2->agent->primary_up());

  StopReplica(r1.get());
  StopReplica(r2.get());
}

// ---------------------------------------------------------------------------
// ReplicaSetClient
// ---------------------------------------------------------------------------

TEST_F(ReplTest, ReplicaSetClientSpreadsAndFailsOver) {
  ManualClock clock(0);
  Rng rng(31), rng_client(32);
  TcpTransport tcp;
  auto r = MakeReplica("r1", &tcp, &clock, &rng);
  ASSERT_TRUE(r->agent->SyncNow().ok());

  ReplicaSetOptions opts;
  opts.endpoints = {primary_endpoint_, r->endpoint};
  opts.request_timeout_ms = 2000;
  opts.overall_timeout_ms = 4000;
  opts.sleep_ms = [&clock](std::uint64_t ms) { clock.AdvanceMs(ms); };
  ReplicaSetClient client(&tcp, &clock, &rng_client, opts);

  EXPECT_EQ(client.CheckHeartbeats(), 2u);
  const auto pairs = SampleQueryPairs(graph_v1_, 20, 405);
  const std::vector<std::string> expect =
      FreshEngineLines("v1_copy", pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    Result<std::string> got =
        client.Query(std::to_string(pairs[i].first) + " " +
                     std::to_string(pairs[i].second));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expect[i]);
  }
  // Round-robin: both endpoints served some requests.
  for (const auto& ep : client.endpoint_stats()) {
    EXPECT_GT(ep.requests_ok, 0u) << ep.endpoint;
  }

  // Kill the primary: queries fail over to the replica without error.
  StopPrimary();
  const std::string expect_12 =
      FreshEngineLines("v1_copy", {{1, 2}}).front();
  for (int i = 0; i < 4; ++i) {
    Result<std::string> got = client.Query("1 2");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expect_12);
  }
  EXPECT_EQ(client.CheckHeartbeats(), 1u);
  StopReplica(r.get());
}

TEST(ReplicaSetClientTest, BacksOffDeterministicallyWhenAllDown) {
  // Every connect refused by the injector: no sockets, no sleeps. The
  // recorded inter-round delays must follow the seeded backoff schedule
  // and the query must end Unavailable at the overall deadline.
  ManualClock clock(0);
  Rng rng(51);
  TcpTransport tcp;
  FaultInjector faults;
  faults.AddRule({FaultRule::Kind::kFailConnect, "", 0, -1});
  FaultInjectingTransport transport(&tcp, &faults);

  ReplicaSetOptions opts;
  opts.endpoints = {"10.255.255.1:1", "10.255.255.2:2"};
  opts.request_timeout_ms = 100;
  opts.overall_timeout_ms = 2000;
  opts.backoff.initial_delay_ms = 100;
  opts.backoff.max_delay_ms = 800;
  opts.backoff.multiplier = 2.0;
  opts.backoff.jitter = 0.0;
  std::vector<std::uint64_t> slept;
  opts.sleep_ms = [&](std::uint64_t ms) {
    slept.push_back(ms);
    clock.AdvanceMs(ms);
  };
  ReplicaSetClient client(&transport, &clock, &rng, opts);

  Result<std::string> got = client.Query("heartbeat");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable());
  // Jitter 0: the schedule is exact — 100, 200, 400, 800, then the
  // 800ms delay would pass the 2000ms deadline and the client gives up.
  EXPECT_EQ(slept, (std::vector<std::uint64_t>{100, 200, 400, 800}));
  EXPECT_GT(faults.stats().connects_failed, 0u);
  EXPECT_EQ(client.failovers(), 0u) << "no endpoint ever answered";
}

// ---------------------------------------------------------------------------
// Distributed tracing across failover (DESIGN.md §17)
// ---------------------------------------------------------------------------

TEST_F(ReplTest, SyncEmitsPullAndInstallEventsUnderOneTraceId) {
  ManualClock clock(0);
  Rng rng(71);
  TcpTransport tcp;
  Mutex mu;
  std::vector<std::string> events;
  obs::EventLogOptions lopts;
  lopts.clock = &clock;
  lopts.sink = obs_test::CapturingSink(&mu, &events);
  obs::EventLog log(lopts);
  auto r = MakeReplica("r_events", &tcp, &clock, &rng, "d",
                       /*recorder=*/nullptr, &log);

  ASSERT_TRUE(r->agent->SyncNow().ok());
  ASSERT_EQ(events.size(), 2u) << "expected exactly pull + install";
  EXPECT_NE(events[0].find("\"event\":\"islabel.repl.pull\""),
            std::string::npos)
      << events[0];
  EXPECT_NE(events[0].find("\"dataset\":\"d\""), std::string::npos);
  EXPECT_NE(events[1].find("\"event\":\"islabel.repl.install\""),
            std::string::npos)
      << events[1];
  // Both events of the sync carry the same minted trace id.
  const std::string key = "\"tid\":\"";
  const std::size_t p0 = events[0].find(key);
  ASSERT_NE(p0, std::string::npos) << events[0];
  const std::string tid = events[0].substr(
      p0 + key.size(), events[0].find('"', p0 + key.size()) - p0 - key.size());
  EXPECT_FALSE(tid.empty());
  EXPECT_NE(tid, "0");
  EXPECT_NE(events[1].find(key + tid + "\""), std::string::npos)
      << "install under a different trace than its pull: " << events[1];

  // A sync against a dead primary emits sync_failed.
  StopPrimary();
  EXPECT_FALSE(r->agent->SyncNow().ok());
  ASSERT_GE(events.size(), 3u);
  EXPECT_NE(events.back().find("\"event\":\"islabel.repl.sync_failed\""),
            std::string::npos)
      << events.back();
  StopReplica(r.get());
}

// The acceptance test for trace stitching: one tid-tagged logical query
// whose first attempts are severed client-side (the response is cut
// mid-line AFTER the server executed it) must appear under the SAME
// trace id in BOTH replicas' flight recorders, retrievable over each
// serving face with `tracez id HEX`. Faults and time are injected, so
// the retry/failover schedule is fully deterministic.
TEST_F(ReplTest, FailoverQueryIsStitchedIntoOneTraceAcrossReplicas) {
  ManualClock clock(0);
  Rng rng1(61), rng2(62), rng_client(63);
  TcpTransport tcp;
  obs::FlightRecorderOptions ropts;
  obs::FlightRecorder rec1(ropts);
  obs::FlightRecorder rec2(ropts);
  auto r1 = MakeReplica("r1", &tcp, &clock, &rng1, "d", &rec1);
  auto r2 = MakeReplica("r2", &tcp, &clock, &rng2, "d", &rec2);
  ASSERT_TRUE(r1->agent->SyncNow().ok());
  ASSERT_TRUE(r2->agent->SyncNow().ok());
  StopPrimary();  // the replicas alone serve the query

  // Each replica's first TWO responses to the client are severed after
  // one delivered byte: both in-endpoint retry attempts fail, forcing a
  // genuine cross-replica failover, and the eventual re-probe succeeds.
  FaultInjector faults;
  FaultInjectingTransport transport(&tcp, &faults);
  faults.AddRule(
      {FaultRule::Kind::kCutAfterRecvBytes, r1->endpoint, 1, 2});
  faults.AddRule(
      {FaultRule::Kind::kCutAfterRecvBytes, r2->endpoint, 1, 2});

  ReplicaSetOptions copts;
  copts.endpoints = {r1->endpoint, r2->endpoint};
  copts.request_timeout_ms = 2000;
  copts.overall_timeout_ms = 8000;
  copts.sleep_ms = [&clock](std::uint64_t ms) { clock.AdvanceMs(ms); };
  ReplicaSetClient client(&transport, &clock, &rng_client, copts);

  const std::string expect = FreshEngineLines("v1_copy", {{1, 2}}).front();
  Result<std::string> got = client.Query("1 2");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, expect);
  EXPECT_GE(client.failovers(), 1u);
  EXPECT_EQ(faults.stats().connections_cut, 4u);

  const std::uint64_t tid = client.last_trace_id();
  ASSERT_NE(tid, 0u);
  const std::string hex = obs::FormatTraceId(tid);

  // The one logical query is retrievable by id from BOTH replicas, and
  // each saw it more than once (its two severed attempts) — the
  // stamped line stitched every retry into one trace.
  for (const Replica* r : {r1.get(), r2.get()}) {
    LoopbackClient scraper(r->server->port());
    ASSERT_TRUE(scraper.connected());
    scraper.Send("tracez id " + hex + "\n");
    const std::vector<std::string> lines = scraper.ReadThroughEof();
    ASSERT_GE(lines.size(), 3u) << r->endpoint << ": " << lines.front();
    EXPECT_EQ(lines.front().rfind("tracez: ", 0), 0u);
    EXPECT_EQ(lines.back(), "# EOF");
    std::size_t matching = 0;
    for (const std::string& line : lines) {
      if (line.rfind("trace id=" + hex + " ", 0) == 0) {
        ++matching;
        EXPECT_NE(line.find("verb=distance"), std::string::npos) << line;
      }
    }
    EXPECT_GE(matching, 2u) << r->endpoint;
  }

  // A caller-propagated tid is preserved, not re-minted.
  Result<std::string> tagged = client.Query("1 2 tid=abcd");
  ASSERT_TRUE(tagged.ok());
  EXPECT_EQ(client.last_trace_id(), 0xabcdu);
  // And successive untagged queries mint fresh ids.
  ASSERT_TRUE(client.Query("1 2").ok());
  const std::uint64_t tid2 = client.last_trace_id();
  EXPECT_NE(tid2, 0u);
  EXPECT_NE(tid2, tid);

  StopReplica(r1.get());
  StopReplica(r2.get());
}

TEST(ReplicaSetClientTest, NoEndpointsIsInvalidArgument) {
  ManualClock clock(0);
  Rng rng(52);
  TcpTransport tcp;
  ReplicaSetOptions opts;
  ReplicaSetClient client(&tcp, &clock, &rng, opts);
  EXPECT_TRUE(client.Query("x").status().IsInvalidArgument());
}

}  // namespace
}  // namespace islabel
