// Tests for the telemetry layer (src/obs/): registry identity and
// kind-mismatch behavior, histogram bucket math and quantile
// interpolation, the enabled A/B switch, Prometheus exposition
// validity, a multi-threaded histogram hammer (the TSan target for the
// record path), the QueryTrace / slow-query machinery on a
// ManualClock, the flight recorder (ring exactness, enable flag, the
// 8-thread record hammer with concurrent tracez scrapes), and the
// structured event log (JSON shape, levels, rate limiting, tid
// auto-attach).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs_test_util.h"
#include "util/clock.h"
#include "util/mutex.h"

namespace islabel {
namespace obs {
namespace {

// ---------- Registry identity ----------

TEST(MetricRegistry, GetOrCreateReturnsSamePointer) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("islabel_test_total", "help");
  Counter* b = reg.GetCounter("islabel_test_total", "help");
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(b->Value(), 3u);

  Gauge* g1 = reg.GetGauge("islabel_test_level", "help");
  Gauge* g2 = reg.GetGauge("islabel_test_level", "help");
  EXPECT_EQ(g1, g2);

  Histogram* h1 = reg.GetHistogram("islabel_test_seconds", "help");
  Histogram* h2 = reg.GetHistogram("islabel_test_seconds", "help");
  EXPECT_EQ(h1, h2);
}

TEST(MetricRegistry, DistinctLabelsAreDistinctSeries) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("islabel_test_total", "h", {{"verb", "a"}});
  Counter* b = reg.GetCounter("islabel_test_total", "h", {{"verb", "b"}});
  EXPECT_NE(a, b);
  a->Inc();
  EXPECT_EQ(a->Value(), 1u);
  EXPECT_EQ(b->Value(), 0u);
  // Same labels again: same series.
  EXPECT_EQ(a, reg.GetCounter("islabel_test_total", "h", {{"verb", "a"}}));
}

TEST(MetricRegistry, KindMismatchYieldsScratchNotCrash) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("islabel_test_total", "h");
  Gauge* g = reg.GetGauge("islabel_test_total", "h");  // wrong kind
  Histogram* h = reg.GetHistogram("islabel_test_total", "h");  // wrong kind
  // Recording into the scratch instruments works...
  g->Set(7);
  h->RecordNanos(5000);
  c->Inc();
  // ...but the family keeps its original kind and value, and nothing
  // bogus is rendered.
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE islabel_test_total counter"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE islabel_test_total gauge"), std::string::npos);
  EXPECT_EQ(reg.FamilyNames().size(), 1u);
}

TEST(MetricRegistry, EnabledFlagTurnsRecordingIntoNoop) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("islabel_test_total", "h");
  Gauge* g = reg.GetGauge("islabel_test_level", "h");
  Histogram* h = reg.GetHistogram("islabel_test_seconds", "h");
  c->Inc();
  g->Set(5);
  h->RecordNanos(10000);

  reg.set_enabled(false);
  c->Inc(100);
  g->Set(999);
  g->Add(999);
  h->RecordNanos(10000);
  EXPECT_EQ(c->Value(), 1u);
  EXPECT_EQ(g->Value(), 5);
  EXPECT_EQ(h->Count(), 1u);

  reg.set_enabled(true);
  c->Inc();
  EXPECT_EQ(c->Value(), 2u);
}

TEST(MetricRegistry, StandaloneInstrumentsAlwaysRecord) {
  // Instruments outside any registry (the "own_" embedded default of
  // the one-counter-system pattern) have no enabled flag: always live.
  Counter c;
  c.Inc(4);
  EXPECT_EQ(c.Value(), 4u);
  Gauge g;
  g.Add(2);
  g.Add(-5);
  EXPECT_EQ(g.Value(), -3);
}

TEST(MetricRegistry, CallbackGaugeReRegisterReplaces) {
  MetricRegistry reg;
  int live = 42;
  reg.RegisterCallbackGauge("islabel_test_cb", "h", {},
                            [&live] { return static_cast<double>(live); });
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("islabel_test_cb 42"), std::string::npos);
  // Freeze: replace the live closure with a value capture (the
  // ReplicaAgent::FreezeMetrics pattern).
  reg.RegisterCallbackGauge("islabel_test_cb", "h", {}, [] { return 7.0; });
  live = 0;
  text = reg.RenderPrometheus();
  EXPECT_NE(text.find("islabel_test_cb 7"), std::string::npos);
  EXPECT_EQ(reg.FamilyNames().size(), 1u);
}

// ---------- Histogram math ----------

TEST(Histogram, BucketIndexEdges) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);
  // Every exact power of two lands in its own bucket (upper bound is
  // inclusive), one past it spills into the next.
  for (int i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperMicros(i)), i);
  }
  const std::uint64_t top =
      Histogram::BucketUpperMicros(Histogram::kNumFiniteBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(top + 1), Histogram::kNumFiniteBuckets);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), Histogram::kNumFiniteBuckets);
}

TEST(Histogram, RecordAccumulatesCountSumBuckets) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  h.RecordNanos(1000);
  h.RecordNanos(1000000);  // bucket 10: (512, 1024]
  h.RecordNanos(1000000);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumNanos(), 2001000u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(10), 2u);
}

TEST(Histogram, QuantileInterpolatesInsideBucket) {
  Histogram h;
  EXPECT_EQ(h.QuantileMicros(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.RecordNanos(1000000);  // (512, 1024] µs
  const double p50 = h.QuantileMicros(0.5);
  const double p99 = h.QuantileMicros(0.99);
  EXPECT_GT(p50, 512.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_GE(p99, p50);  // quantiles are monotone in q
  EXPECT_LE(p99, 1024.0);
}

TEST(Histogram, OverflowQuantileReportsTopFiniteBound) {
  Histogram h;
  h.RecordNanos(~0ull);  // way past the top finite bucket
  const double top = static_cast<double>(
      Histogram::BucketUpperMicros(Histogram::kNumFiniteBuckets - 1));
  EXPECT_EQ(h.QuantileMicros(0.5), top);
  EXPECT_EQ(h.QuantileMicros(1.0), top);
}

// ---------- Prometheus exposition validity ----------

// Minimal strict parser for the subset of the text format the registry
// emits: every line is "# HELP name text", "# TYPE name kind",
// "name[{labels}] value", or the final "# EOF". Samples must follow
// their TYPE line; histogram buckets must be cumulative and end at
// +Inf == count.
void CheckPrometheusText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::set<std::string> typed;
  std::string last;
  bool saw_eof = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(saw_eof) << "content after # EOF: " << line;
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    last = line;
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream t(line.substr(7));
      std::string name, kind;
      t >> name >> kind;
      ASSERT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      typed.insert(name);
      continue;
    }
    // Sample line: name[{...}] SP value.
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string series = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparsable value in: " << line;
    std::string name = series.substr(0, series.find('{'));
    // Histogram sample names carry a suffix; strip it to find the family.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (typed.count(name) == 0 && name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string stripped = name.substr(0, name.size() - s.size());
        if (typed.count(stripped) != 0) name = stripped;
      }
    }
    EXPECT_NE(typed.count(name), 0u)
        << "sample before its # TYPE line: " << line;
  }
  EXPECT_TRUE(saw_eof);
  EXPECT_EQ(last, "# EOF");
}

TEST(MetricRegistry, RenderPrometheusIsValidAndEofTerminated) {
  MetricRegistry reg;
  reg.GetCounter("islabel_test_total", "Total things.")->Inc(5);
  reg.GetCounter("islabel_test_by_verb_total", "h", {{"verb", "distance"}})
      ->Inc();
  reg.GetGauge("islabel_test_level", "A level.")->Set(-3);
  Histogram* h = reg.GetHistogram("islabel_test_seconds", "Latency.",
                                  {{"verb", "path"}});
  h->RecordNanos(1000);
  h->RecordNanos(100000);
  h->RecordNanos(100000000);
  reg.RegisterCallbackGauge("islabel_test_cb", "Sampled at scrape.", {},
                            [] { return 1.5; });
  const std::string text = reg.RenderPrometheus();
  CheckPrometheusText(text);

  // Histogram invariants: cumulative buckets, +Inf equals _count.
  EXPECT_NE(
      text.find("islabel_test_seconds_bucket{verb=\"path\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("islabel_test_seconds_count{verb=\"path\"} 3"),
            std::string::npos);
  // Help text with a newline is escaped, not emitted raw.
  MetricRegistry reg2;
  reg2.GetCounter("islabel_test_total", "line1\nline2")->Inc();
  CheckPrometheusText(reg2.RenderPrometheus());
}

TEST(MetricRegistry, LabelValuesAreEscaped) {
  MetricRegistry reg;
  reg.GetCounter("islabel_test_total", "h", {{"p", "a\"b\\c\nd"}})->Inc();
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("p=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  CheckPrometheusText(text);
}

// ---------- Concurrency: the TSan target ----------

TEST(Histogram, ConcurrentRecordConservesTotals) {
  MetricRegistry reg;
  Histogram* h = reg.GetHistogram("islabel_test_seconds", "h");
  Counter* c = reg.GetCounter("islabel_test_total", "h");
  // Twice as many threads as thread cells, all live at once, so at least
  // half record into the shared cell; and two consecutive waves, so the
  // second wave records into the cells the first freed at thread exit.
  const int kThreads = 2 * Histogram::ThreadCells();
  constexpr int kWaves = 2;
  constexpr int kPerThread = 20000;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([h, c, t, kThreads, &started, &finished] {
        for (int i = 0; i < kPerThread; ++i) {
          // Deterministic spread across buckets, different per thread.
          h->RecordNanos(static_cast<std::uint64_t>((i * 7 + t) % 5000) *
                         1000);
          c->Inc();
          if (i == 0) {
            // Every thread holds its cell before any goes on.
            started.fetch_add(1);
            while (started.load() < kThreads) std::this_thread::yield();
          }
        }
        finished.fetch_add(1);
      });
    }
    // Scrapes race the writers; rendering must stay well-formed.
    do {
      CheckPrometheusText(reg.RenderPrometheus());
    } while (finished.load() < kThreads);
    for (auto& th : threads) th.join();
  }

  const std::uint64_t expected =
      std::uint64_t{kWaves} * kThreads * kPerThread;
  EXPECT_EQ(c->Value(), expected);
  EXPECT_EQ(h->Count(), expected);
  std::uint64_t bucket_sum = 0;
  for (int i = 0; i <= Histogram::kNumFiniteBuckets; ++i) {
    bucket_sum += h->BucketCount(i);
  }
  EXPECT_EQ(bucket_sum, expected);  // no lost or double-counted events
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += kWaves * static_cast<std::uint64_t>((i * 7 + t) % 5000) *
                      1000;
    }
  }
  EXPECT_EQ(h->SumNanos(), expected_sum);
}

TEST(MetricRegistry, ConcurrentGetOrCreateIsSafe) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      for (int i = 0; i < 500; ++i) {
        Counter* c = reg.GetCounter("islabel_test_total", "h");
        c->Inc();
        seen[static_cast<std::size_t>(t)] = c;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(seen[0]->Value(), 8u * 500u);
}

// ---------- QueryTrace / slow-query ----------

TEST(QueryTrace, StageTimerAttributesToCurrentTrace) {
  ManualClock clock;
  QueryTrace trace(&clock);
  TraceScope scope(&trace);
  ASSERT_EQ(CurrentTrace(), &trace);
  {
    StageTimer timer(Stage::kKernel);
    clock.AdvanceMicros(250);
  }
  {
    StageTimer timer(Stage::kEncode);
    clock.AdvanceMicros(30);
  }
  {
    StageTimer timer(Stage::kKernel);  // stages accumulate
    clock.AdvanceMicros(50);
  }
  EXPECT_EQ(trace.StageMicros(Stage::kKernel), 300u);
  EXPECT_EQ(trace.StageMicros(Stage::kEncode), 30u);
  EXPECT_EQ(trace.StageMicros(Stage::kParse), 0u);
}

TEST(QueryTrace, NoTraceInstalledMeansNoEffect) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  StageTimer timer(Stage::kKernel);  // must not crash or read a clock
}

TEST(QueryTrace, TraceScopeRestoresPrevious) {
  ManualClock clock;
  QueryTrace outer(&clock);
  TraceScope outer_scope(&outer);
  {
    QueryTrace inner(&clock);
    TraceScope inner_scope(&inner);
    EXPECT_EQ(CurrentTrace(), &inner);
  }
  EXPECT_EQ(CurrentTrace(), &outer);
}

TEST(QueryTrace, KernelDepthGuardOnlyOutermostCounts) {
  ManualClock clock;
  QueryTrace trace(&clock);
  EXPECT_TRUE(trace.BeginKernel());
  EXPECT_FALSE(trace.BeginKernel());  // nested frame must not attribute
  trace.EndKernel();
  trace.EndKernel();
  EXPECT_TRUE(trace.BeginKernel());  // guard resets once fully unwound
  trace.EndKernel();
}

TEST(QueryTrace, StageNamesArePinned) {
  EXPECT_STREQ(StageName(Stage::kParse), "parse");
  EXPECT_STREQ(StageName(Stage::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(StageName(Stage::kPoolWait), "pool_wait");
  EXPECT_STREQ(StageName(Stage::kKernel), "kernel");
  EXPECT_STREQ(StageName(Stage::kEncode), "encode");
}

// ---------- Trace id wire form ----------

TEST(TraceId, FormatIsLowercaseHexNoLeadingZeros) {
  EXPECT_EQ(FormatTraceId(0), "0");
  EXPECT_EQ(FormatTraceId(1), "1");
  EXPECT_EQ(FormatTraceId(0xdeadbeef), "deadbeef");
  EXPECT_EQ(FormatTraceId(~0ull), "ffffffffffffffff");
}

TEST(TraceId, ParseAcceptsOnlyNonzeroHex) {
  std::uint64_t id = 0;
  EXPECT_TRUE(ParseTraceId("1", &id));
  EXPECT_EQ(id, 1u);
  EXPECT_TRUE(ParseTraceId("DeadBeef", &id));  // either case on input
  EXPECT_EQ(id, 0xdeadbeefu);
  EXPECT_TRUE(ParseTraceId("ffffffffffffffff", &id));
  EXPECT_EQ(id, ~0ull);
  EXPECT_TRUE(ParseTraceId("0001", &id));  // leading zeros parse fine
  EXPECT_EQ(id, 1u);

  EXPECT_FALSE(ParseTraceId("", &id));
  EXPECT_FALSE(ParseTraceId("0", &id));     // zero is never a wire id
  EXPECT_FALSE(ParseTraceId("0000", &id));
  EXPECT_FALSE(ParseTraceId("xyz", &id));
  EXPECT_FALSE(ParseTraceId("12 34", &id));
  EXPECT_FALSE(ParseTraceId("0x12", &id));  // no prefix form
  EXPECT_FALSE(ParseTraceId("11112222333344445", &id));  // 17 digits
  // Round trip across the wire form.
  for (std::uint64_t v : {1ull, 0x10ull, 0xabcdef0123456789ull, ~0ull}) {
    std::uint64_t back = 0;
    ASSERT_TRUE(ParseTraceId(FormatTraceId(v), &back));
    EXPECT_EQ(back, v);
  }
}

// ---------- Flight recorder ----------

QueryTrace MakeTrace(const Clock* clock, std::uint64_t tid,
                     std::uint64_t kernel_us) {
  QueryTrace trace(clock);
  trace.set_trace_id(tid);
  trace.Add(Stage::kKernel, kernel_us);
  return trace;
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwoMinTwo) {
  ManualClock clock;
  FlightRecorderOptions opts;
  opts.clock = &clock;
  opts.capacity_per_thread = 0;
  EXPECT_EQ(FlightRecorder(opts).capacity_per_thread(), 2u);
  opts.capacity_per_thread = 3;
  EXPECT_EQ(FlightRecorder(opts).capacity_per_thread(), 4u);
  opts.capacity_per_thread = 8;
  EXPECT_EQ(FlightRecorder(opts).capacity_per_thread(), 8u);
}

TEST(FlightRecorder, WraparoundKeepsExactlyTheNewestCapacityRecords) {
  ManualClock clock;
  FlightRecorderOptions opts;
  opts.clock = &clock;
  opts.capacity_per_thread = 4;
  FlightRecorder rec(opts);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    QueryTrace trace = MakeTrace(&clock, /*tid=*/100 + i, /*kernel_us=*/i);
    rec.Record("distance", "ds", /*error=*/false, /*total_us=*/i, trace);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.num_rings(), 1u);  // single recording thread

  const std::vector<FlightRecord> all = rec.Snapshot(0);
  ASSERT_EQ(all.size(), 4u);  // exactly the ring capacity survives
  // Newest first: seqs 10, 9, 8, 7 — the wrap evicted 1..6.
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, 10u - i);
    EXPECT_EQ(all[i].trace_id, 100u + all[i].seq);
    EXPECT_EQ(all[i].total_us, all[i].seq);
    EXPECT_EQ(all[i].stage_us[static_cast<int>(Stage::kKernel)], all[i].seq);
    EXPECT_STREQ(all[i].verb, "distance");
    EXPECT_EQ(all[i].dataset, "ds");
  }
  // max_records caps from the newest end.
  EXPECT_EQ(rec.Snapshot(2).size(), 2u);
  EXPECT_EQ(rec.Snapshot(2)[0].seq, 10u);
}

TEST(FlightRecorder, DisabledRecordIsANoop) {
  ManualClock clock;
  FlightRecorderOptions opts;
  opts.clock = &clock;
  FlightRecorder rec(opts);
  rec.set_enabled(false);
  QueryTrace trace = MakeTrace(&clock, 7, 5);
  rec.Record("distance", "", false, 5, trace);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Snapshot(0).empty());

  rec.set_enabled(true);
  rec.Record("distance", "", false, 5, trace);
  EXPECT_EQ(rec.total_recorded(), 1u);
  EXPECT_EQ(rec.Snapshot(0).size(), 1u);
}

TEST(FlightRecorder, RenderTracezFormatIsPinned) {
  ManualClock clock;
  clock.SetMs(1000);
  FlightRecorderOptions opts;
  opts.clock = &clock;
  opts.capacity_per_thread = 8;
  FlightRecorder rec(opts);
  {
    QueryTrace trace(&clock);
    trace.set_trace_id(0xabc);
    trace.set_cache_hit(true);
    trace.Add(Stage::kParse, 1);
    trace.Add(Stage::kCacheLookup, 2);
    trace.Add(Stage::kPoolWait, 3);
    trace.Add(Stage::kKernel, 4);
    trace.Add(Stage::kEncode, 5);
    rec.Record("distance", "ds", /*error=*/false, /*total_us=*/15, trace);
  }
  {
    QueryTrace trace(&clock);  // untagged, error, no dataset
    rec.Record("path", "", /*error=*/true, /*total_us=*/99, trace);
  }
  clock.AdvanceMs(500);

  const std::string recent =
      rec.RenderTracez(FlightRecorder::TracezMode::kRecent, 0, 0);
  EXPECT_EQ(
      recent,
      "tracez: records=2 shown=2 capacity_per_thread=8 threads=1 enabled=1\n"
      "trace id=- seq=2 verb=path dataset=- status=error total_us=99"
      " parse_us=0 cache_us=0 pool_wait_us=0 kernel_us=0 encode_us=0"
      " cache_hit=0 age_ms=500\n"
      "trace id=abc seq=1 verb=distance dataset=ds status=ok total_us=15"
      " parse_us=1 cache_us=2 pool_wait_us=3 kernel_us=4 encode_us=5"
      " cache_hit=1 age_ms=500\n"
      "# EOF");

  // kErrors keeps only error responses; kById selects by trace id and
  // renders oldest first.
  const std::string errors =
      rec.RenderTracez(FlightRecorder::TracezMode::kErrors, 0, 0);
  EXPECT_NE(errors.find("shown=1"), std::string::npos);
  EXPECT_NE(errors.find("seq=2"), std::string::npos);
  EXPECT_EQ(errors.find("seq=1 "), std::string::npos);
  const std::string by_id =
      rec.RenderTracez(FlightRecorder::TracezMode::kById, 0xabc, 0);
  EXPECT_NE(by_id.find("id=abc seq=1"), std::string::npos);
  EXPECT_EQ(by_id.find("seq=2"), std::string::npos);
}

TEST(FlightRecorder, SlowModeSortsByTotalDescending) {
  ManualClock clock;
  FlightRecorderOptions opts;
  opts.clock = &clock;
  FlightRecorder rec(opts);
  for (std::uint64_t us : {5u, 500u, 50u}) {
    QueryTrace trace(&clock);
    rec.Record("distance", "", false, us, trace);
  }
  const std::string slow =
      rec.RenderTracez(FlightRecorder::TracezMode::kSlow, 0, 2);
  const std::size_t p500 = slow.find("total_us=500");
  const std::size_t p50 = slow.find("total_us=50 ");
  EXPECT_NE(p500, std::string::npos);
  EXPECT_NE(p50, std::string::npos);
  EXPECT_LT(p500, p50);
  EXPECT_EQ(slow.find("total_us=5 "), std::string::npos);  // limit=2 cut it
}

TEST(FlightRecorder, DatasetIsTruncatedOnRecord) {
  ManualClock clock;
  FlightRecorderOptions opts;
  opts.clock = &clock;
  FlightRecorder rec(opts);
  QueryTrace trace(&clock);
  rec.Record("distance", "a-very-long-dataset-name", false, 1, trace);
  const std::vector<FlightRecord> all = rec.Snapshot(0);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].dataset, "a-very-long-dat");  // 15 bytes
}

// The TSan target for the recorder: 8 writer threads hammering Record
// while scrapers run Snapshot and RenderTracez concurrently. Asserts
// that nothing tears (every surviving record is internally consistent)
// and that the global sequence conserves the total count.
TEST(FlightRecorder, ConcurrentRecordAndScrapeIsSafe) {
  ManualClock clock;
  FlightRecorderOptions opts;
  opts.clock = &clock;
  opts.capacity_per_thread = 64;  // small rings force constant wrapping
  FlightRecorder rec(opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, &clock, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t us = static_cast<std::uint64_t>(i % 1000);
        QueryTrace trace(&clock);
        // tid encodes (thread, i) so a torn slot would show as a
        // mismatched (trace_id, total_us) pair below.
        trace.set_trace_id((static_cast<std::uint64_t>(t + 1) << 32) | us);
        trace.Add(Stage::kKernel, us);
        rec.Record("distance", "hammer", (i % 7) == 0, us, trace);
      }
    });
  }
  std::thread scraper([&rec, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightRecord& r : rec.Snapshot(0)) {
        // Seqlock contract: skipped-or-whole, never torn.
        ASSERT_EQ(r.trace_id & 0xffffffffu, r.total_us);
        ASSERT_EQ(r.stage_us[static_cast<int>(Stage::kKernel)], r.total_us);
        ASSERT_STREQ(r.verb, "distance");
        ASSERT_EQ(r.dataset, "hammer");
      }
      const std::string text =
          rec.RenderTracez(FlightRecorder::TracezMode::kRecent, 0, 16);
      ASSERT_EQ(text.rfind("\n# EOF"), text.size() - 6);
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(rec.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(rec.num_rings(), static_cast<std::size_t>(kThreads));
  // Post-quiescence: every ring is full, snapshot returns threads*cap.
  EXPECT_EQ(rec.Snapshot(0).size(),
            static_cast<std::size_t>(kThreads) * rec.capacity_per_thread());
}

// ---------- Structured event log ----------

TEST(EventLog, JsonLineShapeIsPinned) {
  ManualClock clock;
  clock.SetMs(42);
  Mutex mu;
  std::vector<std::string> lines;
  EventLogOptions opts;
  opts.clock = &clock;
  opts.sink = obs_test::CapturingSink(&mu, &lines);
  EventLog log(opts);
  log.Log(EventLevel::kInfo, "islabel.test.started",
          {{"dataset", "ds"}, {"gen", EventLog::U64(7)}});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"ts_ms\":42,\"level\":\"info\",\"event\":"
            "\"islabel.test.started\",\"dataset\":\"ds\",\"gen\":\"7\"}");
}

TEST(EventLog, FieldValuesAreJsonEscaped) {
  ManualClock clock;
  Mutex mu;
  std::vector<std::string> lines;
  EventLogOptions opts;
  opts.clock = &clock;
  opts.sink = obs_test::CapturingSink(&mu, &lines);
  EventLog log(opts);
  log.Log(EventLevel::kError, "islabel.test.started",
          {{"error", "a\"b\\c\nd"}});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"error\":\"a\\\"b\\\\c\\nd\""),
            std::string::npos);
}

TEST(EventLog, MinLevelDropsBelowWithoutCountingAsRateLimited) {
  ManualClock clock;
  Mutex mu;
  std::vector<std::string> lines;
  EventLogOptions opts;
  opts.clock = &clock;
  opts.min_level = EventLevel::kWarn;
  opts.sink = obs_test::CapturingSink(&mu, &lines);
  EventLog log(opts);
  log.Log(EventLevel::kDebug, "islabel.test.started");
  log.Log(EventLevel::kInfo, "islabel.test.started");
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(log.dropped(), 0u);  // level filtering is not a "drop"
  log.Log(EventLevel::kWarn, "islabel.test.started");
  log.Log(EventLevel::kError, "islabel.test.started");
  EXPECT_EQ(lines.size(), 2u);
}

TEST(EventLog, PerEventTokenBucketRateLimitsAndCountsDrops) {
  ManualClock clock;
  Mutex mu;
  std::vector<std::string> lines;
  EventLogOptions opts;
  opts.clock = &clock;
  opts.sink = obs_test::CapturingSink(&mu, &lines);
  opts.rate_limit_per_sec = 1.0;
  opts.rate_limit_burst = 2.0;
  EventLog log(opts);
  for (int i = 0; i < 5; ++i) log.Log(EventLevel::kInfo, "islabel.test.started");
  EXPECT_EQ(lines.size(), 2u);  // the burst
  EXPECT_EQ(log.dropped(), 3u);
  // A different event name has its own bucket.
  log.Log(EventLevel::kInfo, "islabel.test.stopped");
  EXPECT_EQ(lines.size(), 3u);
  // One second refills one token for the throttled name.
  clock.AdvanceMs(1000);
  log.Log(EventLevel::kInfo, "islabel.test.started");
  log.Log(EventLevel::kInfo, "islabel.test.started");
  EXPECT_EQ(lines.size(), 4u);
  EXPECT_EQ(log.dropped(), 4u);
}

TEST(EventLog, TraceIdAutoAttachesFromCurrentTrace) {
  ManualClock clock;
  Mutex mu;
  std::vector<std::string> lines;
  EventLogOptions opts;
  opts.clock = &clock;
  opts.sink = obs_test::CapturingSink(&mu, &lines);
  EventLog log(opts);

  log.Log(EventLevel::kInfo, "islabel.test.started");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("\"tid\""), std::string::npos);  // no trace

  QueryTrace trace(&clock);
  trace.set_trace_id(0xbeef);
  TraceScope scope(&trace);
  log.Log(EventLevel::kInfo, "islabel.test.started");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"tid\":\"beef\""), std::string::npos);

  // An explicit tid field suppresses the auto-attached one.
  log.Log(EventLevel::kInfo, "islabel.test.started", {{"tid", "cafe"}});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[2].find("\"tid\":\"cafe\""), std::string::npos);
  EXPECT_EQ(lines[2].find("beef"), std::string::npos);
}

TEST(EventLog, NullSinkCountsEveryAdmittedEventAsDropped) {
  ManualClock clock;
  EventLogOptions opts;
  opts.clock = &clock;
  EventLog log(opts);  // no sink
  log.Log(EventLevel::kInfo, "islabel.test.started");
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(EventLog, LevelNamesAndParsingRoundTrip) {
  EXPECT_STREQ(EventLevelName(EventLevel::kDebug), "debug");
  EXPECT_STREQ(EventLevelName(EventLevel::kInfo), "info");
  EXPECT_STREQ(EventLevelName(EventLevel::kWarn), "warn");
  EXPECT_STREQ(EventLevelName(EventLevel::kError), "error");
  EventLevel level = EventLevel::kInfo;
  EXPECT_TRUE(ParseEventLevel("debug", &level));
  EXPECT_EQ(level, EventLevel::kDebug);
  EXPECT_TRUE(ParseEventLevel("error", &level));
  EXPECT_EQ(level, EventLevel::kError);
  EXPECT_FALSE(ParseEventLevel("verbose", &level));
  EXPECT_FALSE(ParseEventLevel("", &level));
}

}  // namespace
}  // namespace obs
}  // namespace islabel
