// Per-query observability: QueryScope attribution and nesting, the flight
// recorder ring (wrap, drops, JSON round-trip), Prometheus exposition, and
// exact log2-histogram quantile extraction.
//
// Like obs_test.cc, every test restores the global gates it flips, so the
// file behaves both per-process under ctest and as one binary.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/catalogue.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "obs/scope.h"
#include "util/strings.h"

namespace hedgeq::obs {
namespace {

class ObsGuard {
 public:
  ObsGuard() {
    Registry().Reset();
    ResetFlightRecorder();
    SetEnabled(true);
  }
  ~ObsGuard() {
    SetEnabled(false);
    SetTraceEnabled(false);
    SetFlightRecorderEnabled(false);
    ResetFlightRecorder();
    Registry().Reset();
  }
};

// ---------------------------------------------------------------------------
// QueryScope

TEST(QueryScopeTest, AttributesMetricsToTheOpenScope) {
  ObsGuard guard;
  Counter* c = Registry().GetCounter("test.scope.counter");
  Gauge* g = Registry().GetGauge("test.scope.gauge");
  Histogram* h = Registry().GetHistogram("test.scope.hist");
  c->Add(5);  // before the scope: process-level only
  ScopeSnapshot snap;
  {
    QueryScope scope("q1");
    ASSERT_TRUE(scope.active());
    ASSERT_EQ(QueryScope::Current(), &scope);
    c->Add(2);
    g->Set(9);
    g->Set(4);  // gauges are last-wins inside a scope
    h->Observe(10);
    h->Observe(20);
    Registry().RecordSpan("test.scope.stage", 1500);
    snap = scope.Snapshot();
  }
  EXPECT_EQ(QueryScope::Current(), nullptr);
  EXPECT_EQ(c->value(), 7u) << "process rollup still sees everything";
  EXPECT_EQ(snap.CounterValue("test.scope.counter"), 2u)
      << "the scope sees only what happened inside it";
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 4u);
  ASSERT_EQ(snap.hists.size(), 1u);
  EXPECT_EQ(snap.hists[0].count, 2u);
  EXPECT_EQ(snap.hists[0].sum, 30u);
  EXPECT_EQ(snap.SpanTotalNs("test.scope.stage"), 1500u);
}

TEST(QueryScopeTest, NestedScopeFlushesIntoParent) {
  ObsGuard guard;
  Counter* c = Registry().GetCounter("test.nest.counter");
  QueryScope outer("outer");
  c->Add(1);
  {
    QueryScope inner("inner");
    c->Add(10);
    inner.Annotate("k", "v");
    EXPECT_EQ(inner.Snapshot().CounterValue("test.nest.counter"), 10u);
  }
  ScopeSnapshot snap = outer.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.nest.counter"), 11u)
      << "inner activity merges into the parent on close";
  ASSERT_EQ(snap.annotations.size(), 1u);
  EXPECT_EQ(snap.annotations[0].first, "k");
}

TEST(QueryScopeTest, InertWhenObservabilityDisabled) {
  Registry().Reset();
  SetEnabled(false);
  QueryScope scope("nothing");
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(QueryScope::Current(), nullptr);
  EXPECT_TRUE(scope.Snapshot().counters.empty());
  Registry().Reset();
}

TEST(QueryScopeTest, TopLevelScopeFeedsLatencyHistogram) {
  ObsGuard guard;
  { QueryScope scope("latency"); }
  EXPECT_EQ(Registry().GetHistogram(metrics::kHistQueryLatencyUs)->count(), 1u);
}

TEST(QueryScopeTest, ScopesAreThreadLocal) {
  ObsGuard guard;
  Counter* c = Registry().GetCounter("test.tl.counter");
  QueryScope scope("main-thread");
  std::thread other([&] {
    // No scope is open on this thread, so nothing is attributed.
    EXPECT_EQ(QueryScope::Current(), nullptr);
    c->Add(100);
  });
  other.join();
  c->Add(1);
  EXPECT_EQ(scope.Snapshot().CounterValue("test.tl.counter"), 1u);
  EXPECT_EQ(c->value(), 101u);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, TopLevelScopeDepositsARecord) {
  ObsGuard guard;
  SetFlightRecorderEnabled(true);
  {
    QueryScope scope("the-query");
    Registry().GetCounter("cache.hit")->Add(3);
    Registry().RecordSpan("automata.determinize", 5000);
    scope.Annotate("cache.reject", "HQV003: tampered");
  }
  std::vector<FlightRecordView> records = FlightRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].label, "the-query");
  EXPECT_EQ(records[0].outcome, "ok");
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_GT(records[0].unix_ms, 0u);
  ASSERT_EQ(records[0].stages.size(), 1u);
  EXPECT_EQ(records[0].stages[0].name, "automata.determinize");
  ASSERT_FALSE(records[0].counters.empty());
  EXPECT_EQ(records[0].counters[0].first, "cache.hit")
      << "cache.* counters sort first in the record";
  ASSERT_EQ(records[0].annotations.size(), 1u);
  EXPECT_EQ(records[0].annotations[0].second, "HQV003: tampered");
}

TEST(FlightRecorderTest, OutcomeAnnotationOverridesOk) {
  ObsGuard guard;
  SetFlightRecorderEnabled(true);
  {
    QueryScope scope("degraded");
    scope.Annotate("outcome", "degraded_lazy");
  }
  std::vector<FlightRecordView> records = FlightRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, "degraded_lazy");
}

TEST(FlightRecorderTest, NestedScopesDepositOneRecord) {
  ObsGuard guard;
  SetFlightRecorderEnabled(true);
  {
    QueryScope outer("outer");
    QueryScope inner("inner");
  }
  EXPECT_EQ(FlightRecords().size(), 1u)
      << "only the top-level scope records; the inner one flushed into it";
}

TEST(FlightRecorderTest, RingWrapKeepsTheNewestRecords) {
  ObsGuard guard;
  SetFlightRecorderEnabled(true);
  const size_t capacity = FlightRecorderCapacity();
  const size_t total = capacity + 17;
  for (size_t i = 0; i < total; ++i) {
    QueryScope scope(StrCat("q", i));
  }
  std::vector<FlightRecordView> records = FlightRecords();
  ASSERT_EQ(records.size(), capacity);
  EXPECT_EQ(FlightRecordsDropped(), 0u) << "sequential writes never contend";
  // Oldest-to-newest, and exactly the last `capacity` sequence numbers.
  EXPECT_EQ(records.front().seq, total - capacity + 1);
  EXPECT_EQ(records.back().seq, total);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
}

TEST(FlightRecorderTest, JsonRoundTripsThroughObsParser) {
  ObsGuard guard;
  SetFlightRecorderEnabled(true);
  {
    // Hostile label: quotes, backslash, newline all must survive export.
    QueryScope scope("say \"hi\" \\ twice\n");
    Registry().GetCounter("cache.miss")->Increment();
    Registry().RecordSpan("xml.parse", 1234);
    scope.Annotate("outcome", "error");
  }
  const std::string text = FlightRecorderJson();
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* fr = (*parsed)->Get("flight_recorder");
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->Get("capacity")->integer(),
            static_cast<int64_t>(FlightRecorderCapacity()));
  const json::Value* records = fr->Get("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array().size(), 1u);
  const json::Value& rec = *records->array()[0];
  EXPECT_EQ(rec.Get("label")->string(), "say \"hi\" \\ twice\n");
  EXPECT_EQ(rec.Get("outcome")->string(), "error");
  EXPECT_EQ(rec.Get("counters")->Get("cache.miss")->integer(), 1);
  EXPECT_EQ(rec.Get("stages")->array()[0]->Get("name")->string(), "xml.parse");
}

TEST(FlightRecorderTest, DisabledRecorderDepositsNothing) {
  ObsGuard guard;
  ASSERT_FALSE(FlightRecorderEnabled());
  { QueryScope scope("unrecorded"); }
  EXPECT_TRUE(FlightRecords().empty());
}

TEST(FlightRecorderTest, ConcurrentScopesAllLand) {
  ObsGuard guard;
  SetFlightRecorderEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryScope scope(StrCat("t", t, ":", i));
        Registry().GetCounter("test.conc")->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every deposit either landed or was counted as dropped (contention on a
  // wrapped slot) — none may vanish silently.
  EXPECT_EQ(FlightRecords().size() + FlightRecordsDropped(),
            static_cast<size_t>(kThreads * kPerThread));
  auto parsed = json::Parse(FlightRecorderJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

// ---------------------------------------------------------------------------
// Exact log2-histogram quantiles

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  ObsGuard guard;
  Histogram* h = Registry().GetHistogram("test.q.empty");
  EXPECT_EQ(HistogramQuantile(*h, 0.5), 0u);
  EXPECT_EQ(HistogramQuantile(*h, 0.99), 0u);
}

TEST(HistogramQuantileTest, ExactBucketBoundaries) {
  ObsGuard guard;
  Histogram* h = Registry().GetHistogram("test.q.split");
  // 100 observations in bucket 0 (values 0..1, upper bound 1) and 100 in
  // bucket 1 (values 2..3, upper bound 3).
  for (int i = 0; i < 100; ++i) h->Observe(1);
  for (int i = 0; i < 100; ++i) h->Observe(2);
  // rank(0.5) = ceil(0.5*200) = 100 — exactly exhausts bucket 0.
  EXPECT_EQ(HistogramQuantile(*h, 0.5), 1u);
  // One observation past the boundary crosses into bucket 1.
  h->Observe(0);  // bucket 0 now holds 101 of 201; rank(0.5)=101 stays in it
  EXPECT_EQ(HistogramQuantile(*h, 0.5), 1u);
  EXPECT_EQ(HistogramQuantile(*h, 0.9), 3u);
  EXPECT_EQ(HistogramQuantile(*h, 0.99), 3u);
  EXPECT_EQ(HistogramQuantile(*h, 1.0), 3u);
}

TEST(HistogramQuantileTest, SingleObservationDominatesEveryQuantile) {
  ObsGuard guard;
  Histogram* h = Registry().GetHistogram("test.q.single");
  h->Observe(1023);  // bucket 9, upper bound exactly 1023
  EXPECT_EQ(HistogramQuantile(*h, 0.0), 1023u);
  EXPECT_EQ(HistogramQuantile(*h, 0.5), 1023u);
  EXPECT_EQ(HistogramQuantile(*h, 1.0), 1023u);
}

TEST(HistogramQuantileTest, BucketUpperBoundsAreTight) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(9), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(62), (uint64_t{2} << 62) - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(63), ~uint64_t{0});
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(PrometheusTest, EmitsTypedFamiliesWithSanitizedNames) {
  ObsGuard guard;
  Registry().GetCounter("cache.hit")->Add(4);
  Registry().GetGauge("process.threads")->Set(2);
  const std::string text = PrometheusText();
  EXPECT_NE(text.find("# TYPE hedgeq_cache_hit counter\n"), std::string::npos);
  EXPECT_NE(text.find("hedgeq_cache_hit 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hedgeq_process_threads gauge\n"),
            std::string::npos);
  // Metric *names* must be fully sanitized (dots map to underscores);
  // label values like stage="automata.determinize" keep their dots.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_EQ(name.find('.'), std::string::npos) << line;
    EXPECT_EQ(name.rfind("hedgeq_", 0), 0u) << line;
  }
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeWithExactBounds) {
  ObsGuard guard;
  Histogram* h = Registry().GetHistogram("test.prom.hist");
  h->Observe(1);   // bucket 0 (le 1)
  h->Observe(1);
  h->Observe(2);   // bucket 1 (le 3)
  const std::string text = PrometheusText();
  EXPECT_NE(text.find("hedgeq_test_prom_hist_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hedgeq_test_prom_hist_bucket{le=\"3\"} 3\n"),
            std::string::npos)
      << "bucket counts are cumulative";
  EXPECT_NE(text.find("hedgeq_test_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hedgeq_test_prom_hist_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("hedgeq_test_prom_hist_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("hedgeq_test_prom_hist_quantile{q=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("hedgeq_test_prom_hist_quantile{q=\"0.99\"} 3\n"),
            std::string::npos);
}

TEST(PrometheusTest, SpanAggregatesBecomeLabeledFamilies) {
  ObsGuard guard;
  Registry().RecordSpan("automata.determinize", 2000);
  Registry().RecordSpan("automata.determinize", 3000);
  const std::string text = PrometheusText();
  EXPECT_NE(
      text.find("hedgeq_span_count{stage=\"automata.determinize\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("hedgeq_span_total_ns{stage=\"automata.determinize\"} 5000\n"),
      std::string::npos);
}

TEST(PrometheusTest, ProcessGaugesAreRefreshedInline) {
  ObsGuard guard;
  RegisterCatalogue();
  const std::string text = PrometheusText();
  // UpdateProcessGauges ran: RSS and wall-clock cannot be zero by now.
  size_t at = text.find("hedgeq_process_peak_rss_bytes ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(text.substr(at).find("hedgeq_process_peak_rss_bytes 0\n"), 0u);
}

}  // namespace
}  // namespace hedgeq::obs
