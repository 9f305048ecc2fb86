// hedgeq::obs — registry semantics, exporter round-trips (we parse what we
// emit), span nesting under early exit and exceptions, catalogue name
// stability, and the zero-overhead guard for disabled instrumentation.
//
// Each TEST runs in its own process under ctest (gtest_discover_tests), but
// every test that flips the global gates restores them and resets the
// registry anyway, so the file also behaves when run as one binary.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "automata/lazy_dha.h"
#include "obs/catalogue.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/scope.h"
#include "query/selection.h"
#include "schema/schema.h"
#include "schema/streaming.h"
#include "xml/xml.h"

namespace hedgeq::obs {
namespace {

// Restores the global gates and zeroes the registry around one test.
class ObsGuard {
 public:
  ObsGuard() {
    Registry().Reset();
    SetEnabled(true);
  }
  ~ObsGuard() {
    SetEnabled(false);
    SetTraceEnabled(false);
    Registry().Reset();
  }
};

TEST(ObsRegistryTest, CountersGaugesHistogramsAggregate) {
  ObsGuard guard;
  Counter* c = Registry().GetCounter("test.counter");
  c->Add(3);
  c->Increment();
  EXPECT_EQ(c->value(), 4u);
  EXPECT_EQ(Registry().GetCounter("test.counter"), c) << "interned by name";

  Gauge* g = Registry().GetGauge("test.gauge");
  g->Set(7);
  g->SetMax(5);
  EXPECT_EQ(g->value(), 7u) << "SetMax must not lower";
  g->SetMax(11);
  EXPECT_EQ(g->value(), 11u);

  Histogram* h = Registry().GetHistogram("test.hist");
  h->Observe(0);
  h->Observe(1);
  h->Observe(1023);  // bucket 9
  h->Observe(1024);  // bucket 10
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 0u + 1 + 1023 + 1024);
  EXPECT_EQ(h->bucket(0), 2u) << "0 and 1 both land in bucket 0";
  EXPECT_EQ(h->bucket(9), 1u);
  EXPECT_EQ(h->bucket(10), 1u);

  Registry().Reset();
  EXPECT_EQ(c->value(), 0u) << "Reset zeroes but keeps handles valid";
  EXPECT_EQ(h->count(), 0u);
}

TEST(ObsRegistryTest, MacrosAreNoOpsWhileDisabled) {
  Registry().Reset();
  ASSERT_FALSE(Enabled()) << "tests start with the gate off";
  HEDGEQ_OBS_COUNT("test.disabled.counter", 5);
  HEDGEQ_OBS_GAUGE_SET("test.disabled.gauge", 5);
  HEDGEQ_OBS_OBSERVE("test.disabled.hist", 5);
  { HEDGEQ_OBS_SPAN(span, "test.disabled.span"); }
  for (const std::string& name : Registry().MetricNames()) {
    EXPECT_EQ(name.find("test.disabled"), std::string::npos)
        << "disabled macro registered " << name;
  }
}

TEST(ObsRegistryTest, MetricsJsonRoundTrips) {
  ObsGuard guard;
  Registry().GetCounter("rt.counter")->Add(42);
  Registry().GetGauge("rt.gauge")->Set(7);
  Registry().GetHistogram("rt.hist")->Observe(9);
  Registry().RecordSpan("rt.span", 1500);
  Registry().RecordSpan("rt.span", 500);

  const std::string snapshot = Registry().MetricsJson();
  Result<json::ValuePtr> parsed = json::Parse(snapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << snapshot;
  const json::Value& root = **parsed;

  const json::Value* counters = root.Get("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* c = counters->Get("rt.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->integer(), 42);

  const json::Value* gauges = root.Get("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Get("rt.gauge"), nullptr);
  EXPECT_EQ(gauges->Get("rt.gauge")->integer(), 7);

  const json::Value* hists = root.Get("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* h = hists->Get("rt.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Get("count")->integer(), 1);
  EXPECT_EQ(h->Get("sum")->integer(), 9);

  const json::Value* spans = root.Get("spans");
  ASSERT_NE(spans, nullptr);
  const json::Value* s = spans->Get("rt.span");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->Get("count")->integer(), 2);
  EXPECT_EQ(s->Get("total_ns")->integer(), 2000);
}

TEST(ObsRegistryTest, HostileMetricAndSpanNamesEscapeCleanly) {
  ObsGuard guard;
  // Nothing in the pipeline emits names like these, but the snapshot must
  // not become unparseable if a caller does: quotes, backslashes and
  // control characters all have to survive the JSON round trip.
  const std::string hostile = "bad\"name\\with\tescapes";
  Registry().GetCounter(hostile)->Add(1);
  Registry().RecordSpan(hostile, 99);
  const std::string snapshot = Registry().MetricsJson();
  Result<json::ValuePtr> parsed = json::Parse(snapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << snapshot;
  const json::Value* counters = (*parsed)->Get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Get(hostile), nullptr) << "name survives verbatim";
  EXPECT_EQ(counters->Get(hostile)->integer(), 1);
  const json::Value* spans = (*parsed)->Get("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_NE(spans->Get(hostile), nullptr);
  EXPECT_EQ(spans->Get(hostile)->Get("total_ns")->integer(), 99);
}

TEST(ObsRegistryTest, SnapshotCarriesCurrentProcessGauges) {
  ObsGuard guard;
  RegisterCatalogue();
  const std::string snapshot = Registry().MetricsJson();
  Result<json::ValuePtr> parsed = json::Parse(snapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* gauges = (*parsed)->Get("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* rss = gauges->Get(metrics::kProcessPeakRssBytes);
  ASSERT_NE(rss, nullptr);
  EXPECT_GT(rss->integer(), 1 << 20) << "a running test uses > 1 MiB";
  const json::Value* threads = gauges->Get(metrics::kProcessThreads);
  ASSERT_NE(threads, nullptr);
  EXPECT_GE(threads->integer(), 1);
  ASSERT_NE(gauges->Get(metrics::kProcessWallMs), nullptr);
}

TEST(ObsTraceTest, ChromeTraceJsonRoundTripsWithNesting) {
  ObsGuard guard;
  SetTraceEnabled(true);
  {
    HEDGEQ_OBS_SPAN(outer, "trace.outer");
    outer.AddArg("k", 3);
    { HEDGEQ_OBS_SPAN(inner, "trace.inner"); }
  }
  const std::string trace = Registry().ChromeTraceJson();
  Result<json::ValuePtr> parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << trace;
  const json::Value* events = (*parsed)->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array().size(), 2u);

  // Both spans can open within the same microsecond, so identify them by
  // name rather than relying on the exporter's ts ordering.
  const json::Value* outer_p = nullptr;
  const json::Value* inner_p = nullptr;
  for (const json::ValuePtr& e : events->array()) {
    if (e->Get("name")->string() == "trace.outer") outer_p = e.get();
    if (e->Get("name")->string() == "trace.inner") inner_p = e.get();
  }
  ASSERT_NE(outer_p, nullptr);
  ASSERT_NE(inner_p, nullptr);
  const json::Value& outer = *outer_p;
  const json::Value& inner = *inner_p;
  EXPECT_EQ(inner.Get("ph")->string(), "X");
  EXPECT_EQ(inner.Get("args")->Get("depth")->integer(), 1);
  EXPECT_EQ(outer.Get("args")->Get("depth")->integer(), 0);
  EXPECT_EQ(outer.Get("args")->Get("k")->integer(), 3);
  // The outer span contains the inner one in time.
  EXPECT_LE(outer.Get("ts")->integer(), inner.Get("ts")->integer());
}

TEST(ObsTraceTest, SpansCloseThroughEarlyExitAndException) {
  ObsGuard guard;
  SetTraceEnabled(true);

  auto early_exit = [](bool bail) {
    HEDGEQ_OBS_SPAN(span, "trace.early");
    if (bail) return 1;
    return 0;
  };
  EXPECT_EQ(early_exit(true), 1);

  try {
    HEDGEQ_OBS_SPAN(span, "trace.throwing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }

  // Both spans must have closed at depth 0; a leak would leave the next
  // span at depth > 0.
  {
    HEDGEQ_OBS_SPAN(span, "trace.after");
  }
  std::vector<TraceEvent> events = Registry().SnapshotTrace();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "trace.early");
  EXPECT_EQ(events[1].name, "trace.throwing");
  EXPECT_EQ(events[2].name, "trace.after");
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.depth, 0u) << e.name << " opened at a leaked depth";
  }
}

TEST(ObsCatalogueTest, RegisteredNamesAreStable) {
  ObsGuard guard;
  RegisterCatalogue();
  std::set<std::string> names;
  for (const std::string& n : Registry().MetricNames()) names.insert(n);

  for (const char* c : CatalogueCounters()) {
    EXPECT_TRUE(names.count(std::string("counter/") + c)) << c;
  }
  for (const char* g : CatalogueGauges()) {
    EXPECT_TRUE(names.count(std::string("gauge/") + g)) << g;
  }
  for (const char* h : CatalogueHistograms()) {
    EXPECT_TRUE(names.count(std::string("histogram/") + h)) << h;
  }
  // Spot-check entries the docs and check.sh golden file rely on. These are
  // contractual: never rename, only append (see catalogue.h).
  EXPECT_TRUE(names.count("counter/automata.determinize.subsets_explored"));
  EXPECT_TRUE(names.count("counter/phr.eval.pass1.nodes"));
  EXPECT_TRUE(names.count("counter/automata.lazy.cache_hits"));
  EXPECT_TRUE(names.count("gauge/automata.determinize.certify_frac_pct"));
  EXPECT_TRUE(names.count("histogram/hist.doc_nodes"));
}

TEST(ObsScopeTest, ScopesOnDistinctThreadsNeverCrossAttribute) {
  // The serve::Engine contract: each worker opens its own top-level
  // QueryScope, so per-request attribution must be airtight across a pool
  // — work done by thread A while thread B's scope is open lands in A's
  // scope only, nested scopes included, and annotations never migrate.
  ObsGuard guard;

  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  // The shared counter every thread bumps: a scope that aggregated
  // cross-thread would see up to kThreads * kIters here.
  Counter* shared = Registry().GetCounter(metrics::kServeAdmitted);
  std::vector<ScopeSnapshot> outer(kThreads);
  std::vector<ScopeSnapshot> inner(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Per-thread marker counters: if attribution ever crossed threads,
      // a scope would see some other thread's marker.
      const std::string mine = "test.scope.thread" + std::to_string(t);
      Counter* marker = Registry().GetCounter(mine);
      Counter* nested = Registry().GetCounter(mine + ".nested");
      QueryScope outer_scope("outer:" + std::to_string(t));
      outer_scope.Annotate("thread", std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        marker->Increment();
        shared->Increment();
      }
      {
        QueryScope inner_scope("inner:" + std::to_string(t));
        for (int i = 0; i < kIters; ++i) nested->Increment();
        inner[t] = inner_scope.Snapshot();
      }
      outer[t] = outer_scope.Snapshot();
    });
  }
  for (std::thread& t : pool) t.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::string mine = "test.scope.thread" + std::to_string(t);
    // Own work, fully attributed.
    EXPECT_EQ(outer[t].CounterValue(mine), static_cast<uint64_t>(kIters));
    EXPECT_EQ(outer[t].CounterValue(metrics::kServeAdmitted),
              static_cast<uint64_t>(kIters))
        << "a scope must see only its own thread's share of a shared "
           "counter";
    // The inner scope saw only its own nested work, and the outer scope
    // absorbed it on close (nesting composes within a thread).
    EXPECT_EQ(inner[t].CounterValue(mine + ".nested"),
              static_cast<uint64_t>(kIters));
    EXPECT_EQ(inner[t].CounterValue(mine), 0u)
        << "inner scope must not see pre-existing outer counts";
    EXPECT_EQ(outer[t].CounterValue(mine + ".nested"),
              static_cast<uint64_t>(kIters));
    // No sibling thread's markers or annotations leaked in.
    for (int u = 0; u < kThreads; ++u) {
      if (u == t) continue;
      const std::string theirs = "test.scope.thread" + std::to_string(u);
      EXPECT_EQ(outer[t].CounterValue(theirs), 0u)
          << "thread " << u << "'s work leaked into thread " << t
          << "'s scope";
      EXPECT_EQ(outer[t].CounterValue(theirs + ".nested"), 0u);
    }
    ASSERT_EQ(outer[t].annotations.size(), 1u);
    EXPECT_EQ(outer[t].annotations[0].first, "thread");
    EXPECT_EQ(outer[t].annotations[0].second, std::to_string(t));
  }
  // Scopes attribute, they never divert: the process registry still saw
  // everything from every thread.
  EXPECT_EQ(shared->value(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ObsPipelineTest, InstrumentedPipelineFillsMetrics) {
  ObsGuard guard;
  SetTraceEnabled(true);
  RegisterCatalogue();

  hedge::Vocabulary vocab;
  auto doc = xml::ParseXml(
      "<article><title/><section><figure><image/></figure></section>"
      "</article>",
      vocab);
  ASSERT_TRUE(doc.ok());
  auto query = query::ParseSelectionQuery(
      "select(*; figure (section|article)*)", vocab);
  ASSERT_TRUE(query.ok());
  auto eval = query::SelectionEvaluator::Create(*query);
  ASSERT_TRUE(eval.ok());
  std::vector<hedge::NodeId> located = eval->LocatedNodes(doc->hedge);
  EXPECT_EQ(located.size(), 1u);

  auto counter = [](const char* name) {
    return Registry().GetCounter(name)->value();
  };
  EXPECT_GT(counter(metrics::kXmlParseBytes), 0u);
  EXPECT_EQ(counter(metrics::kXmlParseNodes), doc->hedge.num_nodes());
  EXPECT_GT(counter(metrics::kDetSubsetsExplored), 0u);
  EXPECT_GT(counter(metrics::kPhrCompileTriplets), 0u);
  EXPECT_EQ(counter(metrics::kPhrEvalPass1Nodes), doc->hedge.num_nodes());
  EXPECT_EQ(counter(metrics::kPhrEvalPass2Nodes), doc->hedge.num_nodes());
  EXPECT_EQ(counter(metrics::kPhrEvalLocated), 1u);
  EXPECT_GT(Registry().GetGauge(metrics::kXmlParseMaxDepth)->value(), 0u);

  std::set<std::string> span_names;
  for (const TraceEvent& e : Registry().SnapshotTrace()) {
    span_names.insert(e.name);
  }
  EXPECT_TRUE(span_names.count(spans::kXmlParse));
  EXPECT_TRUE(span_names.count(spans::kDeterminize));
  EXPECT_TRUE(span_names.count(spans::kPhrCompile));
  EXPECT_TRUE(span_names.count(spans::kPhrEvalPass1));
  EXPECT_TRUE(span_names.count(spans::kPhrEvalPass2));
}

TEST(ObsPipelineTest, StreamingValidationReportsDeltaStats) {
  ObsGuard guard;
  hedge::Vocabulary vocab;
  auto schema = schema::ParseSchema(
      "start = Doc\nDoc = doc<Sec*>\nSec = sec<>\n", vocab);
  ASSERT_TRUE(schema.ok());

  ExecBudget tiny;
  tiny.max_states = 1;  // force the lazy fallback
  auto validator = schema::StreamingValidator::Create(*schema, tiny);
  ASSERT_TRUE(validator.ok());
  ASSERT_TRUE(validator->fallback_used());

  auto v1 = validator->ValidateWithStats("<doc><sec/></doc>", vocab);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->valid);
  auto v2 = validator->ValidateWithStats("<doc><sec/></doc>", vocab);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(v2->valid);
  // Per-run deltas: the second, fully cached run must not re-report the
  // first run's materializations (the old ResetStats-based accounting did
  // this correctly but mutated the shared engine; deltas must agree).
  EXPECT_EQ(v2->stats.states_materialized, 0u)
      << "second run should be served from cache";
  EXPECT_GT(v2->stats.cache_hits, 0u);
  EXPECT_GT(Registry().GetCounter(metrics::kSchemaValidateEvents)->value(),
            0u);
  EXPECT_EQ(
      Registry().GetCounter(metrics::kSchemaValidateFallbackRuns)->value(),
      2u);
}

TEST(ObsPipelineTest, StreamingValidatorLazyFallbackAnnotatesTheQuery) {
  ObsGuard guard;
  ResetFlightRecorder();
  SetFlightRecorderEnabled(true);
  hedge::Vocabulary vocab;
  auto schema = schema::ParseSchema(
      "start = Doc\nDoc = doc<Sec*>\nSec = sec<>\n", vocab);
  ASSERT_TRUE(schema.ok());
  {
    QueryScope scope("validator");
    ExecBudget tiny;
    tiny.max_states = 1;  // force the lazy fallback
    auto validator = schema::StreamingValidator::Create(*schema, tiny);
    ASSERT_TRUE(validator.ok());
    ASSERT_TRUE(validator->fallback_used());
  }
  std::vector<FlightRecordView> records = FlightRecords();
  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, "degraded_lazy");
}

TEST(ObsStatsTest, EvalStatsDeltaSubtractsCountersKeepsPeak) {
  automata::EvalStats before;
  before.states_materialized = 5;
  before.cache_hits = 10;
  before.cache_misses = 5;
  before.cache_evictions = 1;
  before.peak_cache_bytes = 100;
  automata::EvalStats after = before;
  after.states_materialized = 7;
  after.cache_hits = 25;
  after.cache_misses = 7;
  after.cache_evictions = 1;
  after.peak_cache_bytes = 250;
  after.fallback_used = true;

  automata::EvalStats d = automata::EvalStats::Delta(before, after);
  EXPECT_EQ(d.states_materialized, 2u);
  EXPECT_EQ(d.cache_hits, 15u);
  EXPECT_EQ(d.cache_misses, 2u);
  EXPECT_EQ(d.cache_evictions, 0u);
  EXPECT_EQ(d.peak_cache_bytes, 250u) << "high-water mark carries over";
  EXPECT_TRUE(d.fallback_used);
}

// The disabled fast path must stay branch-plus-relaxed-load cheap. The
// bound is deliberately loose (100x a plain loop) so the test never flakes
// under load; catching an accidental mutex or map lookup on the fast path
// is the point, and those are >1000x.
TEST(ObsOverheadTest, DisabledMacroIsNearFree) {
  ASSERT_FALSE(Enabled());
  constexpr int kIters = 2'000'000;

  volatile uint64_t sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) sink = sink + 1;
  auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    HEDGEQ_OBS_COUNT("overhead.test", 1);
    sink = sink + 1;
  }
  auto t2 = std::chrono::steady_clock::now();

  const auto plain = t1 - t0;
  const auto instrumented = t2 - t1;
  EXPECT_LT(instrumented.count(), plain.count() * 100 + 10'000'000)
      << "disabled HEDGEQ_OBS_COUNT is too expensive: plain="
      << plain.count() << "ns instrumented=" << instrumented.count() << "ns";
}

}  // namespace
}  // namespace hedgeq::obs
