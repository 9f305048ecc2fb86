// eval_large: one seeded 1M-node article (a ~50 MB working set, far beyond
// per-core L2), four compiled queries and the streaming validator, on one
// thread. The automata, query and xml evaluation kernels do the work;
// schema transformation, serve and compilation do none (compiling is setup).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/xpath.h"
#include "hqbench/corpus.h"
#include "hqbench/harness.h"
#include "hqbench/workloads.h"
#include "query/evaluator.h"
#include "query/lazy_phr.h"
#include "query/selection.h"
#include "schema/schema.h"
#include "schema/streaming.h"
#include "xml/xml.h"

namespace hedgeq::perfbench {
namespace {

constexpr size_t kDocNodes = 1000000;
constexpr int kMinIterations = 5;
// Share of --seconds a traced run spends on its untraced reference pass.
constexpr double kUntracedShare = 0.3;

struct Inputs {
  hedge::Vocabulary vocab;
  hedge::Hedge doc;
  std::optional<query::SelectionQuery> path_query;
  std::optional<query::SelectionEvaluator> path, figcap, subhedge;
  std::optional<query::LazyPhrEvaluator> lazy;
  std::string xml;
  std::optional<schema::StreamingValidator> validator;
};

std::unique_ptr<Inputs> Setup(uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->doc = MakeArticle(in->vocab, kDocNodes, seed);
  in->path_query.emplace(MustParse(kPathQuery, in->vocab));
  in->path.emplace(Must(query::SelectionEvaluator::Create(*in->path_query),
                        "compile path query"));
  in->figcap.emplace(
      Must(query::SelectionEvaluator::Create(FigureCaptionQuery(in->vocab)),
           "compile figure-caption query"));
  in->subhedge.emplace(Must(query::SelectionEvaluator::Create(
                                MustParse(SubhedgeQueryText(), in->vocab)),
                            "compile subhedge query"));
  in->lazy.emplace(
      Must(query::LazyPhrEvaluator::Create(in->path_query->envelope),
           "create lazy path engine"));
  in->xml = xml::SerializeXml(xml::WrapHedge(in->doc, in->vocab), in->vocab);
  schema::Schema grammar =
      Must(schema::ParseSchema(ArticleGrammar(), in->vocab), "parse grammar");
  in->validator.emplace(
      Must(schema::StreamingValidator::Create(grammar), "create validator"));
  return in;
}

// Reference answers from the XPath-subset baseline.
struct Expected {
  std::vector<hedge::NodeId> path, figcap, subhedge;
};

struct Samples {
  std::vector<double> path, figcap, subhedge, lazy, validate;  // ns per call

  double Total() const {
    return Fastest(path) + Fastest(figcap) + Fastest(subhedge) + Fastest(lazy) +
           Fastest(validate);
  }

  /// latency_ms: the geometric mean of the five operations' fastest calls.
  double LatencyMs() const {
    return GeoMean({Fastest(path), Fastest(figcap), Fastest(subhedge),
                    Fastest(lazy), Fastest(validate)}) /
           1e6;
  }
};

// Allocations per call over one round of the five operations (the lazy
// engine is warm by then).
double AllocsPerCall(Inputs& in) {
  const uint64_t before = ThreadAllocs();
  { std::vector<bool> got = in.path->Locate(in.doc); }
  { std::vector<bool> got = in.figcap->Locate(in.doc); }
  { std::vector<hedge::NodeId> got = in.subhedge->LocatedNodes(in.doc); }
  { std::vector<bool> got = in.lazy->Locate(in.doc); }
  { Result<bool> verdict = in.validator->Validate(in.xml, in.vocab); }
  return static_cast<double>(ThreadAllocs() - before) / 5;
}

// One pass over the five end-to-end operations, checking every answer.
void TimedIteration(Inputs& in, const Expected& want, Samples& s,
                    Report& report) {
  {
    std::vector<bool> got;
    s.path.push_back(TimeNs("query.SelectionEvaluator::Locate.path",
                            [&] { got = in.path->Locate(in.doc); }));
    report.Check(SameNodes(got, want.path), "path Locate == //figure");
  }
  {
    std::vector<bool> got;
    s.figcap.push_back(TimeNs("query.SelectionEvaluator::Locate.figcap",
                              [&] { got = in.figcap->Locate(in.doc); }));
    report.Check(SameNodes(got, want.figcap),
                 "figure-caption Locate == XPath twin");
  }
  {
    std::vector<hedge::NodeId> got;
    s.subhedge.push_back(
        TimeNs("query.SelectionEvaluator::LocatedNodes.subhedge",
               [&] { got = in.subhedge->LocatedNodes(in.doc); }));
    report.Check(got == want.subhedge,
                 "subhedge LocatedNodes == //section[figure]");
  }
  {
    std::vector<bool> got;
    s.lazy.push_back(TimeNs("query.LazyPhrEvaluator::Locate.path",
                            [&] { got = in.lazy->Locate(in.doc); }));
    report.Check(SameNodes(got, want.path), "lazy path Locate == //figure");
  }
  {
    bool valid = false;
    s.validate.push_back(
        TimeNs("schema.StreamingValidator::Validate", [&] {
          Result<bool> verdict = in.validator->Validate(in.xml, in.vocab);
          valid = verdict.ok() && *verdict;
        }));
    report.Check(valid, "generated document validates");
  }
}

class NoopHandler : public xml::XmlHandler {
 public:
  Status StartElement(hedge::SymbolId) override { return Status::Ok(); }
  Status EndElement(hedge::SymbolId) override { return Status::Ok(); }
  Status Text(hedge::VarId, std::string_view) override {
    return Status::Ok();
  }
};

// Splits one eager Locate into the calls Algorithm 1 makes: the DHA run and
// the sibling classes (pass 2 is the remainder of the Locate span).
void DecomposeLocate(const query::CompiledPhr& compiled,
                     const hedge::Hedge& doc, const char* run_span,
                     const char* classes_span) {
  std::vector<automata::HState> states;
  TimeNs(run_span, [&] { states = compiled.dha().Run(doc); });
  query::SiblingClasses classes;
  TimeNs(classes_span, [&] {
    classes = query::ComputeSiblingClasses(doc, states, compiled.equiv());
  });
}

double LocateAllocsPerNode(const query::SelectionEvaluator& eval,
                           const hedge::Hedge& doc) {
  const uint64_t before = ThreadAllocs();
  std::vector<bool> located = eval.Locate(doc);
  return static_cast<double>(ThreadAllocs() - before) /
         static_cast<double>(doc.num_nodes());
}

// Per-layer metrics from the traced pass's spans.
void ReportLayers(const Inputs& in, const Tracer& tracer,
                  const automata::EvalStats& lazy_delta,
                  const automata::EvalStats& lazy_total, Report& report) {
  const double nodes = static_cast<double>(in.doc.num_nodes());
  auto per_node = [&](const std::string& span) {
    return tracer.FastestNs(span) / nodes;
  };
  report.Metric("automata.dha_run_ns_per_node",
                per_node("automata.Dha::Run.path"), "ns/node");
  report.Metric("automata.run_with_marks_ns_per_node",
                per_node("automata.Dha::RunWithMarks.subhedge"), "ns/node");
  const double lookups =
      static_cast<double>(lazy_delta.cache_hits + lazy_delta.cache_misses);
  report.Metric(
      "automata.lazy_hit_ratio",
      lookups == 0 ? 0 : static_cast<double>(lazy_delta.cache_hits) / lookups,
      "ratio");
  report.Metric("automata.lazy_states_materialized",
                static_cast<double>(lazy_total.states_materialized), "count");
  report.Metric("automata.lazy_peak_cache_kb",
                static_cast<double>(lazy_total.peak_cache_bytes) / 1024.0,
                "KiB");
  const double sax_ns = tracer.FastestNs("xml.ParseXmlStream");
  const double validate_ns =
      tracer.FastestNs("schema.StreamingValidator::Validate");
  report.Metric("automata.stream_fold_share", 1 - sax_ns / validate_ns,
                "ratio");
  report.Metric("xml.sax_parse_mb_s",
                static_cast<double>(in.xml.size()) / sax_ns * 1e3, "MB/s");

  struct Case {
    std::string tag;
    const query::SelectionEvaluator& eval;
  };
  const Case cases[] = {{"path", *in.path}, {"figcap", *in.figcap}};
  for (const Case& c : cases) {
    const double locate = per_node("query.SelectionEvaluator::Locate." + c.tag);
    const double classes = per_node("query.ComputeSiblingClasses." + c.tag);
    const double run = per_node("automata.Dha::Run." + c.tag);
    const double xpath = per_node("baseline.EvaluateXPath." + c.tag);
    report.Metric("query.sibling_classes_ns_per_node." + c.tag, classes,
                  "ns/node");
    report.Metric("query.pass2_ns_per_node." + c.tag, locate - run - classes,
                  "ns/node");
    report.Metric("query.locate_allocs_per_node." + c.tag,
                  LocateAllocsPerNode(c.eval, in.doc), "allocs/node");
    report.Metric("query.num_classes." + c.tag,
                  c.eval.phr_evaluator().compiled()->num_classes(), "count");
    report.Metric("query.locate_vs_xpath." + c.tag, locate / xpath, "ratio");
    report.Metric("baseline.xpath_ns_per_node." + c.tag, xpath, "ns/node");
  }
}

void TracedRun(Inputs& in, const Expected& want, const RunOptions& options,
               Report& report) {
  Samples plain;
  Clock::time_point start = Clock::now();
  for (int i = 0;
       i < 2 || SecondsSince(start) < kUntracedShare * options.seconds; ++i) {
    TimedIteration(in, want, plain, report);
  }

  const query::CompiledPhr& path_c = *in.path->phr_evaluator().compiled();
  const query::CompiledPhr& figcap_c = *in.figcap->phr_evaluator().compiled();
  const automata::Dha& marks_dha = *in.subhedge->subhedge_dha();
  const baseline::PathExpr xpath_path =
      Must(baseline::ParseXPath(kPathXPath, in.vocab), kPathXPath);
  const baseline::PathExpr xpath_figcap =
      Must(baseline::ParseXPath(kFigCapXPath, in.vocab), kFigCapXPath);
  const automata::EvalStats lazy_before = in.lazy->stats();

  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(true);
  Samples traced;
  NoopHandler noop;
  start = Clock::now();
  for (int i = 0; i < kMinIterations ||
                  SecondsSince(start) < (1 - kUntracedShare) * options.seconds;
       ++i) {
    ScopedSpan iteration("eval_large.iteration");
    TimedIteration(in, want, traced, report);
    DecomposeLocate(path_c, in.doc, "automata.Dha::Run.path",
                    "query.ComputeSiblingClasses.path");
    DecomposeLocate(figcap_c, in.doc, "automata.Dha::Run.figcap",
                    "query.ComputeSiblingClasses.figcap");
    automata::Dha::MarkedRun marked;
    TimeNs("automata.Dha::RunWithMarks.subhedge",
           [&] { marked = marks_dha.RunWithMarks(in.doc); });
    std::vector<hedge::NodeId> nodes;
    TimeNs("baseline.EvaluateXPath.path",
           [&] { nodes = baseline::EvaluateXPath(in.doc, xpath_path); });
    TimeNs("baseline.EvaluateXPath.figcap",
           [&] { nodes = baseline::EvaluateXPath(in.doc, xpath_figcap); });
    Status parsed;
    TimeNs("xml.ParseXmlStream",
           [&] { parsed = xml::ParseXmlStream(in.xml, in.vocab, noop); });
    report.Check(parsed.ok(), "SAX parse of the generated document");
  }
  tracer.set_enabled(false);
  const automata::EvalStats lazy_after = in.lazy->stats();
  ReportLayers(in, tracer, automata::EvalStats::Delta(lazy_before, lazy_after),
               lazy_after, report);
  ReportLayerShares(tracer, report);
  report.Metric("allocs_per_op", AllocsPerCall(in), "allocs");
  report.Metric("bench.trace_overhead_frac",
                traced.Total() / plain.Total() - 1, "ratio");
}

}  // namespace

void RunEvalLarge(const RunOptions& options, Report& report) {
  auto setup = [&] { return Setup(options.seed); };
  std::vector<double> setup_seconds;
  std::unique_ptr<Inputs> in = TimedSetup(setup, setup_seconds);

  Expected want;
  want.path = XPathNodes(in->doc, kPathXPath, in->vocab);
  want.figcap = XPathNodes(in->doc, kFigCapXPath, in->vocab);
  want.subhedge = XPathNodes(in->doc, kSubhedgeXPath, in->vocab);
  report.Check(in->path->phr_evaluator().compiled() != nullptr &&
                   in->figcap->phr_evaluator().compiled() != nullptr &&
                   in->subhedge->subhedge_dha().has_value(),
               "queries compile to the eager engines");
  // A one-node mutation: a table directly under the article root, which
  // the grammar forbids.
  std::string mutated = in->xml;
  const size_t at = mutated.find("</title>");
  report.Check(at != std::string::npos, "serialized document has a title");
  if (at != std::string::npos) {
    mutated.insert(at + 8, "<table/>");
    Result<bool> verdict = in->validator->Validate(mutated, in->vocab);
    report.Check(verdict.ok() && !*verdict, "mutated document is rejected");
  }

  if (options.trace) {
    TracedRun(*in, want, options, report);
    return;
  }
  Samples s;
  double peak_rss_mb = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kMinIterations || SecondsSince(start) < options.seconds;
       ++i) {
    if (i > 0) {
      // The same seed gives the same document, so `want` still holds.
      in.reset();  // free the previous inputs before timing the next
      in = TimedSetup(setup, setup_seconds);
    }
    // Fill the lazy engine's state cache, so every timed lazy Locate runs
    // warm, as a long-lived engine would.
    in->lazy->Locate(in->doc);
    TimedIteration(*in, want, s, report);
    // Taken before any rebuild: how much of a freed build the allocator
    // keeps resident varies from run to run.
    if (i == 0) peak_rss_mb = PeakRssMb();
  }
  const double nodes = static_cast<double>(in->doc.num_nodes());
  report.Metric("locate_path_ns_per_node", Fastest(s.path) / nodes, "ns/node");
  report.Metric("locate_figcap_ns_per_node", Fastest(s.figcap) / nodes,
                "ns/node");
  report.Metric("select_subhedge_ns_per_node", Fastest(s.subhedge) / nodes,
                "ns/node");
  report.Metric("locate_lazy_ns_per_node", Fastest(s.lazy) / nodes, "ns/node");
  report.Metric("validate_mb_s",
                static_cast<double>(in->xml.size()) / Fastest(s.validate) * 1e3,
                "MB/s");
  report.Metric("latency_ms", s.LatencyMs(), "ms");
  report.Metric("setup_s", Fastest(setup_seconds), "s");
  report.Metric("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace hedgeq::perfbench
