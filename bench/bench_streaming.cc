// E10: streaming validation (O(depth) memory, no tree) against DOM-style
// parse-then-run validation — the practical payoff of the horizontal-DFA
// representation of deterministic hedge automata.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "schema/streaming.h"

namespace hedgeq {
namespace {

std::string MakeXml(size_t nodes, hedge::Vocabulary& vocab) {
  hedge::Hedge doc = bench::MakeArticle(vocab, nodes);
  xml::XmlDocument wrapped = xml::WrapHedge(doc, vocab);
  return xml::SerializeXml(wrapped, vocab);
}

void BM_StreamingValidate(benchmark::State& state) {
  hedge::Vocabulary vocab;
  auto schema = schema::ParseSchema(bench::ArticleGrammar(), vocab);
  auto validator = schema::StreamingValidator::Create(*schema);
  if (!validator.ok()) {
    state.SkipWithError(validator.status().ToString().c_str());
    return;
  }
  std::string text = MakeXml(static_cast<size_t>(state.range(0)), vocab);
  bool valid = false;
  for (auto _ : state) {
    auto verdict = validator->Validate(text, vocab);
    valid = verdict.ok() && *verdict;
    benchmark::DoNotOptimize(verdict);
  }
  if (!valid) {
    state.SkipWithError("document unexpectedly invalid");
    return;
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StreamingValidate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// The scanner alone: the same documents through ParseXmlStream with a
// handler that does nothing, so StreamingValidate minus this is the fold.
class NoopHandler : public xml::XmlHandler {
 public:
  Status StartElement(hedge::SymbolId) override { return Status::Ok(); }
  Status EndElement(hedge::SymbolId) override { return Status::Ok(); }
  Status Text(hedge::VarId, std::string_view) override { return Status::Ok(); }
};

void BM_SaxParse(benchmark::State& state) {
  hedge::Vocabulary vocab;
  std::string text = MakeXml(static_cast<size_t>(state.range(0)), vocab);
  NoopHandler handler;
  bool ok = false;
  for (auto _ : state) {
    Status status = xml::ParseXmlStream(text, vocab, handler);
    ok = status.ok();
    benchmark::DoNotOptimize(status);
  }
  if (!ok) {
    state.SkipWithError("document unexpectedly malformed");
    return;
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_SaxParse)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_DomValidate(benchmark::State& state) {
  hedge::Vocabulary vocab;
  auto schema = schema::ParseSchema(bench::ArticleGrammar(), vocab);
  auto det = automata::Determinize(schema->nha());
  if (!det.ok()) {
    state.SkipWithError(det.status().ToString().c_str());
    return;
  }
  std::string text = MakeXml(static_cast<size_t>(state.range(0)), vocab);
  bool valid = false;
  for (auto _ : state) {
    auto doc = xml::ParseXml(text, vocab);
    valid = doc.ok() && det->dha.Accepts(doc->hedge);
    benchmark::DoNotOptimize(doc);
  }
  if (!valid) {
    state.SkipWithError("document unexpectedly invalid");
    return;
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_DomValidate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hedgeq

HEDGEQ_BENCH_MAIN(bench_streaming)
