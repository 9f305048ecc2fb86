// E2 (claim C4): Algorithm 1 evaluates pointed hedge representations with
// two depth-first traversals in time linear in the node count.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "query/evaluator.h"
#include "query/lazy_phr.h"

namespace hedgeq {
namespace {

// Locate on the article by `Engine`: the PhrEvaluator (eager here), or the
// lazy engine it degrades to.
template <typename Engine = query::PhrEvaluator>
void RunLocate(benchmark::State& state, const query::SelectionQuery& q,
               hedge::Vocabulary& vocab) {
  auto evaluator = Engine::Create(q.envelope);
  if (!evaluator.ok()) {
    state.SkipWithError(evaluator.status().ToString().c_str());
    return;
  }
  hedge::Hedge doc =
      hedgeq::bench::MakeArticle(vocab, static_cast<size_t>(state.range(0)));
  size_t located = 0;
  for (auto _ : state) {
    std::vector<bool> result = evaluator->Locate(doc);
    located = 0;
    for (bool b : result) located += b ? 1 : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.num_nodes()));
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
  state.counters["located"] = static_cast<double>(located);
}

// Classic path expression (degenerate triplets).
void BM_LocatePathExpression(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = hedgeq::bench::FigurePathQuery(vocab);
  RunLocate(state, q, vocab);
}
BENCHMARK(BM_LocatePathExpression)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// Full sibling-condition query (elder/younger hedge regular expressions).
void BM_LocateSiblingCondition(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = hedgeq::bench::FigureCaptionQuery(vocab);
  RunLocate(state, q, vocab);
}
BENCHMARK(BM_LocateSiblingCondition)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// The lazy engine (Algorithm 1 over on-demand tables) on the same queries
// and sizes.
void BM_LocateLazyPath(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = hedgeq::bench::FigurePathQuery(vocab);
  RunLocate<query::LazyPhrEvaluator>(state, q, vocab);
}
BENCHMARK(BM_LocateLazyPath)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_LocateLazyFigureCaption(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = hedgeq::bench::FigureCaptionQuery(vocab);
  RunLocate<query::LazyPhrEvaluator>(state, q, vocab);
}
BENCHMARK(BM_LocateLazyFigureCaption)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// Document-shape ablation: sibling-class machinery cost depends on sibling
// counts (suffix-function composition is O(children x classes) per group),
// so wide flat documents are its worst case and deep chains its best.
void BM_LocateByShape(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = hedgeq::bench::FigureCaptionQuery(vocab);
  auto evaluator = query::PhrEvaluator::Create(q.envelope);
  if (!evaluator.ok()) {
    state.SkipWithError(evaluator.status().ToString().c_str());
    return;
  }
  // range(0): 0 = wide (one section, ~65k figure children),
  //           1 = deep (chain of 65k nested sections),
  //           2 = bushy (fanout 4).
  hedge::Hedge doc;
  switch (state.range(0)) {
    case 0:
      doc = workload::UniformTree(vocab, 1, 1 << 16, "section");
      break;
    case 1:
      doc = workload::UniformTree(vocab, 1 << 16, 1, "section");
      break;
    default:
      doc = workload::UniformTree(vocab, 8, 4, "section");
      break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->Locate(doc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.num_nodes()));
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
}
BENCHMARK(BM_LocateByShape)->DenseRange(0, 2)->Unit(
    benchmark::kMicrosecond);

// Compile-time (preprocessing) cost, for contrast with per-document cost.
void BM_CompilePhrOnce(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = hedgeq::bench::FigureCaptionQuery(vocab);
  for (auto _ : state) {
    auto compiled = query::CompilePhr(q.envelope);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompilePhrOnce)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hedgeq

HEDGEQ_BENCH_MAIN(bench_phr_eval)
