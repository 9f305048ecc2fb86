// E1 (claim C1): deterministic hedge automaton execution is linear in the
// number of nodes — ns/node should be flat across document sizes.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "query/phr_compile.h"

namespace hedgeq {
namespace {

// Runs the shared DHA of a compiled sibling-order query over article
// documents of the size given by the benchmark argument.
void BM_DhaRunArticle(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = bench::FigureCaptionQuery(vocab);
  auto compiled = query::CompilePhr(q.envelope);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  hedge::Hedge doc =
      bench::MakeArticle(vocab, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->dha().Run(doc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.num_nodes()));
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
  // An inverted rate is seconds per counted unit; counting nodes in
  // billions makes it nanoseconds per node.
  state.counters["ns_per_node"] = benchmark::Counter(
      static_cast<double>(doc.num_nodes()) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DhaRunArticle)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// Same sweep on uniform trees (fixed shape: fanout 4), separating document
// shape from size.
void BM_DhaRunUniformTree(benchmark::State& state) {
  hedge::Vocabulary vocab;
  auto phr = phr::ParsePhr("a (a)*", vocab);
  auto compiled = query::CompilePhr(*phr);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  hedge::Hedge doc = workload::UniformTree(
      vocab, static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->dha().Run(doc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.num_nodes()));
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
}
BENCHMARK(BM_DhaRunUniformTree)
    ->DenseRange(4, 10, 2)  // depth: 4^d nodes
    ->Unit(benchmark::kMicrosecond);

// Acceptance check (run + final DFA over the roots).
void BM_DhaAccepts(benchmark::State& state) {
  hedge::Vocabulary vocab;
  query::SelectionQuery q = bench::FigurePathQuery(vocab);
  auto compiled = query::CompilePhr(q.envelope);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  hedge::Hedge doc =
      bench::MakeArticle(vocab, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->dha().Accepts(doc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.num_nodes()));
}
BENCHMARK(BM_DhaAccepts)->Arg(10000)->Arg(100000)->Unit(
    benchmark::kMicrosecond);

}  // namespace
}  // namespace hedgeq

HEDGEQ_BENCH_MAIN(bench_dha_run)
