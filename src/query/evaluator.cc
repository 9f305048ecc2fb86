#include "query/evaluator.h"

#include <numeric>

#include "lint/analyze.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "obs/scope.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace hedgeq::query {

using automata::HState;
using hedge::Hedge;
using hedge::kNullNode;
using hedge::NodeId;

SiblingClasses ComputeSiblingClasses(const Hedge& doc,
                                     const std::vector<HState>& states,
                                     const strre::Dfa& equiv) {
  SiblingClasses out;
  out.elder.assign(doc.num_nodes(), equiv.start());
  out.younger.assign(doc.num_nodes(), equiv.start());
  const size_t num_classes = equiv.num_states();

  hedge::ForEachSiblingGroup(doc, [&](std::span<const NodeId> kids) {
    // Prefix classes: forward run of the (complete) == DFA.
    strre::StateId s = equiv.start();
    for (NodeId kid : kids) {
      out.elder[kid] = s;
      s = equiv.Next(s, states[kid]);
      HEDGEQ_CHECK_MSG(s != strre::kNoState, "equiv DFA must be complete");
    }
    // Suffix classes: compose transition functions right-to-left. g maps
    // each == state to the state reached after reading the suffix that
    // starts right of the current position.
    std::vector<strre::StateId> g(num_classes);
    std::iota(g.begin(), g.end(), 0);
    std::vector<strre::StateId> next_g(num_classes);
    for (size_t jj = kids.size(); jj-- > 0;) {
      out.younger[kids[jj]] = g[equiv.start()];
      if (jj == 0) break;
      for (uint32_t c = 0; c < num_classes; ++c) {
        strre::StateId step = equiv.Next(c, states[kids[jj]]);
        HEDGEQ_CHECK(step != strre::kNoState);
        next_g[c] = g[step];
      }
      g.swap(next_g);
    }
  });
  return out;
}

Result<PhrEvaluator> PhrEvaluator::Create(const phr::Phr& phr,
                                          const ExecBudget& budget) {
  return Create(phr, budget, std::string_view());
}

Result<PhrEvaluator> PhrEvaluator::Create(const phr::Phr& phr,
                                          const ExecBudget& budget,
                                          std::string_view cache_scope) {
  BudgetScope scope(budget);
  Result<CompiledPhr> compiled =
      CompilePhr(phr, scope, nullptr, cache_scope);
  if (compiled.ok()) {
    HEDGEQ_OBS_COUNT(obs::metrics::kQueryEagerCompiles, 1);
    return PhrEvaluator(std::move(compiled).value());
  }
  if (!IsDegradable(compiled.status().code())) {
    return compiled.status();
  }
  // The exponential preprocessing blew its budget (or its wall-clock
  // deadline); degrade to the lazy engine, which answers the same queries
  // with bounded memory. A deadline that has truly passed fails the lazy
  // Create too and surfaces as kDeadlineExceeded.
  Result<LazyPhrEvaluator> lazy = LazyPhrEvaluator::Create(phr, budget);
  if (!lazy.ok()) return lazy.status();
  HEDGEQ_OBS_COUNT(obs::metrics::kQueryLazyFallbacks, 1);
  // Budget outcome for the flight record: the answer is still exact, but
  // this query ran on the degraded engine.
  if (auto* qscope = obs::QueryScope::Current(); qscope != nullptr) {
    qscope->Annotate("outcome", "degraded_lazy");
  }
  PhrEvaluator out;
  out.lazy_ = std::move(lazy).value();
  return out;
}

Result<PhrEvaluator> PhrEvaluator::Create(
    const phr::Phr& phr, const ExecBudget& budget,
    const hedge::Vocabulary& vocab, const lint::LintOptions& preflight,
    std::vector<lint::Diagnostic>* diagnostics) {
  std::vector<lint::Diagnostic> local;
  std::vector<lint::Diagnostic>& sink =
      diagnostics != nullptr ? *diagnostics : local;
  const size_t begin = sink.size();
  lint::LintPhrTriplets(phr, vocab, preflight, sink);
  if (preflight.fail_on_error) {
    HEDGEQ_RETURN_IF_ERROR(lint::ErrorStatus(sink, begin));
  }
  // The vocabulary is in hand, so the Theorem 4 compile can be keyed
  // end-to-end in the certificate cache by the PHR's canonical text.
  return Create(phr, budget, phr.ToString(vocab));
}

automata::EvalStats PhrEvaluator::stats() const {
  if (!lazy_.has_value()) return automata::EvalStats{};
  automata::EvalStats s = lazy_->stats();
  s.fallback_used = true;
  return s;
}

std::vector<bool> PhrEvaluator::Locate(const Hedge& doc) const {
  if (lazy_.has_value()) {
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalFallbackRuns, 1);
    return lazy_->Locate(doc);
  }
  // First traversal: bottom-up state assignment by M, then sibling classes.
  std::vector<HState> states;
  SiblingClasses classes;
  {
    HEDGEQ_OBS_SPAN(pass1, obs::spans::kPhrEvalPass1);
    states = compiled_->dha().Run(doc);
    classes = ComputeSiblingClasses(doc, states, compiled_->equiv());
    if (obs::Enabled()) {
      HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalPass1Nodes, doc.num_nodes());
      pass1.AddArg("nodes", doc.num_nodes());
    }
  }
  HEDGEQ_OBS_SPAN(pass2, obs::spans::kPhrEvalPass2);

  // Second traversal: top-down run of N (which accepts the mirror of L, so
  // feeding triplets from the top level toward the node evaluates the
  // bottom-to-top decomposition sequence). Arena ids ascend from parents to
  // children, so a forward sweep visits parents first.
  const strre::Dfa& mirror = compiled_->mirror();
  std::vector<strre::StateId> nstate(doc.num_nodes(), strre::kNoState);
  std::vector<bool> located(doc.num_nodes(), false);
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    if (doc.label(n).kind != hedge::LabelKind::kSymbol) continue;
    NodeId parent = doc.parent(n);
    strre::StateId from =
        parent == kNullNode ? mirror.start() : nstate[parent];
    if (from == strre::kNoState) continue;  // dead branch
    uint32_t si = compiled_->SymbolIndex(doc.label(n).id);
    if (si == CompiledPhr::kNoSymbol) continue;  // label in no triplet
    strre::Symbol letter =
        compiled_->EncodeLetter(classes.elder[n], si, classes.younger[n]);
    strre::StateId to = mirror.Next(from, letter);
    nstate[n] = to;
    located[n] = to != strre::kNoState && mirror.IsAccepting(to);
  }
  // Seeded-bug probe: report a wrong node set (the first symbol node
  // flipped) so the selection oracle must catch the eager engine lying.
  if (!failpoint::Check("phr/select-wrong-node").ok()) {
    for (NodeId n = 0; n < doc.num_nodes(); ++n) {
      if (doc.label(n).kind == hedge::LabelKind::kSymbol) {
        located[n] = !located[n];
        break;
      }
    }
  }
  if (obs::Enabled()) {
    size_t hits = 0;
    for (NodeId n = 0; n < doc.num_nodes(); ++n) hits += located[n] ? 1 : 0;
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalPass2Nodes, doc.num_nodes());
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalLocated, hits);
    pass2.AddArg("nodes", doc.num_nodes());
    pass2.AddArg("located", hits);
  }
  return located;
}

}  // namespace hedgeq::query
