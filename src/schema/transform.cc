#include "schema/transform.h"

#include <atomic>
#include <deque>
#include <functional>

#include "automata/analysis.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/ops.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace hedgeq::schema {

using automata::HState;
using automata::Nha;
using strre::Nfa;

namespace {

enum class LetterAction { kKeep, kDrop, kEpsilon };

// Rewrites transitions per letter: keep, drop, or turn into an epsilon.
Nfa TransformLetters(const Nfa& in,
                     const std::function<LetterAction(strre::Symbol)>& action) {
  Nfa out;
  for (strre::StateId s = 0; s < in.num_states(); ++s) {
    out.AddState(in.IsAccepting(s));
  }
  if (in.start() != strre::kNoState) out.SetStart(in.start());
  for (strre::StateId s = 0; s < in.num_states(); ++s) {
    for (const Nfa::Transition& t : in.TransitionsFrom(s)) {
      switch (action(t.symbol)) {
        case LetterAction::kKeep:
          out.AddTransition(s, t.symbol, t.to);
          break;
        case LetterAction::kDrop:
          break;
        case LetterAction::kEpsilon:
          out.AddEpsilon(s, t.to);
          break;
      }
    }
    for (strre::StateId t : in.EpsilonsFrom(s)) out.AddEpsilon(s, t);
  }
  return out;
}

// One marked automaton layered onto the product: M-up-e2 (unique run, marks
// = located by the envelope), or M-down-e1 as an NHA (deterministic, marks
// = odd pair ids = subhedge in L(e1)).
struct Layer {
  Nha nha;
  std::vector<bool> marked;
};

// The Theorem 3/5 layers of one selection query over the schema vocabulary.
Result<std::vector<Layer>> QueryLayers(
    const Schema& input, const query::SelectionQuery& query,
    const ExecBudget& options) {
  std::vector<hedge::SymbolId> symbols = input.Symbols();
  std::vector<hedge::VarId> variables = input.Variables();

  std::vector<Layer> layers;

  Result<query::CompiledPhr> compiled =
      query::CompilePhr(query.envelope, options);
  if (!compiled.ok()) return compiled.status();
  MatchIdentifying up = BuildMatchIdentifying(*compiled, symbols, variables);
  std::vector<bool> up_marked = up.marked();
  layers.push_back(Layer{up.TakeNha(), std::move(up_marked)});

  if (query.subhedge != nullptr) {
    auto det = automata::Determinize(hre::CompileHre(query.subhedge), options);
    if (!det.ok()) return det.status();
    automata::Dha marked_dha = automata::BuildMarkedDha(det->dha, symbols);
    Nha down = automata::DhaToNha(marked_dha, variables);
    std::vector<bool> down_marked(down.num_states(), false);
    for (size_t p = 1; p < down.num_states(); p += 2) down_marked[p] = true;
    layers.push_back(Layer{std::move(down), std::move(down_marked)});
  }
  return layers;
}

// Schema x layer1 x layer2 x ...; each layer's marks lifted to product ids.
struct LayeredProduct {
  Nha nha;
  std::vector<std::vector<bool>> layer_marks;
};

// Prunes useless states, renumbering all mark vectors along.
void PruneLayered(Nha& nha, std::vector<std::vector<bool>>& marks) {
  std::vector<HState> mapping;
  Nha pruned = automata::PruneNha(nha, &mapping);
  for (std::vector<bool>& m : marks) {
    std::vector<bool> remapped(pruned.num_states(), false);
    for (size_t old = 0; old < mapping.size(); ++old) {
      if (mapping[old] != strre::kNoState && m[old]) {
        remapped[mapping[old]] = true;
      }
    }
    m = std::move(remapped);
  }
  nha = std::move(pruned);
}

LayeredProduct ComposeProduct(const Nha& schema_nha,
                              std::vector<Layer> layers) {
  LayeredProduct out;
  out.nha = schema_nha;
  for (Layer& layer : layers) {
    // Prune the layer itself first (the Theorem 5 constructions carry many
    // symbol-mismatched state combinations that no document ever uses).
    {
      std::vector<HState> mapping;
      Nha pruned = automata::PruneNha(layer.nha, &mapping);
      std::vector<bool> remapped(pruned.num_states(), false);
      for (size_t old = 0; old < mapping.size(); ++old) {
        if (mapping[old] != strre::kNoState && layer.marked[old]) {
          remapped[mapping[old]] = true;
        }
      }
      layer.nha = std::move(pruned);
      layer.marked = std::move(remapped);
    }
    const size_t nl = layer.nha.num_states();
    Nha next = automata::IntersectNha(out.nha, layer.nha);
    // Existing marks: id = p_old * nl + l.
    for (std::vector<bool>& marks : out.layer_marks) {
      std::vector<bool> lifted(next.num_states(), false);
      for (size_t p = 0; p < next.num_states(); ++p) {
        lifted[p] = marks[p / nl];
      }
      marks = std::move(lifted);
    }
    std::vector<bool> own(next.num_states(), false);
    for (size_t p = 0; p < next.num_states(); ++p) {
      own[p] = layer.marked[p % nl];
    }
    out.layer_marks.push_back(std::move(own));
    out.nha = std::move(next);
    // And keep the running product small.
    PruneLayered(out.nha, out.layer_marks);
  }
  return out;
}

// AND of a group of layer marks.
std::vector<bool> AndMarks(const LayeredProduct& prod, size_t begin,
                           size_t end) {
  std::vector<bool> out(prod.nha.num_states(), true);
  for (size_t p = 0; p < out.size(); ++p) {
    for (size_t l = begin; l < end; ++l) {
      if (!prod.layer_marks[l][p]) {
        out[p] = false;
        break;
      }
    }
  }
  return out;
}

// Synthesizes a document whose (unique up to schema nondeterminism)
// accepting computation uses a `target` state, returning it with the node
// that carries the state. nullopt when no such document exists.
std::optional<SampleMatch> SampleFromProduct(
    const Nha& nha, const std::vector<bool>& target) {
  const size_t n = nha.num_states();
  std::vector<std::optional<hedge::Hedge>> witness =
      automata::StateWitnesses(nha);
  Bitset derivable(n == 0 ? 1 : n);
  for (size_t q = 0; q < n; ++q) {
    if (witness[q].has_value()) derivable.Set(static_cast<uint32_t>(q));
  }

  // Co-reachability with parent links.
  struct Via {
    bool is_final = false;
    size_t rule = 0;
  };
  std::vector<std::optional<Via>> via(n);
  Bitset from_final = strre::UsableLetters(nha.final_nfa(), derivable, n);
  for (uint32_t p : from_final.ToVector()) via[p] = Via{true, 0};
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t r = 0; r < nha.rules().size(); ++r) {
      const Nha::Rule& rule = nha.rules()[r];
      if (!via[rule.target].has_value()) continue;
      Bitset usable = strre::UsableLetters(rule.content, derivable, n);
      for (uint32_t p : usable.ToVector()) {
        if (!via[p].has_value()) {
          via[p] = Via{false, r};
          changed = true;
        }
      }
    }
  }

  uint32_t picked = UINT32_MAX;
  for (size_t q = 0; q < n; ++q) {
    if (target[q] && witness[q].has_value() && via[q].has_value()) {
      picked = static_cast<uint32_t>(q);
      break;
    }
  }
  if (picked == UINT32_MAX) return std::nullopt;

  // Build bottom-up: the witness subtree, then one wrapping level per
  // context-chain step. All hedges are built in document order, so copied
  // node ids shift by a constant base.
  hedge::Hedge current = *witness[picked];
  hedge::NodeId located = 0;
  uint32_t state = picked;
  while (!via[state]->is_final) {
    const Nha::Rule& rule = nha.rules()[via[state]->rule];
    std::optional<std::vector<strre::Symbol>> word =
        automata::ShortestWordContaining(rule.content, derivable, state);
    HEDGEQ_CHECK_MSG(word.has_value(), "co-reach chain must be realizable");
    hedge::Hedge next;
    hedge::NodeId root =
        next.Append(hedge::kNullNode, hedge::Label::Symbol(rule.symbol));
    bool placed = false;
    for (strre::Symbol q : *word) {
      if (!placed && q == state) {
        hedge::NodeId base = static_cast<hedge::NodeId>(next.num_nodes());
        next.AppendHedgeCopy(root, current);
        located = base + located;
        placed = true;
      } else {
        next.AppendHedgeCopy(root, *witness[q]);
      }
    }
    current = std::move(next);
    state = rule.target;
  }
  std::optional<std::vector<strre::Symbol>> top =
      automata::ShortestWordContaining(nha.final_nfa(), derivable, state);
  HEDGEQ_CHECK_MSG(top.has_value(), "final chain must be realizable");
  hedge::Hedge doc;
  bool placed = false;
  for (strre::Symbol q : *top) {
    if (!placed && q == state) {
      hedge::NodeId base = static_cast<hedge::NodeId>(doc.num_nodes());
      doc.AppendHedgeCopy(hedge::kNullNode, current);
      located = base + located;
      placed = true;
    } else {
      doc.AppendHedgeCopy(hedge::kNullNode, *witness[q]);
    }
  }
  return SampleMatch{std::move(doc), located};
}

}  // namespace

Result<MatchIdentifyingProduct> BuildMatchIdentifyingProduct(
    const Schema& input, const query::SelectionQuery& query,
    const ExecBudget& options) {
  HEDGEQ_OBS_SPAN(span, obs::spans::kSchemaTransform);
  HEDGEQ_OBS_COUNT(obs::metrics::kSchemaTransformRuns, 1);
  Result<std::vector<Layer>> layers = QueryLayers(input, query, options);
  if (!layers.ok()) return layers.status();
  LayeredProduct prod =
      ComposeProduct(input.nha(), std::move(layers).value());
  MatchIdentifyingProduct out;
  out.marked = AndMarks(prod, 0, prod.layer_marks.size());
  out.nha = std::move(prod.nha);
  if (obs::Enabled()) {
    span.AddArg("product_states", out.nha.num_states());
  }
  return out;
}

namespace {

// "Use marked states as final state sequences — only those from which
// final state sequences can be reached" (and that some document derives).
Schema SelectFromMarkedProduct(Nha nha, const std::vector<bool>& marked) {
  const size_t n = nha.num_states();
  Bitset derivable = automata::ReachableStates(nha);

  const Bitset co = automata::CoReachableStates(nha, derivable);

  std::vector<strre::Regex> finals;
  for (size_t p = 0; p < n; ++p) {
    if (marked[p] && derivable.Test(p) && co.Test(p)) {
      finals.push_back(strre::Sym(static_cast<strre::Symbol>(p)));
    }
  }
  nha.SetFinal(strre::CompileRegex(strre::AltAll(finals)));
  return Schema(std::move(nha));
}

// Layered product for a boolean query: every leaf contributes its layers;
// a state is marked when the formula holds over the leaves' (AND-of-layer)
// verdicts.
Result<MatchIdentifyingProduct> BuildBooleanProduct(
    const Schema& input, const query::BooleanQuery& query,
    const ExecBudget& options) {
  HEDGEQ_OBS_SPAN(span, obs::spans::kSchemaTransform);
  HEDGEQ_OBS_COUNT(obs::metrics::kSchemaTransformRuns, 1);
  std::vector<Layer> all;
  std::vector<std::pair<size_t, size_t>> groups;  // per-leaf layer ranges
  for (const query::SelectionQuery* leaf : query.Leaves()) {
    Result<std::vector<Layer>> layers = QueryLayers(input, *leaf, options);
    if (!layers.ok()) return layers.status();
    size_t begin = all.size();
    for (Layer& layer : *layers) all.push_back(std::move(layer));
    groups.emplace_back(begin, all.size());
  }
  LayeredProduct prod = ComposeProduct(input.nha(), std::move(all));

  std::vector<std::vector<bool>> leaf_marks;
  leaf_marks.reserve(groups.size());
  for (const auto& [begin, end] : groups) {
    leaf_marks.push_back(AndMarks(prod, begin, end));
  }
  MatchIdentifyingProduct out;
  out.marked.assign(prod.nha.num_states(), false);
  std::vector<bool> verdicts(groups.size(), false);
  for (size_t p = 0; p < out.marked.size(); ++p) {
    for (size_t l = 0; l < groups.size(); ++l) verdicts[l] = leaf_marks[l][p];
    out.marked[p] = query.Evaluate(verdicts);
  }
  out.nha = std::move(prod.nha);
  return out;
}

}  // namespace

Result<Schema> SelectOutputSchema(const Schema& input,
                                  const query::SelectionQuery& query,
                                  const ExecBudget& options) {
  Result<MatchIdentifyingProduct> prod =
      BuildMatchIdentifyingProduct(input, query, options);
  if (!prod.ok()) return prod.status();
  return SelectFromMarkedProduct(std::move(prod->nha), prod->marked);
}

Result<Schema> SelectOutputSchemaBoolean(
    const Schema& input, const query::BooleanQuery& query,
    const ExecBudget& options) {
  Result<MatchIdentifyingProduct> prod =
      BuildBooleanProduct(input, query, options);
  if (!prod.ok()) return prod.status();
  return SelectFromMarkedProduct(std::move(prod->nha), prod->marked);
}

Result<std::optional<SampleMatch>> SampleMatchingDocumentBoolean(
    const Schema& input, const query::BooleanQuery& query,
    const ExecBudget& options) {
  Result<MatchIdentifyingProduct> prod =
      BuildBooleanProduct(input, query, options);
  if (!prod.ok()) return prod.status();
  return SampleFromProduct(prod->nha, prod->marked);
}

Result<Schema> DeleteOutputSchema(const Schema& input,
                                  const query::SelectionQuery& query,
                                  const ExecBudget& options) {
  Result<MatchIdentifyingProduct> prod =
      BuildMatchIdentifyingProduct(input, query, options);
  if (!prod.ok()) return prod.status();
  Nha nha = std::move(prod->nha);
  Bitset derivable = automata::ReachableStates(nha);

  auto action = [&](strre::Symbol p) {
    if (p >= derivable.size() || !derivable.Test(p)) {
      return LetterAction::kDrop;  // never occurs in a valid document
    }
    if (prod->marked[p]) return LetterAction::kEpsilon;  // located: deleted
    return LetterAction::kKeep;
  };

  Nha out;
  out.AddStates(nha.num_states());
  for (const Nha::Rule& rule : nha.rules()) {
    out.AddRule(rule.symbol, TransformLetters(rule.content, action),
                rule.target);
  }
  for (const auto& [x, states] : nha.var_map()) {
    for (HState q : states) out.AddVariableState(x, q);
  }
  for (const auto& [z, states] : nha.subst_map()) {
    for (HState q : states) out.AddSubstState(z, q);
  }
  out.SetFinal(TransformLetters(nha.final_nfa(), action));
  return Schema(std::move(out));
}

Result<std::optional<SampleMatch>> SampleMatchingDocument(
    const Schema& input, const query::SelectionQuery& query,
    const ExecBudget& options) {
  Result<MatchIdentifyingProduct> prod =
      BuildMatchIdentifyingProduct(input, query, options);
  if (!prod.ok()) return prod.status();
  return SampleFromProduct(prod->nha, prod->marked);
}

namespace {
std::atomic<ContainmentValidationHook> g_containment_hook{nullptr};
}  // namespace

void SetContainmentValidationHook(ContainmentValidationHook hook) {
  g_containment_hook.store(hook, std::memory_order_relaxed);
}

ContainmentValidationHook GetContainmentValidationHook() {
  return g_containment_hook.load(std::memory_order_relaxed);
}

Result<ContainmentResult> QueryContainment(
    const Schema& input, const query::SelectionQuery& q1,
    const query::SelectionQuery& q2, const ExecBudget& options,
    ContainmentWitness* witness) {
  Result<std::vector<Layer>> layers1 = QueryLayers(input, q1, options);
  if (!layers1.ok()) return layers1.status();
  Result<std::vector<Layer>> layers2 = QueryLayers(input, q2, options);
  if (!layers2.ok()) return layers2.status();

  size_t split = layers1->size();
  std::vector<Layer> all = std::move(layers1).value();
  for (Layer& layer : *layers2) all.push_back(std::move(layer));
  LayeredProduct prod = ComposeProduct(input.nha(), std::move(all));

  std::vector<bool> marked1 = AndMarks(prod, 0, split);
  std::vector<bool> marked2 =
      AndMarks(prod, split, prod.layer_marks.size());
  // Counterexample states: q1 locates here, q2 does not. Both queries'
  // layers are deterministic per document, so marks are
  // computation-independent and the check is sound.
  std::vector<bool> target(prod.nha.num_states(), false);
  bool any = false;
  for (size_t p = 0; p < target.size(); ++p) {
    target[p] = marked1[p] && !marked2[p];
    any = any || target[p];
  }
  ContainmentResult result{true, std::nullopt};
  if (any) {
    std::optional<SampleMatch> sample = SampleFromProduct(prod.nha, target);
    if (sample.has_value()) {
      result.contained = false;
      result.counterexample = std::move(sample);
    }
  }
  // Seeded-bug failpoint for the translation-validation tests: invert the
  // verdict so CheckContainment can prove it catches a lying decision
  // procedure. Check() is used as a probe — the armed "failure" flips the
  // bit instead of propagating. Flipping to "contained" also drops the
  // counterexample (a contained verdict carrying one would be caught by
  // shape alone); flipping to "not contained" leaves the counterexample
  // absent, the other half of the contract.
  if (!failpoint::Check("containment/flip-verdict").ok()) {
    result.contained = !result.contained;
    if (result.contained) result.counterexample.reset();
  }
  const bool want_witness =
      witness != nullptr || GetContainmentValidationHook() != nullptr;
  if (want_witness) {
    ContainmentWitness local{prod.nha, std::move(marked1), std::move(marked2)};
    if (ContainmentValidationHook hook = GetContainmentValidationHook()) {
      Status verdict = hook(input, q1, q2, result, local);
      if (!verdict.ok()) return verdict;
    }
    if (witness != nullptr) *witness = std::move(local);
  }
  return result;
}

Result<bool> QueriesEquivalentUnderSchema(
    const Schema& input, const query::SelectionQuery& q1,
    const query::SelectionQuery& q2,
    const ExecBudget& options) {
  Result<ContainmentResult> forward = QueryContainment(input, q1, q2, options);
  if (!forward.ok()) return forward.status();
  if (!forward->contained) return false;
  Result<ContainmentResult> backward =
      QueryContainment(input, q2, q1, options);
  if (!backward.ok()) return backward.status();
  return backward->contained;
}

Result<Schema> RenameOutputSchema(const Schema& input,
                                  const query::SelectionQuery& query,
                                  hedge::SymbolId new_name,
                                  const ExecBudget& options) {
  Result<MatchIdentifyingProduct> prod =
      BuildMatchIdentifyingProduct(input, query, options);
  if (!prod.ok()) return prod.status();
  const Nha& nha = prod->nha;

  // A node is located iff its state is marked (the product's computations
  // agree on marks), so relabeling located nodes is just re-symboling the
  // rules that produce marked states. Contents and the final language are
  // untouched: positions and subtrees are preserved.
  Nha out;
  out.AddStates(nha.num_states());
  for (const Nha::Rule& rule : nha.rules()) {
    hedge::SymbolId symbol =
        prod->marked[rule.target] ? new_name : rule.symbol;
    out.AddRule(symbol, rule.content, rule.target);
  }
  for (const auto& [x, states] : nha.var_map()) {
    for (HState q : states) out.AddVariableState(x, q);
  }
  for (const auto& [z, states] : nha.subst_map()) {
    for (HState q : states) out.AddSubstState(z, q);
  }
  out.SetFinal(nha.final_nfa());
  return Schema(std::move(out));
}

}  // namespace hedgeq::schema
