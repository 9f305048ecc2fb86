#include "schema/algebra.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "automata/analysis.h"
#include "automata/dha.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace hedgeq::schema {

namespace {

std::atomic<AlgebraValidationHook> g_algebra_hook{nullptr};

// Joint element/variable vocabulary of two schemas.
void JointVocabulary(const Schema& a, const Schema& b,
                     std::vector<hedge::SymbolId>* symbols,
                     std::vector<hedge::VarId>* variables) {
  *symbols = a.Symbols();
  std::vector<hedge::SymbolId> sb = b.Symbols();
  symbols->insert(symbols->end(), sb.begin(), sb.end());
  std::sort(symbols->begin(), symbols->end());
  symbols->erase(std::unique(symbols->begin(), symbols->end()),
                 symbols->end());

  *variables = a.Variables();
  std::vector<hedge::VarId> vb = b.Variables();
  variables->insert(variables->end(), vb.begin(), vb.end());
  std::sort(variables->begin(), variables->end());
  variables->erase(std::unique(variables->begin(), variables->end()),
                   variables->end());
}

// The shared intersect core: pairing product, seeded failpoint, prune.
// Records the pre-prune product and the trim witness into `sink` (when
// non-null); the caller stamps the op kind and fires the hook.
Schema IntersectCore(const automata::Nha& a, const automata::Nha& b,
                     AlgebraWitness* sink) {
  automata::Nha product = automata::IntersectNha(a, b);
  if (!failpoint::Check("algebra/drop-rule").ok() && !product.rules().empty()) {
    // Seeded bug: rebuild the product without its last rule, shrinking the
    // intersection. CheckAlgebra's independent product re-derivation must
    // flag the missing rule (HQV015).
    automata::Nha corrupt;
    corrupt.AddStates(product.num_states());
    for (size_t i = 0; i + 1 < product.rules().size(); ++i) {
      const automata::Nha::Rule& rule = product.rules()[i];
      corrupt.AddRule(rule.symbol, rule.content, rule.target);
    }
    for (const auto& [x, states] : product.var_map()) {
      for (automata::HState q : states) corrupt.AddVariableState(x, q);
    }
    for (const auto& [z, states] : product.subst_map()) {
      for (automata::HState q : states) corrupt.AddSubstState(z, q);
    }
    corrupt.SetFinal(product.final_nfa());
    product = std::move(corrupt);
  }
  automata::TrimWitness trim;
  Schema out(automata::PruneNha(product, nullptr,
                                sink != nullptr ? &trim : nullptr));
  if (sink != nullptr) {
    sink->product = std::move(product);
    sink->trim = std::move(trim);
  }
  return out;
}

void MaybeValidate(const Schema& a, const Schema& b, const Schema& out,
                   const AlgebraWitness* sink) {
  AlgebraValidationHook hook = g_algebra_hook.load(std::memory_order_relaxed);
  if (hook == nullptr || sink == nullptr) return;
  Status verdict = hook(a, b, out, *sink);
  HEDGEQ_CHECK_MSG(verdict.ok(), verdict.ToString().c_str());
}

}  // namespace

void SetAlgebraValidationHook(AlgebraValidationHook hook) {
  g_algebra_hook.store(hook, std::memory_order_relaxed);
}

AlgebraValidationHook GetAlgebraValidationHook() {
  return g_algebra_hook.load(std::memory_order_relaxed);
}

Schema IntersectSchemas(const Schema& a, const Schema& b,
                        AlgebraWitness* witness) {
  AlgebraWitness local;
  AlgebraWitness* sink =
      witness != nullptr
          ? witness
          : (GetAlgebraValidationHook() != nullptr ? &local : nullptr);
  Schema out = IntersectCore(a.nha(), b.nha(), sink);
  if (sink != nullptr) sink->op = AlgebraOp::kIntersect;
  MaybeValidate(a, b, out, sink);
  return out;
}

Schema UnionSchemas(const Schema& a, const Schema& b,
                    AlgebraWitness* witness) {
  AlgebraWitness local;
  AlgebraWitness* sink =
      witness != nullptr
          ? witness
          : (GetAlgebraValidationHook() != nullptr ? &local : nullptr);
  Schema out(automata::UnionNha(a.nha(), b.nha()));
  if (sink != nullptr) {
    sink->op = AlgebraOp::kUnion;
    // CopyNhaInto appends, so the copies sit at offset 0 and |Qa|.
    sink->offset_a = 0;
    sink->offset_b = static_cast<automata::HState>(a.nha().num_states());
  }
  MaybeValidate(a, b, out, sink);
  return out;
}

Result<Schema> ComplementSchema(const Schema& a, const Schema& universe_hint,
                                BudgetArg budget) {
  HEDGEQ_FAILPOINT("schema/complement");
  std::vector<hedge::SymbolId> symbols;
  std::vector<hedge::VarId> variables;
  JointVocabulary(a, universe_hint, &symbols, &variables);

  auto det = automata::Determinize(a.nha(), budget.scope());
  if (!det.ok()) return det.status();
  automata::Dha complement = automata::ComplementDha(det->dha);
  return Schema(automata::DhaToNha(complement, variables, symbols));
}

Result<Schema> DifferenceSchemas(const Schema& a, const Schema& b,
                                 BudgetArg budget, AlgebraWitness* witness) {
  AlgebraWitness local;
  AlgebraWitness* sink =
      witness != nullptr
          ? witness
          : (GetAlgebraValidationHook() != nullptr ? &local : nullptr);
  Result<Schema> not_b = ComplementSchema(b, a, budget.scope());
  if (!not_b.ok()) return not_b.status();
  Schema out = IntersectCore(a.nha(), not_b->nha(), sink);
  if (sink != nullptr) {
    sink->op = AlgebraOp::kDifference;
    sink->complement = not_b->nha();
  }
  MaybeValidate(a, b, out, sink);
  return out;
}

Result<bool> SchemaIncludes(const Schema& a, const Schema& b,
                            BudgetArg budget) {
  Result<Schema> diff = DifferenceSchemas(a, b, budget.scope());
  if (!diff.ok()) return diff.status();
  return diff->IsEmpty();
}

Result<bool> SchemasEquivalent(const Schema& a, const Schema& b,
                               BudgetArg budget) {
  BudgetScope& scope = budget.scope();
  Result<bool> ab = SchemaIncludes(a, b, scope);
  if (!ab.ok()) return ab.status();
  if (!*ab) return false;
  Result<bool> ba = SchemaIncludes(b, a, scope);
  if (!ba.ok()) return ba.status();
  return *ba;
}

}  // namespace hedgeq::schema
