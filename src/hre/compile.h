#ifndef HEDGEQ_HRE_COMPILE_H_
#define HEDGEQ_HRE_COMPILE_H_

#include "automata/nha.h"
#include "hre/ast.h"
#include "util/budget.h"
#include "util/status.h"

namespace hedgeq::hre {

/// Lemma 1: constructs a non-deterministic hedge automaton M(e) with
/// L(M(e)) = L(e). The construction follows the paper's ten cases; the
/// states z-bar introduced for substitution symbols appear in iota (as
/// substitution-state entries) and inside content models, never in final
/// state sequences. Linear in the size of the expression — except for the
/// splice copies of cases 9/10, which the budgeted form below charges
/// against its budget (along with AST recursion depth), returning
/// kResourceExhausted instead of overrunning on adversarial expressions.
/// This form has no budget and cannot fail.
automata::Nha CompileHre(const Hre& e);

/// One compiled subexpression in post-order: the accumulator-Nha state and
/// rule counts observed on entry and on exit of its Lemma 1 case. The
/// independent checker (verify::CheckCompile) replays the per-case
/// accounting — case 3 adds one state, case 4 one state and one rule,
/// case 8 two states and one rule, every other case only what its children
/// added — and rejects any trace whose arithmetic does not close.
struct CompileTraceEntry {
  HreKind kind;
  size_t states_before = 0;
  size_t states_after = 0;
  size_t rules_before = 0;
  size_t rules_after = 0;
};

/// Certificate of one Lemma 1 compile: the post-order case trace plus the
/// output totals.
struct CompileTrace {
  std::vector<CompileTraceEntry> entries;
  size_t total_states = 0;
  size_t total_rules = 0;
};

/// Budget-aware form: charges `budget` — the caller's scope when the
/// compile is one stage of a pipeline (query::CompilePhr,
/// query::SelectionEvaluator::Create), or a fresh one — and records the
/// compile certificate into `trace` when it is non-null.
Result<automata::Nha> CompileHre(const Hre& e, BudgetArg budget,
                                 CompileTrace* trace = nullptr);

}  // namespace hedgeq::hre

#endif  // HEDGEQ_HRE_COMPILE_H_
