#ifndef HEDGEQ_VERIFY_ORACLE_H_
#define HEDGEQ_VERIFY_ORACLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "hedge/hedge.h"
#include "hre/ast.h"
#include "lint/diagnostics.h"
#include "query/selection.h"
#include "util/budget.h"
#include "util/status.h"

namespace hedgeq::verify {

struct OracleOptions {
  /// Bounded-exhaustive enumeration covers every hedge of up to this many
  /// nodes (over the expression's labels plus one fresh symbol), capped at
  /// `max_exhaustive` hedges overall.
  size_t max_size = 3;
  size_t max_exhaustive = 4000;
  /// On top of the exhaustive tier: uniformly sampled hedges of exactly
  /// `sample_size` nodes, via the tree-counting recurrences.
  size_t samples = 32;
  size_t sample_size = 6;
  uint64_t seed = 1;
  /// Step cap for the exponential reference matcher; overruns are counted
  /// as unknown and skipped, never flagged.
  size_t naive_max_steps = size_t{1} << 22;
  /// Budget for compilation/determinization; eager-engine exhaustion
  /// degrades to lazy-only comparison instead of failing.
  ExecBudget budget;
  /// On an HQV009 disagreement, greedily delta-debug the hedge — delete a
  /// subtree (including whole top-level trees) or hoist a node's children
  /// into its place — re-checking every candidate with the same engine
  /// panel, and report the smallest hedge that still disagrees alongside
  /// the original. Re-checks are capped at `shrink_max_checks` per
  /// finding; the cap only limits how small the counterexample gets.
  bool shrink = true;
  size_t shrink_max_checks = 256;
};

struct OracleReport {
  /// HQV009 findings, one per disagreeing hedge (capped).
  std::vector<lint::Diagnostic> diagnostics;
  size_t hedges_checked = 0;
  size_t enumerated = 0;
  size_t sampled = 0;
  size_t naive_unknown = 0;    // reference matcher hit its step cap
  size_t streaming_checked = 0;
  size_t validator_checked = 0;
  size_t shrink_checks = 0;    // candidate re-evaluations spent shrinking
  /// False when eager determinization blew the budget (lazy engines still
  /// cross-check the NHA and the reference matcher).
  bool eager_available = false;

  bool ok() const { return diagnostics.empty(); }
};

/// Differential testing of the whole pipeline on one expression: every
/// engine that can decide membership — the naive reference matcher, direct
/// NHA simulation, the eager DHA, LazyDha, the streaming run of each, and
/// (where the hedge is XML-representable) StreamingValidator — runs over
/// a bounded-exhaustive plus random-sampled hedge corpus; any disagreement
/// is an HQV009 finding naming the hedge and each engine's verdict.
/// Fails only on setup errors (e.g. the expression does not compile).
Result<OracleReport> RunDifferentialOracle(const hre::Hre& e,
                                           hedge::Vocabulary& vocab,
                                           const OracleOptions& options = {});

struct SelectionOracleReport {
  /// HQV013 findings, one per hedge on which the engines' located node
  /// sets differ (capped).
  std::vector<lint::Diagnostic> diagnostics;
  size_t hedges_checked = 0;
  size_t enumerated = 0;
  size_t sampled = 0;
  size_t naive_unknown = 0;  // reference evaluator hit its step cap
  size_t shrink_checks = 0;
  /// False when the production evaluator degraded to a lazy engine; the
  /// explicitly lazy panel member then still covers that code path twice.
  bool eager_available = false;

  bool ok() const { return diagnostics.empty(); }
};

/// Differential testing of *selection semantics* (Definition 22): every
/// engine that can locate nodes — the Theorem 3/4 production evaluator
/// (PhrEvaluator + subhedge DHA), the same evaluator forced onto its lazy
/// engines, the NaivePhrMatcher-based reference evaluator, and the fully
/// independent naive marked-computation enumerator
/// (verify::NaiveSelectionLocate) — runs over the same bounded-exhaustive
/// plus random-sampled corpus as RunDifferentialOracle, and the located
/// node sets are compared element by element. Any difference is an HQV013
/// finding naming the hedge, the first disagreeing node and each engine's
/// node set; with options.shrink the hedge is delta-debugged first under
/// the predicate "the panel still disagrees on some node".
Result<SelectionOracleReport> RunSelectionOracle(
    const query::SelectionQuery& query, hedge::Vocabulary& vocab,
    const OracleOptions& options = {});

/// Greedy delta debugging over hedges: repeatedly applies the smallest
/// structural reductions — delete a subtree (including a whole top-level
/// tree) or hoist a node's children into its place — keeping a reduction
/// whenever `still_failing` holds on the result, until none survives
/// (the result is 1-minimal w.r.t. these operations) or `max_checks`
/// predicate evaluations are spent. `checks`, when non-null, receives the
/// number spent. This is how the oracle shrinks HQV009 counterexamples;
/// exposed for any property-based harness with a hedge-shaped input.
hedge::Hedge ShrinkHedge(
    const hedge::Hedge& start,
    const std::function<bool(const hedge::Hedge&)>& still_failing,
    size_t max_checks, size_t* checks = nullptr);

}  // namespace hedgeq::verify

#endif  // HEDGEQ_VERIFY_ORACLE_H_
