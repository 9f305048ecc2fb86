#ifndef HEDGEQ_LINT_ANALYZE_H_
#define HEDGEQ_LINT_ANALYZE_H_

#include <string>
#include <vector>

#include "automata/nha.h"
#include "hre/ast.h"
#include "lint/diagnostics.h"

namespace hedgeq::lint {

/// Static nondeterminism profile of an NHA: the raw material of the
/// budget-risk heuristic. The horizontal subset construction of Theorem 1
/// works over the union of all rule content NFAs, so its worst case is
/// 2^(content states); the *expected* blowup tracks the number of genuine
/// nondeterministic choice points (union/star epsilon forks and duplicate
/// same-letter transitions), because only those can double the live subset
/// count. Experiment E12 cross-checks the estimate against measured
/// determinizations (bench_determinize prints both columns).
struct NondetProfile {
  size_t nha_states = 0;
  size_t num_rules = 0;
  size_t content_nfa_states = 0;   // total across all rule contents
  size_t nondet_branch_points = 0; // content states with a real choice
  size_t log2_h_worst = 0;         // min(content_nfa_states, 63)
  size_t log2_h_estimate = 0;      // min(nondet_branch_points, log2_h_worst)
};

NondetProfile ProfileNha(const automata::Nha& nha);

/// What a Trim() pass (PruneNha) would save: dead-state counts plus — when
/// the probe budget allows — the measured horizontal-state cost of
/// determinizing with and without the dead states, i.e. the subset-
/// construction work the user is paying for states no computation uses.
struct TrimReport {
  size_t states_before = 0;
  size_t states_after = 0;
  size_t unreachable = 0;  // not derivable by any hedge (bottom-up)
  size_t useless = 0;      // derivable but not co-accessible
  /// Probe determinization h-state counts; 0 when the probe tripped its
  /// budget (the automaton is then itself blowup-suspect).
  size_t probe_h_states_before = 0;
  size_t probe_h_states_after = 0;

  size_t dead_states() const { return unreachable + useless; }
  double DeadFraction() const {
    return states_before == 0
               ? 0.0
               : static_cast<double>(dead_states()) /
                     static_cast<double>(states_before);
  }
};

TrimReport AnalyzeTrim(const automata::Nha& nha, const LintOptions& options);

/// Appends automaton-hygiene findings for `nha` to `out`:
///   HQL003 (error)       — the automaton accepts no hedge at all
///   HQL101 (note/warn)   — unreachable states
///   HQL102 (note/warn)   — useless (non-coaccessible) states, with the
///                          trim savings measured by AnalyzeTrim
///   HQL201 (warning)     — estimated subset-construction blowup
/// `subject` names the automaton inside spans ("schema", "subhedge
/// automaton", ...).
void LintNha(const automata::Nha& nha, const LintOptions& options,
             const std::string& subject, std::vector<Diagnostic>& out);

/// Appends expression-level findings for `e` to `out`:
///   HQL001 (error)   — the whole expression denotes the empty language
///   HQL002 (warning) — a minimal empty subexpression (its own subterms are
///                      all nonempty): under concatenation or a<...> it
///                      poisons the whole term, under union it is a dead
///                      branch
///   HQL201 (warning) — estimated determinization blowup of the compiled
///                      automaton
///   HQL202 (note)    — the expression is ambiguous (some hedge matches
///                      along two distinct computations)
/// Emptiness of each subexpression is decided exactly, by compiling the
/// subterm (Lemma 1) and running the bottom-up reachability fixpoint, all
/// under options.probe_budget; subterms whose probe trips the budget are
/// skipped. Returns true when the whole expression is provably empty.
bool LintHre(const hre::Hre& e, const hedge::Vocabulary& vocab,
             const LintOptions& options, std::vector<Diagnostic>& out);

/// Renders a subexpression for diagnostic spans, eliding the middle of
/// long expressions.
std::string SpanOf(const hre::Hre& e, const hedge::Vocabulary& vocab,
                   size_t max_chars = 60);

/// Pre-flight gating: the first kError finding at or after index `begin`
/// as a kInvalidArgument status, or Ok when none. A caller that must not
/// pay for compiling a query that cannot match lints it first
/// (LintSelectionQuery, LintQueryUnderSchema) and gates on this.
Status ErrorStatus(const std::vector<Diagnostic>& diagnostics, size_t begin);

}  // namespace hedgeq::lint

#endif  // HEDGEQ_LINT_ANALYZE_H_
