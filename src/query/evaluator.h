#ifndef HEDGEQ_QUERY_EVALUATOR_H_
#define HEDGEQ_QUERY_EVALUATOR_H_

#include <optional>
#include <vector>

#include "hedge/hedge.h"
#include "query/lazy_phr.h"
#include "query/phr_compile.h"

namespace hedgeq::query {

/// Per-node sibling context: the equivalence class (a state of the == DFA)
/// of the elder-sibling state sequence and of the younger-sibling state
/// sequence. PhrEvaluator::Locate keeps these per sibling group only; the
/// per-node arrays serve Theorem 5 (schema/match_identify) and tests.
struct SiblingClasses {
  std::vector<uint32_t> elder;
  std::vector<uint32_t> younger;
};

/// Computes elder/younger classes for every node in O(nodes * |classes|):
/// prefixes by a forward run of the == DFA, suffixes by right-to-left
/// composition of its transition functions (a right-invariant DFA cannot be
/// extended leftward state-by-state, but its transition functions compose).
/// A loop over the same per-sibling-group kernel that PhrEvaluator::Locate
/// runs, reading `equiv`'s dense rows. `equiv` must be complete over the
/// states in `states`, as CompilePhr's is.
SiblingClasses ComputeSiblingClasses(const hedge::Hedge& doc,
                                     const std::vector<automata::HState>& states,
                                     const strre::Dfa& equiv);

/// Algorithm 1: evaluates a compiled pointed hedge representation against
/// documents with two traversals, linear in the node count. The first is
/// the DHA run of M. The second is one forward sweep over the sibling
/// groups that computes each group's elder/younger classes into buffers
/// shared by all groups and steps N from the parent's state; it skips every
/// group under a dead parent. With one class there are no classes to
/// compute, and the sweep steps N node by node in arena order instead.
/// Every step is an array read in the dense rows of M, of the == DFA or
/// of N, the same automata the checker certifies. A Locate
/// allocates M's states, N's states and the output, plus buffers that grow
/// with the largest sibling group: O(1) allocations, never one per node.
/// The traversals are query::LocateWith (query/locate.h), the one body
/// that both engines instantiate on their tables.
///
/// Robustness: Create first attempts the eager Theorem 4 compilation under
/// `budget`; if (and only if) that fails with a degradable status
/// (IsDegradable: kResourceExhausted or kDeadlineExceeded) it falls back
/// transparently to the LazyPhrEvaluator, which runs the same Algorithm 1
/// over the Theorem 4 tables filled on demand, with bounded memory. Inspect
/// fallback_used()/stats() to learn which engine is active and what it
/// spent.
class PhrEvaluator {
 public:
  explicit PhrEvaluator(CompiledPhr compiled) : compiled_(std::move(compiled)) {}

  /// Compiles (Theorem 4) in one scope opened from `budget` and wraps; on
  /// budget exhaustion or an expired deadline degrades to the lazy engine.
  /// Any other error (bad input, injected fault) propagates. Create does not
  /// lint: a caller that wants to reject a representation that can never
  /// match runs lint::LintSelectionQuery first.
  static Result<PhrEvaluator> Create(const phr::Phr& phr,
                                     const ExecBudget& budget = {});

  /// located[n] == true iff the envelope of node n matches the
  /// representation. Only symbol-labeled nodes can be located. Both engines
  /// return identical vectors.
  std::vector<bool> Locate(const hedge::Hedge& doc) const;

  /// True when eager compilation exceeded its budget and the lazy engine
  /// answers Locate.
  bool fallback_used() const { return lazy_.has_value(); }

  /// Engine expenditure; fallback_used mirrors fallback_used().
  automata::EvalStats stats() const;

  /// The eager artifacts, or nullptr when running on the lazy engine.
  const CompiledPhr* compiled() const {
    return compiled_.has_value() ? &*compiled_ : nullptr;
  }

 private:
  PhrEvaluator() = default;

  std::optional<CompiledPhr> compiled_;
  std::optional<LazyPhrEvaluator> lazy_;
};

}  // namespace hedgeq::query

#endif  // HEDGEQ_QUERY_EVALUATOR_H_
