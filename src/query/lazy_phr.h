#ifndef HEDGEQ_QUERY_LAZY_PHR_H_
#define HEDGEQ_QUERY_LAZY_PHR_H_

#include <optional>
#include <vector>

#include "automata/lazy_dha.h"
#include "hedge/hedge.h"
#include "phr/phr.h"
#include "strre/automaton.h"
#include "util/budget.h"
#include "util/status.h"

namespace hedgeq::query {

/// Graceful-degradation evaluator for pointed hedge representations:
/// Algorithm 1 over the Theorem 4 tables filled on demand, with no
/// exponential preprocessing. Create runs only the Theorem 4 front end
/// (BuildPhrFrontEnd), which is linear in the representation. Locate runs
/// the one Algorithm 1 body (query/locate.h) that the eager engine runs,
/// over these tables:
///  - M: the on-the-fly subset engine LazyDha, with each node's subset
///    interned to a dense id;
///  - the == classes: an elder product, a strre::LazyDfa over the disjoint
///    union of the F_i1 NFAs run forward along each sibling group, and a
///    younger product, one over the reversed F_i2 NFAs run backward; a
///    class is a set of their states, and it lies in F_i1 (F_i2) iff it
///    holds an accepting state of triplet i's part;
///  - N: a strre::LazyDfa of the reversed triplet regex, whose letter at a
///    node is the set of triplets its label and sibling classes admit.
/// Every id is pinned for one Locate: the interned sets are run scratch,
/// bounded by the node count and dropped when the call returns. Only rows
/// are cached, and they flush all at once when their bytes pass half of
/// LazyOptionsFor(budget).max_cache_bytes; LazyDha's memo gets the other
/// half. Locate returns the same vector as the eager PhrEvaluator; the
/// lazy-vs-eager tests check it.
class LazyPhrEvaluator {
 public:
  /// Never exponential: fails only when the triplet expressions themselves
  /// exceed the budget (HRE compilation depth/steps), which no evaluation
  /// strategy could survive.
  static Result<LazyPhrEvaluator> Create(const phr::Phr& phr,
                                         const ExecBudget& budget = {});

  /// located[n] == true iff the envelope of node n matches the
  /// representation; identical to the eager PhrEvaluator::Locate.
  std::vector<bool> Locate(const hedge::Hedge& doc) const;

  /// Lazy-engine expenditure, M's memo and the rows together (cache
  /// hits/misses/evictions, peak bytes); fallback_used is set by the caller
  /// that chose this engine.
  automata::EvalStats stats() const {
    return automata::EvalStats::Sum(lazy_->stats(), rows_stats_);
  }

 private:
  class Tables;

  // One side's sibling conditions as one NFA.
  struct Conditions {
    strre::Nfa nfa;  // the disjoint union of the triplets' NFAs
    Bitset start;    // the union of their start states
    std::vector<Bitset> accepting;  // per triplet, its part's accepting states
    Bitset any;      // the triplets with no condition on this side
  };
  static Conditions Union(const std::vector<strre::Nfa>& parts,
                          const std::vector<bool>& any);

  LazyPhrEvaluator() = default;

  std::optional<automata::LazyDha> lazy_;  // M over the union NHA
  Conditions elder_;                       // F_i1, read left to right
  Conditions younger_;                     // mirrors of F_i2, right to left
  std::vector<uint32_t> symbol_index_;     // by SymbolId, as CompiledPhr's
  std::vector<Bitset> label_triplets_;     // by symbol index
  strre::Nfa rev_regex_;  // mirror of the triplet regex, run top-down
  Bitset rev_regex_start_;
  size_t row_cap_ = 0;
  mutable automata::EvalStats rows_stats_;
};

}  // namespace hedgeq::query

#endif  // HEDGEQ_QUERY_LAZY_PHR_H_
