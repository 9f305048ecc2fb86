#ifndef HEDGEQ_QUERY_SELECTION_H_
#define HEDGEQ_QUERY_SELECTION_H_

#include <optional>
#include <string>
#include <vector>

#include "automata/engine.h"
#include "hre/ast.h"
#include "hre/compile.h"
#include "phr/phr.h"
#include "query/evaluator.h"

namespace hedgeq::query {

/// A selection query select(e1, e2) (Definition 20): e1 is a hedge regular
/// expression constraining the subhedge (descendants) of the node, e2 a
/// pointed hedge representation constraining its envelope (everything else).
struct SelectionQuery {
  hre::Hre subhedge;   // e1; nullptr = no condition on descendants
  phr::Phr envelope;   // e2
};

/// Parses "select(e1; e2)" where e1 is an HRE (or '*' for no condition) and
/// e2 a pointed hedge representation. Example from Section 6:
///   select((b|$x)*; [(); a; b] [b; a; ()])
Result<SelectionQuery> ParseSelectionQuery(std::string_view text,
                                           hedge::Vocabulary& vocab);

/// Production evaluator: Theorem 3's marked automaton M-down-e1 handles the
/// subhedge condition in the first traversal; Algorithm 1 handles the
/// envelope condition. Preprocessing is exponential in the query, each
/// document evaluates in O(nodes).
///
/// Robustness: both exponential stages (determinizing the subhedge
/// automaton, compiling the envelope) run under `budget`, each in a scope
/// of its own; on a degradable status (IsDegradable: kResourceExhausted or
/// kDeadlineExceeded) each independently degrades to its lazy engine
/// (LazyDha marks / LazyPhrEvaluator), so Create fails only on bad input or
/// on a deadline that has truly passed. fallback_used()/stats() report
/// which engines are active. Create does not lint the query; callers that
/// want a pre-flight rejection run lint::LintSelectionQuery first.
class SelectionEvaluator {
 public:
  static Result<SelectionEvaluator> Create(const SelectionQuery& query,
                                           const ExecBudget& budget = {});

  /// located[n] == true iff node n is located by the query (Definition 22).
  std::vector<bool> Locate(const hedge::Hedge& doc) const;

  /// Node ids located, in document order.
  std::vector<hedge::NodeId> LocatedNodes(const hedge::Hedge& doc) const;

  const PhrEvaluator& phr_evaluator() const { return *phr_; }
  /// The determinized subhedge automaton, when e1 was given and its
  /// determinization fit the budget.
  const std::optional<automata::Dha>& subhedge_dha() const;

  /// True when any stage degraded to its lazy engine.
  bool fallback_used() const {
    return (subhedge_.has_value() && subhedge_->fallback_used()) ||
           phr_->fallback_used();
  }
  /// Merged expenditure of every lazy engine in use.
  automata::EvalStats stats() const;

 private:
  SelectionEvaluator() = default;

  std::optional<automata::HedgeEngine> subhedge_;  // set when e1 was given
  std::optional<PhrEvaluator> phr_;
};

/// Reference oracle: evaluates Definition 22 literally, extracting the
/// subhedge and envelope of every symbol node and testing them directly.
/// Quadratic (and worse) in the document; used for tests and as the naive
/// complexity baseline of experiment E6.
class NaiveSelectionEvaluator {
 public:
  explicit NaiveSelectionEvaluator(const SelectionQuery& query);

  std::vector<bool> Locate(const hedge::Hedge& doc) const;

 private:
  std::optional<automata::Nha> subhedge_nha_;
  phr::Phr envelope_;
  phr::NaivePhrMatcher matcher_;
};

}  // namespace hedgeq::query

#endif  // HEDGEQ_QUERY_SELECTION_H_
