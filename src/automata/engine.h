#ifndef HEDGEQ_AUTOMATA_ENGINE_H_
#define HEDGEQ_AUTOMATA_ENGINE_H_

#include <optional>

#include "automata/dha.h"
#include "automata/lazy_dha.h"
#include "automata/nha.h"
#include "util/budget.h"
#include "util/status.h"

namespace hedgeq::automata {

/// The lazy engine's memo cap under `budget`: the budget's memory cap, but
/// never more than the LazyDhaOptions default.
LazyDhaOptions LazyOptionsFor(const ExecBudget& budget);

/// A hedge automaton ready to run: the determinized DHA when the Theorem 1
/// subset construction fits the budget, otherwise the on-the-fly subset
/// engine over the same NHA. Theorem 1 makes both compute the same fold, so
/// callers drive whichever is present through Visit and never branch on the
/// engine themselves. Create is the one place that makes this choice.
class HedgeEngine {
 public:
  /// Determinizes `nha` under `scope`. On a degradable status
  /// (kResourceExhausted, kDeadlineExceeded) builds a LazyDha capped by
  /// LazyOptionsFor(scope.budget()) instead, and annotates the open
  /// obs::QueryScope with outcome=degraded_lazy. The lazy engine needs no
  /// preprocessing, so this also rescues a missed deadline. Any other error
  /// propagates.
  static Result<HedgeEngine> Create(const Nha& nha, BudgetScope& scope);

  /// The eager automaton; empty when the lazy engine runs instead.
  const std::optional<Dha>& dha() const { return dha_; }
  bool fallback_used() const { return lazy_.has_value(); }
  /// The lazy engine's expenditure so far (with fallback_used set); all
  /// zeros for the eager engine.
  EvalStats stats() const;

  /// Calls `fn` with the engine that runs, as `const Dha&` or
  /// `const LazyDha&`: one generic lambda drives either through the fold
  /// templates (automata/fold.h, automata/streaming.h). Both calls must
  /// return the same type.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return dha_.has_value() ? fn(*dha_) : fn(*lazy_);
  }

 private:
  HedgeEngine() = default;

  // Exactly one is set.
  std::optional<Dha> dha_;
  std::optional<LazyDha> lazy_;
};

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_ENGINE_H_
