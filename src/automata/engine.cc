#include "automata/engine.h"

#include <algorithm>

#include "automata/determinize.h"
#include "obs/scope.h"

namespace hedgeq::automata {

LazyDhaOptions LazyOptionsFor(const ExecBudget& budget) {
  LazyDhaOptions options;
  options.max_cache_bytes =
      std::min(budget.max_memory_bytes, options.max_cache_bytes);
  return options;
}

Result<HedgeEngine> HedgeEngine::Create(const Nha& nha, BudgetScope& scope) {
  HedgeEngine out;
  Result<Determinized> det = Determinize(nha, scope);
  if (det.ok()) {
    out.dha_ = std::move(det->dha);
    return out;
  }
  if (!IsDegradable(det.status().code())) return det.status();
  out.lazy_.emplace(nha, LazyOptionsFor(scope.budget()));
  // Budget outcome for the flight record: the answer stays exact, but this
  // query runs on the degraded engine.
  if (auto* qscope = obs::QueryScope::Current(); qscope != nullptr) {
    qscope->Annotate("outcome", "degraded_lazy");
  }
  return out;
}

EvalStats HedgeEngine::stats() const {
  if (!lazy_.has_value()) return EvalStats{};
  EvalStats s = lazy_->stats();
  s.fallback_used = true;
  return s;
}

}  // namespace hedgeq::automata
