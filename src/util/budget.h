#ifndef HEDGEQ_UTIL_BUDGET_H_
#define HEDGEQ_UTIL_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "util/status.h"

namespace hedgeq {

/// Cooperative cancellation token. The owner (a CLI signal handler, a server
/// request context, a test) flips it once; every BudgetScope holding a
/// pointer to it fails its next Charge* with kDeadlineExceeded. Reads are a
/// single relaxed atomic load, so tokens are safe to consult from hot
/// preprocessing loops; the token must outlive every scope that watches it.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource limits for the exponential preprocessing stages (HRE
/// compilation, Theorem 1 determinization, the Theorem 4 pipeline, schema
/// algebra). Determinization is worst-case exponential — the paper only
/// conjectures it is "usually efficient" — so every such stage consults a
/// budget and fails with kResourceExhausted instead of exhausting the
/// machine. Callers that cannot tolerate the failure fall back to lazy
/// (on-the-fly) evaluation; see automata/lazy_dha.h.
///
/// All limits are cumulative across one BudgetScope, so a pipeline that
/// determinizes three automata shares one pool rather than getting three
/// times the cap.
struct ExecBudget {
  /// Maximum interned states (DHA subsets + horizontal sets + lifted DFA
  /// states + class-product states) across the scope.
  size_t max_states = size_t{1} << 20;
  /// Maximum bytes charged for interned sets, transition tables and caches.
  size_t max_memory_bytes = size_t{512} << 20;  // 512 MiB
  /// Maximum elementary preprocessing steps (inner-loop iterations); a
  /// deadline substitute that stays deterministic across machines.
  size_t max_steps = size_t{1} << 30;
  /// Maximum recursion/nesting depth (AST recursion, splice nesting).
  size_t max_depth = 4096;

  /// Wall-clock deadline (steady clock); the default-constructed epoch value
  /// means "no deadline". Unlike max_steps — a deterministic deadline
  /// substitute — this is a real-time bound for interactive callers
  /// (`hq --deadline-ms`): any Charge* past the deadline fails with
  /// kDeadlineExceeded, and stages with a lazy equivalent degrade to it
  /// exactly as they do on kResourceExhausted.
  std::chrono::steady_clock::time_point deadline{};
  /// Optional cooperative cancellation; not owned, may be null, must outlive
  /// every scope created from this budget. Cancellation surfaces as
  /// kDeadlineExceeded too (same callers, same degradation paths).
  const CancelToken* cancel = nullptr;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }

  /// Sets the deadline `ms` milliseconds from now.
  void SetDeadlineAfterMs(uint64_t ms) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(static_cast<int64_t>(ms));
  }

  /// A budget that never trips (all limits at numeric max).
  static ExecBudget Unlimited() {
    ExecBudget b;
    b.max_states = std::numeric_limits<size_t>::max();
    b.max_memory_bytes = std::numeric_limits<size_t>::max();
    b.max_steps = std::numeric_limits<size_t>::max();
    b.max_depth = std::numeric_limits<size_t>::max();
    return b;
  }
};

/// Mutable accounting against one ExecBudget. Create one scope per user
/// operation (compile a query, build a validator) and thread it through
/// every stage so the caps are global to the operation. Not thread-safe;
/// scopes are cheap, make one per operation.
///
/// Every Charge* returns kResourceExhausted with the count reached and the
/// cap in the message, so callers can log it and retry with a larger budget.
class BudgetScope {
 public:
  explicit BudgetScope(const ExecBudget& budget) : budget_(budget) {}
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

  /// Charges `n` interned states against max_states. `stage` names the
  /// charging stage for the error message ("determinize", "phr/product"...).
  Status ChargeStates(size_t n, const char* stage);
  /// Charges `n` bytes against max_memory_bytes.
  Status ChargeBytes(size_t n, const char* stage);
  /// Releases `n` previously charged bytes (cache eviction).
  void ReleaseBytes(size_t n);
  /// Charges `n` elementary steps against max_steps.
  Status ChargeSteps(size_t n, const char* stage);

  /// Deadline/cancellation probe: kDeadlineExceeded when the budget's
  /// cancel token fired or its wall-clock deadline passed, Ok otherwise.
  /// Every Charge* runs this, so stages that account their work are
  /// automatically cancellable; long uncharged loops may call it directly.
  /// The clock is only read every few calls (the token every call), keeping
  /// the probe cheap enough for inner loops.
  Status CheckDeadline(const char* stage);

  /// Nesting-depth accounting; prefer the RAII DepthGuard below.
  Status EnterDepth(const char* stage);
  void LeaveDepth();

  size_t states_used() const { return states_; }
  size_t bytes_used() const { return bytes_; }
  size_t steps_used() const { return steps_; }
  size_t depth() const { return depth_; }
  const ExecBudget& budget() const { return budget_; }

 private:
  // How many CheckDeadline calls skip the clock read between real reads.
  static constexpr uint32_t kDeadlineStride = 32;

  ExecBudget budget_;
  size_t states_ = 0;
  size_t bytes_ = 0;
  size_t steps_ = 0;
  size_t depth_ = 0;
  uint32_t deadline_countdown_ = 1;  // first check reads the clock
  bool expired_ = false;             // deadline verdicts are sticky
};

/// The budget parameter of a stage that runs either on its own or inside a
/// larger pipeline. It binds the caller's BudgetScope, so the stage shares
/// that scope's cumulative caps, or it opens a fresh scope from an
/// ExecBudget (default: the default limits) that lives until the call
/// returns. One declaration thus serves `Stage(x)`, `Stage(x, budget)` and
/// `Stage(x, scope)`. Take it by value; it is neither copied nor moved.
class BudgetArg {
 public:
  // Implicit on purpose: both conversions are the point of the type.
  BudgetArg(BudgetScope& scope) : scope_(&scope) {}
  BudgetArg(const ExecBudget& budget = {})
      : owned_(std::in_place, budget), scope_(&*owned_) {}
  BudgetArg(const BudgetArg&) = delete;
  BudgetArg& operator=(const BudgetArg&) = delete;

  BudgetScope& scope() const { return *scope_; }

 private:
  std::optional<BudgetScope> owned_;
  BudgetScope* scope_;
};

/// RAII depth guard: increments the scope's depth on construction,
/// decrements on destruction. Check status() immediately after construction:
///
///   DepthGuard depth(scope, "hre/compile");
///   HEDGEQ_RETURN_IF_ERROR(depth.status());
class DepthGuard {
 public:
  DepthGuard(BudgetScope& scope, const char* stage)
      : scope_(scope), status_(scope.EnterDepth(stage)) {}
  ~DepthGuard() { scope_.LeaveDepth(); }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;

  const Status& status() const { return status_; }

 private:
  BudgetScope& scope_;
  Status status_;
};

}  // namespace hedgeq

#endif  // HEDGEQ_UTIL_BUDGET_H_
