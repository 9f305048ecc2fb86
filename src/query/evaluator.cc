#include "query/evaluator.h"

#include <numeric>

#include "obs/catalogue.h"
#include "obs/obs.h"
#include "obs/scope.h"
#include "query/locate.h"
#include "util/failpoint.h"

namespace hedgeq::query {

using automata::HState;
using hedge::Hedge;
using hedge::NodeId;

namespace {

// The sibling-class kernel: the elder and younger classes of every member
// of one sibling group, into buffers that are reused from group to group, so
// a whole document costs O(1) allocations. Elder classes come from a
// forward run of ==. Younger classes come from composing its transition
// functions right to left: a right-invariant DFA cannot be extended
// leftward state by state, but its transition functions compose, at
// O(|classes|) per child. With one class there is nothing to compute: the
// buffers only ever hold the start class.
class GroupClasses {
 public:
  // `equiv` must be complete over every M-state the runs read.
  explicit GroupClasses(const strre::Dfa& equiv)
      : equiv_(equiv.view()),
        num_classes_(static_cast<uint32_t>(equiv.num_states())),
        start_(equiv.start()),
        g_(num_classes_),
        next_g_(num_classes_) {}

  void Compute(std::span<const NodeId> kids, const HState* states) {
    const size_t k = kids.size();
    // A local copy of the view, so that stores into the buffers cannot
    // force its fields to be reloaded.
    const strre::Dfa::View equiv = equiv_;
    if (elder_.size() < k) {
      elder_.resize(k, start_);
      younger_.resize(k, start_);
    }
    if (num_classes_ == 1) return;
    strre::StateId s = start_;
    for (size_t j = 0; j < k; ++j) {
      elder_[j] = s;
      s = equiv.Row(s)[equiv.Column(states[kids[j]])];
    }
    // g maps each class to the class reached after also reading the
    // suffix right of the current position.
    std::iota(g_.begin(), g_.end(), 0);
    for (size_t j = k; j-- > 0;) {
      younger_[j] = g_[start_];
      if (j == 0) break;
      const uint32_t column = equiv.Column(states[kids[j]]);
      for (uint32_t c = 0; c < num_classes_; ++c) {
        next_g_[c] = g_[equiv.Row(c)[column]];
      }
      g_.swap(next_g_);
    }
  }

  // Classes of the j-th member's elder and younger siblings.
  uint32_t elder(size_t j) const { return elder_[j]; }
  uint32_t younger(size_t j) const { return younger_[j]; }

 private:
  strre::Dfa::View equiv_;
  uint32_t num_classes_;
  strre::StateId start_;
  std::vector<strre::StateId> g_, next_g_;
  std::vector<uint32_t> elder_, younger_;
};

// The eager engine's tables for LocateWith: CompiledPhr's M, == and N.
class EagerTables {
 public:
  static constexpr bool kLazy = false;

  explicit EagerTables(const CompiledPhr& c)
      : c_(c), mirror_(c.mirror().view()) {}

  std::vector<HState> RunM(const Hedge& doc) const { return c_.dha().Run(doc); }
  bool single_class() const { return c_.num_classes() == 1; }
  GroupClasses SiblingClasses() const { return GroupClasses(c_.equiv()); }
  EagerTables N() const { return *this; }
  strre::StateId top() const { return c_.mirror().start(); }
  strre::StateId Step(strre::StateId from, uint32_t elder,
                      hedge::SymbolId label, uint32_t younger) const {
    const uint32_t si = c_.SymbolIndex(label);
    if (si == kNoSymbol) return strre::kNoState;
    const strre::Symbol letter = c_.EncodeLetter(elder, si, younger);
    return mirror_.Row(from)[mirror_.Column(letter)];
  }
  bool IsAccepting(strre::StateId s) const { return mirror_.IsAccepting(s); }

 private:
  const CompiledPhr& c_;
  const strre::Dfa::View mirror_;
};

}  // namespace

SiblingClasses ComputeSiblingClasses(const Hedge& doc,
                                     const std::vector<HState>& states,
                                     const strre::Dfa& equiv) {
  SiblingClasses out;
  out.elder.assign(doc.num_nodes(), equiv.start());
  out.younger.assign(doc.num_nodes(), equiv.start());
  GroupClasses group(equiv);
  hedge::ForEachSiblingGroup(doc, [&](std::span<const NodeId> kids) {
    group.Compute(kids, states.data());
    for (size_t j = 0; j < kids.size(); ++j) {
      out.elder[kids[j]] = group.elder(j);
      out.younger[kids[j]] = group.younger(j);
    }
  });
  return out;
}

Result<PhrEvaluator> PhrEvaluator::Create(const phr::Phr& phr,
                                          const ExecBudget& budget) {
  Result<CompiledPhr> compiled = CompilePhr(phr, budget);
  if (compiled.ok()) {
    HEDGEQ_OBS_COUNT(obs::metrics::kQueryEagerCompiles, 1);
    return PhrEvaluator(std::move(compiled).value());
  }
  if (!IsDegradable(compiled.status().code())) {
    return compiled.status();
  }
  // The exponential preprocessing blew its budget (or its wall-clock
  // deadline); degrade to the lazy engine, which answers the same queries
  // with bounded memory. A deadline that has truly passed fails the lazy
  // Create too and surfaces as kDeadlineExceeded.
  Result<LazyPhrEvaluator> lazy = LazyPhrEvaluator::Create(phr, budget);
  if (!lazy.ok()) return lazy.status();
  HEDGEQ_OBS_COUNT(obs::metrics::kQueryLazyFallbacks, 1);
  // Budget outcome for the flight record: the answer is still exact, but
  // this query ran on the degraded engine.
  if (auto* qscope = obs::QueryScope::Current(); qscope != nullptr) {
    qscope->Annotate("outcome", "degraded_lazy");
  }
  PhrEvaluator out;
  out.lazy_ = std::move(lazy).value();
  return out;
}

automata::EvalStats PhrEvaluator::stats() const {
  if (!lazy_.has_value()) return automata::EvalStats{};
  automata::EvalStats s = lazy_->stats();
  s.fallback_used = true;
  return s;
}

std::vector<bool> PhrEvaluator::Locate(const Hedge& doc) const {
  if (lazy_.has_value()) {
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalFallbackRuns, 1);
    return lazy_->Locate(doc);
  }
  EagerTables tables(*compiled_);
  std::vector<bool> located = LocateWith(tables, doc);
  // Seeded-bug probe: report a wrong node set (the first symbol node
  // flipped) so the selection oracle must catch the eager engine lying.
  if (!failpoint::Check("phr/select-wrong-node").ok()) {
    for (NodeId n = 0; n < doc.num_nodes(); ++n) {
      if (doc.label(n).kind == hedge::LabelKind::kSymbol) {
        located[n] = !located[n];
        break;
      }
    }
  }
  return located;
}

}  // namespace hedgeq::query
