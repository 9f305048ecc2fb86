#ifndef HEDGEQ_AUTOMATA_STREAMING_H_
#define HEDGEQ_AUTOMATA_STREAMING_H_

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "hedge/hedge.h"

namespace hedgeq::automata {

/// Runs a hedge automaton (Dha or LazyDha) over a SAX-style event stream in
/// O(element depth) memory: because the horizontal run folds child states
/// left to right, one horizontal state per open element suffices — no tree
/// is ever materialized. Feed events in document order, then query
/// Accepted(). This is the streaming face of Definition 4's bottom-up
/// computation, driving the same stepper as the tree fold (automata/fold.h).
/// A stepper whose memo grows (LazyDha::Stepper) is handed every id the run
/// holds after each event, so it can restart its memo from those alone.
template <typename Automaton>
class StreamingRun {
 public:
  explicit StreamingRun(const Automaton& automaton)
      : step_(automaton), final_(step_.FinalStart()) {}

  void StartElement(hedge::SymbolId name) {
    (void)name;  // the symbol matters on exit, when alpha is applied
    stack_.push_back(step_.HStart());
    max_depth_ = std::max(max_depth_, stack_.size());
  }

  void EndElement(hedge::SymbolId name) {
    HState h = std::move(stack_.back());
    stack_.pop_back();
    Fold(step_.Assign(name, h));
  }

  void Text(hedge::VarId variable) { Fold(step_.VariableState(variable)); }

  /// Is the stream consumed so far — taken as a complete hedge — in the
  /// language? Only meaningful when every element has been closed.
  bool Accepted() const {
    return stack_.empty() && step_.FinalAccepting(final_);
  }

  bool InProgress() const { return !stack_.empty(); }
  /// Peak number of simultaneously open elements (the memory bound).
  size_t max_depth() const { return max_depth_; }

 private:
  using Stepper = typename Automaton::Stepper;
  using HState = std::decay_t<decltype(std::declval<Stepper>().HStart())>;
  using State = decltype(std::declval<Stepper>().Sink());

  void Fold(const State& q) {
    if (stack_.empty()) {
      final_ = step_.FinalNext(final_, q);
    } else {
      stack_.back() = step_.HNext(stack_.back(), q);
    }
    if constexpr (requires { step_.Compact(stack_, final_); }) {
      step_.Compact(stack_, final_);
    }
  }

  Stepper step_;
  std::vector<HState> stack_;
  decltype(std::declval<Stepper>().FinalStart()) final_;
  size_t max_depth_ = 0;
};

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_STREAMING_H_
