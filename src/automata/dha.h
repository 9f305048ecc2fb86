#ifndef HEDGEQ_AUTOMATA_DHA_H_
#define HEDGEQ_AUTOMATA_DHA_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "automata/fold.h"
#include "automata/nha.h"
#include "hedge/hedge.h"
#include "strre/automaton.h"

namespace hedgeq::automata {

/// Horizontal-automaton state id (content-model DFA shared by all symbols).
using HhState = uint32_t;

/// Deterministic hedge automaton (Definition 3), engineered for the hot
/// path: one shared horizontal DFA over the state alphabet Q encodes every
/// alpha^{-1}(a, q) simultaneously (dense matrix), and per-symbol assignment
/// tables map the horizontal state reached after a child sequence to the
/// state alpha assigns. The transition function is total: lookups that miss
/// (unknown symbols/variables) yield the sink state, so every hedge has
/// exactly one computation.
class Dha {
 public:
  /// Creates a DHA with `num_states` states and `num_h` horizontal states.
  /// All horizontal transitions initially lead to `h_start`; fill them with
  /// SetHTransition before use.
  Dha(HState num_states, HhState num_h, HhState h_start, HState sink);

  void SetHTransition(HhState from, HState on, HhState to) {
    h_trans_[static_cast<size_t>(from) * num_states_ + on] = to;
  }
  void SetAssign(hedge::SymbolId symbol, HhState h, HState q);
  void SetVariableState(hedge::VarId x, HState q) { var_states_[x] = q; }
  void SetSubstState(hedge::SubstId z, HState q) { subst_states_[z] = q; }
  /// Final state sequence set F as a DFA over Q (need not be total; misses
  /// reject).
  void SetFinalDfa(strre::Dfa final_dfa) { final_ = std::move(final_dfa); }

  HState num_states() const { return num_states_; }
  HhState num_h_states() const { return num_h_; }
  HhState h_start() const { return h_start_; }
  HState sink() const { return sink_; }
  const strre::Dfa& final_dfa() const { return final_; }

  HhState HNext(HhState h, HState q) const {
    return h_trans_[static_cast<size_t>(h) * num_states_ + q];
  }
  /// alpha(symbol, w) where the horizontal DFA reached `h` on w.
  HState Assign(hedge::SymbolId symbol, HhState h) const;
  HState VariableState(hedge::VarId x) const;
  HState SubstState(hedge::SubstId z) const;

  /// The computation M||u (Definition 4): the state assigned to each node,
  /// indexed by NodeId. Runs in O(nodes).
  std::vector<HState> Run(const hedge::Hedge& h) const;

  /// Definition 5 acceptance.
  bool Accepts(const hedge::Hedge& h) const;

  /// Theorem 3 evaluation shortcut: along with the run, reports for every
  /// symbol-labeled node whether its child sequence (= its subhedge's ceil
  /// under M) lies in F — i.e. whether M-down-e would assign a marked state.
  using MarkedRun = MarkedRunOf<HState>;
  MarkedRun RunWithMarks(const hedge::Hedge& h) const;

  /// Per-run view for the shared folds (automata/fold.h): the assignment
  /// rows indexed densely by symbol id, so a run makes one hash lookup per
  /// distinct symbol instead of one per node.
  class Stepper;

  const std::unordered_map<hedge::VarId, HState>& var_map() const {
    return var_states_;
  }
  const std::unordered_map<hedge::SubstId, HState>& subst_map() const {
    return subst_states_;
  }
  const std::unordered_map<hedge::SymbolId, std::vector<HState>>& assign_map()
      const {
    return assign_;
  }

 private:
  HState num_states_;
  HhState num_h_;
  HhState h_start_;
  HState sink_;
  std::vector<HhState> h_trans_;  // [h * num_states_ + q]
  // Per symbol: assignment per horizontal state; absent symbol -> sink.
  std::unordered_map<hedge::SymbolId, std::vector<HState>> assign_;
  std::unordered_map<hedge::VarId, HState> var_states_;
  std::unordered_map<hedge::SubstId, HState> subst_states_;
  strre::Dfa final_;
};

class Dha::Stepper {
 public:
  explicit Stepper(const Dha& dha) : dha_(dha), final_(dha.final_.view()) {
    for (const auto& [symbol, row] : dha.assign_) {
      if (symbol >= rows_.size()) rows_.resize(symbol + 1, nullptr);
      rows_[symbol] = &row;
    }
  }

  HState Sink() const { return dha_.sink_; }
  HhState HStart() const { return dha_.h_start_; }
  HhState HNext(HhState h, HState q) const { return dha_.HNext(h, q); }
  HState Assign(hedge::SymbolId symbol, HhState h) const {
    const std::vector<HState>* row =
        symbol < rows_.size() ? rows_[symbol] : nullptr;
    return row == nullptr ? dha_.sink_ : (*row)[h];
  }
  HState VariableState(hedge::VarId x) const { return dha_.VariableState(x); }
  HState SubstState(hedge::SubstId z) const { return dha_.SubstState(z); }
  strre::StateId FinalStart() const { return dha_.final_.start(); }
  strre::StateId FinalNext(strre::StateId f, HState q) const {
    return final_.Next(f, q);
  }
  bool FinalAccepting(strre::StateId f) const {
    return f != strre::kNoState && final_.IsAccepting(f);
  }

 private:
  const Dha& dha_;
  strre::Dfa::View final_;  // F's dense rows
  std::vector<const std::vector<HState>*> rows_;  // by symbol; null = sink
};

/// Converts a DHA back to rule form (content models become DFAs read off the
/// horizontal matrix). Needed for products with NHAs (schema intersection).
/// `extra_vars` adds iota entries for document variables the DHA does not
/// know (they map to its sink) and `extra_symbols` adds explicit
/// assign-to-sink rules for unknown element names, so intersections and
/// complements cover the full document vocabulary.
Nha DhaToNha(const Dha& dha, std::span<const hedge::VarId> extra_vars = {},
             std::span<const hedge::SymbolId> extra_symbols = {});

/// The complement automaton: same transitions, final language complemented
/// over the DHA's state alphabet. L(out) = all hedges (over symbols/vars the
/// DHA knows plus anything mapped to the sink) not in L(dha).
Dha ComplementDha(const Dha& dha);

/// Theorem 3: the marked automaton M-down-e. States are pairs (q, bit)
/// encoded as 2q + bit; the bit is 1 exactly when the child sequence lies in
/// the final language of `dha`. The result accepts every hedge; `marked
/// states` are the odd ids. The subhedge condition ignores the node's own
/// label, so `extra_symbols` forces explicit assignment rows for document
/// symbols the DHA does not know (they assign (sink, bit) rather than
/// losing the bit to the sink default).
Dha BuildMarkedDha(const Dha& dha,
                   std::span<const hedge::SymbolId> extra_symbols = {});

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_DHA_H_
