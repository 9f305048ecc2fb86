#ifndef HEDGEQ_STRRE_AUTOMATON_H_
#define HEDGEQ_STRRE_AUTOMATON_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "strre/regex.h"
#include "util/bitset.h"

namespace hedgeq::strre {

/// Dense automaton state id.
using StateId = uint32_t;

/// Sentinel for "no state" / the implicit dead (rejecting sink) state of a
/// DFA whose transition table omits an entry.
inline constexpr StateId kNoState = UINT32_MAX;

/// Non-deterministic finite automaton with epsilon moves over a generic
/// symbol alphabet. States are created through AddState and are dense.
class Nfa {
 public:
  struct Transition {
    Symbol symbol;
    StateId to;
  };

  Nfa() = default;

  /// Adds a state; the first state added becomes the start state by default.
  StateId AddState(bool accepting = false);

  void AddTransition(StateId from, Symbol symbol, StateId to);
  void AddEpsilon(StateId from, StateId to);
  void SetStart(StateId s) { start_ = s; }
  void SetAccepting(StateId s, bool accepting);

  StateId start() const { return start_; }
  size_t num_states() const { return accepting_.size(); }
  bool IsAccepting(StateId s) const { return accepting_[s]; }
  const std::vector<Transition>& TransitionsFrom(StateId s) const {
    return transitions_[s];
  }
  const std::vector<StateId>& EpsilonsFrom(StateId s) const {
    return epsilons_[s];
  }

  /// Expands `states` to its epsilon closure in place.
  void EpsilonClosure(Bitset& states) const;

  /// Membership by direct subset simulation (no determinization).
  bool Accepts(std::span<const Symbol> word) const;

  /// All symbols appearing on any transition, deduplicated and sorted.
  std::vector<Symbol> AlphabetInUse() const;

 private:
  std::vector<std::vector<Transition>> transitions_;
  std::vector<std::vector<StateId>> epsilons_;
  std::vector<bool> accepting_;
  StateId start_ = kNoState;
};

/// One step of `nfa` over a letter that is itself a set of symbols: `to`
/// becomes the epsilon closure of every state reached from the set `from`
/// on any symbol in `letter`. This is a transition of the subset DFA over
/// set letters (automata::LiftToSubsets, the lazy engines) computed on its
/// own. Returns the number of transitions scanned, which budgeted callers
/// charge.
size_t StepOverSet(const Nfa& nfa, const Bitset& from, const Bitset& letter,
                   Bitset& to);

/// Deterministic finite automaton over a generic alphabet, stored as dense
/// rows over the symbols this automaton uses. A dense Symbol -> column
/// array compacts the alphabet: row s holds the successor of state s in
/// every column, and column 0 is the shared dead column, all kNoState, which
/// every symbol on no transition (or past the end of the array) reads. So a
/// missing transition leads to an implicit dead rejecting sink, which Next
/// reports as kNoState. Use ops.h/Complete to materialize the sink.
class Dfa {
 public:
  /// The live transitions of one state, as (symbol, to) pairs in ascending
  /// symbol order; dead entries are skipped.
  class TransitionRow {
   public:
    class iterator {
     public:
      iterator(const std::pair<Symbol, uint32_t>* at,
               const std::pair<Symbol, uint32_t>* end, const StateId* row)
          : at_(at), end_(end), row_(row) {
        SkipDead();
      }
      std::pair<Symbol, StateId> operator*() const {
        return {at_->first, row_[at_->second]};
      }
      iterator& operator++() {
        ++at_;
        SkipDead();
        return *this;
      }
      bool operator==(const iterator& other) const { return at_ == other.at_; }

     private:
      void SkipDead() {
        while (at_ != end_ && row_[at_->second] == kNoState) ++at_;
      }

      const std::pair<Symbol, uint32_t>* at_;
      const std::pair<Symbol, uint32_t>* end_;
      const StateId* row_;
    };

    TransitionRow(std::span<const std::pair<Symbol, uint32_t>> columns,
                  const StateId* row)
        : columns_(columns), row_(row) {}
    iterator begin() const {
      return {columns_.data(), columns_.data() + columns_.size(), row_};
    }
    iterator end() const {
      const auto* end = columns_.data() + columns_.size();
      return {end, end, row_};
    }

   private:
    std::span<const std::pair<Symbol, uint32_t>> columns_;
    const StateId* row_;
  };

  Dfa() = default;

  StateId AddState(bool accepting = false);
  void SetStart(StateId s) { start_ = s; }
  void SetAccepting(StateId s, bool accepting) {
    accepting_[s] = accepting ? 1 : 0;
  }
  void SetTransition(StateId from, Symbol symbol, StateId to);
  /// SetTransition without reading `value` as a state of this table: for
  /// tables whose cells name the states of another numbering (LazyDfa's
  /// rows hold its pinned state ids, one row per state that has any).
  void SetCell(StateId from, Symbol symbol, StateId value);

  StateId start() const { return start_; }
  size_t num_states() const { return accepting_.size(); }
  bool IsAccepting(StateId s) const { return accepting_[s] != 0; }

  /// The table as plain pointers and sizes, valid until the Dfa changes. A
  /// hot loop keeps one in a local, where its own stores cannot force the
  /// table's fields to be reloaded.
  class View {
   public:
    /// The column `symbol` reads in every row: 0, the dead column, when no
    /// transition is on `symbol`.
    uint32_t Column(Symbol symbol) const {
      return symbol < num_symbols_ ? column_[symbol] : 0;
    }
    /// State s's successors, indexed by Column.
    const StateId* Row(StateId s) const {
      return cells_ + static_cast<size_t>(s) * stride_;
    }
    StateId Next(StateId s, Symbol symbol) const {
      return s == kNoState ? kNoState : Row(s)[Column(symbol)];
    }
    bool IsAccepting(StateId s) const { return accepting_[s] != 0; }

   private:
    friend class Dfa;
    explicit View(const Dfa& dfa)
        : cells_(dfa.cells_.data()),
          column_(dfa.column_.data()),
          accepting_(dfa.accepting_.data()),
          num_symbols_(dfa.column_.size()),
          stride_(dfa.stride_) {}

    const StateId* cells_;
    const uint32_t* column_;
    const uint8_t* accepting_;
    size_t num_symbols_;
    uint32_t stride_;
  };
  View view() const { return View(*this); }

  /// Successor of `s` on `symbol`; kNoState when the transition is absent
  /// (implicit dead sink) or when s is kNoState itself.
  StateId Next(StateId s, Symbol symbol) const {
    return view().Next(s, symbol);
  }

  /// State reached from the start on `word` (kNoState if the run dies).
  StateId Run(std::span<const Symbol> word) const;

  bool Accepts(std::span<const Symbol> word) const {
    StateId s = Run(word);
    return s != kNoState && IsAccepting(s);
  }

  /// The live transitions from `s`, in ascending symbol order.
  TransitionRow Transitions(StateId s) const {
    return {symbols_, view().Row(s)};
  }

  /// All symbols appearing on any transition, deduplicated and sorted.
  std::vector<Symbol> AlphabetInUse() const;

  /// Bytes held by the transition table: rows, column array, accepting
  /// flags. Bounded constructions charge its growth to their budget.
  size_t TableBytes() const;

 private:
  // Gives `symbol` the next free column, doubling the row stride when the
  // rows are full.
  uint32_t AddColumn(Symbol symbol);

  std::vector<uint32_t> column_;  // by symbol; 0 = the dead column
  // (symbol, column) for every live column, in ascending symbol order.
  std::vector<std::pair<Symbol, uint32_t>> symbols_;
  std::vector<StateId> cells_;  // row-major, stride_ cells per state
  uint32_t stride_ = 1;         // column capacity of a row
  std::vector<uint8_t> accepting_;
  StateId start_ = kNoState;
};

}  // namespace hedgeq::strre

#endif  // HEDGEQ_STRRE_AUTOMATON_H_
