#ifndef HEDGEQ_STRRE_LAZY_DFA_H_
#define HEDGEQ_STRRE_LAZY_DFA_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "strre/automaton.h"
#include "util/bitset.h"

namespace hedgeq::strre {

/// Interns sets to dense ids, in order of first appearance. Ids stay valid
/// for the pool's life.
class BitsetPool {
 public:
  uint32_t Intern(Bitset set);
  const Bitset& operator[](uint32_t id) const { return sets_[id]; }
  size_t size() const { return sets_.size(); }
  /// The sets by id; TakeSets moves them out and spends the pool.
  const std::vector<Bitset>& sets() const { return sets_; }
  std::vector<Bitset> TakeSets() { return std::move(sets_); }
  /// Approximate bytes held: each set twice (map key and vector) plus
  /// bookkeeping.
  size_t bytes() const { return bytes_; }

 private:
  std::unordered_map<Bitset, uint32_t, BitsetHash> ids_;
  std::vector<Bitset> sets_;
  size_t bytes_ = 0;
};

/// A memo of cells keyed by (id, column), for ids pinned elsewhere. The
/// cells live in a strre::Dfa with one row per id that has any, so a
/// kNoState cell means "not computed yet". Flush drops every row at once.
class LazyRows {
 public:
  StateId Lookup(StateId id, Symbol column) const {
    const StateId row = id < row_of_.size() ? row_of_[id] : kNoState;
    return row == kNoState ? kNoState : rows_.Next(row, column);
  }
  void Store(StateId id, Symbol column, StateId value);

  size_t num_rows() const { return rows_.num_states(); }
  size_t bytes() const { return rows_.TableBytes(); }
  void Flush();

 private:
  std::vector<StateId> row_of_;  // by id; kNoState: no row
  std::vector<StateId> id_of_row_;
  Dfa rows_;
};

/// The subset DFA of an NFA over letters that are sets of its symbols,
/// built on demand in the way of RE2's lazy DFA (Cox, "Regular Expression
/// Matching in the Wild", https://swtch.com/~rsc/regexp/regexp3.html).
/// Its states are the epsilon-closed sets reached so far, interned to dense
/// ids that stay valid for the object's life (pinned); the empty set is an
/// explicit dead state. Letters are dense ids chosen by the caller, each
/// standing for one set of symbols. The steps computed so far are LazyRows,
/// refilled from the pinned sets after a flush. The NFA is passed to each
/// call rather than held, so a copy never points into another's owner.
class LazyDfa {
 public:
  static constexpr StateId kStart = 0;

  /// The subset DFA of `nfa` from the closure of `start`, a set over
  /// nfa's states.
  LazyDfa(const Nfa& nfa, Bitset start);

  StateId dead() const { return dead_; }
  size_t num_states() const { return states_.size(); }
  const Bitset& set(StateId s) const { return states_[s]; }
  bool IsAccepting(StateId s) const { return accepting_[s] != 0; }

  /// The successor of `s` on `letter`, or kNoState when it has not been
  /// computed since the last flush.
  StateId Lookup(StateId s, Symbol letter) const {
    return rows_.Lookup(s, letter);
  }
  /// Computes, stores and returns the successor of `s` on `letter`, whose
  /// set of symbols is `letter_set`; `nfa` is the constructor's.
  StateId Fill(const Nfa& nfa, StateId s, Symbol letter,
               const Bitset& letter_set);
  /// The state of `set`, an epsilon-closed set over `nfa`'s states.
  StateId Intern(const Nfa& nfa, Bitset set);

  const LazyRows& rows() const { return rows_; }
  void FlushRows() { rows_.Flush(); }
  size_t SetBytes() const { return states_.bytes(); }

 private:
  BitsetPool states_;
  std::vector<uint8_t> accepting_;  // by state
  LazyRows rows_;
  StateId dead_ = kNoState;
};

}  // namespace hedgeq::strre

#endif  // HEDGEQ_STRRE_LAZY_DFA_H_
