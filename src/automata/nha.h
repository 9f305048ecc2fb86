#ifndef HEDGEQ_AUTOMATA_NHA_H_
#define HEDGEQ_AUTOMATA_NHA_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hedge/hedge.h"
#include "strre/automaton.h"
#include "util/bitset.h"

namespace hedgeq::automata {

/// Hedge automaton state id (the set Q of Definitions 3/6).
using HState = uint32_t;

/// Non-deterministic hedge automaton (Definition 6):
/// M = (Sigma, X, Q, iota, alpha, F) where
///  - iota maps variables (and, per Lemma 1, substitution symbols) to sets
///    of states,
///  - alpha is given rule-wise: a rule (symbol a, content C, target q) means
///    alpha(a, w) contains q for every state word w in C; C (the paper's
///    alpha^{-1}(a, q)) is a regular language over Q represented as an NFA,
///  - F is a regular set over Q represented as an NFA.
class Nha {
 public:
  struct Rule {
    hedge::SymbolId symbol;
    HState target;
    strre::Nfa content;  // language over HState letters
  };

  Nha() = default;

  /// Adds a fresh state and returns its id.
  HState AddState();
  /// Adds n fresh states, returning the first id.
  HState AddStates(size_t n);

  /// Declares alpha^{-1}(symbol, target) ⊇ L(content).
  void AddRule(hedge::SymbolId symbol, strre::Nfa content, HState target);

  /// Declares q ∈ iota(x).
  void AddVariableState(hedge::VarId x, HState q);
  /// Declares q ∈ iota(z) for a substitution symbol (Lemma 1 allows
  /// substitution symbols as variables of hedge automata).
  void AddSubstState(hedge::SubstId z, HState q);

  /// Sets the final state sequence set F.
  void SetFinal(strre::Nfa final_nfa) { final_ = std::move(final_nfa); }

  /// Replaces the content language of rule `index` (used by the Lemma 1
  /// compiler to splice final languages into substitution-symbol slots).
  void SetRuleContent(size_t index, strre::Nfa content);

  /// Removes one q from iota(z) (case 9 when only part of the expression is
  /// embedded).
  void RemoveSubstState(hedge::SubstId z, HState q);

  size_t num_states() const { return num_states_; }
  const std::vector<Rule>& rules() const { return rules_; }
  const strre::Nfa& final_nfa() const { return final_; }

  const std::vector<HState>& VariableStates(hedge::VarId x) const;
  const std::vector<HState>& SubstStates(hedge::SubstId z) const;
  const std::unordered_map<hedge::VarId, std::vector<HState>>& var_map() const {
    return var_states_;
  }
  const std::unordered_map<hedge::SubstId, std::vector<HState>>& subst_map()
      const {
    return subst_states_;
  }

  /// Bottom-up subset simulation (Definition 7): for every node of `h`, the
  /// set of states some computation assigns to it. Indexed by NodeId.
  std::vector<Bitset> ComputeStateSets(const hedge::Hedge& h) const;

  /// Definition 8 acceptance, by direct simulation (no determinization).
  bool Accepts(const hedge::Hedge& h) const;

 private:
  size_t num_states_ = 0;
  std::vector<Rule> rules_;
  std::unordered_map<hedge::VarId, std::vector<HState>> var_states_;
  std::unordered_map<hedge::SubstId, std::vector<HState>> subst_states_;
  strre::Nfa final_;
};

/// Copies all states/rules/variable maps of `src` into `dst`, returning the
/// state-id offset. Final languages are not merged (callers combine them).
HState CopyNhaInto(const Nha& src, Nha& dst);

/// Intersection automaton: accepts L(a) ∩ L(b). States are pairs encoded as
/// qa * b.num_states() + qb.
Nha IntersectNha(const Nha& a, const Nha& b);

/// Union automaton: accepts L(a) ∪ L(b) (disjoint union of parts).
Nha UnionNha(const Nha& a, const Nha& b);

/// True when L(nha) contains no hedge over the vocabulary implied by its
/// variable map and rules (bottom-up reachability fixpoint).
bool IsEmptyNha(const Nha& nha);

/// The set of states derivable by some hedge (bottom-up reachable states).
Bitset ReachableStates(const Nha& nha);

/// A (small, not necessarily minimal) hedge accepted by the automaton, or
/// nullopt when the language is empty. Useful for exhibiting sample members
/// of inferred output schemas.
std::optional<hedge::Hedge> WitnessHedge(const Nha& nha);

/// For every state, a (small) single-tree/leaf hedge witnessing that the
/// state is derivable (nullopt for underivable states). The building block
/// of WitnessHedge and of example-document synthesis.
std::vector<std::optional<hedge::Hedge>> StateWitnesses(const Nha& nha);

/// A shortest word accepted by `nfa` using only letters in `allowed`;
/// nullopt when none exists.
std::optional<std::vector<strre::Symbol>> ShortestWordOverAlphabet(
    const strre::Nfa& nfa, const Bitset& allowed);

/// A shortest accepted word over `allowed` that contains `letter` at least
/// once; nullopt when none exists.
std::optional<std::vector<strre::Symbol>> ShortestWordContaining(
    const strre::Nfa& nfa, const Bitset& allowed, strre::Symbol letter);

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_NHA_H_
