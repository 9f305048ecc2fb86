#ifndef HEDGEQ_STRRE_OPS_H_
#define HEDGEQ_STRRE_OPS_H_

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "strre/automaton.h"
#include "strre/regex.h"
#include "util/budget.h"
#include "util/status.h"

namespace hedgeq::strre {

/// Appends `src`'s states (acceptance included), moves and epsilon moves
/// to `dst`; returns the id of src's state 0 in dst. Starts are left to
/// the caller.
StateId CopyInto(const Nfa& src, Nfa& dst);

/// The letters on some accepting path of `nfa` whose letters all lie in
/// `allowed`, as a set of `num_letters` bits.
Bitset UsableLetters(const Nfa& nfa, const Bitset& allowed,
                     size_t num_letters);

/// Thompson construction: NFA accepting L(e).
Nfa CompileRegex(const Regex& e);

/// Subset construction. The result keeps the dead sink implicit (absent
/// transitions reject); only reachable, useful subsets become states.
Dfa Determinize(const Nfa& nfa);

/// Budget-charged subset construction: every interned subset counts against
/// the scope's states and bytes; kResourceExhausted (with the count
/// reached) when a cap trips.
Result<Dfa> DeterminizeBounded(const Nfa& nfa, BudgetScope& scope);

/// Charges the growth of `dfa`'s table (Dfa::TableBytes) since the last
/// call against the scope's bytes under `stage`; `charged` carries what was
/// charged so far. Bounded constructions call it as they add states.
Status ChargeTableGrowth(const Dfa& dfa, size_t& charged, BudgetScope& scope,
                         const char* stage);

/// Makes the transition function total over `alphabet` by materializing an
/// explicit rejecting sink (if any transition was missing).
Dfa Complete(const Dfa& dfa, std::span<const Symbol> alphabet);

/// DFA for alphabet^* \ L(dfa).
Dfa Complement(const Dfa& dfa, std::span<const Symbol> alphabet);

/// Moore partition-refinement minimization over `alphabet`. The result is
/// the unique minimal DFA (up to naming) with the sink kept implicit.
Dfa Minimize(const Dfa& dfa, std::span<const Symbol> alphabet);

/// Language-level boolean combination of two DFAs by product construction.
enum class BoolOp { kAnd, kOr, kDiff };
Dfa Product(const Dfa& a, const Dfa& b, BoolOp op);

/// The synchronous product of `a` and `b`, with state sa * |b| + sb: each
/// side's epsilon moves alone, and a move of `a` on x paired with a move
/// of `b` on y makes one move on letter(x, y) (none when it is nullopt).
/// It accepts where both do.
template <typename LetterFn>
Nfa ProductNfa(const Nfa& a, const Nfa& b, LetterFn letter) {
  Nfa out;
  const size_t nb = b.num_states();
  for (size_t i = 0; i < a.num_states() * nb; ++i) out.AddState(false);
  if (a.num_states() == 0 || b.num_states() == 0 ||
      a.start() == kNoState || b.start() == kNoState) {
    return out;
  }
  auto pid = [nb](StateId sa, StateId sb) {
    return static_cast<StateId>(sa * nb + sb);
  };
  out.SetStart(pid(a.start(), b.start()));
  for (StateId sa = 0; sa < a.num_states(); ++sa) {
    for (StateId sb = 0; sb < b.num_states(); ++sb) {
      if (a.IsAccepting(sa) && b.IsAccepting(sb)) {
        out.SetAccepting(pid(sa, sb), true);
      }
      for (StateId ta : a.EpsilonsFrom(sa)) {
        out.AddEpsilon(pid(sa, sb), pid(ta, sb));
      }
      for (StateId tb : b.EpsilonsFrom(sb)) {
        out.AddEpsilon(pid(sa, sb), pid(sa, tb));
      }
      for (const Nfa::Transition& ta : a.TransitionsFrom(sa)) {
        for (const Nfa::Transition& tb : b.TransitionsFrom(sb)) {
          if (std::optional<Symbol> x = letter(ta.symbol, tb.symbol)) {
            out.AddTransition(pid(sa, sb), *x, pid(ta.to, tb.to));
          }
        }
      }
    }
  }
  return out;
}

/// Synchronous product of two NFAs (epsilon moves interleaved): accepts
/// L(a) ∩ L(b). State count is |a|·|b|.
Nfa IntersectNfa(const Nfa& a, const Nfa& b);

/// NFA combinators (Thompson-style glue; inputs are copied in).
Nfa UnionNfa(const Nfa& a, const Nfa& b);
Nfa ConcatNfa(const Nfa& a, const Nfa& b);
Nfa StarNfa(const Nfa& a);
/// Views a DFA as an NFA.
Nfa NfaFromDfa(const Dfa& d);
/// NFA for the mirror image { w_k...w_1 | w_1...w_k in L(a) }.
Nfa ReverseNfa(const Nfa& a);

/// String homomorphism by symbol substitution-with-sets: every transition on
/// symbol s is replaced by one transition per element of image(s). With
/// singleton images this is a plain relabeling homomorphism; used for the
/// map h of Theorem 5 and xi of Theorem 4.
Nfa SubstituteSets(const Nfa& a,
                   const std::function<std::vector<Symbol>(Symbol)>& image);

/// True when some word w1...wk with wi in choices[i] is accepted: subset
/// simulation where every position offers a set of letters.
bool AcceptsChoices(const Nfa& nfa,
                    const std::vector<std::vector<Symbol>>& choices);

/// True when the automaton accepts no string.
bool IsEmpty(const Dfa& dfa);
bool IsEmpty(const Nfa& nfa);

/// A shortest accepted string, or nullopt when the language is empty.
std::optional<std::vector<Symbol>> ShortestWitness(const Dfa& dfa);

/// Language equivalence over `alphabet`.
bool Equivalent(const Dfa& a, const Dfa& b, std::span<const Symbol> alphabet);

/// Convenience: regex -> minimal DFA over `alphabet`.
Dfa MinimalDfaOfRegex(const Regex& e, std::span<const Symbol> alphabet);

/// A regex denoting L(nfa), by GNFA state elimination. Worst-case
/// exponential output size; intended for presenting small automata (e.g.
/// inferred schema content models) to humans.
Regex NfaToRegex(const Nfa& nfa);

/// Synchronous product of many DFAs, with a transition function made total
/// over `alphabet`. Each product state is simultaneously a state of every
/// component (dead components included), so two strings reach the same
/// product state iff no component distinguishes any right-extension of them:
/// the product states are exactly the classes of the right-invariant
/// equivalence of Theorem 4 that saturates every component language.
struct MultiDfa {
  Dfa dfa;
  /// component_accepts[i][s]: component i accepts at product state s.
  std::vector<std::vector<bool>> component_accepts;
};
MultiDfa ProductAll(std::span<const Dfa> components,
                    std::span<const Symbol> alphabet);

/// Budget-charged product: the state count is worst-case the product of the
/// component sizes, so every interned tuple counts against the scope.
Result<MultiDfa> ProductAllBounded(std::span<const Dfa> components,
                                   std::span<const Symbol> alphabet,
                                   BudgetScope& scope);

}  // namespace hedgeq::strre

#endif  // HEDGEQ_STRRE_OPS_H_
