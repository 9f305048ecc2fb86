#ifndef HEDGEQ_HRE_FROM_NHA_H_
#define HEDGEQ_HRE_FROM_NHA_H_

#include <functional>
#include <utility>
#include <vector>

#include "automata/nha.h"
#include "hre/ast.h"

namespace hedgeq::hre {

/// Witness of one NhaToHre run: the split-state table and every memoized
/// intermediate of the R(q, Q1, Q2) state-elimination recurrence, in fill
/// order (sub-entries always precede the entries combining them). The
/// checker (verify::CheckFromNha, HQV014) replays each recursive
/// combination structurally and recompiles the emitted expression through
/// the independent Lemma 1 pipeline.
struct FromNhaWitness {
  /// Split states in enumeration order: (producing symbol, target state).
  std::vector<std::pair<hedge::SymbolId, automata::HState>> splits;
  /// The fresh substitution symbol minted for each split ("_zq<i>").
  std::vector<hedge::SubstId> substs;
  struct Entry {
    uint32_t c = 0;   // split index the entry denotes hedges for
    uint64_t q1 = 0;  // internal-state mask (bit i = splits[i])
    uint64_t q2 = 0;  // connector-state mask
    Hre expr;
  };
  std::vector<Entry> entries;
  /// The expression NhaToHre returned.
  Hre result;
};

/// Lemma 2: constructs a hedge regular expression denoting L(nha),
/// completing Theorem 2 (hedge regular expressions and hedge automata are
/// equally expressive).
///
/// Follows the paper's decomposition: states are first split per producing
/// symbol so every connector node has a unique label zeta(q); hedges are
/// then cut at state occurrences, with R(q, Q1, Q2) — hedges whose internal
/// nodes use states in Q1 and whose connectors use states in Q2 — computed
/// by the three-equation recursion over |Q1| (embedding for the top/bottom
/// split, vertical closure for repeated middles).
///
/// One fresh substitution symbol per split state ("_zq<i>") is interned
/// into `vocab`. The construction is worst-case doubly exponential in
/// automaton size (the price of expression-ness); a cap of 62 split states
/// is enforced (kResourceExhausted beyond, kInvalidArgument for automata
/// with substitution-symbol states, whose languages need bare-z hedges that
/// expressions cannot denote). When `witness` is non-null it is filled with
/// the recurrence intermediates for translation validation.
Result<Hre> NhaToHre(const automata::Nha& nha, hedge::Vocabulary& vocab,
                     FromNhaWitness* witness = nullptr);

/// Structural translation of a string regex into an HRE via a leaf mapping
/// (exposed for reuse and tests).
Hre RegexToHre(const strre::Regex& regex,
               const std::function<Hre(strre::Symbol)>& leaf);

/// Inline-certification hook: when installed (HEDGEQ_CERTIFY), every
/// NhaToHre validates its own witness before returning; a non-ok status
/// propagates to the caller. Installed by hedgeq_inline_certify; the
/// pointer lives here so hre does not depend on the checker.
using FromNhaValidationHook = Status (*)(const automata::Nha& input,
                                         const Hre& output,
                                         const FromNhaWitness&);
void SetFromNhaValidationHook(FromNhaValidationHook hook);
FromNhaValidationHook GetFromNhaValidationHook();

}  // namespace hedgeq::hre

#endif  // HEDGEQ_HRE_FROM_NHA_H_
