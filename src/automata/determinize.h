#ifndef HEDGEQ_AUTOMATA_DETERMINIZE_H_
#define HEDGEQ_AUTOMATA_DETERMINIZE_H_

#include <span>
#include <string>
#include <vector>

#include "automata/dha.h"
#include "automata/nha.h"
#include "util/budget.h"
#include "util/status.h"

namespace hedgeq::automata {

/// Result of determinizing an NHA: the DHA plus, for every DHA state, the
/// subset of NHA states it denotes. The sink is always state 0 (the empty
/// subset).
struct Determinized {
  Dha dha;
  std::vector<Bitset> subsets;
};

/// Certificate of one subset construction (translation validation): the
/// intermediate sets the construction interned, enough for an independent
/// checker (verify::CheckDeterminize) to re-derive every transition of the
/// output without trusting this file's code. Horizontal sets are over the
/// combined content NFA (rule contents concatenated in rule order, so state
/// offsets are recomputable from the input alone); final sets are over the
/// final NFA's states, one per state of the lifted final DFA.
struct DeterminizeWitness {
  std::vector<Bitset> h_sets;
  std::vector<Bitset> final_sets;
  /// Optional per-step digest chain over the interned sets, one link per
  /// set in section order — the Determinized subsets first, then h_sets,
  /// then final_sets — each link a util/digest DigestChainLink of the
  /// previous link (empty for the first) and the set. Lets
  /// verify::CheckCertificateLight (HQV016) detect tampering in O(1) per
  /// step; empty means "no chain recorded" and light checking falls back
  /// to the full checker.
  std::vector<std::string> chain;
};

/// Inline certification hook (HEDGEQ_CERTIFY): when installed, every
/// successful Determinize validates its own witness before returning and
/// fails with kInternal when the checker rejects it. Installed by
/// hedgeq_inline_certify (src/verify/inline_certify.cc); the pointer lives
/// here so automata does not depend on the checker.
using DeterminizeValidationHook = Status (*)(const Nha&, const Determinized&,
                                             const DeterminizeWitness&);
void SetDeterminizeValidationHook(DeterminizeValidationHook hook);
DeterminizeValidationHook GetDeterminizeValidationHook();

/// Pluggable cross-process cache for subset constructions, consulted by
/// every Determinize call while installed (src/cache/ provides the
/// persistent, certificate-checked implementation; the pointer lives here,
/// like the validation hook above, so automata does not depend on it).
///
/// Contract — the cache may only ever make Determinize faster, never wrong:
///  - Lookup must return true only for an entry it has *re-validated* for
///    exactly `input` (hedgeq's implementation runs the PR 3 certificate
///    checker and compares the stored input automaton byte-for-byte);
///    anything questionable is a miss.
///  - Store must be fire-and-forget: failures are swallowed (counted, never
///    propagated), so callers cannot be broken by a full or read-only disk.
/// Both are called with the same thread that called Determinize.
class DeterminizeCache {
 public:
  virtual ~DeterminizeCache() = default;

  /// On hit fills `out` (and `witness`, when non-null) and returns true.
  virtual bool Lookup(const Nha& input, Determinized* out,
                      DeterminizeWitness* witness) = 0;

  /// Offers a freshly constructed result for persistence.
  virtual void Store(const Nha& input, const Determinized& out,
                     const DeterminizeWitness& witness) = 0;
};

/// Installs `cache` (not owned, null to uninstall) for every subsequent
/// Determinize in the process. On a hit the construction — and its
/// automata.determinize span — is skipped entirely; on a miss the result is
/// offered back through Store (forcing witness recording for that call).
void SetDeterminizeCache(DeterminizeCache* cache);
DeterminizeCache* GetDeterminizeCache();

/// Theorem 1: subset construction from a non-deterministic to a
/// deterministic hedge automaton with L(dha) = L(nha). Determinization is
/// worst-case exponential (the paper conjectures it is "usually efficient";
/// experiment E3 measures both sides), so the construction charges every
/// interned subset, horizontal state and transition against `budget` —
/// the caller's scope, so several pipeline stages share one cumulative
/// budget (e.g. the Theorem 4 compile in query/phr_compile), or a fresh one
/// — and fails with kResourceExhausted, reporting the count reached, when
/// a cap is hit. Callers that must not fail fall back to
/// automata/lazy_dha.h. When `witness` is non-null the certificate witness
/// is recorded into it; recording is cheap, since the sets already exist
/// inside the construction and are moved out instead of discarded.
Result<Determinized> Determinize(const Nha& nha, BudgetArg budget = {},
                                 DeterminizeWitness* witness = nullptr);

/// Lifts a regular language over NHA states (an NFA with letters in Q_nha)
/// to a complete DFA over DHA states (letters are subset ids): the lifted
/// DFA accepts a word S1...Sk of subsets iff some q1 in S1, ..., qk in Sk
/// with q1...qk in L(lang). This is how final languages and the Theorem 4
/// per-triplet languages F_i1/F_i2 ride on one shared determinization.
/// The bounded form charges the DFA subset construction against `scope`
/// and, when `state_sets` is non-null, reports the set of `lang` NFA
/// states each lifted DFA state denotes (the final-set witness).
Result<strre::Dfa> LiftToSubsetsBounded(
    const strre::Nfa& lang, std::span<const Bitset> subsets,
    BudgetScope& scope, std::vector<Bitset>* state_sets = nullptr);

/// Unbounded convenience wrapper (cannot fail).
strre::Dfa LiftToSubsets(const strre::Nfa& lang,
                         std::span<const Bitset> subsets);

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_DETERMINIZE_H_
