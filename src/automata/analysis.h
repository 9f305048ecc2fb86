#ifndef HEDGEQ_AUTOMATA_ANALYSIS_H_
#define HEDGEQ_AUTOMATA_ANALYSIS_H_

#include "automata/dha.h"
#include "automata/nha.h"

namespace hedgeq::automata {

/// Certificate of one trim (translation validation): the reachability and
/// co-reachability derivations PruneNha computed plus the state renaming,
/// enough for an independent checker (verify::CheckTrim) to re-derive both
/// fixpoints and confirm the output automaton is exactly the projection of
/// the input onto the useful states.
struct TrimWitness {
  Bitset derivable;             // bottom-up derivable states of the input
  Bitset useful;                // derivable AND co-reachable (survivors)
  std::vector<HState> mapping;  // old -> new; strre::kNoState = dropped
};

/// Inline certification hook (HEDGEQ_CERTIFY): when installed, every
/// PruneNha validates its own witness; rejection is a hard check failure
/// (PruneNha cannot return a Status). Installed by hedgeq_inline_certify.
using TrimValidationHook = Status (*)(const Nha& input, const Nha& output,
                                      const TrimWitness&);
void SetTrimValidationHook(TrimValidationHook hook);
TrimValidationHook GetTrimValidationHook();

/// Removes states that no hedge derives (not bottom-up reachable) or that
/// no accepting computation uses (not co-reachable), compacting the state
/// space and dropping dead rules. Preserves the language. Addresses the
/// paper's Section 9 question of porting path-expression optimization
/// techniques: pruning is the basic enabling pass. When `mapping` is
/// non-null it receives old-state -> new-state (strre::kNoState for
/// dropped states), so per-state annotations (marks) can follow. When
/// `witness` is non-null it receives the trim certificate.
/// Co-reachability: the states that occur in some accepting computation
/// over `derivable` states, seeded from the final language and propagated
/// through the contents of co-reachable targets.
Bitset CoReachableStates(const Nha& nha, const Bitset& derivable);

Nha PruneNha(const Nha& nha, std::vector<HState>* mapping = nullptr,
             TrimWitness* witness = nullptr);

/// Is some hedge accepted along two distinct computations (two different
/// state labelings)? Section 9 proposes adding variables to *unambiguous*
/// hedge regular expressions; this is the decision procedure, via a
/// flagged self-product: pair states (q1, q2, differ) where `differ`
/// records a label mismatch at or below the node, accepting iff both
/// projections accept and some top-level pair is flagged.
bool IsAmbiguous(const Nha& nha);

/// Certificate of one minimization (translation validation): the converged
/// block partition over automaton states and horizontal states. An
/// independent checker (verify::CheckMinimize) validates that the partition
/// is a congruence (all transition/assignment/variable maps commute through
/// the block maps) and that the quotient preserves the final language —
/// without re-running the refinement.
struct MinimizeWitness {
  std::vector<uint32_t> qblock;  // input state -> output state (block id)
  std::vector<uint32_t> hblock;  // input h-state -> output h-state (block id)
};

/// Inline certification hook (HEDGEQ_CERTIFY): when installed, every
/// MinimizeDha validates its own witness; rejection is a hard check
/// failure (MinimizeDha cannot return a Status). Installed by
/// hedgeq_inline_certify.
using MinimizeValidationHook = Status (*)(const Dha& input, const Dha& output,
                                          const MinimizeWitness&);
void SetMinimizeValidationHook(MinimizeValidationHook hook);
MinimizeValidationHook GetMinimizeValidationHook();

/// Minimizes a deterministic hedge automaton by mutual partition
/// refinement: two automaton states are merged when no context (final
/// language, or any content-model position of any rule) distinguishes
/// them, and two horizontal states are merged when all their assignments
/// and successors agree up to the state partition. Language-preserving;
/// typically shrinks subset-construction output substantially. When
/// `witness` is non-null it receives the minimization certificate.
/// Failpoint `minimize/merge-nonbisimilar` corrupts the converged partition
/// by merging two distinct blocks (a seeded bug CheckMinimize must catch).
Dha MinimizeDha(const Dha& dha, MinimizeWitness* witness = nullptr);

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_ANALYSIS_H_
