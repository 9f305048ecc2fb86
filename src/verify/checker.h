#ifndef HEDGEQ_VERIFY_CHECKER_H_
#define HEDGEQ_VERIFY_CHECKER_H_

#include <span>
#include <vector>

#include "automata/analysis.h"
#include "automata/determinize.h"
#include "automata/lazy_dha.h"
#include "hre/compile.h"
#include "lint/diagnostics.h"
#include "query/phr_compile.h"
#include "schema/match_identify.h"
#include "schema/transform.h"
#include "verify/certificate.h"

namespace hedgeq::verify {

/// Independent certificate checkers (translation validation). Each checker
/// re-derives the claimed facts from the construction *input* alone — its
/// own content-NFA offset arithmetic, its own epsilon closures, its own
/// reachability fixpoints — and compares against the construction output
/// and witness. No code is shared with the constructions beyond the core
/// automaton types, so a bug in a construction and the matching bug in its
/// checker would have to be introduced twice, independently.
///
/// Findings use the stable HQV0xx code family (lint/diagnostics.h):
///   HQV001 certificate-malformed            shape/range errors
///   HQV002 subset-transition-incoherent     horizontal step mismatch
///   HQV003 final-set-inconsistent           lifted final DFA mismatch
///   HQV004 assignment-incoherent            assignment / iota mismatch
///   HQV005 trim-witness-mismatch            reach/co-reach or projection
///   HQV006 compile-witness-rejected         Lemma 1 trace accounting
///   HQV007 lazy-audit-mismatch              memoized lazy step mismatch
///   HQV008 projection-homomorphism-violated Theorem 5 product projection
///   HQV010 minimize-witness-rejected        partition not a congruence /
///                                           final language not preserved
///   HQV011 phr-product-incoherent           Theorem 4 class product or
///                                           mirror disagrees with recompute
///   HQV012 containment-certificate-rejected verdict contradicts the product
///                                           witness or its counterexample
///   HQV014 from-nha-witness-rejected        Lemma 2 recurrence replay or
///                                           recompiled-membership mismatch
///   HQV015 algebra-witness-rejected         schema-algebra product/offset
///                                           re-derivation or membership
///                                           oracle disagrees
///   HQV016 digest-chain-mismatch            per-step digest chain of a
///                                           determinize certificate does
///                                           not recompute
///
/// All checks run in time near-linear in the size of the certificate
/// (output automaton + witness sets); an empty result means the
/// certificate is valid.

/// Validates a Theorem 1 subset construction: every horizontal transition,
/// assignment, variable/substitution entry and lifted-final-DFA state of
/// `output` must match an independent recomputation from `input` through
/// the witnessed subsets.
std::vector<lint::Diagnostic> CheckDeterminize(
    const automata::Nha& input, const automata::Determinized& output,
    const automata::DeterminizeWitness& witness);

/// Validates one PruneNha run: re-derives the derivable/co-reachable
/// fixpoints and confirms `output` is exactly the projection of `input`
/// onto the witnessed useful states under the witnessed renaming.
std::vector<lint::Diagnostic> CheckTrim(const automata::Nha& input,
                                        const automata::Nha& output,
                                        const automata::TrimWitness& witness);

/// Validates a Lemma 1 compile trace: the post-order entries must spell a
/// traversal of `expr` (in the compiler's child order) whose per-case
/// state/rule accounting closes exactly on `output`'s totals.
std::vector<lint::Diagnostic> CheckCompile(const hre::Hre& expr,
                                           const automata::Nha& output,
                                           const hre::CompileTrace& trace);

/// Validates a lazy-DHA audit log against `nha`: every recorded cache-miss
/// step (horizontal or assignment) is recomputed independently.
std::vector<lint::Diagnostic> CheckLazyAudit(
    const automata::Nha& nha,
    std::span<const automata::LazyAuditEntry> entries);

/// Validates the Theorem 5 product on one document: the match-identifying
/// automaton's unique run must project (via QOf) onto the shared DHA's run,
/// every claimed state must be assignable by the NHA itself, leaf states
/// must sit exactly on leaves, and marks must agree with the marked-state
/// table.
std::vector<lint::Diagnostic> CheckProjection(
    const schema::MatchIdentifying& mi, const query::CompiledPhr& compiled,
    const hedge::Hedge& doc);

/// Validates one MinimizeDha run: the witnessed partition must be a
/// congruence (h-start, sink, every HNext/Assign/variable/substitution
/// entry commutes through the block maps, no output entry lacks a
/// preimage) and the quotient's final DFA must accept exactly the
/// block-renamed final language of the input — established by a product
/// walk, never by re-running the refinement.
std::vector<lint::Diagnostic> CheckMinimize(
    const automata::Dha& input, const automata::Dha& output,
    const automata::MinimizeWitness& witness);

/// Validates a Theorem 4 compilation end to end: every lifted component
/// DFA against its witnessed final NFA, the class product against an
/// independent tuple walk of the components, the elder/younger acceptance
/// maps against the tuple coordinates, the xi-image substitution against
/// a recomputed regex automaton, the mirror against a reversed-subset
/// simulation of L, and the runtime tables Algorithm 1 reads against the
/// class product and the mirror, entry by entry.
std::vector<lint::Diagnostic> CheckPhrProduct(
    const phr::Phr& phr, const query::CompiledPhr& compiled,
    const query::PhrWitness& witness);

/// Validates one QueryContainment verdict: on "not contained" the
/// counterexample document must be schema-valid and located by q1 but not
/// q2 (re-evaluated through the naive Definition 22 oracle); on
/// "contained" an independent usable-state fixpoint over the witnessed
/// product must find no state marked by q1 only.
std::vector<lint::Diagnostic> CheckContainment(
    const schema::Schema& schema, const query::SelectionQuery& q1,
    const query::SelectionQuery& q2, const schema::ContainmentResult& result,
    const schema::ContainmentWitness& witness);

/// Validates one Lemma 2 extraction (HQV014): the split table is
/// re-enumerated from the input's rules, every recursive entry of the
/// recurrence witness is replayed structurally from its recorded
/// sub-entries (so a dropped alternative cannot hide), and the emitted
/// expression is recompiled through the independent Lemma 1 pipeline and
/// differentially compared against the source NHA over a bounded-exhaustive
/// plus sampled hedge corpus.
std::vector<lint::Diagnostic> CheckFromNha(const automata::Nha& input,
                                           const hre::Hre& output,
                                           const hre::FromNhaWitness& witness);

/// Validates one schema-algebra operation (HQV015): the pairing product /
/// disjoint-union layout is re-derived with the checker's own code and
/// compared structurally against the witness, the internal prune is
/// re-validated through CheckTrim, and an enumeration oracle cross-checks
/// sampled hedge membership of the output against the operand validators
/// (out == a OP b; for difference also the witnessed complement against
/// NOT b over the joint vocabulary).
std::vector<lint::Diagnostic> CheckAlgebra(const schema::Schema& a,
                                           const schema::Schema& b,
                                           const schema::Schema& out,
                                           const schema::AlgebraWitness& witness);

/// Dispatches a deserialized certificate to the matching checker (after
/// cross-field shape validation).
std::vector<lint::Diagnostic> CheckCertificate(const Certificate& cert);

/// Hash-witness light check (HQV016): for determinize certificates carrying
/// a digest chain, recomputes every DigestChainLink over the stored sets
/// (tampering anywhere is caught deterministically in O(sets)), fully
/// re-derives the lifted final DFA and the iota/start sections (cheap, and
/// keeps a flipped final bit deterministic), and spot-checks
/// `sample_rows` randomly chosen horizontal rows with the full
/// transition/assignment re-derivation. Certificates of any other kind —
/// or without a chain — fall through to the full CheckCertificate. This is
/// the default revalidation mode of the certificate cache; full checking
/// stays available behind --check=full.
std::vector<lint::Diagnostic> CheckCertificateLight(const Certificate& cert,
                                                    size_t sample_rows = 8);

/// Collapses checker findings into a Status for the inline-certification
/// hooks: Ok when empty, kInternal carrying the first finding otherwise.
Status DiagnosticsToStatus(const std::vector<lint::Diagnostic>& diagnostics);

}  // namespace hedgeq::verify

#endif  // HEDGEQ_VERIFY_CHECKER_H_
