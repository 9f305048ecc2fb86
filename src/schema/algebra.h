#ifndef HEDGEQ_SCHEMA_ALGEBRA_H_
#define HEDGEQ_SCHEMA_ALGEBRA_H_

#include "automata/analysis.h"
#include "automata/determinize.h"
#include "schema/schema.h"
#include "util/budget.h"

namespace hedgeq::schema {

/// Which Boolean operation an AlgebraWitness certifies.
enum class AlgebraOp {
  kIntersect,
  kUnion,
  kDifference,
};

/// Witness of one schema-algebra operation, enough for verify::CheckAlgebra
/// (HQV015) to re-derive the pairing product / disjoint union independently
/// and cross-check sampled memberships against the operand validators.
struct AlgebraWitness {
  AlgebraOp op = AlgebraOp::kIntersect;
  /// Intersect & difference: the raw pairing product (states qa*|Qb|+qb)
  /// *before* the internal PruneNha, plus that prune's trim witness (the
  /// output schema is the trimmed product).
  automata::Nha product;
  automata::TrimWitness trim;
  /// Union: state offsets of the two operand copies inside the output.
  automata::HState offset_a = 0;
  automata::HState offset_b = 0;
  /// Difference only: the complement of `b` (over the joint vocabulary)
  /// that was intersected with `a` — the right operand of `product`.
  automata::Nha complement;
};

/// Boolean algebra and decision procedures over schemas (hedge regular
/// languages are closed under all of these — the property that makes the
/// RELAX/TREX family composable; Section 2).
///
/// Complementation determinizes (worst-case exponential), so every
/// operation built on it takes a budget and fails with kResourceExhausted —
/// naming the stage and count reached — instead of exhausting the machine.
/// The budget binds the caller's scope or opens a fresh one (BudgetArg), so
/// a chain like SchemasEquivalent (two inclusions, each a complement)
/// shares one cumulative pool. Operations with a `witness` parameter fill
/// it when it is non-null.

/// L(a) ∩ L(b).
Schema IntersectSchemas(const Schema& a, const Schema& b,
                        AlgebraWitness* witness = nullptr);

/// L(a) ∪ L(b).
Schema UnionSchemas(const Schema& a, const Schema& b,
                    AlgebraWitness* witness = nullptr);

/// Documents over the joint vocabulary of `a` and `universe_hint` that are
/// NOT valid under `a`. The complement is relative to hedges whose element
/// names and variables appear in either schema (hedge languages over an
/// open alphabet have no absolute complement).
Result<Schema> ComplementSchema(const Schema& a, const Schema& universe_hint,
                                BudgetArg budget = {});

/// L(a) \ L(b) over their joint vocabulary.
Result<Schema> DifferenceSchemas(const Schema& a, const Schema& b,
                                 BudgetArg budget = {},
                                 AlgebraWitness* witness = nullptr);

/// Inline-certification hook (HEDGEQ_CERTIFY): when installed, every
/// Intersect/Union/DifferenceSchemas validates its own witness before
/// returning (the non-Result operations HEDGEQ_CHECK on rejection, like
/// PruneNha's trim hook). Installed by hedgeq_inline_certify; the pointer
/// lives here so schema does not depend on the checker.
using AlgebraValidationHook = Status (*)(const Schema& a, const Schema& b,
                                         const Schema& out,
                                         const AlgebraWitness&);
void SetAlgebraValidationHook(AlgebraValidationHook hook);
AlgebraValidationHook GetAlgebraValidationHook();

/// L(a) ⊆ L(b)?
Result<bool> SchemaIncludes(const Schema& a, const Schema& b,
                            BudgetArg budget = {});

/// L(a) == L(b)?
Result<bool> SchemasEquivalent(const Schema& a, const Schema& b,
                               BudgetArg budget = {});

}  // namespace hedgeq::schema

#endif  // HEDGEQ_SCHEMA_ALGEBRA_H_
