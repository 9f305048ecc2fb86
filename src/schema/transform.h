#ifndef HEDGEQ_SCHEMA_TRANSFORM_H_
#define HEDGEQ_SCHEMA_TRANSFORM_H_

#include <vector>

#include "query/boolean.h"
#include "query/selection.h"
#include "schema/match_identify.h"
#include "schema/schema.h"

namespace hedgeq::schema {

/// The match-identifying product of Section 8: the input schema intersected
/// with M-down-e1 (Theorem 3) and M-up-e2 (Theorem 5). It accepts exactly
/// the schema's language, and in every accepting computation a node carries
/// a marked state iff the selection query locates it.
struct MatchIdentifyingProduct {
  automata::Nha nha;
  std::vector<bool> marked;  // per product state
};

/// Builds the product under `options`. A query that can select nothing
/// under the schema still yields a product, one whose marked states are
/// all unusable; lint::LintQueryUnderSchema reports that as HQL301.
Result<MatchIdentifyingProduct> BuildMatchIdentifyingProduct(
    const Schema& input, const query::SelectionQuery& query,
    const ExecBudget& options = {});

/// Output schema of select(e1, e2) on `input`: accepts exactly the subtrees
/// rooted at nodes located in some input-valid document ("we only have to
/// use marked states as final state sequences ... only those marked states
/// from which final state sequences can be reached").
Result<Schema> SelectOutputSchema(const Schema& input,
                                  const query::SelectionQuery& query,
                                  const ExecBudget& options = {});

/// Output schema of delete: accepts exactly the documents obtained from
/// input-valid documents by removing every located subtree.
Result<Schema> DeleteOutputSchema(const Schema& input,
                                  const query::SelectionQuery& query,
                                  const ExecBudget& options = {});

/// Output schema of rename: accepts exactly the documents obtained from
/// input-valid documents by relabeling every located node `new_name`
/// (subtrees and positions unchanged).
Result<Schema> RenameOutputSchema(const Schema& input,
                                  const query::SelectionQuery& query,
                                  hedge::SymbolId new_name,
                                  const ExecBudget& options = {});

/// A concrete schema-valid document in which the query locates a node,
/// plus that node's id — synthesized from witnesses of the
/// match-identifying product (subtree witnesses bottom-up, then a chain of
/// contexts up to an accepting top level).
struct SampleMatch {
  hedge::Hedge document;
  hedge::NodeId located;
};

/// nullopt when the query can never match any valid document.
Result<std::optional<SampleMatch>> SampleMatchingDocument(
    const Schema& input, const query::SelectionQuery& query,
    const ExecBudget& options = {});

/// Query containment under a schema (the classic optimization question,
/// Section 9's first open issue): does q1 locate a subset of q2's nodes on
/// every schema-valid document? Decided by layering both queries'
/// match-identifying automata over the schema and checking whether any
/// usable state is q1-marked but not q2-marked; when not contained, a
/// counterexample document (with the distinguishing node) is synthesized.
struct ContainmentResult {
  bool contained;
  std::optional<SampleMatch> counterexample;  // set when !contained
};

/// Certificate of one QueryContainment decision: the pruned layered
/// product the verdict was read off, plus the two per-state mark tables
/// (does q1 / q2 mark the state in some accepting computation). An
/// independent checker (verify::CheckContainment) re-derives the usable
/// states, confirms "contained" means no usable state is q1-marked only,
/// and re-evaluates any counterexample document through the naive
/// Definition 22 oracle.
struct ContainmentWitness {
  automata::Nha product;
  std::vector<bool> marked1;  // per product state: marked by q1
  std::vector<bool> marked2;  // per product state: marked by q2
};

/// Inline certification hook (HEDGEQ_CERTIFY): when installed, every
/// witnessed QueryContainment validates its own verdict before returning.
/// Installed by hedgeq_inline_certify.
using ContainmentValidationHook = Status (*)(
    const Schema& input, const query::SelectionQuery& q1,
    const query::SelectionQuery& q2, const ContainmentResult& result,
    const ContainmentWitness& witness);
void SetContainmentValidationHook(ContainmentValidationHook hook);
ContainmentValidationHook GetContainmentValidationHook();

/// Decides containment as described above, recording the containment
/// certificate into `witness` when it is non-null. Failpoint
/// `containment/flip-verdict` inverts the verdict — and discards the
/// counterexample when flipping to "contained" — a seeded bug
/// verify::CheckContainment must catch.
Result<ContainmentResult> QueryContainment(
    const Schema& input, const query::SelectionQuery& q1,
    const query::SelectionQuery& q2, const ExecBudget& options = {},
    ContainmentWitness* witness = nullptr);

/// Both containments hold: the queries locate exactly the same nodes on
/// every schema-valid document.
Result<bool> QueriesEquivalentUnderSchema(
    const Schema& input, const query::SelectionQuery& q1,
    const query::SelectionQuery& q2,
    const ExecBudget& options = {});

/// Boolean-query variants: selection queries are exactly the MSO-definable
/// queries (Section 6) and MSO is boolean-closed; the layered product makes
/// the closure effective at the schema level too — a product state is
/// marked when the formula holds over the leaves' marks.
Result<Schema> SelectOutputSchemaBoolean(
    const Schema& input, const query::BooleanQuery& query,
    const ExecBudget& options = {});

Result<std::optional<SampleMatch>> SampleMatchingDocumentBoolean(
    const Schema& input, const query::BooleanQuery& query,
    const ExecBudget& options = {});

}  // namespace hedgeq::schema

#endif  // HEDGEQ_SCHEMA_TRANSFORM_H_
