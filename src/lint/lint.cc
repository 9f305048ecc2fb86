#include "lint/lint.h"

#include "automata/analysis.h"
#include "schema/algebra.h"
#include "schema/transform.h"

namespace hedgeq::lint {

namespace {

// Prefixes the spans of findings [begin, end) with where in the composite
// construct the offending expression sits ("triplet 2 elder: ...").
void LabelSpans(std::vector<Diagnostic>& diagnostics, size_t begin,
                const std::string& where) {
  for (size_t i = begin; i < diagnostics.size(); ++i) {
    diagnostics[i].span = diagnostics[i].span.empty()
                              ? where
                              : where + ": " + diagnostics[i].span;
  }
}

}  // namespace

LintReport LintExpression(const hre::Hre& e, const hedge::Vocabulary& vocab,
                          const LintOptions& options) {
  LintReport report;
  LintHre(e, vocab, options, report.diagnostics);
  return report;
}

LintReport LintSelectionQuery(const query::SelectionQuery& query,
                              const hedge::Vocabulary& vocab,
                              const LintOptions& options) {
  LintReport report;
  if (query.subhedge != nullptr) {
    size_t begin = report.diagnostics.size();
    LintHre(query.subhedge, vocab, options, report.diagnostics);
    LabelSpans(report.diagnostics, begin, "subhedge condition e1");
  }
  const auto& triplets = query.envelope.triplets();
  for (size_t i = 0; i < triplets.size(); ++i) {
    const std::string where = "triplet " + std::to_string(i + 1);
    if (triplets[i].elder != nullptr) {
      size_t begin = report.diagnostics.size();
      LintHre(triplets[i].elder, vocab, options, report.diagnostics);
      LabelSpans(report.diagnostics, begin, where + " elder");
    }
    if (triplets[i].younger != nullptr) {
      size_t begin = report.diagnostics.size();
      LintHre(triplets[i].younger, vocab, options, report.diagnostics);
      LabelSpans(report.diagnostics, begin, where + " younger");
    }
  }
  return report;
}

LintReport LintSchema(const schema::Schema& schema,
                      const hedge::Vocabulary& vocab,
                      const LintOptions& options) {
  (void)vocab;  // symmetry with the expression passes; spans are state-based
  LintReport report;
  if (schema.IsEmpty()) {
    report.diagnostics.push_back(Diagnostic{
        Severity::kError, DiagnosticCode::kEmptySchema, "schema",
        "no document satisfies this schema",
        "some rule chain never bottoms out (or the start language is "
        "unsatisfiable); every validation will reject"});
    return report;
  }
  LintNha(schema.nha(), options, "schema", report.diagnostics);
  return report;
}

Result<LintReport> LintQueryUnderSchema(const schema::Schema& schema,
                                        const query::SelectionQuery& query,
                                        const hedge::Vocabulary& vocab,
                                        const LintOptions& options) {
  LintReport report = LintSelectionQuery(query, vocab, options);
  {
    LintReport schema_report = LintSchema(schema, vocab, options);
    report.diagnostics.insert(report.diagnostics.end(),
                              schema_report.diagnostics.begin(),
                              schema_report.diagnostics.end());
  }
  if (report.has_errors()) return report;  // the product would only restate

  Result<schema::MatchIdentifyingProduct> product =
      schema::BuildMatchIdentifyingProduct(schema, query,
                                           options.probe_budget);
  if (!product.ok()) {
    if (product.status().code() != StatusCode::kResourceExhausted) {
      return product.status();
    }
    return report;  // a probe that trips its budget leaves it open
  }
  // The query selects something under the schema iff some marked product
  // state survives trimming (is derivable by a document and usable by an
  // accepting computation): exactly the Section 8 emptiness question.
  std::vector<automata::HState> mapping;
  automata::PruneNha(product->nha, &mapping);
  for (size_t q = 0; q < product->marked.size(); ++q) {
    if (product->marked[q] && mapping[q] != strre::kNoState) return report;
  }
  report.diagnostics.push_back(Diagnostic{
      Severity::kError, DiagnosticCode::kQueryUnsatisfiableUnderSchema,
      "query under schema",
      "the query can never select any node of any schema-valid document "
      "(match-identifying product has no usable marked state)",
      "the match pattern contradicts the schema; check element names and "
      "sibling/ancestor conditions against the grammar"});
  return report;
}

Result<LintReport> LintQueryOverlap(const schema::Schema& schema,
                                    const query::SelectionQuery& q1,
                                    const query::SelectionQuery& q2,
                                    const hedge::Vocabulary& vocab,
                                    const LintOptions& options) {
  (void)vocab;
  LintReport report;
  auto check = [&](const query::SelectionQuery& a,
                   const query::SelectionQuery& b, const char* a_name,
                   const char* b_name) -> Status {
    Result<schema::ContainmentResult> contained =
        schema::QueryContainment(schema, a, b, options.probe_budget);
    if (!contained.ok()) {
      // An undecidable probe (budget) leaves the question open silently.
      return contained.status().code() == StatusCode::kResourceExhausted
                 ? Status::Ok()
                 : contained.status();
    }
    if (contained->contained) {
      report.diagnostics.push_back(Diagnostic{
          Severity::kWarning, DiagnosticCode::kQuerySubsumedByQuery,
          std::string(a_name) + " vs " + b_name,
          std::string("every node located by ") + a_name +
              " is located by " + b_name +
              " on every schema-valid document",
          std::string("drop ") + a_name +
              " or tighten it; running both does redundant work"});
    }
    return Status::Ok();
  };
  HEDGEQ_RETURN_IF_ERROR(check(q1, q2, "q1", "q2"));
  HEDGEQ_RETURN_IF_ERROR(check(q2, q1, "q2", "q1"));
  return report;
}

Result<LintReport> LintSchemaOverlap(const schema::Schema& a,
                                     const schema::Schema& b,
                                     const hedge::Vocabulary& vocab,
                                     const LintOptions& options) {
  (void)vocab;
  LintReport report;
  // Disjointness probe: witness-recording, so the intersection (and its
  // internal prune) is validated by verify::CheckAlgebra under
  // HEDGEQ_CERTIFY before the emptiness verdict below is trusted.
  {
    schema::AlgebraWitness witness;
    schema::Schema inter = schema::IntersectSchemas(a, b, &witness);
    if (inter.IsEmpty()) {
      report.diagnostics.push_back(Diagnostic{
          Severity::kWarning, DiagnosticCode::kQueryUnsatisfiableUnderSchema,
          "schema a vs schema b",
          "no document satisfies both schemas (their certified intersection "
          "is empty)",
          "anything validated against one schema can never validate against "
          "the other; a query or pipeline bridging them selects nothing"});
    }
  }
  // Inclusion probes, one per direction: L(x) ⊆ L(y) iff the certified
  // difference x \ y is empty. The complement inside each difference
  // determinizes, so it runs under the probe budget.
  auto included = [&](const schema::Schema& x, const schema::Schema& y,
                      const char* x_name, const char* y_name) -> Status {
    schema::AlgebraWitness witness;
    Result<schema::Schema> diff =
        schema::DifferenceSchemas(x, y, options.probe_budget, &witness);
    if (!diff.ok()) {
      // An undecidable probe (budget) leaves the question open silently.
      return diff.status().code() == StatusCode::kResourceExhausted
                 ? Status::Ok()
                 : diff.status();
    }
    if (diff->IsEmpty()) {
      report.diagnostics.push_back(Diagnostic{
          Severity::kWarning, DiagnosticCode::kQuerySubsumedByQuery,
          std::string(x_name) + " vs " + y_name,
          std::string("every document valid under schema ") + x_name +
              " is valid under schema " + y_name +
              " (their certified difference is empty)",
          std::string("schema ") + x_name + " is redundant next to " +
              y_name + "; validating against both does redundant work"});
    }
    return Status::Ok();
  };
  HEDGEQ_RETURN_IF_ERROR(included(a, b, "a", "b"));
  HEDGEQ_RETURN_IF_ERROR(included(b, a, "b", "a"));
  return report;
}

}  // namespace hedgeq::lint
