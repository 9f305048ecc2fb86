#ifndef HEDGEQ_LINT_DIAGNOSTICS_H_
#define HEDGEQ_LINT_DIAGNOSTICS_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/budget.h"
#include "util/status.h"

namespace hedgeq::lint {

/// How bad a finding is. Pre-flight hooks and the CLI turn kError findings
/// into failures; warnings and notes are advisory.
enum class Severity {
  kNote,
  kWarning,
  kError,
};

/// Stable diagnostic identifiers. HQL0xx: language-level (emptiness),
/// HQL1xx: automaton hygiene, HQL2xx: cost/ambiguity heuristics,
/// HQL3xx: schema-aware query analysis. HQV0xx: translation-validation
/// failures reported by the certificate checker and the differential
/// oracle (src/verify/). Codes are part of the tool's output contract
/// (CI diffs lint JSON), so never renumber — only append.
enum class DiagnosticCode {
  kEmptyExpression,              // HQL001: the whole HRE denotes {}
  kEmptySubexpression,           // HQL002: a minimal empty subterm poisons
                                 //         every enclosing concatenation
  kEmptyAutomaton,               // HQL003: the automaton accepts nothing
  kEmptySchema,                  // HQL004: no document satisfies the schema
  kUnreachableStates,            // HQL101: states no hedge derives
  kUselessStates,                // HQL102: derivable but non-coaccessible
                                 //         states inflate determinization
  kDeterminizationBlowupRisk,    // HQL201: subset construction predicted to
                                 //         exhaust its budget
  kAmbiguousExpression,          // HQL202: some hedge matches two ways
  kQueryUnsatisfiableUnderSchema,// HQL301: query selects nothing on any
                                 //         schema-valid document
  kQuerySubsumedByQuery,         // HQL302: q1's matches are a subset of q2's
                                 //         on every schema-valid document
  kCertificateMalformed,         // HQV001: certificate shape/range invalid
  kSubsetTransitionIncoherent,   // HQV002: a DHA horizontal transition does
                                 //         not match the recomputed subset step
  kFinalSetInconsistent,         // HQV003: lifted final DFA disagrees with the
                                 //         witnessed final-NFA state sets
  kAssignmentIncoherent,         // HQV004: an assignment/variable subset does
                                 //         not match the accepting rules
  kTrimWitnessMismatch,          // HQV005: trim output is not the projection
                                 //         the reach/co-reach witness implies
  kCompileWitnessRejected,       // HQV006: Lemma 1 trace violates the
                                 //         per-case state/rule accounting
  kLazyAuditMismatch,            // HQV007: a memoized lazy-DHA step disagrees
                                 //         with independent recomputation
  kProjectionHomomorphismViolated,// HQV008: match-identifying product state
                                 //         does not project onto the DHA run
  kDifferentialDisagreement,     // HQV009: two engines disagree on a hedge
  kMinimizeWitnessRejected,      // HQV010: minimization partition is not a
                                 //         language-preserving congruence
  kPhrProductIncoherent,         // HQV011: Theorem 4 class product/mirror
                                 //         disagrees with the recomputed maps
  kContainmentCertificateRejected,// HQV012: containment verdict contradicts
                                 //         its own product witness
  kSelectionDisagreement,        // HQV013: engines disagree on the *node set*
                                 //         a selection query locates
  kFromNhaWitnessRejected,       // HQV014: Lemma 2 state-elimination witness
                                 //         disagrees with its recomputation
  kAlgebraWitnessRejected,       // HQV015: schema algebra product/pairing
                                 //         witness fails re-derivation
  kDigestChainMismatch,          // HQV016: certificate digest chain does not
                                 //         match the recomputed links
};

/// "HQL001" ... — the stable wire name used in text and JSON output.
const char* DiagnosticCodeName(DiagnosticCode code);
/// "empty-expression" ... — the human-oriented slug.
const char* DiagnosticCodeSlug(DiagnosticCode code);
/// "note" / "warning" / "error".
const char* SeverityName(Severity severity);

/// One structured finding. `span` quotes the offending source fragment
/// (an HRE subterm, a state range, a query), `hint` suggests a fix.
struct Diagnostic {
  Severity severity = Severity::kNote;
  DiagnosticCode code = DiagnosticCode::kEmptyExpression;
  std::string span;
  std::string message;
  std::string hint;

  bool operator==(const Diagnostic& other) const = default;
};

/// "error[HQL001] <span>: <message> (hint: <hint>)".
std::string FormatDiagnostic(const Diagnostic& diagnostic);

/// True when any finding has severity >= kError.
bool HasErrors(const std::vector<Diagnostic>& diagnostics);
/// The highest severity present (kNote when empty).
Severity MaxSeverity(const std::vector<Diagnostic>& diagnostics);

/// Serializes findings as a JSON array (stable key order, escaped strings),
/// one object per diagnostic. The output round-trips through
/// ParseDiagnosticsJson so CI can diff lint runs structurally.
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics);

/// Inverse of DiagnosticsToJson. Rejects unknown codes/severities and
/// malformed JSON with kInvalidArgument.
Result<std::vector<Diagnostic>> ParseDiagnosticsJson(std::string_view json);

/// Knobs for every analysis pass.
struct LintOptions {
  /// Run the (quadratic-state) unambiguity decision procedure on compiled
  /// expressions no larger than `ambiguity_max_states`.
  bool check_ambiguity = true;
  size_t ambiguity_max_states = 48;
  /// Useless-state ratio at or above which HQL102 escalates from note to
  /// warning.
  double useless_warn_ratio = 0.25;
  /// Estimated horizontal subset count at or above 2^blowup_warn_log2
  /// raises HQL201.
  size_t blowup_warn_log2 = 16;
  /// Budget for probe work (per-subexpression emptiness compiles, trim-
  /// comparison determinizations). Deliberately small: lint must stay
  /// cheap even on adversarial input — probes that trip the budget are
  /// skipped, never reported as findings.
  ExecBudget probe_budget = ProbeBudget();

  static ExecBudget ProbeBudget() {
    ExecBudget b;
    b.max_states = size_t{1} << 14;
    b.max_memory_bytes = size_t{64} << 20;
    b.max_steps = size_t{1} << 24;
    b.max_depth = 512;
    return b;
  }
};

}  // namespace hedgeq::lint

#endif  // HEDGEQ_LINT_DIAGNOSTICS_H_
