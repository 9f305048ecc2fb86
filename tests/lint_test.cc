#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/analysis.h"
#include "hre/compile.h"
#include "lint/analyze.h"
#include "lint/lint.h"
#include "query/selection.h"
#include "schema/schema.h"
#include "schema/transform.h"
#include "strre/ops.h"

namespace hedgeq::lint {
namespace {

using automata::HState;
using automata::Nha;
using hedge::Vocabulary;

size_t CountCode(const std::vector<Diagnostic>& diagnostics,
                 DiagnosticCode code) {
  return std::count_if(
      diagnostics.begin(), diagnostics.end(),
      [code](const Diagnostic& d) { return d.code == code; });
}

class LintTest : public ::testing::Test {
 protected:
  hre::Hre ParseExpr(const std::string& text) {
    auto e = hre::ParseHre(text, vocab_);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  }
  query::SelectionQuery ParseQuery(const std::string& text) {
    auto q = query::ParseSelectionQuery(text, vocab_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }
  schema::Schema ParseGrammar(const std::string& text) {
    auto s = schema::ParseSchema(text, vocab_);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return std::move(s).value();
  }

  // doc<sec*>, sec<(para|sec)*>, para<> — sec can nest.
  schema::Schema DocSchema() {
    return ParseGrammar(
        "start = Doc\n"
        "Doc = doc<Sec*>\n"
        "Sec = sec<(Para|Sec)*>\n"
        "Para = para<>\n");
  }

  Vocabulary vocab_;
};

// ---------------------------------------------------------------------------
// Expression-level codes (HQL001, HQL002, HQL201, HQL202).

TEST_F(LintTest, EmptyExpressionIsAnError) {
  // c<{}> concatenated with a: the {} poisons the whole expression.
  LintReport report = LintExpression(ParseExpr("c<{}> a"), vocab_);
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(CountCode(report.diagnostics, DiagnosticCode::kEmptyExpression),
            1u);
  // The minimal empty subterm ({} itself) is reported separately.
  EXPECT_EQ(
      CountCode(report.diagnostics, DiagnosticCode::kEmptySubexpression), 1u);
}

TEST_F(LintTest, EmptyRootAloneIsNotAlsoASubexpressionFinding) {
  LintReport report = LintExpression(ParseExpr("{}"), vocab_);
  EXPECT_EQ(CountCode(report.diagnostics, DiagnosticCode::kEmptyExpression),
            1u);
  EXPECT_EQ(
      CountCode(report.diagnostics, DiagnosticCode::kEmptySubexpression), 0u);
}

TEST_F(LintTest, EmptySubexpressionUnderUnionIsAWarningOnly) {
  // The whole language is nonempty (left branch), but c<{}> is dead code.
  LintReport report = LintExpression(ParseExpr("(a|b)*|c<{}>"), vocab_);
  EXPECT_FALSE(report.has_errors());
  ASSERT_EQ(
      CountCode(report.diagnostics, DiagnosticCode::kEmptySubexpression), 1u);
  // Only the *minimal* empty subterm is flagged; c<{}> (empty because its
  // child is) is not reported on top of it.
  const Diagnostic& d = report.diagnostics.front();
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.span.find("{}"), std::string::npos);
}

TEST_F(LintTest, EmbedEmptinessDecidedByCompilation) {
  // {} @z e2 is nonempty iff e2 has a z-free member — the structural rules
  // cannot answer that, so the compile-probe path must run. (b<%z>|c) has
  // the z-free member c, which survives even with nothing to substitute...
  LintReport report = LintExpression(ParseExpr("{} @z (b<%z>|c)"), vocab_);
  EXPECT_EQ(CountCode(report.diagnostics, DiagnosticCode::kEmptyExpression),
            0u);
  // ...while every member of b<%z> mentions z, so the embedding is empty.
  LintReport empty = LintExpression(ParseExpr("{} @z b<%z>"), vocab_);
  EXPECT_EQ(CountCode(empty.diagnostics, DiagnosticCode::kEmptyExpression),
            1u);
}

TEST_F(LintTest, AmbiguousExpressionGetsANote) {
  LintReport report = LintExpression(ParseExpr("a|a"), vocab_);
  ASSERT_EQ(
      CountCode(report.diagnostics, DiagnosticCode::kAmbiguousExpression),
      1u);
  EXPECT_EQ(report.max_severity(), Severity::kNote);

  LintReport clean = LintExpression(ParseExpr("(a|b)*"), vocab_);
  EXPECT_EQ(
      CountCode(clean.diagnostics, DiagnosticCode::kAmbiguousExpression), 0u);
}

TEST_F(LintTest, AmbiguityCheckCanBeDisabled) {
  LintOptions options;
  options.check_ambiguity = false;
  LintReport report = LintExpression(ParseExpr("a|a"), vocab_, options);
  EXPECT_EQ(
      CountCode(report.diagnostics, DiagnosticCode::kAmbiguousExpression),
      0u);
}

TEST_F(LintTest, BlowupRiskFlaggedOnAdversarialFamily) {
  // (a|b)* a (a|b)^(k-1): the classic 2^k witness for Theorem 1's
  // exponential lower bound. With the warning threshold lowered to 2^3 the
  // k=6 member must trip HQL201.
  std::string expr = "(a|b)* a";
  for (int i = 0; i < 5; ++i) expr += " (a|b)";
  LintOptions options;
  options.blowup_warn_log2 = 3;
  LintReport report = LintExpression(ParseExpr(expr), vocab_, options);
  EXPECT_GE(
      CountCode(report.diagnostics,
                DiagnosticCode::kDeterminizationBlowupRisk),
      1u);
  // A deterministic expression stays quiet even at the low threshold.
  LintReport clean = LintExpression(ParseExpr("a b c"), vocab_, options);
  EXPECT_EQ(CountCode(clean.diagnostics,
                      DiagnosticCode::kDeterminizationBlowupRisk),
            0u);
}

TEST_F(LintTest, ProfileEstimateGrowsWithTheFamily) {
  auto estimate = [&](int k) {
    std::string expr = "(a|b)* a";
    for (int i = 1; i < k; ++i) expr += " (a|b)";
    return ProfileNha(hre::CompileHre(ParseExpr(expr))).log2_h_estimate;
  };
  EXPECT_LT(estimate(2), estimate(8));
  // The estimate is a log2, so it must stay sane (<= worst case bound).
  NondetProfile p = ProfileNha(hre::CompileHre(ParseExpr("(a|b)* a (a|b)")));
  EXPECT_LE(p.log2_h_estimate, p.log2_h_worst);
  EXPECT_LE(p.nondet_branch_points, p.content_nfa_states);
}

// ---------------------------------------------------------------------------
// Automaton-level codes (HQL003, HQL101, HQL102).

TEST_F(LintTest, EmptyAutomatonIsAnError) {
  // The only rule needs its own target state: nothing is derivable.
  Nha nha;
  HState q0 = nha.AddState();
  nha.AddRule(vocab_.symbols.Intern("a"),
              strre::CompileRegex(strre::Sym(q0)), q0);
  nha.SetFinal(strre::CompileRegex(strre::Sym(q0)));

  std::vector<Diagnostic> out;
  LintNha(nha, LintOptions{}, "test automaton", out);
  ASSERT_EQ(CountCode(out, DiagnosticCode::kEmptyAutomaton), 1u);
  EXPECT_EQ(out.front().severity, Severity::kError);
  // Emptiness subsumes the hygiene findings; nothing else is reported.
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(LintTest, UnreachableStatesFlagged) {
  // q1 is underivable (self-recursive content); q2 carries the language.
  Nha nha;
  HState q1 = nha.AddState();
  HState q2 = nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  nha.AddRule(a, strre::CompileRegex(strre::Sym(q1)), q1);
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q2);
  nha.SetFinal(strre::CompileRegex(
      strre::Alt(strre::Sym(q1), strre::Sym(q2))));

  std::vector<Diagnostic> out;
  LintNha(nha, LintOptions{}, "test automaton", out);
  EXPECT_EQ(CountCode(out, DiagnosticCode::kUnreachableStates), 1u);
  EXPECT_EQ(CountCode(out, DiagnosticCode::kEmptyAutomaton), 0u);
}

TEST_F(LintTest, UselessStatesAboveThirtyPercentAreAWarning) {
  // All three states are derivable but only q0 is usable: 2/3 useless,
  // well above the 30% acceptance bar (and the 25% default warn ratio).
  Nha nha;
  HState q0 = nha.AddState();
  nha.AddState();
  nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  for (HState q = 0; q < 3; ++q) {
    nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q);
  }
  nha.SetFinal(strre::CompileRegex(strre::Sym(q0)));

  TrimReport trim = AnalyzeTrim(nha, LintOptions{});
  EXPECT_EQ(trim.states_before, 3u);
  EXPECT_EQ(trim.states_after, 1u);
  EXPECT_EQ(trim.unreachable, 0u);
  EXPECT_EQ(trim.useless, 2u);
  EXPECT_GE(trim.DeadFraction(), 0.3);
  // The probe determinizations ran (tiny automaton) and show the savings.
  EXPECT_GE(trim.probe_h_states_before, trim.probe_h_states_after);
  EXPECT_GT(trim.probe_h_states_after, 0u);

  std::vector<Diagnostic> out;
  LintNha(nha, LintOptions{}, "test automaton", out);
  ASSERT_EQ(CountCode(out, DiagnosticCode::kUselessStates), 1u);
  auto it = std::find_if(out.begin(), out.end(), [](const Diagnostic& d) {
    return d.code == DiagnosticCode::kUselessStates;
  });
  EXPECT_EQ(it->severity, Severity::kWarning);
}

TEST_F(LintTest, FewUselessStatesAreOnlyANote) {
  // 1 of 5 states useless (20%): below the 25% default, stays a note.
  Nha nha;
  for (int i = 0; i < 5; ++i) nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  // Chain: q0 <- a<q1...>, ..., q3 <- a<>; q4 derivable but unused.
  for (HState q = 0; q < 3; ++q) {
    nha.AddRule(a, strre::CompileRegex(strre::Sym(q + 1)), q);
  }
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), 3);
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), 4);
  nha.SetFinal(strre::CompileRegex(strre::Sym(0)));

  std::vector<Diagnostic> out;
  LintNha(nha, LintOptions{}, "test automaton", out);
  auto it = std::find_if(out.begin(), out.end(), [](const Diagnostic& d) {
    return d.code == DiagnosticCode::kUselessStates;
  });
  ASSERT_NE(it, out.end());
  EXPECT_EQ(it->severity, Severity::kNote);
}

TEST_F(LintTest, TrimmedAutomatonIsClean) {
  Nha pruned = automata::PruneNha(hre::CompileHre(ParseExpr("(a|b)* c")));
  std::vector<Diagnostic> out;
  LintNha(pruned, LintOptions{}, "test automaton", out);
  EXPECT_EQ(CountCode(out, DiagnosticCode::kUnreachableStates), 0u);
  EXPECT_EQ(CountCode(out, DiagnosticCode::kUselessStates), 0u);
}

// ---------------------------------------------------------------------------
// Schema-aware codes (HQL004, HQL301, HQL302).

TEST_F(LintTest, EmptySchemaIsAnError) {
  schema::Schema schema = ParseGrammar(
      "start = A\n"
      "A = a<A>\n");  // the rule chain never bottoms out
  LintReport report = LintSchema(schema, vocab_);
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(CountCode(report.diagnostics, DiagnosticCode::kEmptySchema), 1u);
}

TEST_F(LintTest, HealthySchemaHasNoErrors) {
  LintReport report = LintSchema(DocSchema(), vocab_);
  EXPECT_FALSE(report.has_errors());
}

TEST_F(LintTest, QueryUnsatisfiableUnderSchemaFlagged) {
  schema::Schema schema = DocSchema();
  // 'bogus' labels no node of any schema-valid document.
  query::SelectionQuery unsat = ParseQuery("select(*; bogus sec* doc)");
  auto report = LintQueryUnderSchema(schema, unsat, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(CountCode(report->diagnostics,
                      DiagnosticCode::kQueryUnsatisfiableUnderSchema),
            1u);
  EXPECT_TRUE(report->has_errors());
}

TEST_F(LintTest, StructurallyImpossibleQueryFlagged) {
  schema::Schema schema = DocSchema();
  // Every symbol exists, but para never directly contains doc's children:
  // a doc node is never below a para node.
  query::SelectionQuery unsat = ParseQuery("select(*; doc para sec doc)");
  auto report = LintQueryUnderSchema(schema, unsat, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(CountCode(report->diagnostics,
                      DiagnosticCode::kQueryUnsatisfiableUnderSchema),
            1u);
}

TEST_F(LintTest, SatisfiableQueryUnderSchemaIsClean) {
  schema::Schema schema = DocSchema();
  query::SelectionQuery sat = ParseQuery("select(*; para sec+ doc)");
  auto report = LintQueryUnderSchema(schema, sat, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(CountCode(report->diagnostics,
                      DiagnosticCode::kQueryUnsatisfiableUnderSchema),
            0u);
  EXPECT_FALSE(report->has_errors());
}

TEST_F(LintTest, SubsumedQueryFlaggedInOneDirectionOnly) {
  schema::Schema schema = DocSchema();
  // q1 requires exactly one sec ancestor level; q2 allows any. Since sec
  // nests, q2 strictly contains q1.
  query::SelectionQuery q1 = ParseQuery("select(*; para sec doc)");
  query::SelectionQuery q2 = ParseQuery("select(*; para sec+ doc)");
  auto report = LintQueryOverlap(schema, q1, q2, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(CountCode(report->diagnostics,
                      DiagnosticCode::kQuerySubsumedByQuery),
            1u);
  EXPECT_EQ(report->diagnostics.front().span, "q1 vs q2");
  EXPECT_EQ(report->diagnostics.front().severity, Severity::kWarning);
}

TEST_F(LintTest, EquivalentQueriesFlaggedBothWays) {
  schema::Schema schema = DocSchema();
  query::SelectionQuery q1 = ParseQuery("select(*; para sec+ doc)");
  query::SelectionQuery q2 = ParseQuery("select(*; para sec* sec doc)");
  auto report = LintQueryOverlap(schema, q1, q2, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(CountCode(report->diagnostics,
                      DiagnosticCode::kQuerySubsumedByQuery),
            2u);
}

// ---------------------------------------------------------------------------
// Pre-flight: lint a query before paying to compile it, and gate on
// ErrorStatus. The evaluators and transforms do not lint by themselves.

TEST_F(LintTest, EvaluatorPreflightRejectsImpossibleTriplet) {
  // The elder condition c<{}> denotes {}: the triplet can never match.
  query::SelectionQuery query =
      ParseQuery("select(*; [c<{}>; para; *] sec doc)");
  LintReport report = LintSelectionQuery(query, vocab_);
  EXPECT_EQ(ErrorStatus(report.diagnostics, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_GE(CountCode(report.diagnostics, DiagnosticCode::kEmptyExpression),
            1u);
  // Spans say where inside the query the dead condition sits.
  EXPECT_NE(report.diagnostics.front().span.find("elder"), std::string::npos);
}

TEST_F(LintTest, EvaluatorPreflightCanBeAdvisory) {
  query::SelectionQuery query =
      ParseQuery("select(*; [c<{}>; para; *] sec doc)");
  LintReport report = LintSelectionQuery(query, vocab_);
  EXPECT_TRUE(report.has_errors());  // findings surface
  // Only the caller's gate rejects: the evaluator still compiles.
  auto eval = query::SelectionEvaluator::Create(query);
  EXPECT_TRUE(eval.ok()) << eval.status().ToString();
}

TEST_F(LintTest, EvaluatorPreflightPassesCleanQueries) {
  query::SelectionQuery query = ParseQuery("select(*; para sec+ doc)");
  LintReport report = LintSelectionQuery(query, vocab_);
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(ErrorStatus(report.diagnostics, 0).ok());
  auto eval = query::SelectionEvaluator::Create(query);
  EXPECT_TRUE(eval.ok()) << eval.status().ToString();
}

TEST_F(LintTest, PhrEvaluatorPreflightRejectsEmptyCondition) {
  auto phr = phr::ParsePhr("[c<{}> a; para; *]", vocab_);
  ASSERT_TRUE(phr.ok()) << phr.status().ToString();
  LintReport report =
      LintSelectionQuery(query::SelectionQuery{nullptr, *phr}, vocab_);
  EXPECT_EQ(ErrorStatus(report.diagnostics, 0).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LintTest, TransformPreflightRejectsUnsatisfiableQuery) {
  schema::Schema schema = DocSchema();
  query::SelectionQuery unsat = ParseQuery("select(*; bogus sec* doc)");
  auto report = LintQueryUnderSchema(schema, unsat, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ErrorStatus(report->diagnostics, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CountCode(report->diagnostics,
                      DiagnosticCode::kQueryUnsatisfiableUnderSchema),
            1u);
  // The transform itself does not lint: it builds the product regardless.
  auto product = schema::BuildMatchIdentifyingProduct(schema, unsat);
  EXPECT_TRUE(product.ok()) << product.status().ToString();
}

TEST_F(LintTest, TransformPreflightPassesSatisfiableQuery) {
  schema::Schema schema = DocSchema();
  query::SelectionQuery sat = ParseQuery("select(*; para sec+ doc)");
  auto report = LintQueryUnderSchema(schema, sat, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(ErrorStatus(report->diagnostics, 0).ok());
  auto product = schema::BuildMatchIdentifyingProduct(schema, sat);
  EXPECT_TRUE(product.ok()) << product.status().ToString();
}

TEST_F(LintTest, ErrorStatusHonorsTheBeginIndex) {
  std::vector<Diagnostic> diagnostics(2);
  diagnostics[0].severity = Severity::kError;
  diagnostics[0].message = "stale";
  diagnostics[1].severity = Severity::kWarning;
  EXPECT_FALSE(ErrorStatus(diagnostics, 0).ok());
  EXPECT_TRUE(ErrorStatus(diagnostics, 1).ok());  // pre-existing error skipped
  EXPECT_TRUE(ErrorStatus(diagnostics, 2).ok());
}

// ---------------------------------------------------------------------------
// Diagnostics plumbing: names, formatting, JSON round trip.

TEST(DiagnosticsTest, EveryCodeHasStableUniqueNames) {
  const DiagnosticCode all[] = {
      DiagnosticCode::kEmptyExpression,
      DiagnosticCode::kEmptySubexpression,
      DiagnosticCode::kEmptyAutomaton,
      DiagnosticCode::kEmptySchema,
      DiagnosticCode::kUnreachableStates,
      DiagnosticCode::kUselessStates,
      DiagnosticCode::kDeterminizationBlowupRisk,
      DiagnosticCode::kAmbiguousExpression,
      DiagnosticCode::kQueryUnsatisfiableUnderSchema,
      DiagnosticCode::kQuerySubsumedByQuery,
  };
  std::vector<std::string> names;
  std::vector<std::string> slugs;
  for (DiagnosticCode code : all) {
    names.emplace_back(DiagnosticCodeName(code));
    slugs.emplace_back(DiagnosticCodeSlug(code));
    EXPECT_EQ(names.back().substr(0, 3), "HQL");
  }
  EXPECT_EQ(names.front(), "HQL001");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  std::sort(slugs.begin(), slugs.end());
  EXPECT_EQ(std::adjacent_find(slugs.begin(), slugs.end()), slugs.end());
}

TEST(DiagnosticsTest, FormatIsReadable) {
  Diagnostic d{Severity::kError, DiagnosticCode::kEmptyExpression, "a<{}>",
               "denotes the empty language", "remove the {} branch"};
  EXPECT_EQ(FormatDiagnostic(d),
            "error[HQL001] a<{}>: denotes the empty language "
            "(hint: remove the {} branch)");
}

TEST(DiagnosticsTest, JsonRoundTripsEveryCodeAndSeverity) {
  const DiagnosticCode all[] = {
      DiagnosticCode::kEmptyExpression,
      DiagnosticCode::kEmptySubexpression,
      DiagnosticCode::kEmptyAutomaton,
      DiagnosticCode::kEmptySchema,
      DiagnosticCode::kUnreachableStates,
      DiagnosticCode::kUselessStates,
      DiagnosticCode::kDeterminizationBlowupRisk,
      DiagnosticCode::kAmbiguousExpression,
      DiagnosticCode::kQueryUnsatisfiableUnderSchema,
      DiagnosticCode::kQuerySubsumedByQuery,
  };
  const Severity severities[] = {Severity::kNote, Severity::kWarning,
                                 Severity::kError};
  std::vector<Diagnostic> diagnostics;
  int i = 0;
  for (DiagnosticCode code : all) {
    Diagnostic d;
    d.severity = severities[i++ % 3];
    d.code = code;
    d.span = "span " + std::to_string(i);
    d.message = "msg with \"quotes\", back\\slash,\nnewline\tand tab";
    d.hint = i % 2 ? "" : "a hint\rwith control \x01 char";
    diagnostics.push_back(std::move(d));
  }
  std::string json = DiagnosticsToJson(diagnostics);
  auto parsed = ParseDiagnosticsJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  EXPECT_EQ(*parsed, diagnostics);
  // Serialization is deterministic: a second trip emits identical bytes.
  EXPECT_EQ(DiagnosticsToJson(*parsed), json);
}

TEST(DiagnosticsTest, EmptyReportRoundTrips) {
  auto parsed = ParseDiagnosticsJson(DiagnosticsToJson({}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());
}

TEST(DiagnosticsTest, MalformedJsonIsRejected) {
  for (const char* bad : {
           "",                                         // no array
           "{",                                        // not an array
           "[{]",                                      // broken object
           "[{\"severity\":\"error\"}]",               // missing code
           "[{\"code\":\"HQL001\"}]",                  // missing severity
           "[{\"severity\":\"fatal\",\"code\":\"HQL001\"}]",  // bad severity
           "[{\"severity\":\"error\",\"code\":\"HQL999\"}]",  // unknown code
           "[{\"severity\":\"error\",\"code\":\"HQL001\","
           "\"extra\":\"x\"}]",                        // unknown key
           "[{\"severity\":\"error\",\"code\":\"HQL001\"}] trailing",
       }) {
    auto parsed = ParseDiagnosticsJson(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(DiagnosticsTest, SeverityHelpers) {
  std::vector<Diagnostic> diagnostics(2);
  diagnostics[0].severity = Severity::kNote;
  diagnostics[1].severity = Severity::kWarning;
  EXPECT_FALSE(HasErrors(diagnostics));
  EXPECT_EQ(MaxSeverity(diagnostics), Severity::kWarning);
  diagnostics.push_back({});
  diagnostics.back().severity = Severity::kError;
  EXPECT_TRUE(HasErrors(diagnostics));
  EXPECT_EQ(MaxSeverity(diagnostics), Severity::kError);
  EXPECT_EQ(MaxSeverity({}), Severity::kNote);
}

}  // namespace
}  // namespace hedgeq::lint
