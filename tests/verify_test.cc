#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/analysis.h"
#include "automata/determinize.h"
#include "automata/lazy_dha.h"
#include "hre/ast.h"
#include "hre/compile.h"
#include "lint/diagnostics.h"
#include "phr/phr.h"
#include "query/phr_compile.h"
#include "query/selection.h"
#include "schema/match_identify.h"
#include "schema/schema.h"
#include "schema/transform.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "verify/certificate.h"
#include "verify/checker.h"
#include "verify/enumerate.h"
#include "verify/naive_match.h"
#include "verify/oracle.h"
#include "workload/generators.h"

namespace hedgeq::verify {
namespace {

using hedge::Hedge;
using hedge::Vocabulary;
using lint::Diagnostic;
using lint::DiagnosticCode;

bool HasCode(const std::vector<Diagnostic>& diagnostics,
             DiagnosticCode code) {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [code](const Diagnostic& d) { return d.code == code; });
}

std::string Render(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += lint::FormatDiagnostic(d) + "\n";
  }
  return out;
}

// Expressions covering every HRE construct, including the substitution
// forms (embed, vertical closure) the certificates must handle.
const char* const kSweep[] = {
    "()",
    "{}",
    "a",
    "$x",
    "a<b*>",
    "(a|b)* c<$x>",
    "a<(b|$x)* c?>+",
    "(b|c) @z a<%z>",
    "a<%z> @z a<%z>",
    "a<%z>*^z",
    "b @z (a<%z> a<%z>)^z",
    "(article<section* figure>|$x)*",
};

class VerifyTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  hre::Hre Parse(const std::string& text) {
    auto e = hre::ParseHre(text, vocab_);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  }

  Hedge ParseH(const std::string& text) {
    auto h = hedge::ParseHedge(text, vocab_);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    return std::move(h).value();
  }

  Vocabulary vocab_;
};

// --- Positive certification: the constructions' own witnesses check clean.

TEST_F(VerifyTest, PipelineCertifiesCleanAcrossSweep) {
  for (const char* text : kSweep) {
    SCOPED_TRACE(text);
    hre::Hre e = Parse(text);
    BudgetScope scope{ExecBudget{}};
    hre::CompileTrace trace;
    auto nha = hre::CompileHre(e, scope, &trace);
    ASSERT_TRUE(nha.ok()) << nha.status().ToString();
    EXPECT_EQ(Render(CheckCompile(e, *nha, trace)), "");

    automata::TrimWitness trim;
    automata::Nha trimmed = automata::PruneNha(*nha, nullptr, &trim);
    EXPECT_EQ(Render(CheckTrim(*nha, trimmed, trim)), "");

    automata::DeterminizeWitness witness;
    auto det = automata::Determinize(*nha, scope, &witness);
    ASSERT_TRUE(det.ok()) << det.status().ToString();
    EXPECT_EQ(Render(CheckDeterminize(*nha, *det, witness)), "");

    // The trimmed automaton must also certify.
    automata::DeterminizeWitness witness2;
    auto det2 = automata::Determinize(trimmed, scope, &witness2);
    ASSERT_TRUE(det2.ok());
    EXPECT_EQ(Render(CheckDeterminize(trimmed, *det2, witness2)), "");
  }
}

TEST_F(VerifyTest, LazyAuditCertifiesClean) {
  hre::Hre e = Parse("(a<b* $x>|b)*");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  automata::LazyDha lazy(*nha);
  std::vector<automata::LazyAuditEntry> audit;
  lazy.EnableAudit(&audit);
  for (const char* doc : {"", "b", "a<$x>", "a<b b $x> b", "a<a<$x>>"}) {
    lazy.Accepts(ParseH(doc));
  }
  EXPECT_FALSE(audit.empty());
  EXPECT_EQ(Render(CheckLazyAudit(*nha, audit)), "");
}

TEST_F(VerifyTest, ProjectionCertifiesCleanOnRandomDocs) {
  auto phr = phr::ParsePhr("[a0*; a1; *] (a0|a1|a2)*", vocab_);
  ASSERT_TRUE(phr.ok());
  auto compiled = query::CompilePhr(*phr);
  ASSERT_TRUE(compiled.ok());
  std::vector<hedge::SymbolId> symbols = {vocab_.symbols.Intern("a0"),
                                          vocab_.symbols.Intern("a1"),
                                          vocab_.symbols.Intern("a2")};
  std::vector<hedge::VarId> vars = {vocab_.variables.Intern("x")};
  schema::MatchIdentifying mi =
      schema::BuildMatchIdentifying(*compiled, symbols, vars);
  Rng rng(7);
  workload::RandomHedgeOptions options;
  options.num_symbols = 3;
  for (int i = 0; i < 20; ++i) {
    options.target_nodes = 1 + static_cast<size_t>(rng.Below(30));
    Hedge doc = workload::RandomHedge(rng, vocab_, options);
    EXPECT_EQ(Render(CheckProjection(mi, *compiled, doc)), "");
  }
}

TEST_F(VerifyTest, PhrWitnessCertifiesClean) {
  auto phr = phr::ParsePhr("[a0*; a1; *] (a0|a1|a2)*", vocab_);
  ASSERT_TRUE(phr.ok());
  BudgetScope scope{ExecBudget{}};
  query::PhrWitness witness;
  auto compiled = query::CompilePhr(*phr, scope, &witness);
  ASSERT_TRUE(compiled.ok());
  automata::Determinized det{compiled->dha(), compiled->subsets()};
  EXPECT_EQ(Render(CheckDeterminize(witness.union_nha, det, witness.det)),
            "");
}

// --- The seeded construction bug: flipped final acceptance must be caught
// by the checker (HQV003) and the differential oracle (HQV009).

TEST_F(VerifyTest, SeededFlipFinalCaughtByCheckerAndOracle) {
  hre::Hre e = Parse("a b*");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());

  failpoint::Arm("determinize/flip-final");
#ifdef HEDGEQ_CERTIFY
  // With inline certification linked in, the corrupted construction cannot
  // even return: the hook rejects the witness inside Determinize.
  {
    BudgetScope inline_scope{ExecBudget{}};
    auto rejected = automata::Determinize(*nha, inline_scope);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
  }
  // Stand the hook down so the bug can reach the checker and the oracle.
  automata::DeterminizeValidationHook saved =
      automata::GetDeterminizeValidationHook();
  automata::SetDeterminizeValidationHook(nullptr);
#endif

  automata::DeterminizeWitness witness;
  auto det = automata::Determinize(*nha, scope, &witness);
  ASSERT_TRUE(det.ok());
  std::vector<Diagnostic> diagnostics =
      CheckDeterminize(*nha, *det, witness);
  EXPECT_TRUE(HasCode(diagnostics, DiagnosticCode::kFinalSetInconsistent))
      << Render(diagnostics);
  EXPECT_FALSE(HasCode(diagnostics, DiagnosticCode::kDifferentialDisagreement));

  auto report = RunDifferentialOracle(e, vocab_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(HasCode(report->diagnostics,
                      DiagnosticCode::kDifferentialDisagreement))
      << Render(report->diagnostics);

  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  automata::SetDeterminizeValidationHook(saved);
#endif

  // Disarmed, both are clean again.
  automata::DeterminizeWitness clean_witness;
  BudgetScope scope2{ExecBudget{}};
  auto clean = automata::Determinize(*nha, scope2, &clean_witness);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(Render(CheckDeterminize(*nha, *clean, clean_witness)), "");
  auto clean_report = RunDifferentialOracle(e, vocab_);
  ASSERT_TRUE(clean_report.ok());
  EXPECT_EQ(Render(clean_report->diagnostics), "");
}

// --- Tamper detection: each corruption maps to its HQV code.

TEST_F(VerifyTest, TamperedHorizontalWitnessRejected) {
  hre::Hre e = Parse("a<b*>");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  automata::DeterminizeWitness witness;
  auto det = automata::Determinize(*nha, scope, &witness);
  ASSERT_TRUE(det.ok());
  ASSERT_FALSE(witness.h_sets.empty());
  Bitset& h0 = witness.h_sets[det->dha.h_start()];
  h0.Set(0);
  h0.Reset(1);  // guarantee a change whatever the set was
  std::vector<Diagnostic> diagnostics =
      CheckDeterminize(*nha, *det, witness);
  EXPECT_FALSE(diagnostics.empty());
}

TEST_F(VerifyTest, TamperedAssignmentRejected) {
  hre::Hre e = Parse("a");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  automata::DeterminizeWitness witness;
  auto det = automata::Determinize(*nha, scope, &witness);
  ASSERT_TRUE(det.ok());
  hedge::SymbolId a = *vocab_.symbols.Find("a");
  // 'a' assigned at the empty-children horizontal start must be nonempty;
  // redirect it to the sink.
  ASSERT_NE(det->dha.Assign(a, det->dha.h_start()), det->dha.sink());
  det->dha.SetAssign(a, det->dha.h_start(), det->dha.sink());
  std::vector<Diagnostic> diagnostics =
      CheckDeterminize(*nha, *det, witness);
  EXPECT_TRUE(HasCode(diagnostics, DiagnosticCode::kAssignmentIncoherent))
      << Render(diagnostics);
}

TEST_F(VerifyTest, TamperedTrimWitnessRejected) {
  hre::Hre e = Parse("(a|b<{}>)*");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  automata::TrimWitness witness;
  automata::Nha trimmed = automata::PruneNha(*nha, nullptr, &witness);
  ASSERT_GT(witness.useful.size(), 0u);
  if (witness.useful.Test(0)) {
    witness.useful.Reset(0);
  } else {
    witness.useful.Set(0);
  }
  std::vector<Diagnostic> diagnostics = CheckTrim(*nha, trimmed, witness);
  EXPECT_TRUE(HasCode(diagnostics, DiagnosticCode::kTrimWitnessMismatch))
      << Render(diagnostics);
}

TEST_F(VerifyTest, TamperedCompileTraceRejected) {
  hre::Hre e = Parse("a<b*> | $x");
  BudgetScope scope{ExecBudget{}};
  hre::CompileTrace trace;
  auto nha = hre::CompileHre(e, scope, &trace);
  ASSERT_TRUE(nha.ok());
  ASSERT_GE(trace.entries.size(), 2u);
  hre::CompileTrace wrong_order = trace;
  std::swap(wrong_order.entries[0], wrong_order.entries[1]);
  EXPECT_TRUE(HasCode(CheckCompile(e, *nha, wrong_order),
                      DiagnosticCode::kCompileWitnessRejected));
  hre::CompileTrace wrong_counts = trace;
  wrong_counts.entries.back().states_after += 1;
  EXPECT_TRUE(HasCode(CheckCompile(e, *nha, wrong_counts),
                      DiagnosticCode::kCompileWitnessRejected));
}

TEST_F(VerifyTest, TamperedLazyAuditRejected) {
  hre::Hre e = Parse("a<b*>");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  automata::LazyDha lazy(*nha);
  std::vector<automata::LazyAuditEntry> audit;
  lazy.EnableAudit(&audit);
  lazy.Accepts(ParseH("a<b>"));
  ASSERT_FALSE(audit.empty());
  automata::LazyAuditEntry& entry = audit.back();
  if (entry.result.size() > 0) {
    if (entry.result.Test(0)) {
      entry.result.Reset(0);
    } else {
      entry.result.Set(0);
    }
  }
  EXPECT_TRUE(HasCode(CheckLazyAudit(*nha, audit),
                      DiagnosticCode::kLazyAuditMismatch));
}

TEST_F(VerifyTest, MismatchedProjectionRejected) {
  auto phr = phr::ParsePhr("[a0*; a1; *] (a0|a1|a2)*", vocab_);
  ASSERT_TRUE(phr.ok());
  auto compiled = query::CompilePhr(*phr);
  ASSERT_TRUE(compiled.ok());
  std::vector<hedge::SymbolId> symbols = {vocab_.symbols.Intern("a0"),
                                          vocab_.symbols.Intern("a1"),
                                          vocab_.symbols.Intern("a2")};
  std::vector<hedge::VarId> vars = {vocab_.variables.Intern("x")};
  schema::MatchIdentifying mi =
      schema::BuildMatchIdentifying(*compiled, symbols, vars);
  // A compiled automaton for a different PHR over a disjoint alphabet: the
  // unique run cannot project onto its DHA's run.
  auto other = phr::ParsePhr("[b0*; b1; *] (b0|b1)*", vocab_);
  ASSERT_TRUE(other.ok());
  auto other_compiled = query::CompilePhr(*other);
  ASSERT_TRUE(other_compiled.ok());
  Hedge doc = ParseH("a0<> a1<> a2<$x>");
  std::vector<Diagnostic> diagnostics =
      CheckProjection(mi, *other_compiled, doc);
  EXPECT_TRUE(HasCode(diagnostics,
                      DiagnosticCode::kProjectionHomomorphismViolated))
      << Render(diagnostics);
}

// --- Certificates: round trip and malformed-input rejection.

TEST_F(VerifyTest, CertificateRoundTripsByteIdentically) {
  // The two-variable case pins canonical var ordering in SerializeNha
  // (var_map is unordered; a fuzz run caught the nondeterministic order).
  for (const char* text :
       {"a<b*> | c", "(b|c) @z a<%z>", "($xa|b)* c<$x a*>"}) {
    SCOPED_TRACE(text);
    hre::Hre e = Parse(text);
    BudgetScope scope{ExecBudget{}};
    auto nha = hre::CompileHre(e, scope);
    ASSERT_TRUE(nha.ok());

    auto det_cert = BuildDeterminizeCertificate(*nha, scope);
    ASSERT_TRUE(det_cert.ok()) << det_cert.status().ToString();
    EXPECT_EQ(Render(CheckCertificate(*det_cert)), "");
    std::string serialized = SerializeCertificate(*det_cert, vocab_);
    auto back = DeserializeCertificate(serialized, vocab_);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(SerializeCertificate(*back, vocab_), serialized);
    EXPECT_EQ(Render(CheckCertificate(*back)), "");

    Certificate trim_cert = BuildTrimCertificate(*nha);
    EXPECT_EQ(Render(CheckCertificate(trim_cert)), "");
    std::string trim_serialized = SerializeCertificate(trim_cert, vocab_);
    auto trim_back = DeserializeCertificate(trim_serialized, vocab_);
    ASSERT_TRUE(trim_back.ok()) << trim_back.status().ToString();
    EXPECT_EQ(SerializeCertificate(*trim_back, vocab_), trim_serialized);
    EXPECT_EQ(Render(CheckCertificate(*trim_back)), "");
  }
}

TEST_F(VerifyTest, MalformedCertificatesRejected) {
  hre::Hre e = Parse("a<b*>");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  auto cert = BuildDeterminizeCertificate(*nha, scope);
  ASSERT_TRUE(cert.ok());
  std::string good = SerializeCertificate(*cert, vocab_);

  EXPECT_FALSE(DeserializeCertificate("", vocab_).ok());
  EXPECT_FALSE(DeserializeCertificate("garbage\n", vocab_).ok());
  EXPECT_FALSE(DeserializeCertificate("cert 2 determinize\n", vocab_).ok());
  EXPECT_FALSE(DeserializeCertificate("cert 1 bogus\n", vocab_).ok());
  // Truncation anywhere must be caught by the line-count framing.
  for (size_t cut : {good.size() / 4, good.size() / 2, good.size() - 2}) {
    EXPECT_FALSE(DeserializeCertificate(good.substr(0, cut), vocab_).ok())
        << "cut at " << cut;
  }
  // Blown-up witness-set width: structurally parseable, so it may pass
  // deserialization, but then the independent checker must reject it.
  std::string corrupt = good;
  size_t pos = corrupt.find("\nset ");
  ASSERT_NE(pos, std::string::npos);
  corrupt.replace(pos, 5, "\nset 99999 ");
  auto corrupted = DeserializeCertificate(corrupt, vocab_);
  if (corrupted.ok()) {
    EXPECT_FALSE(CheckCertificate(*corrupted).empty());
  }
}

TEST_F(VerifyTest, DiagnosticsToStatusCollapsesFindings) {
  EXPECT_TRUE(DiagnosticsToStatus({}).ok());
  Diagnostic d;
  d.severity = lint::Severity::kError;
  d.code = DiagnosticCode::kFinalSetInconsistent;
  d.span = "final/0";
  d.message = "boom";
  Status status = DiagnosticsToStatus({d});
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("HQV003"), std::string::npos);
}

TEST_F(VerifyTest, HqvDiagnosticsRoundTripThroughJson) {
  std::vector<Diagnostic> diagnostics;
  Diagnostic d;
  d.severity = lint::Severity::kError;
  d.code = DiagnosticCode::kDifferentialDisagreement;
  d.span = "hedge/a<b>";
  d.message = "engines disagree: nha=1 eager=0";
  diagnostics.push_back(d);
  std::string json = lint::DiagnosticsToJson(diagnostics);
  auto back = lint::ParseDiagnosticsJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(lint::DiagnosticsToJson(*back), json);
  EXPECT_TRUE(HasCode(*back, DiagnosticCode::kDifferentialDisagreement));
}

// --- Enumeration: the recurrences and the enumerator must agree.

TEST_F(VerifyTest, EnumerationMatchesCountingRecurrences) {
  EnumVocab ev;
  ev.symbols = {vocab_.symbols.Intern("a"), vocab_.symbols.Intern("b")};
  ev.variables = {vocab_.variables.Intern("x")};
  ev.substs = {vocab_.substs.Intern("z")};
  EXPECT_EQ(CountHedges(ev, 0), 1u);
  EXPECT_EQ(CountTrees(ev, 1), 4u);
  for (size_t size = 0; size <= 4; ++size) {
    SCOPED_TRACE(size);
    size_t emitted = EnumerateHedges(ev, size, size_t{1} << 20,
                                     [&](const Hedge& h) {
                                       EXPECT_EQ(h.num_nodes(), size);
                                       return true;
                                     });
    EXPECT_EQ(emitted, CountHedges(ev, size));
  }
}

TEST_F(VerifyTest, SamplingIsSizedAndDeterministic) {
  EnumVocab ev;
  ev.symbols = {vocab_.symbols.Intern("a"), vocab_.symbols.Intern("b")};
  ev.variables = {vocab_.variables.Intern("x")};
  SplitMix64 rng1(42), rng2(42);
  for (int i = 0; i < 50; ++i) {
    Hedge h1 = SampleHedge(ev, 6, rng1);
    Hedge h2 = SampleHedge(ev, 6, rng2);
    EXPECT_EQ(h1.num_nodes(), 6u);
    EXPECT_TRUE(h1.EqualTo(h2));
  }
  EnumVocab empty;
  SplitMix64 rng3(1);
  EXPECT_TRUE(SampleHedge(empty, 3, rng3).empty());
}

// --- The naive reference matcher: pinned substitution semantics.

TEST_F(VerifyTest, NaiveMatcherPinnedSemantics) {
  struct Case {
    const char* expr;
    const char* hedge;
    bool expect;
  };
  const Case cases[] = {
      {"(b|c) @z a<%z>", "a<b>", true},
      {"(b|c) @z a<%z>", "a<c>", true},
      {"(b|c) @z a<%z>", "a<>", false},
      {"(b|c) @z a<%z>", "a<%z>", false},
      {"(b|c) @z a<%z>", "b", false},
      {"a<%z> @z a<%z>", "a<a<%z>>", true},
      {"a<%z> @z a<%z>", "a<%z>", false},
      {"a<%z> @z a<%z>", "a<a<b>>", false},
      {"a<%z>*^z", "", true},
      {"a<%z>*^z", "a<%z>", true},
      {"a<%z>*^z", "a<a<%z>>", true},
      {"a<%z>*^z", "a<a<%z> a<%z>>", true},
      {"a<%z>*^z", "b<%z>", false},
      {"a<%z>*^z", "%z", false},
      {"b @z (a<%z> a<%z>)^z", "a<b> a<b>", true},
      {"b @z (a<%z> a<%z>)^z", "a<a<b> a<b>> a<b>", true},
      {"b @z (a<%z> a<%z>)^z", "a<b>", false},
      {"b @z (a<%z> a<%z>)^z", "a<%z> a<%z>", false},
      {"$x*", "$x $x $x", true},
      {"$x*", "$x $y", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.expr) + " vs " + c.hedge);
    std::optional<bool> verdict = NaiveHreMatch(Parse(c.expr), ParseH(c.hedge));
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(*verdict, c.expect);
  }
}

TEST_F(VerifyTest, NaiveMatcherReportsUnknownOnBudget) {
  hre::Hre e = Parse("(a*)* (a*)* (a*)* (a*)*");
  Hedge h = ParseH("a a a a a a a a a a a a b");
  NaiveMatchOptions options;
  options.max_steps = 50;
  EXPECT_FALSE(NaiveHreMatch(e, h, options).has_value());
}

// --- The differential oracle.

TEST_F(VerifyTest, OracleCleanAcrossSweep) {
  for (const char* text : kSweep) {
    SCOPED_TRACE(text);
    hre::Hre e = Parse(text);
    OracleOptions options;
    options.max_size = 3;
    options.samples = 16;
    auto report = RunDifferentialOracle(e, vocab_, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(Render(report->diagnostics), "");
    EXPECT_GT(report->hedges_checked, 0u);
    EXPECT_GT(report->enumerated, 0u);
    EXPECT_TRUE(report->eager_available);
  }
}

TEST_F(VerifyTest, OracleCoversStreamingAndValidatorTiers) {
  hre::Hre e = Parse("doc<(sec|$x)*>");
  auto report = RunDifferentialOracle(e, vocab_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(Render(report->diagnostics), "");
  EXPECT_GT(report->streaming_checked, 0u);
  EXPECT_GT(report->validator_checked, 0u);
  EXPECT_GT(report->sampled, 0u);
}

// --- Counterexample shrinking (delta debugging over hedges).

TEST_F(VerifyTest, ShrinkHedgeReducesToTheFailureCore) {
  // Predicate: "some node is labelled `bad`". Deleting subtrees and
  // hoisting children must strip everything else away, leaving the single
  // 1-minimal node.
  hedge::SymbolId bad = vocab_.symbols.Intern("bad");
  Hedge start = ParseH("a<b c<bad d>> e");
  ASSERT_GT(start.num_nodes(), 1u);
  auto has_bad = [&](const Hedge& h) {
    for (hedge::NodeId n = 0; n < h.num_nodes(); ++n) {
      if (h.label(n).kind == hedge::LabelKind::kSymbol &&
          h.label(n).id == bad) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(has_bad(start));

  size_t checks = 0;
  Hedge small = ShrinkHedge(start, has_bad, /*max_checks=*/1024, &checks);
  EXPECT_EQ(small.num_nodes(), 1u) << small.ToString(vocab_);
  EXPECT_TRUE(has_bad(small)) << "shrinking must preserve the failure";
  EXPECT_GT(checks, 0u);
  EXPECT_LE(checks, 1024u);
}

TEST_F(VerifyTest, ShrinkHedgeRespectsTheCheckCap) {
  hedge::SymbolId bad = vocab_.symbols.Intern("bad");
  Hedge start = ParseH("a<b c<bad d>> e");
  auto has_bad = [&](const Hedge& h) {
    for (hedge::NodeId n = 0; n < h.num_nodes(); ++n) {
      if (h.label(n).kind == hedge::LabelKind::kSymbol &&
          h.label(n).id == bad) {
        return true;
      }
    }
    return false;
  };
  // A cap of 1 allows a single candidate; the result can shrink at most one
  // step, and the budget is reported as fully spent.
  size_t checks = 0;
  Hedge barely = ShrinkHedge(start, has_bad, /*max_checks=*/1, &checks);
  EXPECT_EQ(checks, 1u);
  EXPECT_GE(barely.num_nodes(), start.num_nodes() - 1);
  EXPECT_TRUE(has_bad(barely));

  // A zero cap returns the input untouched.
  Hedge untouched = ShrinkHedge(start, has_bad, /*max_checks=*/0, &checks);
  EXPECT_EQ(checks, 0u);
  EXPECT_EQ(untouched.num_nodes(), start.num_nodes());
}

TEST_F(VerifyTest, ShrinkHedgeIsOneMinimalForSparsePredicates) {
  // Predicate: "at least two `keep` nodes" — the minimum is two nodes, and
  // a 1-minimal shrink must land exactly there, never at one.
  hedge::SymbolId keep = vocab_.symbols.Intern("keep");
  Hedge start = ParseH("x<keep<y> z> keep w");
  auto two_keeps = [&](const Hedge& h) {
    size_t count = 0;
    for (hedge::NodeId n = 0; n < h.num_nodes(); ++n) {
      if (h.label(n).kind == hedge::LabelKind::kSymbol &&
          h.label(n).id == keep) {
        ++count;
      }
    }
    return count >= 2;
  };
  ASSERT_TRUE(two_keeps(start));
  Hedge small = ShrinkHedge(start, two_keeps, /*max_checks=*/1024);
  EXPECT_EQ(small.num_nodes(), 2u) << small.ToString(vocab_);
  EXPECT_TRUE(two_keeps(small));
}

TEST_F(VerifyTest, OracleShrinksItsCounterexamples) {
  // The seeded flip-final bug makes the engines disagree; with shrinking
  // on (the default), the reported hedge must itself still disagree and be
  // 1-minimal: removing any further node loses the disagreement. For this
  // bug the minimal counterexample is the empty hedge, which the
  // enumeration tier reaches first — so also check the option plumbing by
  // turning shrinking off.
  hre::Hre e = Parse("a b*");
#ifdef HEDGEQ_CERTIFY
  automata::DeterminizeValidationHook saved =
      automata::GetDeterminizeValidationHook();
  automata::SetDeterminizeValidationHook(nullptr);
#endif
  failpoint::Arm("determinize/flip-final");

  OracleOptions with_shrink;
  auto report = RunDifferentialOracle(e, vocab_, with_shrink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(HasCode(report->diagnostics,
                      DiagnosticCode::kDifferentialDisagreement))
      << Render(report->diagnostics);

  OracleOptions no_shrink;
  no_shrink.shrink = false;
  auto raw_report = RunDifferentialOracle(e, vocab_, no_shrink);
  ASSERT_TRUE(raw_report.ok());
  EXPECT_TRUE(HasCode(raw_report->diagnostics,
                      DiagnosticCode::kDifferentialDisagreement));
  EXPECT_EQ(raw_report->shrink_checks, 0u)
      << "shrink=false must not spend re-checks";

  // Every reported hedge is no larger than its no-shrink counterpart, and
  // the smallest finding is the truly minimal counterexample for this bug:
  // the empty hedge (rendered with an empty span suffix).
  ASSERT_FALSE(report->diagnostics.empty());
  EXPECT_EQ(report->diagnostics.front().span, "hedge/")
      << Render(report->diagnostics);

  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  automata::SetDeterminizeValidationHook(saved);
#endif
}

// --- Minimization certificates (HQV010).

TEST_F(VerifyTest, MinimizeCertifiesCleanAcrossSweep) {
  for (const char* text : kSweep) {
    SCOPED_TRACE(text);
    hre::Hre e = Parse(text);
    BudgetScope scope{ExecBudget{}};
    auto nha = hre::CompileHre(e, scope);
    ASSERT_TRUE(nha.ok());
    auto det = automata::Determinize(*nha, scope);
    ASSERT_TRUE(det.ok());
    automata::MinimizeWitness witness;
    automata::Dha minimal = automata::MinimizeDha(det->dha, &witness);
    EXPECT_EQ(Render(CheckMinimize(det->dha, minimal, witness)), "");
  }
}

TEST_F(VerifyTest, SeededNonBisimilarMergeCaughtByCheckMinimize) {
  hre::Hre e = Parse("(a<b*> | b<a*>)*");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  auto det = automata::Determinize(*nha, scope);
  ASSERT_TRUE(det.ok());
#ifdef HEDGEQ_CERTIFY
  // The inline minimize hook aborts on a rejected witness; stand it down
  // so the seeded bug reaches the independent checker.
  automata::MinimizeValidationHook saved =
      automata::GetMinimizeValidationHook();
  automata::SetMinimizeValidationHook(nullptr);
#endif
  failpoint::Arm("minimize/merge-nonbisimilar");
  automata::MinimizeWitness witness;
  automata::Dha merged = automata::MinimizeDha(det->dha, &witness);
  std::vector<Diagnostic> diagnostics =
      CheckMinimize(det->dha, merged, witness);
  EXPECT_TRUE(HasCode(diagnostics, DiagnosticCode::kMinimizeWitnessRejected))
      << Render(diagnostics);
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  automata::SetMinimizeValidationHook(saved);
#endif
  // Disarmed, the same pipeline certifies clean again.
  automata::MinimizeWitness clean;
  automata::Dha minimal = automata::MinimizeDha(det->dha, &clean);
  EXPECT_EQ(Render(CheckMinimize(det->dha, minimal, clean)), "");
}

TEST_F(VerifyTest, TamperedMinimizeWitnessRejected) {
  hre::Hre e = Parse("(a<b*> | b<a*>)*");
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(e, scope);
  ASSERT_TRUE(nha.ok());
  auto det = automata::Determinize(*nha, scope);
  ASSERT_TRUE(det.ok());
  automata::MinimizeWitness witness;
  automata::Dha minimal = automata::MinimizeDha(det->dha, &witness);
  ASSERT_GE(witness.qblock.size(), 2u);
  // Rerouting one input state to a different block must break either the
  // congruence or the final-language check — never pass silently.
  automata::MinimizeWitness tampered = witness;
  tampered.qblock[0] =
      (tampered.qblock[0] + 1) % minimal.num_states();
  EXPECT_FALSE(CheckMinimize(det->dha, minimal, tampered).empty());
}

// --- Theorem 4 product witnesses (HQV011).

TEST_F(VerifyTest, PhrProductWitnessCertifiesClean) {
  for (const char* text :
       {"[a0*; a1; *] (a0|a1|a2)*", "[(); a0; a1] [a1; a0; ()]",
        "[(a0|$x)*; a1; *] (a0|a1)*"}) {
    SCOPED_TRACE(text);
    auto phr = phr::ParsePhr(text, vocab_);
    ASSERT_TRUE(phr.ok());
    BudgetScope scope{ExecBudget{}};
    query::PhrWitness witness;
    auto compiled = query::CompilePhr(*phr, scope, &witness);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ(Render(CheckPhrProduct(*phr, *compiled, witness)), "");
  }
}

TEST_F(VerifyTest, TamperedPhrProductWitnessRejected) {
  auto phr = phr::ParsePhr("[a0*; a1; *] (a0|a1|a2)*", vocab_);
  ASSERT_TRUE(phr.ok());
  BudgetScope scope{ExecBudget{}};
  query::PhrWitness witness;
  auto compiled = query::CompilePhr(*phr, scope, &witness);
  ASSERT_TRUE(compiled.ok());
  // Claiming the elder-class component accepts everything breaks the
  // saturation tables against the recomputed component acceptance.
  query::PhrWitness tampered = witness;
  ASSERT_FALSE(tampered.elder_any.empty());
  tampered.elder_any[0] = !tampered.elder_any[0];
  std::vector<Diagnostic> diagnostics =
      CheckPhrProduct(*phr, *compiled, tampered);
  EXPECT_FALSE(diagnostics.empty());
}

TEST_F(VerifyTest, SeededMirrorRowFlipRejected) {
  // N is what Locate steps: a start row flipped between dead and live
  // entries must make N disagree with the reversed-subset simulation of L,
  // even though every other compiled automaton is intact.
#ifdef HEDGEQ_CERTIFY
  query::PhrProductValidationHook saved = query::GetPhrProductValidationHook();
  query::SetPhrProductValidationHook(nullptr);
#endif
  for (const char* text :
       {"[a0*; a1; *] (a0|a1|a2)*", "a1 a0*", "[(); a0; a1] [a1; a0; ()]"}) {
    SCOPED_TRACE(text);
    auto phr = phr::ParsePhr(text, vocab_);
    ASSERT_TRUE(phr.ok());
    BudgetScope scope{ExecBudget{}};
    query::PhrWitness witness;
    failpoint::Arm("phr/mirror-flip-row");
    auto compiled = query::CompilePhr(*phr, scope, &witness);
    failpoint::DisarmAll();
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<Diagnostic> diagnostics =
        CheckPhrProduct(*phr, *compiled, witness);
    EXPECT_TRUE(HasCode(diagnostics, DiagnosticCode::kPhrProductIncoherent))
        << Render(diagnostics);
  }
#ifdef HEDGEQ_CERTIFY
  query::SetPhrProductValidationHook(saved);
#endif
}

// --- Containment certificates (HQV012).

constexpr const char* kContainGrammar =
    "start = Doc\nDoc = doc<A*>\nA = a<B*>\nB = b<>\n";

TEST_F(VerifyTest, ContainmentCertificateBothVerdictsCheckClean) {
  auto schema = schema::ParseSchema(kContainGrammar, vocab_);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  const char* at_least_one = "select(a<b b*>; [(); doc; ()])";
  const char* exactly_one = "select(a<b>; [(); doc; ()])";

  auto contained = BuildContainmentCertificate(*schema, exactly_one,
                                               at_least_one, vocab_);
  ASSERT_TRUE(contained.ok()) << contained.status().ToString();
  EXPECT_TRUE(contained->containment.contained);
  EXPECT_EQ(Render(CheckCertificate(*contained)), "");

  auto separated = BuildContainmentCertificate(*schema, at_least_one,
                                               exactly_one, vocab_);
  ASSERT_TRUE(separated.ok());
  EXPECT_FALSE(separated->containment.contained);
  ASSERT_TRUE(separated->containment.counterexample.has_value());
  EXPECT_EQ(Render(CheckCertificate(*separated)), "");
}

TEST_F(VerifyTest, SeededFlippedContainmentVerdictCaught) {
  auto schema = schema::ParseSchema(kContainGrammar, vocab_);
  ASSERT_TRUE(schema.ok());
#ifdef HEDGEQ_CERTIFY
  schema::ContainmentValidationHook saved =
      schema::GetContainmentValidationHook();
  schema::SetContainmentValidationHook(nullptr);
#endif
  failpoint::Arm("containment/flip-verdict");
  auto cert = BuildContainmentCertificate(
      *schema, "select(a<b b*>; [(); doc; ()])",
      "select(a<b>; [(); doc; ()])", vocab_);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  // The flip turned a separation into a claimed containment; the marked
  // fixpoint replay must find the separating product state.
  EXPECT_TRUE(cert->containment.contained);
  std::vector<Diagnostic> diagnostics = CheckCertificate(*cert);
  EXPECT_TRUE(
      HasCode(diagnostics, DiagnosticCode::kContainmentCertificateRejected))
      << Render(diagnostics);
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  schema::SetContainmentValidationHook(saved);
#endif
}

TEST_F(VerifyTest, NewCertificateKindsRoundTripByteIdentically) {
  // Minimize: build from a determinized sweep expression.
  for (const char* text : {"a<b*> | c", "(a<b*> | b<a*>)*"}) {
    SCOPED_TRACE(text);
    hre::Hre e = Parse(text);
    BudgetScope scope{ExecBudget{}};
    auto nha = hre::CompileHre(e, scope);
    ASSERT_TRUE(nha.ok());
    auto det = automata::Determinize(*nha, scope);
    ASSERT_TRUE(det.ok());
    Certificate cert = BuildMinimizeCertificate(det->dha);
    EXPECT_EQ(Render(CheckCertificate(cert)), "");
    std::string serialized = SerializeCertificate(cert, vocab_);
    auto back = DeserializeCertificate(serialized, vocab_);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(SerializeCertificate(*back, vocab_), serialized);
    EXPECT_EQ(Render(CheckCertificate(*back)), "");
  }
  // Containment: both verdict shapes (with and without a counterexample).
  auto schema = schema::ParseSchema(kContainGrammar, vocab_);
  ASSERT_TRUE(schema.ok());
  const char* q1 = "select(a<b b*>; [(); doc; ()])";
  const char* q2 = "select(a<b>; [(); doc; ()])";
  for (bool forward : {true, false}) {
    SCOPED_TRACE(forward);
    auto cert = forward
                    ? BuildContainmentCertificate(*schema, q1, q2, vocab_)
                    : BuildContainmentCertificate(*schema, q2, q1, vocab_);
    ASSERT_TRUE(cert.ok());
    std::string serialized = SerializeCertificate(*cert, vocab_);
    auto back = DeserializeCertificate(serialized, vocab_);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(SerializeCertificate(*back, vocab_), serialized);
    EXPECT_EQ(Render(CheckCertificate(*back)), "");
  }
}

// --- The selection-semantics oracle (HQV013).

TEST_F(VerifyTest, SelectionOracleCleanOnRepresentativeQueries) {
  for (const char* text :
       {"select(a<b*>; [(); doc; ()])",
        "select((b|$x)*; [(); a; b] [b; a; ()])", "select(*; a (a|b)*)"}) {
    SCOPED_TRACE(text);
    auto query = query::ParseSelectionQuery(text, vocab_);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    OracleOptions options;
    options.max_size = 3;
    options.samples = 8;
    auto report = RunSelectionOracle(*query, vocab_, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(Render(report->diagnostics), "");
    EXPECT_GT(report->hedges_checked, 0u);
    EXPECT_GT(report->enumerated, 0u);
  }
}

TEST_F(VerifyTest, SeededWrongSelectionCaughtAndShrunk) {
  auto query =
      query::ParseSelectionQuery("select(a<b*>; [(); doc; ()])", vocab_);
  ASSERT_TRUE(query.ok());
  failpoint::Arm("phr/select-wrong-node");
  OracleOptions options;
  options.max_size = 3;
  options.samples = 4;
  auto report = RunSelectionOracle(*query, vocab_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(
      HasCode(report->diagnostics, DiagnosticCode::kSelectionDisagreement))
      << Render(report->diagnostics);
  EXPECT_GT(report->shrink_checks, 0u);
  // At least one 3-node disagreement must have been delta-debugged down,
  // and the finding records the pre-shrink hedge for reproduction.
  EXPECT_NE(Render(report->diagnostics).find("shrunk from"),
            std::string::npos)
      << Render(report->diagnostics);
  failpoint::DisarmAll();

  // Disarmed, the same query cross-checks clean.
  auto clean = RunSelectionOracle(*query, vocab_, options);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(Render(clean->diagnostics), "");
}

TEST_F(VerifyTest, ShrunkSelectionCounterexampleIsMinimalAndReproduces) {
  // Shrink a seeded selection disagreement by hand with the public
  // ShrinkHedge + engine panel, mirroring what the oracle does: the result
  // must still disagree (reproduction) and be 1-minimal for this bug — a
  // single parent over the flipped symbol node.
  auto query =
      query::ParseSelectionQuery("select(a<b*>; [(); doc; ()])", vocab_);
  ASSERT_TRUE(query.ok());
  auto evaluator = query::SelectionEvaluator::Create(*query);
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  auto disagrees = [&](const Hedge& h) {
    std::vector<bool> eager = evaluator->Locate(h);
    std::optional<std::vector<bool>> naive = NaiveSelectionLocate(*query, h);
    return naive.has_value() && eager != *naive;
  };

  failpoint::Arm("phr/select-wrong-node");
  // Node 0's content matches the subhedge, so the flipped envelope mark is
  // visible through the conjunction with the subhedge marks.
  Hedge start = ParseH("doc<a<b b>> b");
  ASSERT_TRUE(disagrees(start));
  size_t checks = 0;
  Hedge small = ShrinkHedge(start, disagrees, /*max_checks=*/512, &checks);
  EXPECT_TRUE(disagrees(small)) << small.ToString(vocab_);
  EXPECT_LT(small.num_nodes(), start.num_nodes());
  // 1-minimal for this bug: a subhedge-matching node needs one child, so
  // two nodes is the floor and the shrinker must land exactly there.
  EXPECT_EQ(small.num_nodes(), 2u) << small.ToString(vocab_);
  EXPECT_GT(checks, 0u);
  failpoint::DisarmAll();
  EXPECT_FALSE(disagrees(small)) << "disarmed engines must agree again";
}

// --- The naive selection enumerator: pinned Definition 22 semantics.

TEST_F(VerifyTest, NaiveSelectionLocatePinnedSemantics) {
  auto query =
      query::ParseSelectionQuery("select(a<b*>; [(); doc; ()])", vocab_);
  ASSERT_TRUE(query.ok());
  struct Case {
    const char* hedge;
    std::vector<hedge::NodeId> expect;
  };
  const Case cases[] = {
      // The doc node's content matches a<b*> and its envelope (no elder,
      // no younger, root) matches [(); doc; ()].
      {"doc<a>", {0}},
      {"doc<a<b b>>", {0}},  // the subhedge allows any number of bs
      {"doc<a<c>>", {}},     // content does not match the subhedge
      {"a", {}},             // wrong label for the envelope triplet
      {"doc<a> doc<a>", {}},  // siblings break the () elder/younger regexes
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.hedge);
    Hedge h = ParseH(c.hedge);
    std::optional<std::vector<bool>> located =
        NaiveSelectionLocate(*query, h);
    ASSERT_TRUE(located.has_value());
    std::vector<hedge::NodeId> got;
    for (hedge::NodeId n = 0; n < h.num_nodes(); ++n) {
      if ((*located)[n]) got.push_back(n);
    }
    EXPECT_EQ(got, c.expect);
  }
}

}  // namespace
}  // namespace hedgeq::verify
