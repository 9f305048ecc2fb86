// Light-vs-full checker parity (HQV016 machinery): the hash-witness light
// checker must accept every certificate kind the full checker accepts,
// reject every seeded construction bug the full checker rejects, and — the
// one place the two differ — catch digest-chain tampering that the full
// checker, which re-derives everything from the stored sets and never
// consults the chain, cannot see.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/determinize.h"
#include "hre/ast.h"
#include "hre/compile.h"
#include "hre/from_nha.h"
#include "lint/diagnostics.h"
#include "phr/phr.h"
#include "query/phr_compile.h"
#include "query/selection.h"
#include "schema/algebra.h"
#include "schema/schema.h"
#include "util/failpoint.h"
#include "verify/certificate.h"
#include "verify/checker.h"
#include "verify/oracle.h"

namespace hedgeq::verify {
namespace {

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

constexpr const char* kContainGrammar =
    "start = Doc\nDoc = doc<A*>\nA = a<B*>\nB = b<>\n";

class LightCheckTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  hre::Hre Parse(const std::string& text) {
    auto e = hre::ParseHre(text, vocab_);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  }

  schema::Schema ParseS(const std::string& text) {
    auto s = schema::ParseSchema(text, vocab_);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return std::move(s).value();
  }

  automata::Nha Compile(const std::string& text) {
    hre::Hre e = Parse(text);
    BudgetScope scope{ExecBudget{}};
    auto nha = hre::CompileHre(e, scope);
    EXPECT_TRUE(nha.ok()) << nha.status().ToString();
    return std::move(nha).value();
  }

  // Both check modes accept `cert`, directly and after a serialization
  // round trip (the cache revalidates deserialized certificates, so parity
  // on the round-tripped form is what actually matters).
  void ExpectBothModesAccept(const Certificate& cert) {
    EXPECT_EQ(Render(CheckCertificate(cert)), "");
    EXPECT_EQ(Render(CheckCertificateLight(cert)), "");
    std::string serialized = SerializeCertificate(cert, vocab_);
    auto back = DeserializeCertificate(serialized, vocab_);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(Render(CheckCertificate(*back)), "");
    EXPECT_EQ(Render(CheckCertificateLight(*back)), "");
  }

  void ExpectBothModesReject(const Certificate& cert, DiagnosticCode code) {
    std::vector<Diagnostic> full = CheckCertificate(cert);
    EXPECT_TRUE(HasCode(full, code)) << Render(full);
    std::vector<Diagnostic> light = CheckCertificateLight(cert);
    EXPECT_TRUE(HasCode(light, code)) << Render(light);
  }

  Vocabulary vocab_;
};

// --- Parity on clean certificates: every kind, both modes.

TEST_F(LightCheckTest, EveryCertificateKindAcceptedByBothModes) {
  BudgetScope scope{ExecBudget{}};

  for (const char* text : {"a<b*> | c", "(a|b)* c<$x>", "a<%z>*^z"}) {
    SCOPED_TRACE(text);
    automata::Nha nha = Compile(text);
    auto det_cert = BuildDeterminizeCertificate(nha, scope);
    ASSERT_TRUE(det_cert.ok()) << det_cert.status().ToString();
    ExpectBothModesAccept(*det_cert);
    ExpectBothModesAccept(BuildTrimCertificate(nha));
    auto det = automata::Determinize(nha, scope);
    ASSERT_TRUE(det.ok());
    ExpectBothModesAccept(BuildMinimizeCertificate(det->dha));
  }

  {
    automata::Nha nha = Compile("a<b*> | c");
    auto cert = BuildFromNhaCertificate(nha, vocab_);
    ASSERT_TRUE(cert.ok()) << cert.status().ToString();
    ExpectBothModesAccept(*cert);
  }

  {
    auto schema = schema::ParseSchema(kContainGrammar, vocab_);
    ASSERT_TRUE(schema.ok());
    const char* q1 = "select(a<b b*>; [(); doc; ()])";
    const char* q2 = "select(a<b>; [(); doc; ()])";
    for (bool forward : {true, false}) {
      SCOPED_TRACE(forward);
      auto cert =
          forward ? BuildContainmentCertificate(*schema, q1, q2, vocab_)
                  : BuildContainmentCertificate(*schema, q2, q1, vocab_);
      ASSERT_TRUE(cert.ok()) << cert.status().ToString();
      ExpectBothModesAccept(*cert);
    }
  }

  {
    schema::Schema a = ParseS("start = A+\nA = a<>");
    schema::Schema b = ParseS("start = X X\nX = a<>\nX = b<>");
    for (schema::AlgebraOp op :
         {schema::AlgebraOp::kIntersect, schema::AlgebraOp::kUnion,
          schema::AlgebraOp::kDifference}) {
      SCOPED_TRACE(static_cast<int>(op));
      auto cert = BuildAlgebraCertificate(a, b, op);
      ASSERT_TRUE(cert.ok()) << cert.status().ToString();
      ExpectBothModesAccept(*cert);
    }
  }
}

// --- Parity on seeded bugs: each certificate-carried failpoint must be
// rejected under its own HQV code by BOTH modes (light re-derives the
// lifted final DFA and falls through to the full checker for non-chain
// kinds, so no seeded bug may slip through in light mode).

TEST_F(LightCheckTest, SeededFlipFinalRejectedByBothModes) {
  automata::Nha nha = Compile("a b*");
#ifdef HEDGEQ_CERTIFY
  automata::DeterminizeValidationHook saved =
      automata::GetDeterminizeValidationHook();
  automata::SetDeterminizeValidationHook(nullptr);
#endif
  failpoint::Arm("determinize/flip-final");
  BudgetScope scope{ExecBudget{}};
  auto cert = BuildDeterminizeCertificate(nha, scope);
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  automata::SetDeterminizeValidationHook(saved);
#endif
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  ExpectBothModesReject(*cert, DiagnosticCode::kFinalSetInconsistent);
}

TEST_F(LightCheckTest, SeededNonBisimilarMergeRejectedByBothModes) {
  automata::Nha nha = Compile("(a<b*> | b<a*>)*");
  BudgetScope scope{ExecBudget{}};
  auto det = automata::Determinize(nha, scope);
  ASSERT_TRUE(det.ok());
#ifdef HEDGEQ_CERTIFY
  automata::MinimizeValidationHook saved =
      automata::GetMinimizeValidationHook();
  automata::SetMinimizeValidationHook(nullptr);
#endif
  failpoint::Arm("minimize/merge-nonbisimilar");
  Certificate cert = BuildMinimizeCertificate(det->dha);
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  automata::SetMinimizeValidationHook(saved);
#endif
  ExpectBothModesReject(cert, DiagnosticCode::kMinimizeWitnessRejected);
}

TEST_F(LightCheckTest, SeededFlippedVerdictRejectedByBothModes) {
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
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  schema::SetContainmentValidationHook(saved);
#endif
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  ExpectBothModesReject(*cert,
                        DiagnosticCode::kContainmentCertificateRejected);
}

TEST_F(LightCheckTest, SeededDroppedAlternativeRejectedByBothModes) {
  automata::Nha nha = Compile("a<b*> | c");
#ifdef HEDGEQ_CERTIFY
  hre::FromNhaValidationHook saved = hre::GetFromNhaValidationHook();
  hre::SetFromNhaValidationHook(nullptr);
#endif
  failpoint::Arm("from_nha/drop-alternative");
  auto cert = BuildFromNhaCertificate(nha, vocab_);
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  hre::SetFromNhaValidationHook(saved);
#endif
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  ExpectBothModesReject(*cert, DiagnosticCode::kFromNhaWitnessRejected);
}

TEST_F(LightCheckTest, SeededDroppedProductRuleRejectedByBothModes) {
  schema::Schema a = ParseS("start = A+\nA = a<>");
  schema::Schema b = ParseS("start = X X\nX = a<>\nX = b<>");
#ifdef HEDGEQ_CERTIFY
  schema::AlgebraValidationHook saved = schema::GetAlgebraValidationHook();
  schema::SetAlgebraValidationHook(nullptr);
#endif
  failpoint::Arm("algebra/drop-rule");
  auto cert =
      BuildAlgebraCertificate(a, b, schema::AlgebraOp::kIntersect);
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  schema::SetAlgebraValidationHook(saved);
#endif
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  ExpectBothModesReject(*cert, DiagnosticCode::kAlgebraWitnessRejected);
}

TEST_F(LightCheckTest, SeededMirrorRowFlipCaughtRegardlessOfCheckMode) {
  // N is rebuilt on every compile and never travels through a certificate
  // or the cache, so the check mode cannot weaken its check: a flipped row
  // of N is rejected under HQV011 by CheckPhrProduct whichever mode the
  // cache uses.
#ifdef HEDGEQ_CERTIFY
  query::PhrProductValidationHook saved = query::GetPhrProductValidationHook();
  query::SetPhrProductValidationHook(nullptr);
#endif
  auto phr = phr::ParsePhr("[(); doc; *] (doc|a)*", vocab_);
  ASSERT_TRUE(phr.ok());
  BudgetScope scope{ExecBudget{}};
  query::PhrWitness witness;
  failpoint::Arm("phr/mirror-flip-row");
  auto compiled = query::CompilePhr(*phr, scope, &witness);
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  query::SetPhrProductValidationHook(saved);
#endif
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::vector<Diagnostic> diagnostics =
      CheckPhrProduct(*phr, *compiled, witness);
  EXPECT_TRUE(HasCode(diagnostics, DiagnosticCode::kPhrProductIncoherent))
      << Render(diagnostics);
}

TEST_F(LightCheckTest, SeededWrongSelectionCaughtRegardlessOfCheckMode) {
  // Selection verdicts never travel through certificates, so the cache's
  // check mode cannot weaken them: the wrong-node failpoint is caught by
  // the selection-semantics oracle (HQV013) exactly as in full mode.
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
}

// --- The one asymmetry: digest-chain tampering. The full checker
// re-derives everything from the stored sets and never reads the chain;
// only the light checker recomputes it (HQV016).

TEST_F(LightCheckTest, TamperedDigestChainCaughtOnlyByLightChecker) {
  automata::Nha nha = Compile("a<b*> | c");
  BudgetScope scope{ExecBudget{}};
  auto cert = BuildDeterminizeCertificate(nha, scope);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  ASSERT_FALSE(cert->det.chain.empty())
      << "determinize witnesses must record a digest chain";

  Certificate tampered = *cert;
  std::string& link = tampered.det.chain[tampered.det.chain.size() / 2];
  link[0] = link[0] == '0' ? '1' : '0';

  EXPECT_EQ(Render(CheckCertificate(tampered)), "")
      << "the full checker never consults the chain";
  std::vector<Diagnostic> light = CheckCertificateLight(tampered);
  EXPECT_TRUE(HasCode(light, DiagnosticCode::kDigestChainMismatch))
      << Render(light);

  // A truncated chain (wrong link count) is equally rejected.
  Certificate truncated = *cert;
  truncated.det.chain.pop_back();
  EXPECT_TRUE(HasCode(CheckCertificateLight(truncated),
                      DiagnosticCode::kDigestChainMismatch));

  // And the untampered certificate stays clean in both modes.
  ExpectBothModesAccept(*cert);
}

}  // namespace
}  // namespace hedgeq::verify
