// End-to-end robustness: hostile inputs (nesting bombs, oversized
// documents, bad character references) fail with clean Statuses, and
// adversarial queries/schemas whose eager determinization blows a small
// ExecBudget still evaluate correctly through the lazy engines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/determinize.h"
#include "hre/ast.h"
#include "phr/phr.h"
#include "query/evaluator.h"
#include "query/phr_compile.h"
#include "schema/schema.h"
#include "schema/streaming.h"
#include "strre/regex.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/generators.h"
#include "xml/xml.h"

namespace hedgeq {
namespace {

using hedge::Hedge;
using hedge::Vocabulary;

// ---------------------------------------------------------------------------
// XML resource limits.

class CountingHandler : public xml::XmlHandler {
 public:
  Status StartElement(hedge::SymbolId) override {
    ++starts;
    return Status::Ok();
  }
  Status EndElement(hedge::SymbolId) override { return Status::Ok(); }
  Status Text(hedge::VarId, std::string_view) override { return Status::Ok(); }
  size_t starts = 0;
};

TEST(XmlRobustnessTest, NestingBombFailsCleanlyInBothParsers) {
  // 100k nested opens would overflow the native stack without the depth
  // cap; with it, both parsers stop at max_depth with a clean Status.
  std::string bomb;
  bomb.reserve(300000);
  for (int i = 0; i < 100000; ++i) bomb += "<a>";
  Vocabulary vocab;

  auto doc = xml::ParseXml(bomb, vocab);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doc.status().message().find("max_depth"), std::string::npos)
      << doc.status().ToString();

  CountingHandler handler;
  Status s = xml::ParseXmlStream(bomb, vocab, handler);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("max_depth"), std::string::npos);
  // The stream got exactly as deep as the cap allows before stopping.
  EXPECT_LE(handler.starts, xml::XmlParseOptions{}.max_depth);
}

TEST(XmlRobustnessTest, DepthLimitIsConfigurable) {
  std::string nested;
  for (int i = 0; i < 50; ++i) nested += "<a>";
  for (int i = 0; i < 50; ++i) nested += "</a>";
  Vocabulary vocab;
  EXPECT_TRUE(xml::ParseXml(nested, vocab).ok());
  xml::XmlParseOptions tight;
  tight.max_depth = 10;
  auto doc = xml::ParseXml(nested, vocab, tight);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
}

TEST(XmlRobustnessTest, InputSizeCapRejectsBeforeParsing) {
  Vocabulary vocab;
  xml::XmlParseOptions options;
  options.max_input_bytes = 16;
  std::string big = "<a>" + std::string(100, 'x') + "</a>";
  auto doc = xml::ParseXml(big, vocab, options);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doc.status().message().find("max_input_bytes"), std::string::npos)
      << doc.status().ToString();
  CountingHandler handler;
  Status s = xml::ParseXmlStream(big, vocab, handler, options);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(handler.starts, 0u);
  // Within the cap everything still parses.
  EXPECT_TRUE(xml::ParseXml("<a>x</a>", vocab, options).ok());
}

TEST(XmlRobustnessTest, BadCharacterReferencesAreRejected) {
  Vocabulary vocab;
  for (const char* payload :
       {"&#x110000;",  // beyond U+10FFFF
        "&#xD800;",    // surrogate half
        "&#0;",        // NUL is not an XML character
        "&#;",         // no digits
        "&#x;",        // no hex digits
        "&#99999999999999999999;"}) {  // overflows any integer type
    std::string doc = std::string("<a>") + payload + "</a>";
    auto parsed = xml::ParseXml(doc, vocab);
    ASSERT_FALSE(parsed.ok()) << payload;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << payload << ": " << parsed.status().ToString();
  }
  // Sane references still work.
  auto ok = xml::ParseXml("<a>&#65;&#x1F600;</a>", vocab);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ---------------------------------------------------------------------------
// Expression-parser nesting bombs (HRE, string regex, PHR).

TEST(ParserRobustnessTest, HreNestingBombFailsCleanly) {
  std::string bomb(100000, '(');
  bomb += "a";
  bomb.append(100000, ')');
  Vocabulary vocab;
  auto e = hre::ParseHre(bomb, vocab);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kResourceExhausted);
  // Reasonable nesting is untouched.
  std::string fine(100, '(');
  fine += "a";
  fine.append(100, ')');
  EXPECT_TRUE(hre::ParseHre(fine, vocab).ok());
}

TEST(ParserRobustnessTest, RegexNestingBombFailsCleanly) {
  std::string bomb(100000, '(');
  bomb += "a";
  bomb.append(100000, ')');
  auto resolve = [](std::string_view) { return strre::Symbol{0}; };
  auto r = strre::ParseRegex(bomb, resolve);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  std::string fine(100, '(');
  fine += "a";
  fine.append(100, ')');
  EXPECT_TRUE(strre::ParseRegex(fine, resolve).ok());
}

TEST(ParserRobustnessTest, PhrNestingBombFailsCleanly) {
  std::string bomb(100000, '(');
  bomb += "a";
  bomb.append(100000, ')');
  Vocabulary vocab;
  auto p = phr::ParsePhr(bomb, vocab);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Adversarial determinization: the k-th-tree-from-the-end family needs
// 2^k horizontal states eagerly but only O(per-document) work lazily.

// "the k-th elder sibling from the end is an a0 tree", as an HRE sequence.
// Each position is a single tree with arbitrary {a0,a1} content (the
// vertical closure sits inside the content, so the expression cannot match
// the empty forest).
std::string KthFromEndElder(int k) {
  const std::string content = "(a0<%z>|a1<%z>|$x)*^z";
  const std::string any = "(a0<" + content + ">|a1<" + content + ">|$x)";
  std::string out = any + "* a0<" + content + ">";
  for (int i = 1; i < k; ++i) out += " " + any;
  return out;
}

TEST(AdversarialBudgetTest, PhrEvaluatorLazyFallbackMatchesEager) {
  Vocabulary vocab;
  std::string query = StrCat("[", KthFromEndElder(6), "; a1; *] (a0|a1)*");
  auto phr = phr::ParsePhr(query, vocab);
  ASSERT_TRUE(phr.ok()) << phr.status().ToString();

  // Unlimited: eager compilation succeeds and is the reference.
  auto eager = query::PhrEvaluator::Create(*phr);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ASSERT_FALSE(eager->fallback_used());

  // Tight cap: eager compilation provably fails...
  ExecBudget budget;
  budget.max_states = 100;  // the elder condition alone lifts to 2^6+ states
  auto compiled = query::CompilePhr(*phr, budget);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kResourceExhausted);

  // ...and the evaluator degrades to the lazy engine with identical answers.
  auto lazy = query::PhrEvaluator::Create(*phr, budget);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  ASSERT_TRUE(lazy->fallback_used());

  // A deterministic hit first: the final a1 has six elder siblings whose
  // sixth-from-the-end is an a0 tree.
  auto witness = ParseHedge("a0<a1 $x> a0 a1 a0 a1 a1 a1", vocab);
  ASSERT_TRUE(witness.ok());
  std::vector<bool> witness_want = eager->Locate(*witness);
  EXPECT_EQ(lazy->Locate(*witness), witness_want);
  size_t located_total = 0;
  for (bool b : witness_want) located_total += b ? 1 : 0;
  EXPECT_GT(located_total, 0u);  // the family is not vacuous

  Rng rng(20010615);
  workload::RandomHedgeOptions options;
  options.num_symbols = 2;  // a0, a1
  options.target_nodes = 60;
  for (int trial = 0; trial < 12; ++trial) {
    Hedge doc = workload::RandomHedge(rng, vocab, options);
    std::vector<bool> want = eager->Locate(doc);
    std::vector<bool> got = lazy->Locate(doc);
    EXPECT_EQ(got, want) << "trial " << trial;
  }

  automata::EvalStats stats = lazy->stats();
  EXPECT_TRUE(stats.fallback_used);
  EXPECT_GT(stats.states_materialized, 0u);
  // Cache memory stayed under the lazy engine's cap (one entry of slack
  // for the insert that triggers eviction).
  EXPECT_LE(stats.peak_cache_bytes,
            automata::LazyDhaOptions{}.max_cache_bytes + 1024);
}

TEST(AdversarialBudgetTest, StreamingValidatorLazyFallbackMatchesEager) {
  constexpr int k = 8;
  std::string grammar = "start = R\nR = r<(A|B)* A";
  for (int i = 1; i < k; ++i) grammar += " (A|B)";
  grammar += ">\nA = a<(A|B)*>\nB = b<(A|B)*>\n";
  Vocabulary vocab;
  auto schema = schema::ParseSchema(grammar, vocab);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();

  auto eager = schema::StreamingValidator::Create(*schema);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ASSERT_FALSE(eager->fallback_used());

  ExecBudget budget;
  budget.max_states = 64;  // the content model needs 2^8 horizontal sets
  auto det = automata::Determinize(schema->nha(), budget);
  ASSERT_FALSE(det.ok());  // the cap genuinely defeats eager preprocessing
  EXPECT_EQ(det.status().code(), StatusCode::kResourceExhausted);

  auto lazy = schema::StreamingValidator::Create(*schema, budget);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  ASSERT_TRUE(lazy->fallback_used());

  Rng rng(8080);
  int valid_count = 0;
  size_t total_materialized = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::string doc = "<r>";
    size_t roots = k + rng.Below(12);
    for (size_t i = 0; i < roots; ++i) {
      doc += rng.Below(2) == 0 ? "<a></a>" : "<b></b>";
    }
    doc += "</r>";
    auto want = eager->Validate(doc, vocab);
    auto got = lazy->ValidateWithStats(doc, vocab);
    ASSERT_TRUE(want.ok() && got.ok()) << doc;
    EXPECT_EQ(got->valid, *want) << doc;
    EXPECT_TRUE(got->stats.fallback_used);
    // Later trials may be answered entirely from warm caches, so the
    // materialization count is only guaranteed across the whole sweep.
    total_materialized += got->stats.states_materialized;
    valid_count += *want ? 1 : 0;
  }
  EXPECT_GT(total_materialized, 0u);
  // Both verdicts occur, so the agreement above is meaningful.
  EXPECT_GT(valid_count, 0);
  EXPECT_LT(valid_count, 30);
}

TEST(AdversarialBudgetTest, ExpiredDeadlineDegradesStreamingValidatorToLazy) {
  // A wall-clock deadline that has already passed defeats eager
  // determinization on its first charge, exactly like a blown state cap —
  // and the validator degrades to the lazy engine instead of failing.
  std::string grammar =
      "start = R\nR = r<(A|B)*>\nA = a<(A|B)*>\nB = b<(A|B)*>\n";
  Vocabulary vocab;
  auto schema = schema::ParseSchema(grammar, vocab);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();

  auto eager = schema::StreamingValidator::Create(*schema);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  ExecBudget budget;
  budget.SetDeadlineAfterMs(0);  // already expired, deterministically
  auto det = automata::Determinize(schema->nha(), budget);
  ASSERT_FALSE(det.ok());
  EXPECT_EQ(det.status().code(), StatusCode::kDeadlineExceeded);

  auto lazy = schema::StreamingValidator::Create(*schema, budget);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  ASSERT_TRUE(lazy->fallback_used());

  for (const char* doc :
       {"<r><a></a><b></b></r>", "<r></r>", "<a></a>", "<r><c></c></r>"}) {
    auto want = eager->Validate(doc, vocab);
    auto got = lazy->Validate(doc, vocab);
    if (!want.ok()) {
      // Unknown symbols reject in both engines the same way.
      EXPECT_EQ(got.ok(), want.ok()) << doc;
      continue;
    }
    ASSERT_TRUE(got.ok()) << doc << ": " << got.status().ToString();
    EXPECT_EQ(*got, *want) << doc;
  }
}

}  // namespace
}  // namespace hedgeq
