// Fault-injection matrix: arm each HEDGEQ_FAILPOINT site and drive every
// public entry point over it, proving the repo's robustness contract —
// direct pipelines (Determinize, CompilePhr, schema algebra) surface the
// injected kResourceExhausted as a clean Status, while evaluator-level
// factories (PhrEvaluator, SelectionEvaluator, StreamingValidator) degrade
// to their lazy engines and still answer correctly. Nothing aborts, leaks,
// or returns a silently partial result.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/determinize.h"
#include "hre/compile.h"
#include "phr/phr.h"
#include "query/boolean.h"
#include "query/evaluator.h"
#include "query/phr_compile.h"
#include "query/selection.h"
#include "schema/algebra.h"
#include "schema/streaming.h"
#include "util/failpoint.h"

namespace hedgeq {
namespace {

using hedge::Hedge;
using hedge::Vocabulary;

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  Hedge Parse(const std::string& text) {
    auto r = ParseHedge(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  phr::Phr ParseQuery(const char* text) {
    auto r = phr::ParsePhr(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  // Asserts `s` is the injected failure from failpoint `name`.
  void ExpectInjected(const Status& s, const char* name) {
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
    EXPECT_NE(s.message().find("injected"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find(name), std::string::npos) << s.ToString();
    EXPECT_GE(failpoint::HitCount(name), 1u);
  }

  Vocabulary vocab_;
};

TEST_F(FailpointTest, ArmSkipDisarmSemantics) {
  EXPECT_TRUE(failpoint::Check("unit/none").ok());  // unarmed: free pass
  failpoint::Arm("unit/point", /*skip=*/2);
  EXPECT_TRUE(failpoint::Check("unit/point").ok());
  EXPECT_TRUE(failpoint::Check("unit/point").ok());
  Status s = failpoint::Check("unit/point");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(failpoint::HitCount("unit/point"), 3u);
  EXPECT_EQ(failpoint::ArmedPoints(),
            std::vector<std::string>{"unit/point"});
  failpoint::Disarm("unit/point");
  EXPECT_TRUE(failpoint::Check("unit/point").ok());
  EXPECT_TRUE(failpoint::ArmedPoints().empty());
}

TEST_F(FailpointTest, FirstNModeHealsAfterNFailures) {
  // kFirstN models a transient fault: the first n hits fail, then the
  // point heals — this is what makes retry-success tests deterministic.
  failpoint::ArmFirstN("unit/transient", 2);
  EXPECT_FALSE(failpoint::Check("unit/transient").ok());
  EXPECT_FALSE(failpoint::Check("unit/transient").ok());
  EXPECT_TRUE(failpoint::Check("unit/transient").ok());
  EXPECT_TRUE(failpoint::Check("unit/transient").ok());
  EXPECT_EQ(failpoint::HitCount("unit/transient"), 4u);
  EXPECT_EQ(failpoint::FiredCount("unit/transient"), 2u);
}

TEST_F(FailpointTest, EveryNthModeFiresPeriodically) {
  failpoint::ArmEveryNth("unit/periodic", 3);
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    if (!failpoint::Check("unit/periodic").ok()) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(failpoint::FiredCount("unit/periodic"), 3u);
}

TEST_F(FailpointTest, ProbabilityModeIsSeededAndDeterministic) {
  // Same seed → identical fire pattern; the stream is per-point (the name
  // is mixed into the seed) so distinct points decorrelate.
  auto pattern = [](double p, uint64_t seed) {
    failpoint::ArmProbability("unit/prob", p, seed);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(!failpoint::Check("unit/prob").ok());
    }
    failpoint::DisarmAll();
    return fires;
  };
  const std::vector<bool> a = pattern(0.5, 7);
  const std::vector<bool> b = pattern(0.5, 7);
  EXPECT_EQ(a, b);
  // Degenerate probabilities are exact, not approximate.
  EXPECT_EQ(pattern(0.0, 7), std::vector<bool>(64, false));
  EXPECT_EQ(pattern(1.0, 7), std::vector<bool>(64, true));
  // p=0.5 over 64 draws fires at least once and spares at least once.
  EXPECT_NE(a, std::vector<bool>(64, false));
  EXPECT_NE(a, std::vector<bool>(64, true));
}

TEST_F(FailpointTest, ArmSpecGrammar) {
  EXPECT_TRUE(failpoint::ArmSpec("unit/a").ok());
  EXPECT_TRUE(failpoint::ArmSpec("unit/b:skip=2").ok());
  EXPECT_TRUE(failpoint::ArmSpec("unit/c:first=1").ok());
  EXPECT_TRUE(failpoint::ArmSpec("unit/d:every=4").ok());
  EXPECT_TRUE(failpoint::ArmSpec("unit/e:p=0.25,seed=9").ok());
  EXPECT_EQ(failpoint::ArmedPoints().size(), 5u);
  EXPECT_FALSE(failpoint::Check("unit/a").ok());
  EXPECT_TRUE(failpoint::Check("unit/b").ok());
  EXPECT_TRUE(failpoint::Check("unit/b").ok());
  EXPECT_FALSE(failpoint::Check("unit/b").ok());
  EXPECT_FALSE(failpoint::Check("unit/c").ok());
  EXPECT_TRUE(failpoint::Check("unit/c").ok());
  // Bad specs are rejected, not silently ignored.
  EXPECT_FALSE(failpoint::ArmSpec("").ok());
  EXPECT_FALSE(failpoint::ArmSpec("unit/x:every=0").ok());
  EXPECT_FALSE(failpoint::ArmSpec("unit/x:p=2.0").ok());
  EXPECT_FALSE(failpoint::ArmSpec("unit/x:bogus=1").ok());
  EXPECT_FALSE(failpoint::ArmSpec("unit/x:every=2,p=0.5").ok());
}

TEST_F(FailpointTest, ReArmResetsCounters) {
  failpoint::ArmFirstN("unit/rearm", 1);
  EXPECT_FALSE(failpoint::Check("unit/rearm").ok());
  EXPECT_TRUE(failpoint::Check("unit/rearm").ok());
  failpoint::ArmFirstN("unit/rearm", 1);  // re-arm: fresh hit/fired state
  EXPECT_EQ(failpoint::HitCount("unit/rearm"), 0u);
  EXPECT_EQ(failpoint::FiredCount("unit/rearm"), 0u);
  EXPECT_FALSE(failpoint::Check("unit/rearm").ok());
}

TEST_F(FailpointTest, DeterminizeSitesFailCleanly) {
  auto e = hre::ParseHre("d<p<$x $x>*>", vocab_);
  ASSERT_TRUE(e.ok());
  automata::Nha nha = hre::CompileHre(*e);
  for (const char* name :
       {"determinize/alloc", "determinize/subset", "determinize/htrans"}) {
    failpoint::Arm(name);
    auto det = automata::Determinize(nha, ExecBudget{});
    ASSERT_FALSE(det.ok()) << name;
    ExpectInjected(det.status(), name);
    failpoint::DisarmAll();
    // Disarmed, the same input determinizes fine — no lingering state.
    EXPECT_TRUE(automata::Determinize(nha, ExecBudget{}).ok()) << name;
  }
}

TEST_F(FailpointTest, PhrPipelinePropagatesEveryStage) {
  phr::Phr phr = ParseQuery("[a*; b; a*] (a|b)*");
  for (const char* name :
       {"phr/compile", "hre/compile", "determinize/alloc",
        "determinize/subset", "determinize/htrans", "determinize/lift",
        "phr/product", "phr/mirror"}) {
    failpoint::Arm(name);
    auto compiled = query::CompilePhr(phr, ExecBudget{});
    ASSERT_FALSE(compiled.ok()) << name;
    ExpectInjected(compiled.status(), name);
    failpoint::DisarmAll();
  }
  EXPECT_TRUE(query::CompilePhr(phr, ExecBudget{}).ok());
}

TEST_F(FailpointTest, PhrEvaluatorFallsBackPerStage) {
  phr::Phr phr = ParseQuery("[a*; b; a*] (a|b)*");
  // Reference evaluator, built before any point is armed (eager path).
  auto reference = query::PhrEvaluator::Create(phr);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->fallback_used());
  Hedge doc = Parse("b<a a b<a>> a<b>");
  std::vector<bool> expected = reference->Locate(doc);

  // Any eager-only stage failing flips Create to the lazy engine, which
  // answers identically.
  for (const char* name :
       {"phr/compile", "determinize/alloc", "determinize/subset",
        "determinize/htrans", "determinize/lift", "phr/product",
        "phr/mirror"}) {
    failpoint::Arm(name);
    auto evaluator = query::PhrEvaluator::Create(phr);
    ASSERT_TRUE(evaluator.ok())
        << name << ": " << evaluator.status().ToString();
    EXPECT_TRUE(evaluator->fallback_used()) << name;
    EXPECT_EQ(evaluator->Locate(doc), expected) << name;
    failpoint::DisarmAll();
  }

  // "hre/compile" is shared by both engines, so there Create fails — but
  // cleanly, with the injected status.
  failpoint::Arm("hre/compile");
  auto evaluator = query::PhrEvaluator::Create(phr);
  ASSERT_FALSE(evaluator.ok());
  ExpectInjected(evaluator.status(), "hre/compile");
}

TEST_F(FailpointTest, SelectionEvaluatorCoversBothStages) {
  auto q = query::ParseSelectionQuery("select((b|$x)*; [(); a; b] [b; a; ()])",
                                      vocab_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto reference = query::SelectionEvaluator::Create(*q);
  ASSERT_TRUE(reference.ok());
  Hedge doc = Parse("a<b $x> a<$x> b<a<b> a>");
  std::vector<bool> expected = reference->Locate(doc);

  // The subhedge failpoint fires before any fallback exists: clean error.
  failpoint::Arm("selection/subhedge");
  auto failed = query::SelectionEvaluator::Create(*q);
  ASSERT_FALSE(failed.ok());
  ExpectInjected(failed.status(), "selection/subhedge");
  failpoint::DisarmAll();

  // A determinization failure degrades both stages to lazy engines.
  failpoint::Arm("determinize/subset");
  auto lazy = query::SelectionEvaluator::Create(*q);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_TRUE(lazy->fallback_used());
  EXPECT_EQ(lazy->Locate(doc), expected);
  EXPECT_TRUE(lazy->stats().fallback_used);
}

TEST_F(FailpointTest, BooleanEvaluatorLeavesDegradeToo) {
  auto q1 = query::ParseSelectionQuery("select(*; b a*)", vocab_);
  auto q2 = query::ParseSelectionQuery("select(*; a (a|b)*)", vocab_);
  ASSERT_TRUE(q1.ok() && q2.ok());
  query::BooleanQuery formula = query::BooleanQuery::And(
      query::BooleanQuery::Leaf(*q1),
      query::BooleanQuery::Not(query::BooleanQuery::Leaf(*q2)));
  auto reference = query::BooleanEvaluator::Create(formula);
  ASSERT_TRUE(reference.ok());
  Hedge doc = Parse("a<b b<a>> b");
  std::vector<bool> expected = reference->Locate(doc);

  failpoint::Arm("determinize/subset");
  auto lazy = query::BooleanEvaluator::Create(formula);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_EQ(lazy->Locate(doc), expected);
}

TEST_F(FailpointTest, SchemaAlgebraPropagatesCleanly) {
  auto a = schema::ParseSchema("start = A\nA = a<A*>\n", vocab_);
  auto b = schema::ParseSchema("start = B\nB = a<B* C*>\nC = b<>\n", vocab_);
  ASSERT_TRUE(a.ok() && b.ok());
  for (const char* name : {"schema/complement", "determinize/subset"}) {
    failpoint::Arm(name);
    auto comp = schema::ComplementSchema(*a, *b, ExecBudget{});
    ASSERT_FALSE(comp.ok()) << name;
    ExpectInjected(comp.status(), name);
    // The whole decision-procedure chain surfaces the same clean error.
    auto inc = schema::SchemaIncludes(*a, *b, ExecBudget{});
    ASSERT_FALSE(inc.ok()) << name;
    EXPECT_EQ(inc.status().code(), StatusCode::kResourceExhausted);
    auto eq = schema::SchemasEquivalent(*a, *b, ExecBudget{});
    ASSERT_FALSE(eq.ok()) << name;
    failpoint::DisarmAll();
  }
  auto inc = schema::SchemaIncludes(*a, *b, ExecBudget{});
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(*inc);  // a<A*> trees are a special case of b's grammar
}

TEST_F(FailpointTest, StreamingValidatorFallsBack) {
  auto schema = schema::ParseSchema(
      "start = Doc\n"
      "Doc = doc<Item*>\n"
      "Item = item<Text*>\n"
      "Text = $#text\n",
      vocab_);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto reference = schema::StreamingValidator::Create(*schema);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->fallback_used());
  const char* kGood = "<doc><item>hi</item><item></item></doc>";
  const char* kBad = "<doc><bogus></bogus></doc>";

  // The create-stage failpoint fires before the engines split: clean error.
  failpoint::Arm("streaming/create");
  auto failed = schema::StreamingValidator::Create(*schema);
  ASSERT_FALSE(failed.ok());
  ExpectInjected(failed.status(), "streaming/create");
  failpoint::DisarmAll();

  // Determinization failing degrades to the lazy engine; verdicts agree.
  failpoint::Arm("determinize/subset");
  auto lazy = schema::StreamingValidator::Create(*schema);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_TRUE(lazy->fallback_used());
  failpoint::DisarmAll();
  for (const char* text : {kGood, kBad}) {
    auto want = reference->Validate(text, vocab_);
    auto got = lazy->ValidateWithStats(text, vocab_);
    ASSERT_TRUE(want.ok() && got.ok()) << text;
    EXPECT_EQ(got->valid, *want) << text;
    EXPECT_TRUE(got->stats.fallback_used);
  }
}

}  // namespace
}  // namespace hedgeq
