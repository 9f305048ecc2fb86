#include <gtest/gtest.h>

#include <string>

#include "query/evaluator.h"
#include "query/lazy_phr.h"
#include "query/phr_compile.h"
#include "query/selection.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace hedgeq::query {
namespace {

using hedge::Hedge;
using hedge::NodeId;
using hedge::Vocabulary;
using phr::NaivePhrMatcher;
using phr::ParsePhr;
using phr::Phr;

// PHRs exercised by the randomized agreement sweep. All symbols come from
// the article/random generators' vocabulary.
const char* kSweepPhrs[] = {
    // Pure path expressions.
    "figure section*",
    "figure (section|article)*",
    "para section* article",
    "(section)+",
    // Sibling conditions.
    "[*; figure; caption<$#text*> (para<$#text*>|figure|caption<$#text*>|"
    "table|section<%z>*^z|image|title<$#text*>|$#text)*] (section|article)*",
    "[title<$#text*>; figure; *] (section|article)*",
    "[*; section; ()] (section|article)*",
    // Conditions on both sides.
    "[(para<$#text*>|title<$#text*>)*; figure; *] (section|article)*",
    // Counting ancestors: figures at even section depth (regex structure
    // over the vertical axis — beyond XPath's location paths).
    "figure (section section)* article",
    "figure section (section section)* article",
    // Random-hedge alphabet (a0..a3, $x).
    "a0*",
    "a1 a0*",
    "[a0<%z>*^z|$x (a0<%z>*^z|a1<%z>*^z|$x)*; a1; *] (a0|a1|a2|a3)*",
    "[*; a2; (a0<%z>*^z|a1<%z>*^z|a2<%z>*^z|a3<%z>*^z|$x)* $x] (a0|a1)*",
};

class PhrAgreementTest : public ::testing::TestWithParam<const char*> {};

// The central correctness property: Algorithm 1 (two linear traversals via
// Theorem 4 artifacts) locates exactly the nodes whose envelopes the direct
// Definition 19 matcher accepts.
TEST_P(PhrAgreementTest, EvaluatorAgreesWithNaiveOracle) {
  Vocabulary vocab;
  auto phr = ParsePhr(GetParam(), vocab);
  ASSERT_TRUE(phr.ok()) << phr.status().ToString();
  auto evaluator = PhrEvaluator::Create(*phr);
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  NaivePhrMatcher naive(*phr);

  Rng rng(20010615);
  size_t total_located = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Hedge doc;
    if (trial % 2 == 0) {
      workload::ArticleOptions options;
      options.target_nodes = 60 + 30 * trial;
      doc = workload::RandomArticle(rng, vocab, options);
    } else {
      workload::RandomHedgeOptions options;
      options.target_nodes = 40 + 20 * trial;
      doc = workload::RandomHedge(rng, vocab, options);
    }
    std::vector<bool> located = evaluator->Locate(doc);
    for (NodeId n = 0; n < doc.num_nodes(); ++n) {
      bool expected = false;
      if (doc.label(n).kind == hedge::LabelKind::kSymbol) {
        expected = naive.Matches(doc.EnvelopeOf(n));
      }
      EXPECT_EQ(located[n], expected)
          << GetParam() << " node " << n << " in " << doc.ToString(vocab);
      total_located += located[n] ? 1 : 0;
    }
  }
  // The sweep should not be vacuous for path-style queries; sibling-heavy
  // ones may legitimately match rarely.
  (void)total_located;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PhrAgreementTest,
                         ::testing::ValuesIn(kSweepPhrs));

class QueryTest : public ::testing::Test {
 protected:
  Hedge Parse(const std::string& text) {
    auto r = ParseHedge(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
  Vocabulary vocab_;
};

TEST_F(QueryTest, PathExpressionLocatesFiguresUnderSections) {
  auto phr = ParsePhr("figure section*", vocab_);
  ASSERT_TRUE(phr.ok());
  auto evaluator = PhrEvaluator::Create(*phr);
  ASSERT_TRUE(evaluator.ok());

  Hedge doc = Parse("section<figure section<figure para> para> figure");
  std::vector<bool> located = evaluator->Locate(doc);
  std::vector<NodeId> hits;
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    if (located[n]) hits.push_back(n);
  }
  // All three figures: two nested under sections, one at the top level.
  ASSERT_EQ(hits.size(), 3u);
  for (NodeId n : hits) {
    EXPECT_EQ(vocab_.symbols.NameOf(doc.label(n).id), "figure");
  }
}

TEST_F(QueryTest, AllAncestorsCondition) {
  // The paper's "a*" path expression beyond XPath: every ancestor is a.
  auto phr = ParsePhr("b a*", vocab_);
  ASSERT_TRUE(phr.ok());
  auto evaluator = PhrEvaluator::Create(*phr);
  ASSERT_TRUE(evaluator.ok());

  Hedge doc = Parse("a<b a<b> c<b>> b");
  std::vector<bool> located = evaluator->Locate(doc);
  size_t count = 0;
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    if (!located[n]) continue;
    ++count;
    for (NodeId p = doc.parent(n); p != hedge::kNullNode; p = doc.parent(p)) {
      EXPECT_EQ(vocab_.symbols.NameOf(doc.label(p).id), "a");
    }
  }
  // b under a, b under a<a>, and the top-level b; NOT the b under c.
  EXPECT_EQ(count, 3u);
}

TEST_F(QueryTest, SiblingClassesMatchDirectRuns) {
  auto phr = ParsePhr("[a0*; a1; a0*] (a0|a1)*", vocab_);
  ASSERT_TRUE(phr.ok());
  auto compiled = CompilePhr(*phr);
  ASSERT_TRUE(compiled.ok());

  Rng rng(5);
  workload::RandomHedgeOptions options;
  options.target_nodes = 80;
  Hedge doc = workload::RandomHedge(rng, vocab_, options);
  std::vector<automata::HState> states = compiled->dha().Run(doc);
  SiblingClasses classes =
      ComputeSiblingClasses(doc, states, compiled->equiv());

  // Reference: run the equiv DFA directly on each prefix/suffix.
  auto check_group = [&](const std::vector<NodeId>& kids) {
    for (size_t j = 0; j < kids.size(); ++j) {
      std::vector<strre::Symbol> prefix, suffix;
      for (size_t i = 0; i < j; ++i) prefix.push_back(states[kids[i]]);
      for (size_t i = j + 1; i < kids.size(); ++i) {
        suffix.push_back(states[kids[i]]);
      }
      EXPECT_EQ(classes.elder[kids[j]], compiled->equiv().Run(prefix));
      EXPECT_EQ(classes.younger[kids[j]], compiled->equiv().Run(suffix));
    }
  };
  check_group(doc.roots());
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    if (doc.label(n).kind == hedge::LabelKind::kSymbol) {
      check_group(doc.ChildrenOf(n));
    }
  }
}

TEST_F(QueryTest, CompiledArtifactsShapes) {
  auto phr = ParsePhr("[(); a; b] [b; a; ()]", vocab_);
  ASSERT_TRUE(phr.ok());
  auto compiled = CompilePhr(*phr);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->num_triplets(), 2u);
  EXPECT_EQ(compiled->num_symbols(), 1u);  // only symbol "a"
  EXPECT_GE(compiled->num_classes(), 2u);
  // The equivalence DFA is complete over the DHA states.
  for (strre::StateId c = 0; c < compiled->equiv().num_states(); ++c) {
    for (automata::HState q = 0; q < compiled->dha().num_states(); ++q) {
      EXPECT_NE(compiled->equiv().Next(c, q), strre::kNoState);
    }
  }
}

TEST_F(QueryTest, UnknownSymbolsNeverLocated) {
  auto phr = ParsePhr("figure section*", vocab_);
  ASSERT_TRUE(phr.ok());
  auto evaluator = PhrEvaluator::Create(*phr);
  ASSERT_TRUE(evaluator.ok());
  Hedge doc = Parse("weird<figure>");
  std::vector<bool> located = evaluator->Locate(doc);
  // The figure's ancestor is not a section: not located. The weird node has
  // no triplet: not located either.
  for (NodeId n = 0; n < doc.num_nodes(); ++n) EXPECT_FALSE(located[n]);
}

TEST_F(QueryTest, DeterminizationCapsFallBackToLazyEngine) {
  auto phr = ParsePhr("[a<%z>*^z; b; a<%z>*^z]*", vocab_);
  ASSERT_TRUE(phr.ok());
  ExecBudget budget;
  budget.max_states = 1;
  // The raw compilation reports exhaustion...
  auto compiled = CompilePhr(*phr, budget);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kResourceExhausted);
  // ...but the evaluator degrades to the lazy engine and still answers.
  auto evaluator = PhrEvaluator::Create(*phr, budget);
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  EXPECT_TRUE(evaluator->fallback_used());
  EXPECT_EQ(evaluator->compiled(), nullptr);
  Hedge doc = Parse("b<a<a>>");
  std::vector<bool> located = evaluator->Locate(doc);
  EXPECT_EQ(located.size(), doc.num_nodes());
  EXPECT_TRUE(evaluator->stats().fallback_used);
}

// --- Eager Locate against the Definition 22 oracle, on the shapes and
// labels the dense runtime tables and the fused sweep special-case.

class LocateEquivalenceTest : public QueryTest {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  // Eager Locate of select(*; phr) on `doc` equals the naive evaluator's,
  // and so does the lazy engine's. Returns the eager answer.
  std::vector<bool> ExpectAgrees(const std::string& phr_text,
                                 const Hedge& doc) {
    auto q = ParseSelectionQuery("select(*; " + phr_text + ")", vocab_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) return {};
    auto evaluator = PhrEvaluator::Create(q->envelope);
    EXPECT_TRUE(evaluator.ok()) << evaluator.status().ToString();
    if (!evaluator.ok()) return {};
    EXPECT_FALSE(evaluator->fallback_used());
    std::vector<bool> got = evaluator->Locate(doc);
    EXPECT_EQ(got, NaiveSelectionEvaluator(*q).Locate(doc))
        << phr_text << " on " << doc.ToString(vocab_);
    auto lazy = LazyPhrEvaluator::Create(q->envelope);
    EXPECT_TRUE(lazy.ok()) << lazy.status().ToString();
    if (lazy.ok()) {
      EXPECT_EQ(lazy->Locate(doc), got)
          << "lazy: " << phr_text << " on " << doc.ToString(vocab_);
    }
    return got;
  }

  static size_t Count(const std::vector<bool>& located) {
    size_t hits = 0;
    for (bool b : located) hits += b ? 1 : 0;
    return hits;
  }
};

// Queries over the single symbol of UniformTree: one class (a path
// expression) and several sibling-conditioned ones.
const char* kSectionPhrs[] = {
    "section (section|article)*",
    "[(); section; *] section*",
    "[section<%z>*^z; section; *] section*",
    "[*; section; section<%z>*^z section<%z>*^z] section*",
    "[(); section; *] [*; section; ()] section*",
};

TEST_F(LocateEquivalenceTest, SingleAndMultiClassQueriesOnEveryShape) {
  struct Shape {
    const char* name;
    size_t depth, fanout;
  };
  // The wide, deep and bushy shapes of BM_LocateByShape, scaled down for
  // the quadratic oracle. UniformTree numbers nodes level by level, not in
  // document order.
  const Shape shapes[] = {
      {"wide", 1, 150}, {"deep", 150, 1}, {"bushy", 4, 4}};
  size_t multi_class = 0;
  for (const char* text : kSectionPhrs) {
    auto phr = ParsePhr(text, vocab_);
    ASSERT_TRUE(phr.ok());
    auto compiled = CompilePhr(*phr);
    ASSERT_TRUE(compiled.ok());
    multi_class += compiled->num_classes() > 1 ? 1 : 0;
    size_t hits = 0;
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(std::string(text) + " / " + shape.name);
      Hedge doc = workload::UniformTree(vocab_, shape.depth, shape.fanout,
                                        "section");
      hits += Count(ExpectAgrees(text, doc));
    }
    EXPECT_GT(hits, 0u) << text;
  }
  EXPECT_GE(multi_class, 3u);
}

TEST_F(LocateEquivalenceTest, LabelsOutsideTheTripletAlphabet) {
  // "early" is interned before the query, so its id falls inside the dense
  // symbol index without a triplet; "late" is interned after compiling, so
  // its id lies past the index's end.
  vocab_.symbols.Intern("early");
  const char* phr_text = "[*; b; a<%z>*^z] [(); a; *] (a|b)*";
  auto phr = ParsePhr(phr_text, vocab_);
  ASSERT_TRUE(phr.ok());
  auto compiled = CompilePhr(*phr);
  ASSERT_TRUE(compiled.ok());
  const hedge::SymbolId early = *vocab_.symbols.Find("early");
  EXPECT_EQ(compiled->SymbolIndex(early), CompiledPhr::kNoSymbol);
  EXPECT_LT(early, compiled->symbol_index().size());
  Hedge doc =
      Parse("a<late<b a> early<b a> $x b a<a>> late early<a> a<b a>");
  const hedge::SymbolId late = *vocab_.symbols.Find("late");
  EXPECT_GE(late, compiled->symbol_index().size());
  EXPECT_EQ(compiled->SymbolIndex(late), CompiledPhr::kNoSymbol);
  EXPECT_GT(Count(ExpectAgrees(phr_text, doc)), 0u);
  ExpectAgrees("a (a|b)*", doc);
}

TEST_F(LocateEquivalenceTest, DeadBranchesLocateNothingBelowThem) {
  // Under para (no triplet) and under caption (a triplet whose step from
  // the top is dead), figures that would match under sections stay
  // unlocated.
  Hedge doc = Parse(
      "section<figure para<section<figure> figure> caption<section<figure>>"
      " section<para figure section<figure caption>>> para<figure>");
  for (const char* text :
       {"figure section*", "[*; figure; caption<%z>*^z] section*",
        "[(); figure; *] (section|caption)* section"}) {
    SCOPED_TRACE(text);
    std::vector<bool> got = ExpectAgrees(text, doc);
    for (NodeId n = 0; n < doc.num_nodes(); ++n) {
      for (NodeId p = doc.parent(n); got[n] && p != hedge::kNullNode;
           p = doc.parent(p)) {
        EXPECT_NE(vocab_.symbols.NameOf(doc.label(p).id), "para");
      }
    }
  }
}

TEST_F(LocateEquivalenceTest, LazyRowsFlushMidLocateAndStayExact) {
  // A cap far below what one Locate fills: the lazy engine's rows flush
  // many times inside each call, and the pinned ids keep the answers exact.
  ExecBudget tiny;
  tiny.max_memory_bytes = 512;
  Rng rng(7);
  workload::RandomHedgeOptions options;
  options.num_symbols = 3;
  options.target_nodes = 300;
  for (const char* text :
       {"[a0<%z>*^z|$x (a0<%z>*^z|a1<%z>*^z|$x)*; a1; *] (a0|a1|a2)*",
        "[*; a2; (a0<%z>*^z|a1<%z>*^z|a2<%z>*^z|$x)* $x] (a0|a1)*",
        "[(a1<%z>*^z)*; a0; (a2<%z>*^z|$x)*] (a0|a1|a2)* a0"}) {
    SCOPED_TRACE(text);
    auto phr = ParsePhr(text, vocab_);
    ASSERT_TRUE(phr.ok()) << phr.status().ToString();
    auto eager = PhrEvaluator::Create(*phr);
    ASSERT_TRUE(eager.ok());
    ASSERT_FALSE(eager->fallback_used());
    auto lazy = LazyPhrEvaluator::Create(*phr, tiny);
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    size_t hits = 0;
    for (int trial = 0; trial < 6; ++trial) {
      Hedge doc = workload::RandomHedge(rng, vocab_, options);
      const automata::EvalStats before = lazy->stats();
      const std::vector<bool> want = eager->Locate(doc);
      EXPECT_EQ(lazy->Locate(doc), want) << doc.ToString(vocab_);
      EXPECT_GT(lazy->stats().cache_evictions, before.cache_evictions);
      hits += Count(want);
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LE(lazy->stats().peak_cache_bytes, tiny.max_memory_bytes + 1024);
  }
}

TEST_F(LocateEquivalenceTest, SeededWrongNodeStillFlipsOneAnswer) {
  auto phr = ParsePhr("[*; section; section<%z>*^z] section*", vocab_);
  ASSERT_TRUE(phr.ok());
  auto evaluator = PhrEvaluator::Create(*phr);
  ASSERT_TRUE(evaluator.ok());
  Hedge doc = workload::UniformTree(vocab_, 2, 3, "section");
  const std::vector<bool> clean = evaluator->Locate(doc);
  failpoint::Arm("phr/select-wrong-node");
  const std::vector<bool> wrong = evaluator->Locate(doc);
  failpoint::DisarmAll();
  ASSERT_EQ(wrong.size(), clean.size());
  size_t differ = 0;
  for (size_t n = 0; n < clean.size(); ++n) {
    differ += wrong[n] != clean[n] ? 1 : 0;
  }
  EXPECT_EQ(differ, 1u);
}

}  // namespace
}  // namespace hedgeq::query
