#include <gtest/gtest.h>

#include <ostream>

#include "automata/analysis.h"
#include "automata/determinize.h"
#include "hre/compile.h"
#include "strre/ops.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace hedgeq::automata {
namespace {

using hedge::Hedge;
using hedge::Vocabulary;

class AnalysisTest : public ::testing::Test {
 protected:
  Hedge Parse(const std::string& text) {
    auto r = ParseHedge(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
  Nha Compile(const std::string& expr) {
    auto e = hre::ParseHre(expr, vocab_);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return hre::CompileHre(*e);
  }
  Vocabulary vocab_;
};

TEST_F(AnalysisTest, PrunePreservesLanguage) {
  Rng rng(55);
  for (const char* expr :
       {"a<b c>*", "(a|b)* c", "a<%z>*^z", "d<p<$x> p<$y>*>*",
        "(b|c) @z a<%z>"}) {
    Nha original = Compile(expr);
    Nha pruned = PruneNha(original);
    EXPECT_LE(pruned.num_states(), original.num_states()) << expr;
    for (int trial = 0; trial < 40; ++trial) {
      workload::RandomHedgeOptions options;
      options.target_nodes = 1 + rng.Below(12);
      options.num_symbols = 4;
      Hedge doc = workload::RandomHedge(rng, vocab_, options);
      EXPECT_EQ(original.Accepts(doc), pruned.Accepts(doc))
          << expr << " on " << doc.ToString(vocab_);
    }
  }
}

TEST_F(AnalysisTest, PruneDropsUnderivableStates) {
  // q1 is underivable (its only rule needs itself); q0 depends on q1.
  Nha nha;
  HState q0 = nha.AddState();
  HState q1 = nha.AddState();
  HState q2 = nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  nha.AddRule(a, strre::CompileRegex(strre::Sym(q1)), q0);
  nha.AddRule(a, strre::CompileRegex(strre::Sym(q1)), q1);
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q2);
  nha.SetFinal(strre::CompileRegex(
      strre::Alt(strre::Sym(q0), strre::Sym(q2))));
  Nha pruned = PruneNha(nha);
  EXPECT_EQ(pruned.num_states(), 1u);  // only q2 survives
  EXPECT_TRUE(pruned.Accepts(Parse("a")));
  EXPECT_FALSE(pruned.Accepts(Parse("a<a>")));
}

TEST_F(AnalysisTest, PruneDropsNonCoReachableStates) {
  // q1 is derivable but never used by the final language.
  Nha nha;
  HState q0 = nha.AddState();
  HState q1 = nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q0);
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q1);
  nha.SetFinal(strre::CompileRegex(strre::Sym(q0)));
  Nha pruned = PruneNha(nha);
  EXPECT_EQ(pruned.num_states(), 1u);
  EXPECT_TRUE(pruned.Accepts(Parse("a")));
}

TEST_F(AnalysisTest, PruneEmptyLanguage) {
  Nha pruned = PruneNha(Compile("{}"));
  EXPECT_EQ(pruned.num_states(), 0u);
  EXPECT_TRUE(IsEmptyNha(pruned));
}

TEST_F(AnalysisTest, PruneZeroStateAutomaton) {
  // The degenerate automaton: no states, no rules, default final language.
  Nha nha;
  EXPECT_TRUE(IsEmptyNha(nha));
  EXPECT_EQ(ReachableStates(nha).Count(), 0u);
  std::vector<HState> mapping;
  Nha pruned = PruneNha(nha, &mapping);
  EXPECT_EQ(pruned.num_states(), 0u);
  EXPECT_TRUE(mapping.empty());
  EXPECT_TRUE(IsEmptyNha(pruned));
}

TEST_F(AnalysisTest, SingleStateSelfLoopNullableContent) {
  // q0 <- a<q0*>: the content model accepts epsilon, so a<> derives q0 and
  // the self-loop is productive — everything survives the prune.
  Nha nha;
  HState q0 = nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  nha.AddRule(a, strre::CompileRegex(strre::Star(strre::Sym(q0))), q0);
  nha.SetFinal(strre::CompileRegex(strre::Sym(q0)));
  EXPECT_FALSE(IsEmptyNha(nha));
  EXPECT_EQ(ReachableStates(nha).Count(), 1u);
  Nha pruned = PruneNha(nha);
  EXPECT_EQ(pruned.num_states(), 1u);
  EXPECT_TRUE(pruned.Accepts(Parse("a")));
  EXPECT_TRUE(pruned.Accepts(Parse("a<a a>")));
}

TEST_F(AnalysisTest, SingleStateSelfLoopStrictContent) {
  // q0 <- a<q0>: deriving q0 needs q0 first; nothing bottoms out.
  Nha nha;
  HState q0 = nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  nha.AddRule(a, strre::CompileRegex(strre::Sym(q0)), q0);
  nha.SetFinal(strre::CompileRegex(strre::Sym(q0)));
  EXPECT_TRUE(IsEmptyNha(nha));
  EXPECT_EQ(ReachableStates(nha).Count(), 0u);
  std::vector<HState> mapping;
  Nha pruned = PruneNha(nha, &mapping);
  EXPECT_EQ(pruned.num_states(), 0u);
  ASSERT_EQ(mapping.size(), 1u);
  EXPECT_EQ(mapping[q0], strre::kNoState);
}

TEST_F(AnalysisTest, AllUselessNhaPrunesToNothing) {
  // Every state is derivable, but the final language is empty: no state
  // appears in any accepting computation, so the prune removes them all.
  Nha nha;
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  for (int i = 0; i < 4; ++i) {
    HState q = nha.AddState();
    nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q);
  }
  nha.SetFinal(strre::CompileRegex(strre::EmptySet()));
  EXPECT_EQ(ReachableStates(nha).Count(), 4u);
  EXPECT_TRUE(IsEmptyNha(nha));
  std::vector<HState> mapping;
  Nha pruned = PruneNha(nha, &mapping);
  EXPECT_EQ(pruned.num_states(), 0u);
  ASSERT_EQ(mapping.size(), 4u);
  for (HState q = 0; q < 4; ++q) EXPECT_EQ(mapping[q], strre::kNoState);
}

TEST_F(AnalysisTest, PruneMappingTracksSurvivors) {
  // Mixed automaton: q0 usable, q1 underivable, q2 derivable-but-useless.
  Nha nha;
  HState q0 = nha.AddState();
  HState q1 = nha.AddState();
  HState q2 = nha.AddState();
  hedge::SymbolId a = vocab_.symbols.Intern("a");
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q0);
  nha.AddRule(a, strre::CompileRegex(strre::Sym(q1)), q1);
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q2);
  nha.SetFinal(strre::CompileRegex(strre::Sym(q0)));
  std::vector<HState> mapping;
  Nha pruned = PruneNha(nha, &mapping);
  ASSERT_EQ(mapping.size(), 3u);
  EXPECT_NE(mapping[q0], strre::kNoState);
  EXPECT_EQ(mapping[q1], strre::kNoState);
  EXPECT_EQ(mapping[q2], strre::kNoState);
  EXPECT_EQ(pruned.num_states(), 1u);
  EXPECT_TRUE(pruned.Accepts(Parse("a")));
}

class MinimizeDhaTest : public ::testing::Test {
 protected:
  Hedge Parse(const std::string& text) {
    auto r = ParseHedge(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
  Dha Determinized(const std::string& expr) {
    auto e = hre::ParseHre(expr, vocab_);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    auto det = Determinize(hre::CompileHre(*e));
    EXPECT_TRUE(det.ok()) << det.status().ToString();
    return std::move(det->dha);
  }
  Vocabulary vocab_;
};

TEST_F(MinimizeDhaTest, PreservesLanguageOnRandomDocuments) {
  Rng rng(606060);
  for (const char* expr :
       {"(a|b)* c", "a<b c>*", "d<p<$x> p<$y>*>*", "(a<(b|$x)*>|b)*",
        "a<%z>*^z", "(a|a|a) b"}) {
    Dha dha = Determinized(expr);
    Dha min = MinimizeDha(dha);
    EXPECT_LE(min.num_states(), dha.num_states()) << expr;
    EXPECT_LE(min.num_h_states(), dha.num_h_states()) << expr;
    for (int trial = 0; trial < 60; ++trial) {
      workload::RandomHedgeOptions options;
      options.target_nodes = 1 + rng.Below(12);
      options.num_symbols = 4;
      Hedge doc = workload::RandomHedge(rng, vocab_, options);
      ASSERT_EQ(dha.Accepts(doc), min.Accepts(doc))
          << expr << " on " << doc.ToString(vocab_);
    }
  }
}

TEST_F(MinimizeDhaTest, MergesEquivalentStates) {
  // (a|b) c determinizes to distinct subsets for the a-tree and the b-tree,
  // but no context distinguishes them (the final language treats them
  // identically and no content model mentions either): minimization merges
  // them.
  Dha redundant = Determinized("(a|b) c");
  Dha min = MinimizeDha(redundant);
  EXPECT_LT(min.num_states(), redundant.num_states());

  // Idempotence.
  Dha min2 = MinimizeDha(min);
  EXPECT_EQ(min2.num_states(), min.num_states());
  EXPECT_EQ(min2.num_h_states(), min.num_h_states());
}

TEST_F(MinimizeDhaTest, AgreesOnPaperExamples) {
  Dha dha = Determinized("d<p<$x> p<$y>*>*");
  Dha min = MinimizeDha(dha);
  for (const char* text :
       {"", "d<p<$x>>", "d<p<$x> p<$y>> d<p<$x>>", "d<p<$y>>",
        "d<p<$x> p<$x>>", "p<$x>"}) {
    Hedge h = Parse(text);
    EXPECT_EQ(dha.Accepts(h), min.Accepts(h)) << text;
  }
}

TEST_F(MinimizeDhaTest, WitnessMapsEveryStateOntoTheQuotient) {
  for (const char* expr : {"(a|b) c", "a<b c>*", "(a<(b|$x)*>|b)*"}) {
    Dha dha = Determinized(expr);
    MinimizeWitness witness;
    Dha min = MinimizeDha(dha, &witness);

    ASSERT_EQ(witness.qblock.size(), dha.num_states()) << expr;
    ASSERT_EQ(witness.hblock.size(), dha.num_h_states()) << expr;

    // Every input state lands inside the quotient, and every quotient
    // state is some block's image — the witness is a total surjection.
    std::vector<bool> q_hit(min.num_states(), false);
    for (uint32_t block : witness.qblock) {
      ASSERT_LT(block, min.num_states()) << expr;
      q_hit[block] = true;
    }
    std::vector<bool> h_hit(min.num_h_states(), false);
    for (uint32_t block : witness.hblock) {
      ASSERT_LT(block, min.num_h_states()) << expr;
      h_hit[block] = true;
    }
    for (size_t q = 0; q < q_hit.size(); ++q)
      EXPECT_TRUE(q_hit[q]) << expr << ": unreached quotient state " << q;
    for (size_t h = 0; h < h_hit.size(); ++h)
      EXPECT_TRUE(h_hit[h]) << expr << ": unreached quotient h-state " << h;
  }
}

TEST_F(MinimizeDhaTest, WitnessRecordsTheMergeItPerformed) {
  // (a|b) c strictly shrinks, so some pair of distinct input states must
  // share a block — the witness names the merge instead of hiding it.
  Dha dha = Determinized("(a|b) c");
  MinimizeWitness witness;
  Dha min = MinimizeDha(dha, &witness);
  ASSERT_LT(min.num_states(), dha.num_states());

  bool merged = false;
  for (size_t i = 0; i < witness.qblock.size() && !merged; ++i)
    for (size_t j = i + 1; j < witness.qblock.size(); ++j)
      if (witness.qblock[i] == witness.qblock[j]) {
        merged = true;
        break;
      }
  EXPECT_TRUE(merged) << "strict shrink with no shared block in the witness";
}

struct AmbiguityCase {
  const char* expr;
  bool ambiguous;
};

// Names each case by its expression, so test ids are stable across runs.
void PrintTo(const AmbiguityCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.expr);
}

class AmbiguityTest : public ::testing::TestWithParam<AmbiguityCase> {};

TEST_P(AmbiguityTest, MatchesExpectation) {
  Vocabulary vocab;
  auto e = hre::ParseHre(GetParam().expr, vocab);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Nha nha = hre::CompileHre(*e);
  EXPECT_EQ(IsAmbiguous(nha), GetParam().ambiguous) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AmbiguityTest,
    ::testing::Values(
        // Unambiguous expressions: every accepted hedge has one labeling.
        AmbiguityCase{"a", false},
        AmbiguityCase{"a b", false},
        AmbiguityCase{"a*", false},
        AmbiguityCase{"(a|b)*", false},
        AmbiguityCase{"a<b*> c", false},
        AmbiguityCase{"$x", false},
        AmbiguityCase{"{}", false},
        AmbiguityCase{"()", false},
        // Duplicated alternatives create two labelings of the same hedge.
        AmbiguityCase{"a|a", true},
        AmbiguityCase{"$x|$x", true},
        AmbiguityCase{"a*|a", true},       // "a" matched by either branch
        AmbiguityCase{"a<b|b>", true},     // ambiguity below the root
        AmbiguityCase{"(a|()) (a|())", true},  // "a" splits two ways
        // Union with disjoint first symbols stays unambiguous.
        AmbiguityCase{"a b|b a", false},
        // Classic regex ambiguity: (a*)* -- the star of a nullable.
        AmbiguityCase{"a**", false},  // collapsed by the factory, still one
        AmbiguityCase{"(a|a b) b*", true}   // "a b" splits two ways
        ));

TEST(AmbiguityDirectTest, SelfIntersectionOfDifferentStates) {
  // Two rules assign different states to the same tree: ambiguous even
  // though the string language is trivial.
  Vocabulary vocab;
  Nha nha;
  HState q0 = nha.AddState();
  HState q1 = nha.AddState();
  hedge::SymbolId a = vocab.symbols.Intern("a");
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q0);
  nha.AddRule(a, strre::CompileRegex(strre::Epsilon()), q1);
  nha.SetFinal(strre::CompileRegex(
      strre::Alt(strre::Sym(q0), strre::Sym(q1))));
  EXPECT_TRUE(IsAmbiguous(nha));

  // Restricting the final language to one state removes the ambiguity.
  nha.SetFinal(strre::CompileRegex(strre::Sym(q0)));
  EXPECT_FALSE(IsAmbiguous(nha));
}

}  // namespace
}  // namespace hedgeq::automata
