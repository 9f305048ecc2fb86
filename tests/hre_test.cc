#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "automata/determinize.h"
#include "hre/ast.h"
#include "hre/compile.h"
#include "util/rng.h"

namespace hedgeq::hre {
namespace {

using automata::Determinize;
using automata::Nha;
using hedge::Hedge;
using hedge::Vocabulary;

struct MatchCase {
  const char* expr;
  std::vector<const char*> accepted;
  std::vector<const char*> rejected;
};

// Names each case by its expression, so test ids are stable across runs.
void PrintTo(const MatchCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.expr);
}

class HreMatchTest : public ::testing::TestWithParam<MatchCase> {};

TEST_P(HreMatchTest, CompiledAutomatonMatchesSemantics) {
  const MatchCase& c = GetParam();
  Vocabulary vocab;
  auto e = ParseHre(c.expr, vocab);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  Nha nha = CompileHre(*e);
  for (const char* text : c.accepted) {
    auto h = ParseHedge(text, vocab);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_TRUE(nha.Accepts(*h)) << c.expr << " should accept " << text;
  }
  for (const char* text : c.rejected) {
    auto h = ParseHedge(text, vocab);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_FALSE(nha.Accepts(*h)) << c.expr << " should reject " << text;
  }
}

TEST_P(HreMatchTest, DeterminizedAgrees) {
  const MatchCase& c = GetParam();
  Vocabulary vocab;
  auto e = ParseHre(c.expr, vocab);
  ASSERT_TRUE(e.ok());
  auto det = Determinize(CompileHre(*e));
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  for (const char* text : c.accepted) {
    auto h = ParseHedge(text, vocab);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(det->dha.Accepts(*h)) << c.expr << " / " << text;
  }
  for (const char* text : c.rejected) {
    auto h = ParseHedge(text, vocab);
    ASSERT_TRUE(h.ok());
    EXPECT_FALSE(det->dha.Accepts(*h)) << c.expr << " / " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HreMatchTest,
    ::testing::Values(
        // Case 1-3: primitives.
        MatchCase{"{}", {}, {"", "a", "$x"}},
        MatchCase{"()", {""}, {"a", "$x", "a b"}},
        MatchCase{"$x", {"$x"}, {"", "$y", "a", "$x $x"}},
        // Case 4: trees. Bare "a" is a<()>.
        MatchCase{"a", {"a"}, {"", "b", "a<a>", "a a"}},
        MatchCase{"a<$x>", {"a<$x>"}, {"a", "a<$y>", "a<$x $x>", "b<$x>"}},
        MatchCase{"a<b c>", {"a<b c>"}, {"a<b>", "a<c b>", "a<b c d>"}},
        // Case 5-7: horizontal operators.
        MatchCase{"a b", {"a b"}, {"a", "b a", "a b b"}},
        MatchCase{"a|b<$x>", {"a", "b<$x>"}, {"b", "a b<$x>"}},
        MatchCase{"a*", {"", "a", "a a a"}, {"b", "a b"}},
        MatchCase{"(a|b)*", {"", "a b a", "b b"}, {"c", "a c"}},
        MatchCase{"a+ b?", {"a", "a b", "a a a b"}, {"", "b", "a b b"}},
        // Nesting.
        MatchCase{"d<p<$x> p<$y>*>*",
                  {"", "d<p<$x>>", "d<p<$x> p<$y>> d<p<$x>>",
                   "d<p<$x> p<$y> p<$y>>"},
                  {"d<p<$y>>", "d<p<$x> p<$x>>", "p<$x>", "d"}},
        // Case 8: substitution leaves.
        MatchCase{"a<%z>", {"a<%z>"}, {"a", "a<%w>", "a<a<%z>>"}},
        // Case 9: embedding. (b|c) @z a<%z> = { a<b>, a<c> }.
        MatchCase{"(b|c) @z a<%z>",
                  {"a<b>", "a<c>"},
                  {"a<%z>", "a", "a<b c>", "b"}},
        // Independent choice at each occurrence (Definition 10's example).
        MatchCase{"(b|c) @z (a<%z> a<%z>)",
                  {"a<b> a<b>", "a<b> a<c>", "a<c> a<b>", "a<c> a<c>"},
                  {"a<b>", "a<%z> a<b>", "a<b> a<b> a<b>"}},
        // z may survive inside e1.
        MatchCase{"a<%z> @z a<%z>",
                  {"a<a<%z>>"},
                  {"a<%z>", "a<a<a>>", "a<a>"}},
        // Embedding a sequence.
        MatchCase{"(b b) @z a<%z>", {"a<b b>"}, {"a<b>", "a<b b b>"}},
        // Case 10: vertical closure. The paper's a<z>^{*z}: all hedges with
        // every symbol a and every substitution symbol z.
        MatchCase{"a<%z>*^z",
                  {"", "a", "a a", "a<a>", "a<a<a> a> a", "a<%z>",
                   "a<a<%z> a>"},
                  {"b", "a<b>", "a<a> b", "a<%w>"}},
        // Vertical closure of a two-tree expression: every level is a pair
        // of a-trees whose content is either z or another pair.
        MatchCase{"(a<%z> a<%z>)^z",
                  {"a<%z> a<%z>", "a<a<%z> a<%z>> a<%z>",
                   "a<a<%z> a<%z>> a<a<%z> a<%z>>"},
                  {"", "a<%z>", "a<%z> a<%z> a<%z>", "a<a<%z>> a<%z>",
                   "a<a> a<%z>"}},
        // Embedding into a closure: close, then plug b's at leftover z's.
        MatchCase{"b @z (a<%z> a<%z>)^z",
                  {"a<b> a<b>", "a<a<b> a<b>> a<b>"},
                  {"a<b>", "a<%z> a<b>", "b", "a<b> a<b> a<b>"}}));

TEST(HreParseTest, RoundTripPrinting) {
  Vocabulary vocab;
  for (const char* text :
       {"a", "a b", "a|b", "a<b<$x>|()>", "a<%z>*^z", "(b|c) @z a<%z>",
        "(a<%z> a<%z>)^z", "$x* a+"}) {
    auto e = ParseHre(text, vocab);
    ASSERT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    std::string printed = HreToString(*e, vocab);
    auto e2 = ParseHre(printed, vocab);
    ASSERT_TRUE(e2.ok()) << printed;
    EXPECT_EQ(HreToString(*e2, vocab), printed) << text;
  }
}

TEST(HreParseTest, Errors) {
  Vocabulary vocab;
  EXPECT_FALSE(ParseHre("", vocab).ok());
  EXPECT_FALSE(ParseHre("a<", vocab).ok());
  EXPECT_FALSE(ParseHre("a |", vocab).ok());
  EXPECT_FALSE(ParseHre("^z", vocab).ok());
  EXPECT_FALSE(ParseHre("@z a", vocab).ok());
  EXPECT_FALSE(ParseHre("a<%z", vocab).ok());
}

TEST(HreCompileTest, CompilationIsLinearish) {
  // Claim C2 sanity check: automaton size grows linearly with expression
  // size for a deeply nested expression family.
  Vocabulary vocab;
  std::string expr = "a";
  size_t prev_states = 0;
  for (int depth = 0; depth < 6; ++depth) {
    expr = "a<" + expr + " " + expr + ">";
    auto e = ParseHre(expr, vocab);
    ASSERT_TRUE(e.ok());
    Nha nha = CompileHre(*e);
    if (prev_states > 0) {
      EXPECT_LE(nha.num_states(), 3 * prev_states + 8);
    }
    prev_states = nha.num_states();
  }
}

TEST(HreCompileTest, VCloseDepthStress) {
  // Pair trees: membership must hold at any depth, rejecting near-miss
  // shapes. Each a node holds either b (after embedding) or another pair.
  Vocabulary vocab;
  auto e = ParseHre("b @z (a<%z> a<%z>)^z", vocab);
  ASSERT_TRUE(e.ok());
  Nha nha = CompileHre(*e);

  std::string full = "b";
  for (int d = 0; d < 5; ++d) {
    full = "a<" + full + "> a<" + full + ">";
    auto h = ParseHedge(full, vocab);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(nha.Accepts(*h)) << "depth " << d;
  }
  // Unbalanced nesting is still fine (each slot embeds independently)...
  auto lopsided = ParseHedge("a<a<b> a<b>> a<b>", vocab);
  ASSERT_TRUE(lopsided.ok());
  EXPECT_TRUE(nha.Accepts(*lopsided));
  // ...but arity violations are not.
  auto bad = ParseHedge("a<a<b> a<b> a<b>> a<b>", vocab);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(nha.Accepts(*bad));
}

TEST(HreCompileTest, RandomAHedgesAgainstAllAExpression) {
  // Property sweep: random hedges over {a, b} tested against a<%z>*^z,
  // whose language is exactly "every symbol is a" (paper Section 4).
  Vocabulary vocab;
  auto e = ParseHre("a<%z>*^z", vocab);
  ASSERT_TRUE(e.ok());
  Nha nha = CompileHre(*e);
  hedge::SymbolId a = vocab.symbols.Intern("a");
  hedge::SymbolId b = vocab.symbols.Intern("b");

  Rng rng(42);
  for (int trial = 0; trial < 150; ++trial) {
    Hedge h;
    bool all_a = true;
    std::vector<hedge::NodeId> open = {hedge::kNullNode};
    int size = 1 + static_cast<int>(rng.Below(15));
    for (int i = 0; i < size; ++i) {
      hedge::NodeId parent = open[rng.Below(open.size())];
      hedge::SymbolId s = rng.Chance(0.8) ? a : b;
      if (s != a) all_a = false;
      open.push_back(h.Append(parent, hedge::Label::Symbol(s)));
    }
    EXPECT_EQ(nha.Accepts(h), all_a) << h.ToString(vocab);
  }
}

}  // namespace
}  // namespace hedgeq::hre
