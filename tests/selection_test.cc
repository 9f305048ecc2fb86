#include <gtest/gtest.h>

#include <ostream>

#include "query/selection.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace hedgeq::query {
namespace {

using hedge::Hedge;
using hedge::NodeId;
using hedge::Vocabulary;

class SelectionTest : public ::testing::Test {
 protected:
  Hedge Parse(const std::string& text) {
    auto r = ParseHedge(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
  SelectionQuery ParseQ(const std::string& text) {
    auto r = ParseSelectionQuery(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
  Vocabulary vocab_;
};

TEST_F(SelectionTest, ParseForms) {
  SelectionQuery q1 = ParseQ("select((b|$x)*; [(); a; b] [b; a; ()])");
  EXPECT_NE(q1.subhedge, nullptr);
  EXPECT_EQ(q1.envelope.triplets().size(), 2u);

  SelectionQuery q2 = ParseQ("select(*; figure section*)");
  EXPECT_EQ(q2.subhedge, nullptr);
  EXPECT_TRUE(q2.envelope.IsPathExpression());

  EXPECT_FALSE(ParseSelectionQuery("select(a)", vocab_).ok());
  EXPECT_FALSE(ParseSelectionQuery("sel(a; b)", vocab_).ok());
  EXPECT_FALSE(ParseSelectionQuery("select(a; )", vocab_).ok());
}

TEST_F(SelectionTest, PaperSection6WorkedExample) {
  // select(e1, e2) with e1 = (b|x)* and e2 = (eps, a, b)(b, a, eps) locates
  // the first second-level node of the second top-level node of
  // b a<a<b x> b>.
  SelectionQuery q = ParseQ("select((b|$x)*; [(); a; b] [b; a; ()])");
  auto eval = SelectionEvaluator::Create(q);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();

  Hedge doc = Parse("b a<a<b $x> b>");
  std::vector<NodeId> located = eval->LocatedNodes(doc);
  ASSERT_EQ(located.size(), 1u);
  NodeId expected = doc.ChildrenOf(doc.roots()[1])[0];
  EXPECT_EQ(located[0], expected);
}

TEST_F(SelectionTest, SubhedgeConditionFilters) {
  // Locate sections whose content is exactly one figure.
  SelectionQuery q = ParseQ("select(figure; section (section|doc)*)");
  auto eval = SelectionEvaluator::Create(q);
  ASSERT_TRUE(eval.ok());
  Hedge doc = Parse("doc<section<figure> section<figure para> section>");
  std::vector<NodeId> located = eval->LocatedNodes(doc);
  ASSERT_EQ(located.size(), 1u);
  EXPECT_EQ(located[0], doc.ChildrenOf(doc.roots()[0])[0]);
}

TEST_F(SelectionTest, SubhedgeConditionAppliesToUnknownLabels) {
  // e1 constrains the children only; the node's own label is governed by
  // the envelope side. With an unconditional envelope step for "mystery",
  // a mystery node with a b-child is located even though e1 never mentions
  // mystery.
  SelectionQuery q = ParseQ("select(b; mystery doc*)");
  auto eval = SelectionEvaluator::Create(q);
  ASSERT_TRUE(eval.ok());
  Hedge doc = Parse("doc<mystery<b> mystery<c> mystery>");
  std::vector<NodeId> located = eval->LocatedNodes(doc);
  ASSERT_EQ(located.size(), 1u);
  EXPECT_EQ(located[0], doc.ChildrenOf(doc.roots()[0])[0]);
}

struct SelectionCase {
  const char* name;
  const char* query;
};

// Prints a case as its name, so test ids are stable across builds (the
// default printer dumps the struct's pointer bytes).
void PrintTo(const SelectionCase& c, std::ostream* os) { *os << c.name; }

class SelectionAgreementTest
    : public ::testing::TestWithParam<SelectionCase> {};

TEST_P(SelectionAgreementTest, EvaluatorAgreesWithNaiveOracle) {
  Vocabulary vocab;
  auto q = ParseSelectionQuery(GetParam().query, vocab);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto eval = SelectionEvaluator::Create(*q);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  NaiveSelectionEvaluator naive(*q);

  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    Hedge doc;
    if (trial % 2 == 0) {
      workload::ArticleOptions options;
      options.target_nodes = 80 + 40 * trial;
      doc = workload::RandomArticle(rng, vocab, options);
    } else {
      workload::RandomHedgeOptions options;
      options.target_nodes = 50 + 25 * trial;
      doc = workload::RandomHedge(rng, vocab, options);
    }
    EXPECT_EQ(eval->Locate(doc), naive.Locate(doc))
        << GetParam().name << " on " << doc.ToString(vocab);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectionAgreementTest,
    ::testing::Values(
        SelectionCase{"figures_under_sections",
                      "select(*; figure (section|article)*)"},
        SelectionCase{"empty_figures",
                      "select((); figure (section|article)*)"},
        SelectionCase{"sections_with_leading_title",
                      "select(title<$#text*> (para<$#text*>|figure|"
                      "caption<$#text*>|table|section<%z>*^z|$#text)*; "
                      "section (section|article)*)"},
        SelectionCase{"figure_with_caption_following",
                      "select(*; [*; figure; caption<$#text*> "
                      "(para<$#text*>|figure|caption<$#text*>|table|"
                      "section<%z>*^z|title<$#text*>|$#text)*] "
                      "(section|article)*)"},
        SelectionCase{"random_alphabet_a1_with_only_a0_descendants",
                      "select((a0<%z>*^z|$x)*; a1 (a0|a1|a2|a3)*)"}),
    [](const ::testing::TestParamInfo<SelectionCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hedgeq::query
