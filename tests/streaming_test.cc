#include <gtest/gtest.h>

#include "automata/determinize.h"
#include "automata/streaming.h"
#include "hre/compile.h"
#include "schema/streaming.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "xml/xml.h"

namespace hedgeq {
namespace {

using hedge::Hedge;
using hedge::Vocabulary;

constexpr const char* kArticleGrammar = R"(
start   = Article
Article = article<Title Section*>
Title   = title<Text>
Text    = $#text
Section = section<Title (Para|Figure|Caption|Table|Section)*>
Para    = para<Text>
Figure  = figure<Image>
Image   = image<>
Caption = caption<Text>
Table   = table<>
)";

// Feeds a hedge's structure as events (the DOM-free path the tests compare
// against the batch run).
void FeedHedge(const Hedge& h, hedge::NodeId n,
               automata::StreamingRun<automata::Dha>& run) {
  const hedge::Label label = h.label(n);
  if (label.kind == hedge::LabelKind::kVariable) {
    run.Text(label.id);
    return;
  }
  run.StartElement(label.id);
  for (hedge::NodeId c = h.first_child(n); c != hedge::kNullNode;
       c = h.next_sibling(c)) {
    FeedHedge(h, c, run);
  }
  run.EndElement(label.id);
}

TEST(StreamingDhaTest, AgreesWithBatchRunOnRandomDocuments) {
  Vocabulary vocab;
  auto e = hre::ParseHre("(a0<(a0|a1|$x)*>|a1<$x*>)*", vocab);
  ASSERT_TRUE(e.ok());
  auto det = automata::Determinize(hre::CompileHre(*e));
  ASSERT_TRUE(det.ok());

  Rng rng(1234);
  int accepted = 0;
  for (int trial = 0; trial < 80; ++trial) {
    workload::RandomHedgeOptions options;
    options.target_nodes = 1 + rng.Below(30);
    options.num_symbols = 2;
    Hedge doc = workload::RandomHedge(rng, vocab, options);
    automata::StreamingRun<automata::Dha> run(det->dha);
    for (hedge::NodeId r : doc.roots()) FeedHedge(doc, r, run);
    bool streaming = run.Accepted();
    bool batch = det->dha.Accepts(doc);
    ASSERT_EQ(streaming, batch) << doc.ToString(vocab);
    accepted += batch ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);
}

TEST(StreamingDhaTest, MaxDepthTracksOpenElements) {
  Vocabulary vocab;
  auto e = hre::ParseHre("a<%z>*^z", vocab);
  ASSERT_TRUE(e.ok());
  auto det = automata::Determinize(hre::CompileHre(*e));
  ASSERT_TRUE(det.ok());

  Hedge deep = workload::UniformTree(vocab, 6, 1);  // a chain of depth 7
  automata::StreamingRun<automata::Dha> run(det->dha);
  for (hedge::NodeId r : deep.roots()) FeedHedge(deep, r, run);
  EXPECT_TRUE(run.Accepted());
  EXPECT_EQ(run.max_depth(), 7u);
  EXPECT_FALSE(run.InProgress());
}

TEST(StreamingValidatorTest, AgreesWithDomValidationOnXml) {
  Vocabulary vocab;
  auto schema = schema::ParseSchema(kArticleGrammar, vocab);
  ASSERT_TRUE(schema.ok());
  auto validator = schema::StreamingValidator::Create(*schema);
  ASSERT_TRUE(validator.ok()) << validator.status().ToString();

  Rng rng(777);
  for (int trial = 0; trial < 6; ++trial) {
    workload::ArticleOptions options;
    options.target_nodes = 60 + 50 * trial;
    Hedge doc = workload::RandomArticle(rng, vocab, options);
    xml::XmlDocument wrapped = xml::WrapHedge(doc, vocab);
    std::string text = xml::SerializeXml(wrapped, vocab);

    auto verdict = validator->Validate(text, vocab);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(*verdict) << text.substr(0, 120);
  }

  // Violations are caught too.
  auto bad = validator->Validate(
      "<article><section><title>t</title></section></article>", vocab);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(*bad);  // missing the article title

  // Malformed XML is a parse error, not a verdict.
  auto malformed = validator->Validate("<article>", vocab);
  EXPECT_FALSE(malformed.ok());
}

TEST(StreamingValidatorTest, HandlesLargeDocumentsShallowStack) {
  Vocabulary vocab;
  auto schema = schema::ParseSchema(kArticleGrammar, vocab);
  ASSERT_TRUE(schema.ok());
  auto validator = schema::StreamingValidator::Create(*schema);
  ASSERT_TRUE(validator.ok());

  Rng rng(55);
  workload::ArticleOptions options;
  options.target_nodes = 30000;
  Hedge doc = workload::RandomArticle(rng, vocab, options);
  xml::XmlDocument wrapped = xml::WrapHedge(doc, vocab);
  std::string text = xml::SerializeXml(wrapped, vocab);
  auto verdict = validator->Validate(text, vocab);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
}

TEST(StreamingHandlerTest, HandlerErrorsAbortTheParse) {
  // A handler can abort mid-stream; the parser propagates the status.
  class Bomb : public xml::XmlHandler {
   public:
    Status StartElement(hedge::SymbolId) override {
      if (++count_ == 3) return Status::FailedPrecondition("boom");
      return Status::Ok();
    }
    Status EndElement(hedge::SymbolId) override { return Status::Ok(); }
    Status Text(hedge::VarId, std::string_view) override {
      return Status::Ok();
    }

   private:
    int count_ = 0;
  };
  Vocabulary vocab;
  Bomb bomb;
  Status s = xml::ParseXmlStream("<a><b/><c/><d/></a>", vocab, bomb);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace hedgeq
