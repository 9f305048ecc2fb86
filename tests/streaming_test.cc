#include <gtest/gtest.h>

#include <string>

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

TEST(StreamingValidatorTest, LazyMemoryStaysBoundedOverALongDocument) {
  // r's content asks for an `a` eight children from the end, so the
  // horizontal run over any long sibling list visits up to 2^8 sets: far
  // more than the cap. The lazy engine must restart its memo between
  // events instead of keeping every set the stream ever met.
  std::string grammar = "start = R\nR = r<(A|B)* A";
  for (int i = 1; i < 8; ++i) grammar += " (A|B)";
  grammar += ">\nA = a<(A|B)*>\nB = b<(A|B)*>\n";
  Vocabulary vocab;
  auto schema = schema::ParseSchema(grammar, vocab);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();

  Rng rng(31337);
  std::string doc = "<r>";
  size_t elements = 0;
  auto subtree = [&](auto& self, int depth) -> void {
    const bool a = rng.Below(2) == 0;
    doc += a ? "<a>" : "<b>";
    ++elements;
    const size_t kids = depth < 4 ? rng.Below(12) : 0;
    for (size_t i = 0; i < kids; ++i) self(self, depth + 1);
    doc += a ? "</a>" : "</b>";
  };
  while (elements < 20000) subtree(subtree, 0);
  doc += "</r>";

  auto eager = schema::StreamingValidator::Create(*schema);
  ASSERT_TRUE(eager.ok());
  ASSERT_FALSE(eager->fallback_used());
  auto want = eager->Validate(doc, vocab);
  ASSERT_TRUE(want.ok());

  ExecBudget roomy;
  roomy.max_states = 64;  // too few for the eager engine
  ExecBudget tight = roomy;
  tight.max_memory_bytes = 8 << 10;
  auto unbounded = schema::StreamingValidator::Create(*schema, roomy);
  auto bounded = schema::StreamingValidator::Create(*schema, tight);
  ASSERT_TRUE(unbounded.ok() && bounded.ok());
  ASSERT_TRUE(unbounded->fallback_used() && bounded->fallback_used());
  auto big = unbounded->ValidateWithStats(doc, vocab);
  auto small = bounded->ValidateWithStats(doc, vocab);
  ASSERT_TRUE(big.ok() && small.ok());
  EXPECT_EQ(big->valid, *want);
  EXPECT_EQ(small->valid, *want);
  // The stream touches several times the cap's worth of sets and rows...
  EXPECT_GT(big->stats.peak_cache_bytes, 4 * tight.max_memory_bytes);
  // ...and the capped engine held at most one event's growth past it.
  EXPECT_GT(small->stats.cache_evictions, 0u);
  EXPECT_LE(small->stats.peak_cache_bytes, tight.max_memory_bytes + 1024);
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
