#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "xml/xml.h"

namespace hedgeq::xml {
namespace {

using hedge::LabelKind;
using hedge::NodeId;
using hedge::Vocabulary;

TEST(XmlParseTest, SimpleElement) {
  Vocabulary vocab;
  auto doc = ParseXml("<a/>", vocab);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->hedge.roots().size(), 1u);
  EXPECT_EQ(vocab.symbols.NameOf(doc->hedge.label(doc->hedge.roots()[0]).id),
            "a");
}

TEST(XmlParseTest, NestedStructureAndText) {
  Vocabulary vocab;
  auto doc = ParseXml("<doc><p>hello</p><p>world</p></doc>", vocab);
  ASSERT_TRUE(doc.ok());
  NodeId root = doc->hedge.roots()[0];
  std::vector<NodeId> ps = doc->hedge.ChildrenOf(root);
  ASSERT_EQ(ps.size(), 2u);
  NodeId text = doc->hedge.first_child(ps[0]);
  ASSERT_NE(text, hedge::kNullNode);
  EXPECT_EQ(doc->hedge.label(text).kind, LabelKind::kVariable);
  EXPECT_EQ(doc->texts[text], "hello");
}

TEST(XmlParseTest, WhitespaceTextDroppedByDefault) {
  Vocabulary vocab;
  auto doc = ParseXml("<a>\n  <b/>\n  <c/>\n</a>", vocab);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->hedge.ChildrenOf(doc->hedge.roots()[0]).size(), 2u);

  XmlParseOptions keep;
  keep.ignore_whitespace_text = false;
  auto doc2 = ParseXml("<a>\n  <b/>\n</a>", vocab, keep);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2->hedge.ChildrenOf(doc2->hedge.roots()[0]).size(), 3u);
}

TEST(XmlParseTest, AttributesInSideTable) {
  Vocabulary vocab;
  auto doc = ParseXml(R"(<a id="1" class='x y'/>)", vocab);
  ASSERT_TRUE(doc.ok());
  NodeId root = doc->hedge.roots()[0];
  ASSERT_EQ(doc->attributes[root].size(), 2u);
  EXPECT_EQ(doc->attributes[root][0].first, "id");
  EXPECT_EQ(doc->attributes[root][0].second, "1");
  EXPECT_EQ(doc->attributes[root][1].second, "x y");
}

TEST(XmlParseTest, AttributesAsElements) {
  Vocabulary vocab;
  XmlParseOptions options;
  options.attributes_as_elements = true;
  auto doc = ParseXml(R"(<a id="1"><b/></a>)", vocab, options);
  ASSERT_TRUE(doc.ok());
  NodeId root = doc->hedge.roots()[0];
  std::vector<NodeId> kids = doc->hedge.ChildrenOf(root);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(vocab.symbols.NameOf(doc->hedge.label(kids[0]).id), "@id");
}

TEST(XmlParseTest, EntitiesAndCharRefs) {
  Vocabulary vocab;
  auto doc = ParseXml("<a>&lt;&amp;&gt;&#65;&#x42;</a>", vocab);
  ASSERT_TRUE(doc.ok());
  NodeId text = doc->hedge.first_child(doc->hedge.roots()[0]);
  EXPECT_EQ(doc->texts[text], "<&>AB");
}

TEST(XmlParseTest, CommentsCdataPisAndDoctype) {
  Vocabulary vocab;
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE doc [<!ELEMENT doc ANY>]>\n"
      "<!-- comment -->\n"
      "<doc><!-- inner --><![CDATA[<raw>&stuff;]]><?pi data?></doc>",
      vocab);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  NodeId text = doc->hedge.first_child(doc->hedge.roots()[0]);
  ASSERT_NE(text, hedge::kNullNode);
  EXPECT_EQ(doc->texts[text], "<raw>&stuff;");
}

TEST(XmlParseTest, Malformed) {
  Vocabulary vocab;
  EXPECT_FALSE(ParseXml("<a>", vocab).ok());
  EXPECT_FALSE(ParseXml("<a></b>", vocab).ok());
  EXPECT_FALSE(ParseXml("<a attr></a>", vocab).ok());
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>", vocab).ok());
  EXPECT_FALSE(ParseXml("<a><b att='<'/></a>", vocab).ok());
  EXPECT_FALSE(ParseXml("text outside", vocab).ok());
  EXPECT_FALSE(ParseXml("<a><!-- unterminated </a>", vocab).ok());
  for (std::string_view input : {"<!DOCTYPE x", "<!DOCTYPE x [<!ELEMENT x ANY>"}) {
    Result<XmlDocument> doc = ParseXml(input, vocab);
    ASSERT_FALSE(doc.ok()) << input;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(doc.status().message(), "unterminated DOCTYPE");
  }
}

// Records the event stream as "<name", ">name" and "'text" entries.
class RecordingHandler : public XmlHandler {
 public:
  explicit RecordingHandler(const Vocabulary& vocab) : vocab_(vocab) {}
  Status StartElement(hedge::SymbolId name) override {
    events.push_back("<" + vocab_.symbols.NameOf(name));
    return Status::Ok();
  }
  Status EndElement(hedge::SymbolId name) override {
    events.push_back(">" + vocab_.symbols.NameOf(name));
    return Status::Ok();
  }
  Status Text(hedge::VarId, std::string_view content) override {
    events.push_back("'" + std::string(content));
    return Status::Ok();
  }
  std::vector<std::string> events;

 private:
  const Vocabulary& vocab_;
};

// The same event stream read back from a parsed document.
void TreeEvents(const XmlDocument& doc, const Vocabulary& vocab, NodeId n,
                std::vector<std::string>& out) {
  if (doc.hedge.label(n).kind == LabelKind::kVariable) {
    out.push_back("'" + doc.texts[n]);
    return;
  }
  const std::string& name = vocab.symbols.NameOf(doc.hedge.label(n).id);
  out.push_back("<" + name);
  for (NodeId c = doc.hedge.first_child(n); c != hedge::kNullNode;
       c = doc.hedge.next_sibling(c)) {
    TreeEvents(doc, vocab, c, out);
  }
  out.push_back(">" + name);
}

// Parses `input` with ParseXmlStream and with ParseXml, checks that both
// give the same events, and returns them (or the error both report).
Result<std::vector<std::string>> Events(std::string_view input,
                                        const XmlParseOptions& options = {}) {
  Vocabulary stream_vocab;
  RecordingHandler handler(stream_vocab);
  Status streamed = ParseXmlStream(input, stream_vocab, handler, options);
  Vocabulary tree_vocab;
  Result<XmlDocument> doc = ParseXml(input, tree_vocab, options);
  EXPECT_EQ(streamed.ToString(), doc.status().ToString()) << input;
  if (!doc.ok()) return doc.status();
  std::vector<std::string> tree_events;
  for (NodeId r : doc->hedge.roots()) {
    TreeEvents(*doc, tree_vocab, r, tree_events);
  }
  EXPECT_EQ(handler.events, tree_events) << input;
  return handler.events;
}

using Ev = std::vector<std::string>;

TEST(XmlEventTest, SplitTextArrivesAsOneEvent) {
  EXPECT_EQ(*Events("<a>x&amp;y</a>"), (Ev{"<a", "'x&y", ">a"}));
  EXPECT_EQ(*Events("<a>&lt;x</a>"), (Ev{"<a", "'<x", ">a"}));
  EXPECT_EQ(*Events("<a>x<![CDATA[<y>]]>z</a>"), (Ev{"<a", "'x<y>z", ">a"}));
  EXPECT_EQ(*Events("<a><![CDATA[y]]></a>"), (Ev{"<a", "'y", ">a"}));
  EXPECT_EQ(*Events("<a>x<!-- c -->y</a>"), (Ev{"<a", "'xy", ">a"}));
  EXPECT_EQ(*Events("<a>x<?pi d?>y</a>"), (Ev{"<a", "'xy", ">a"}));
  EXPECT_EQ(*Events("<a>p&amp;q<!--c-->r<![CDATA[s]]>t<?p?>u&#x41;</a>"),
            (Ev{"<a", "'p&qrstuA", ">a"}));
  // A comment or PI alone makes no text.
  EXPECT_EQ(*Events("<a><!--c--><?p?><![CDATA[]]></a>"), (Ev{"<a", ">a"}));
}

TEST(XmlEventTest, TextAroundAChildArrivesAsTwoEvents) {
  EXPECT_EQ(*Events("<a>x<b/>y</a>"),
            (Ev{"<a", "'x", "<b", ">b", "'y", ">a"}));
  EXPECT_EQ(*Events("<a>x&amp;<b>z<!--c-->w</b>y<![CDATA[v]]></a>"),
            (Ev{"<a", "'x&", "<b", "'zw", ">b", "'yv", ">a"}));
}

TEST(XmlEventTest, WhitespaceRuns) {
  const std::string input = "<a> <b/>\n\t<c>&#32;</c> x </a>";
  EXPECT_EQ(*Events(input), (Ev{"<a", "<b", ">b", "<c", ">c", "' x ", ">a"}));
  XmlParseOptions keep;
  keep.ignore_whitespace_text = false;
  EXPECT_EQ(*Events(input, keep), (Ev{"<a", "' ", "<b", ">b", "'\n\t", "<c",
                                      "' ", ">c", "' x ", ">a"}));
  // Only space, tab, newline and carriage return make a run whitespace.
  EXPECT_EQ(*Events("<a>\v</a>"), (Ev{"<a", "'\v", ">a"}));
}

TEST(XmlEventTest, VerticalTabAndFormFeedInsideTags) {
  EXPECT_EQ(*Events("<a\vx='1'\f>t</a\f><b\v/>"),
            (Ev{"<a", "'t", ">a", "<b", ">b"}));
}

TEST(XmlEventTest, NameCharacters) {
  EXPECT_EQ(*Events("<a1-b.c:d><_x/></a1-b.c:d>"),
            (Ev{"<a1-b.c:d", "<_x", ">_x", ">a1-b.c:d"}));
  EXPECT_EQ(Events("<1a/>").status().message(), "expected a name at offset 1");
  EXPECT_EQ(Events("<-a/>").status().message(), "expected a name at offset 1");
}

TEST(XmlEventTest, NonAsciiNameByteIsRejected) {
  EXPECT_EQ(Events("<\xC3\xA9/>").status().message(),
            "expected a name at offset 1");
  EXPECT_EQ(Events("<a\xC3\xA9/>").status().message(),
            "expected a name at offset 2");
  EXPECT_EQ(Events("<a></a\xC3\xA9>").status().message(), "malformed close tag");
}

TEST(XmlEventTest, MaxDepthBoundary) {
  XmlParseOptions options;
  options.max_depth = 3;
  EXPECT_EQ(*Events("<a><b><c/></b></a>", options),
            (Ev{"<a", "<b", "<c", ">c", ">b", ">a"}));
  EXPECT_EQ(*Events("<a><b><c></c></b></a>", options),
            (Ev{"<a", "<b", "<c", ">c", ">b", ">a"}));
  Result<Ev> deep = Events("<a><b><c><d/></c></b></a>", options);
  EXPECT_EQ(deep.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(deep.status().message(),
            "element nesting deeper than XmlParseOptions::max_depth=3 at "
            "offset 9");
}

TEST(XmlEventTest, MismatchedCloseTag) {
  EXPECT_EQ(Events("<a><b></a></b>").status().message(),
            "mismatched close tag </a> for <b>");
  EXPECT_EQ(Events("<ab></a>").status().message(),
            "mismatched close tag </a> for <ab>");
  EXPECT_EQ(Events("<a>x").status().message(), "unterminated element <a>");
}

TEST(XmlSerializeTest, RoundTrip) {
  Vocabulary vocab;
  const std::string input =
      R"(<doc id="7"><p>hi &amp; bye</p><hr/><p>two</p></doc>)";
  auto doc = ParseXml(input, vocab);
  ASSERT_TRUE(doc.ok());
  std::string printed = SerializeXml(*doc, vocab);
  auto doc2 = ParseXml(printed, vocab);
  ASSERT_TRUE(doc2.ok()) << printed;
  EXPECT_TRUE(doc->hedge.EqualTo(doc2->hedge));
  EXPECT_EQ(printed, SerializeXml(*doc2, vocab));
}

TEST(XmlSerializeTest, EscapesSpecials) {
  EXPECT_EQ(EscapeText("a<b&c>d\"e"), "a&lt;b&amp;c&gt;d&quot;e");
}

TEST(XmlParseTest, MultipleTopLevelElementsFormAHedge) {
  // Hedges are sequences of trees; the parser accepts fragment inputs.
  Vocabulary vocab;
  auto doc = ParseXml("<a/><b/><c/>", vocab);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->hedge.roots().size(), 3u);
}

}  // namespace
}  // namespace hedgeq::xml
