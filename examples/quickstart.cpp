// Quickstart: parse an XML document, run a selection query built from a
// hedge regular expression and a pointed hedge representation, and print
// the located nodes.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "query/selection.h"
#include "xml/xml.h"

int main() {
  using namespace hedgeq;

  hedge::Vocabulary vocab;

  // 1. Parse a document. XML documents are hedges: elements are symbols in
  //    Sigma, text nodes are variables in X.
  const char* kXml =
      "<article>"
      "  <title>Extended Path Expressions</title>"
      "  <section>"
      "    <title>Intro</title>"
      "    <figure><image/></figure>"
      "    <caption>An automaton</caption>"
      "    <para>text</para>"
      "  </section>"
      "  <section>"
      "    <title>Results</title>"
      "    <figure><image/></figure>"
      "    <para>text</para>"
      "    <section>"
      "      <title>Details</title>"
      "      <figure><image/></figure>"
      "      <caption>Nested</caption>"
      "    </section>"
      "  </section>"
      "</article>";
  auto doc = xml::ParseXml(kXml, vocab);
  if (!doc.ok()) {
    std::fprintf(stderr, "XML error: %s\n", doc.status().ToString().c_str());
    return 1;
  }

  // 2. A selection query select(e1; e2):
  //    - e1 (a hedge regular expression) constrains the node's descendants;
  //      '*' means no condition.
  //    - e2 (a pointed hedge representation) constrains everything else,
  //      read bottom-to-top from the node. Triplets [elder; symbol; younger]
  //      constrain the siblings; bare names are classic path steps.
  //    Here: figures whose immediately following sibling is a caption,
  //    anywhere under sections. kAny generates every hedge over the
  //    vocabulary — HREs describe complete subtree structure, so the
  //    "and then anything" tail is explicit.
  const std::string kAny =
      "(article<%z>|title<%z>|section<%z>|para<%z>|figure<%z>|table<%z>|"
      "caption<%z>|image<%z>|$#text)*^z";
  const std::string kQuery =
      "select(*; [*; figure; (" + kAny + " @z caption<%z>) " + kAny +
      "] (section|article)*)";
  auto query = query::ParseSelectionQuery(kQuery, vocab);
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }

  // 3. Compile once (Theorems 3 and 4; exponential in the query, linear per
  //    document), then evaluate with two depth-first traversals.
  auto evaluator = query::SelectionEvaluator::Create(*query);
  if (!evaluator.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 evaluator.status().ToString().c_str());
    return 1;
  }

  std::printf("query: %s\n\n", kQuery.c_str());
  for (hedge::NodeId n : evaluator->LocatedNodes(doc->hedge)) {
    const std::string dewey = doc->hedge.DeweyString(n);
    xml::XmlDocument subtree;
    subtree.hedge.AppendCopy(hedge::kNullNode, doc->hedge, n);
    subtree.texts.resize(subtree.hedge.num_nodes());
    subtree.attributes.resize(subtree.hedge.num_nodes());
    std::printf("located %-8s at %s\n",
                vocab.symbols.NameOf(doc->hedge.label(n).id).c_str(),
                dewey.c_str());
  }
  return 0;
}
