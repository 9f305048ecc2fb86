// Document querying scenario: the paper's motivating examples (Section 1)
// over a generated article corpus, written in the textual query syntax.
//
// Hedge regular expressions describe complete subtree structure, so sibling
// conditions spell out an explicit "anything" tail; kAny below generates
// every hedge over the article vocabulary (the hre::AnyHedgeExpr helper
// builds the same expression programmatically).
//
// Build & run:  ./build/examples/doc_query [nodes]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "query/selection.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace {

// Any hedge over the article vocabulary (including the empty hedge).
const std::string kAny =
    "(article<%z>|title<%z>|section<%z>|para<%z>|figure<%z>|table<%z>|"
    "caption<%z>|image<%z>|$#text)*^z";
// Exactly one tree with the given label and arbitrary content.
std::string Tree(const std::string& label) {
  return "(" + kAny + " @z " + label + "<%z>)";
}

struct NamedQuery {
  std::string name;
  std::string text;
};

std::vector<NamedQuery> BuildQueries() {
  std::vector<NamedQuery> out;
  out.push_back({"figures in sections (the paper's (section*, figure))",
                 "select(*; figure section* article)"});
  out.push_back({"figures at any depth",
                 "select(*; figure (section|article)*)"});
  out.push_back({"figures immediately followed by a caption",
                 "select(*; [*; figure; " + Tree("caption") + " " + kAny +
                     "] (section|article)*)"});
  out.push_back(
      {"figures NOT immediately followed by a caption",
       "select(*; [*; figure; ()|((" + Tree("article") + "|" + Tree("title") +
           "|" + Tree("section") + "|" + Tree("para") + "|" + Tree("figure") +
           "|" + Tree("table") + "|" + Tree("image") + "|$#text) " + kAny +
           ")] (section|article)*)"});
  out.push_back({"sections whose content is title followed by paras only",
                 "select(title<$#text> para<$#text>*; "
                 "section (section|article)*)"});
  out.push_back({"sections with no figure among the children",
                 "select((" + Tree("title") + "|" + Tree("para") + "|" +
                     Tree("caption") + "|" + Tree("table") + "|" +
                     Tree("section") + "|$#text)*; "
                     "section (section|article)*)"});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hedgeq;

  size_t nodes = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 2000;

  hedge::Vocabulary vocab;
  Rng rng(2001);
  workload::ArticleOptions options;
  options.target_nodes = nodes;
  hedge::Hedge doc = workload::RandomArticle(rng, vocab, options);
  std::printf("generated article corpus: %zu nodes\n\n", doc.num_nodes());

  size_t figures = 0, with_caption = 0, without_caption = 0;
  for (const NamedQuery& q : BuildQueries()) {
    auto parsed = query::ParseSelectionQuery(q.text, vocab);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error in '%s': %s\n", q.name.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    auto evaluator = query::SelectionEvaluator::Create(*parsed);
    if (!evaluator.ok()) {
      std::fprintf(stderr, "compile error in '%s': %s\n", q.name.c_str(),
                   evaluator.status().ToString().c_str());
      return 1;
    }
    std::vector<hedge::NodeId> located = evaluator->LocatedNodes(doc);
    std::printf("%-58s -> %5zu nodes\n", q.name.c_str(), located.size());
    for (size_t i = 0; i < located.size() && i < 2; ++i) {
      std::printf("    e.g. %s at %s\n",
                  vocab.symbols.NameOf(doc.label(located[i]).id).c_str(),
                  doc.DeweyString(located[i]).c_str());
    }
    if (q.name == "figures at any depth") figures = located.size();
    if (q.name == "figures immediately followed by a caption") {
      with_caption = located.size();
    }
    if (q.name == "figures NOT immediately followed by a caption") {
      without_caption = located.size();
    }
  }
  std::printf("\nconsistency: %zu + %zu = %zu figures\n", with_caption,
              without_caption, figures);
  return with_caption + without_caption == figures ? 0 : 1;
}
