// Streaming validation: hedge automata run over SAX events with one
// horizontal state per open element, so arbitrarily large documents
// validate in O(depth) memory — the RELAX-style use the paper's Section 2
// situates this work in.
//
// Build & run:  ./build/examples/streaming_validate [nodes]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "schema/streaming.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  using namespace hedgeq;

  size_t nodes = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 200000;

  hedge::Vocabulary vocab;
  auto schema = schema::ParseSchema(kArticleGrammar, vocab);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema error: %s\n",
                 schema.status().ToString().c_str());
    return 1;
  }

  // Determinize once (preprocessing), then validate any number of
  // documents of any size.
  auto validator = schema::StreamingValidator::Create(*schema);
  if (!validator.ok()) {
    std::fprintf(stderr, "determinization error: %s\n",
                 validator.status().ToString().c_str());
    return 1;
  }
  if (validator->dha().has_value()) {
    std::printf(
        "validator ready: %u automaton states, %u horizontal states\n",
        validator->dha()->num_states(), validator->dha()->num_h_states());
  } else {
    std::printf("validator ready: lazy subset engine (determinization "
                "exceeded the budget)\n");
  }

  // A large valid document...
  Rng rng(99);
  workload::ArticleOptions options;
  options.target_nodes = nodes;
  hedge::Hedge doc = workload::RandomArticle(rng, vocab, options);
  xml::XmlDocument wrapped = xml::WrapHedge(doc, vocab);
  std::string text = xml::SerializeXml(wrapped, vocab);
  std::printf("document: %zu nodes, %zu bytes of XML\n", doc.num_nodes(),
              text.size());

  auto verdict = validator->Validate(text, vocab);
  if (!verdict.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 verdict.status().ToString().c_str());
    return 1;
  }
  std::printf("streaming verdict: %s\n", *verdict ? "valid" : "INVALID");

  // ...and a near-miss: drop the article title.
  size_t title_start = text.find("<title>");
  size_t title_end = text.find("</title>") + 8;
  std::string broken =
      text.substr(0, title_start) + text.substr(title_end);
  auto verdict2 = validator->Validate(broken, vocab);
  std::printf("without the article title:  %s\n",
              verdict2.ok() && *verdict2 ? "valid (BUG)" : "INVALID");
  return *verdict && !(verdict2.ok() && *verdict2) ? 0 : 1;
}
