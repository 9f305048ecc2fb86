// Fuzz harness for the XML front end: the hostile-input surface of the
// whole system (documents arrive from outside; everything downstream
// assumes the hedge the parser built is well formed).
//
// Checked invariants, beyond "no crash / no sanitizer report":
//   - a document that parses also serializes, and the serialization parses
//     again with the same element structure (text nodes may merge when
//     comments separating them are dropped, so only element nodes count);
//   - the streaming parser agrees with the tree parser on acceptance, on
//     the element count and on every text: its Text payloads, in order,
//     equal the texts of the tree's variable nodes (a payload that is a
//     view into the input and one copied into the parser's buffer must
//     read alike).
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hedge/hedge.h"
#include "xml/xml.h"

namespace {

using namespace hedgeq;

size_t CountElements(const hedge::Hedge& h) {
  size_t n = 0;
  for (hedge::NodeId i = 0; i < h.num_nodes(); ++i) {
    if (h.label(i).kind == hedge::LabelKind::kSymbol) ++n;
  }
  return n;
}

class RecordingHandler : public xml::XmlHandler {
 public:
  Status StartElement(hedge::SymbolId) override {
    ++elements;
    return Status();
  }
  Status EndElement(hedge::SymbolId) override { return Status(); }
  Status Text(hedge::VarId, std::string_view content) override {
    texts.emplace_back(content);
    return Status();
  }
  size_t elements = 0;
  std::vector<std::string> texts;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  xml::XmlParseOptions options;
  options.max_depth = 256;            // recursion bound against nesting bombs
  options.max_input_bytes = size_t{1} << 20;

  hedge::Vocabulary vocab;
  Result<xml::XmlDocument> doc = xml::ParseXml(input, vocab, options);

  hedge::Vocabulary stream_vocab;
  RecordingHandler handler;
  Status streamed =
      xml::ParseXmlStream(input, stream_vocab, handler, options);
  if (doc.ok() != streamed.ok()) __builtin_trap();

  if (doc.ok() && doc->hedge.num_nodes() > 0) {
    if (handler.elements != CountElements(doc->hedge)) __builtin_trap();
    size_t next_text = 0;
    for (hedge::NodeId i = 0; i < doc->hedge.num_nodes(); ++i) {
      if (doc->hedge.label(i).kind != hedge::LabelKind::kVariable) continue;
      if (next_text == handler.texts.size() ||
          handler.texts[next_text++] != doc->texts[i]) {
        __builtin_trap();
      }
    }
    if (next_text != handler.texts.size()) __builtin_trap();
    std::string text = xml::SerializeXml(*doc, vocab);
    Result<xml::XmlDocument> again = xml::ParseXml(text, vocab, options);
    if (!again.ok()) __builtin_trap();
    if (CountElements(again->hedge) != CountElements(doc->hedge)) {
      __builtin_trap();
    }
  }
  return 0;
}
