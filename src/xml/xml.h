#ifndef HEDGEQ_XML_XML_H_
#define HEDGEQ_XML_XML_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hedge/hedge.h"
#include "util/status.h"

namespace hedgeq::xml {

/// A parsed XML document viewed as a hedge (the paper's data model: XML
/// documents are hedges; element tags are the alphabet Sigma and text nodes
/// are variables). Side tables keep what the hedge abstraction drops so
/// documents can be serialized back.
struct XmlDocument {
  hedge::Hedge hedge;
  /// Raw text content for nodes labeled with the text variable, indexed by
  /// NodeId ("" for element nodes).
  std::vector<std::string> texts;
  /// Attributes per node id (empty for text nodes).
  std::vector<std::vector<std::pair<std::string, std::string>>> attributes;
};

/// Parsing knobs.
struct XmlParseOptions {
  /// Name of the variable in X used to label text nodes (interned into the
  /// vocabulary). The paper requires a finite X, so all text maps to one
  /// variable; the raw content survives in XmlDocument::texts.
  std::string text_variable = "#text";
  /// When true, each attribute becomes a leading child element named
  /// "@<attr>" holding one text node, so queries can see attributes (the
  /// paper's Section 2 suggests extending terminal symbols this way).
  bool attributes_as_elements = false;
  /// When true, whitespace-only text between elements is dropped.
  bool ignore_whitespace_text = true;
  /// Maximum element nesting depth; deeper documents fail with
  /// kResourceExhausted. The parser keeps its open elements on a heap stack
  /// and does not recurse, so this bounds that stack, not native stack use.
  size_t max_depth = 4096;
  /// Maximum input size in bytes; larger inputs fail with
  /// kResourceExhausted before any parsing work.
  size_t max_input_bytes = size_t{1} << 30;  // 1 GiB
};

/// Parses a (non-validating) XML 1.0 subset: elements, attributes,
/// character data, CDATA sections, comments, processing instructions, the
/// XML declaration, a DOCTYPE line (skipped), and the five predefined
/// entities plus decimal/hex character references. Element names are
/// interned into `vocab.symbols`.
Result<XmlDocument> ParseXml(std::string_view input, hedge::Vocabulary& vocab,
                             const XmlParseOptions& options = {});

/// SAX-style event sink for streaming parses. Callbacks may return an
/// error Status to abort parsing.
class XmlHandler {
 public:
  virtual ~XmlHandler() = default;
  virtual Status StartElement(hedge::SymbolId name) = 0;
  virtual Status EndElement(hedge::SymbolId name) = 0;
  /// One text node (whitespace-only runs are dropped unless configured
  /// otherwise); `variable` is the interned text variable. `content` is
  /// valid only during the call and may point into the parser's input:
  /// a handler that keeps the text must copy it.
  virtual Status Text(hedge::VarId variable, std::string_view content) = 0;
};

/// Streaming parse: same grammar as ParseXml but no tree is built —
/// events fire in document order and memory use is O(element depth).
/// Attributes are recorded per element but only surfaced as elements when
/// options.attributes_as_elements is set.
Status ParseXmlStream(std::string_view input, hedge::Vocabulary& vocab,
                      XmlHandler& handler,
                      const XmlParseOptions& options = {});

/// Serializes a document back to XML text. Text nodes emit their raw
/// content (escaped); attributes are emitted from the side table.
std::string SerializeXml(const XmlDocument& doc,
                         const hedge::Vocabulary& vocab);

/// Escapes the five predefined entities in character data.
std::string EscapeText(std::string_view text);

/// Wraps a bare hedge (e.g. from a generator or a schema witness) as an
/// XmlDocument so it can be serialized; every variable leaf carries
/// `placeholder_text` and substitution/eta leaves are rendered as empty
/// elements named "z:<name>" / "eta" (interned into `vocab`).
XmlDocument WrapHedge(const hedge::Hedge& h, hedge::Vocabulary& vocab,
                      std::string placeholder_text = "text");

}  // namespace hedgeq::xml

#endif  // HEDGEQ_XML_XML_H_
