#include "xml/xml.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "obs/catalogue.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/strings.h"

namespace hedgeq::xml {

using hedge::Hedge;
using hedge::kNullNode;
using hedge::Label;
using hedge::NodeId;

namespace {

// Byte classes for the scanner, the ASCII classes std::isalpha, isalnum and
// isspace give in the C locale; no byte >= 0x80 is in any class.
enum : uint8_t { kNameStart = 1, kNameChar = 2, kSpace = 4 };

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_' || c == ':') t[c] |= kNameStart | kNameChar;
    if (digit || c == '-' || c == '.') t[c] |= kNameChar;
    if (c == ' ' || (c >= '\t' && c <= '\r')) t[c] |= kSpace;
  }
  return t;
}();

bool Is(char c, uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

bool IsWhitespaceOnly(std::string_view s) {
  for (char c : s) {
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return false;
  }
  return true;
}

// Extended sink used internally: the streaming parser also reports
// attributes so the tree builder can fill the side table.
class AttributeSink {
 public:
  virtual ~AttributeSink() = default;
  virtual Status Attribute(std::string_view name, std::string_view value) = 0;
};

// The single streaming parser; ParseXml runs it with a tree-building
// handler, ParseXmlStream with the caller's. Names and raw text runs are
// read as views into the input: no element or text run costs a copy or an
// allocation unless an entity, CDATA section, comment or PI splits a run.
class XmlStreamParser {
 public:
  XmlStreamParser(std::string_view input, hedge::Vocabulary& vocab,
                  XmlHandler& handler, AttributeSink* attribute_sink,
                  const XmlParseOptions& options)
      : input_(input),
        vocab_(vocab),
        handler_(handler),
        attribute_sink_(attribute_sink),
        options_(options),
        text_variable_(vocab.variables.Intern(options.text_variable)) {}

  Status Parse() {
    if (input_.size() > options_.max_input_bytes) {
      return Status::ResourceExhausted(
          StrCat("XML input is ", input_.size(),
                 " bytes, over XmlParseOptions::max_input_bytes=",
                 options_.max_input_bytes));
    }
    HEDGEQ_RETURN_IF_ERROR(SkipMisc(/*allow_doctype=*/true));
    while (pos_ < input_.size()) {
      if (input_[pos_] == '<') {
        HEDGEQ_RETURN_IF_ERROR(ParseElement());
      } else {
        size_t start = pos_;
        while (pos_ < input_.size() && input_[pos_] != '<') ++pos_;
        if (!IsWhitespaceOnly(input_.substr(start, pos_ - start))) {
          return Status::InvalidArgument(
              StrCat("character data outside the document element at offset ",
                     start));
        }
      }
      HEDGEQ_RETURN_IF_ERROR(SkipMisc(/*allow_doctype=*/false));
    }
    return Status::Ok();
  }

 private:
  bool At(std::string_view prefix) const {
    return input_.size() - pos_ >= prefix.size() &&
           input_.compare(pos_, prefix.size(), prefix) == 0;
  }

  void SkipWhitespace() {
    while (pos_ < input_.size() && Is(input_[pos_], kSpace)) ++pos_;
  }

  // Moves pos_ past the first `terminator` at or after pos_, or returns
  // InvalidArgument(`error`) when there is none.
  Status SkipPast(std::string_view terminator, const char* error) {
    size_t end = input_.find(terminator, pos_);
    if (end == std::string_view::npos) return Status::InvalidArgument(error);
    pos_ = end + terminator.size();
    return Status::Ok();
  }

  Status SkipMisc(bool allow_doctype) {
    while (true) {
      SkipWhitespace();
      if (At("<?")) {
        HEDGEQ_RETURN_IF_ERROR(
            SkipPast("?>", "unterminated processing instruction"));
      } else if (At("<!--")) {
        HEDGEQ_RETURN_IF_ERROR(SkipPast("-->", "unterminated comment"));
      } else if (allow_doctype && At("<!DOCTYPE")) {
        int depth = 0;
        while (true) {
          if (pos_ >= input_.size()) {
            return Status::InvalidArgument("unterminated DOCTYPE");
          }
          char c = input_[pos_++];
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth == 0) break;
        }
      } else {
        return Status::Ok();
      }
    }
  }

  Status ParseName(std::string_view& out) {
    if (pos_ >= input_.size() || !Is(input_[pos_], kNameStart)) {
      return Status::InvalidArgument(
          StrCat("expected a name at offset ", pos_));
    }
    size_t start = pos_;
    while (pos_ < input_.size() && Is(input_[pos_], kNameChar)) ++pos_;
    out = input_.substr(start, pos_ - start);
    return Status::Ok();
  }

  Status DecodeEntity(std::string& out) {
    size_t end = input_.find(';', pos_);
    if (end == std::string_view::npos || end - pos_ > 12) {
      return Status::InvalidArgument(
          StrCat("malformed entity reference at offset ", pos_));
    }
    std::string_view name = input_.substr(pos_ + 1, end - pos_ - 1);
    if (name == "lt") {
      out += '<';
    } else if (name == "gt") {
      out += '>';
    } else if (name == "amp") {
      out += '&';
    } else if (name == "apos") {
      out += '\'';
    } else if (name == "quot") {
      out += '"';
    } else if (!name.empty() && name[0] == '#') {
      int base = 10;
      std::string_view digits = name.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) {
        return Status::InvalidArgument(
            StrCat("bad character reference &", std::string(name), ";"));
      }
      unsigned long code = 0;
      for (char c : digits) {
        int d;
        if (c >= '0' && c <= '9') {
          d = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
          d = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
          d = c - 'A' + 10;
        } else {
          return Status::InvalidArgument(
              StrCat("bad character reference &", std::string(name), ";"));
        }
        code = code * static_cast<unsigned long>(base) +
               static_cast<unsigned long>(d);
        if (code > 0x10FFFF) {
          return Status::InvalidArgument(
              StrCat("character reference &", std::string(name),
                     "; is beyond U+10FFFF"));
        }
      }
      if (code == 0 || (code >= 0xD800 && code <= 0xDFFF)) {
        return Status::InvalidArgument(
            StrCat("character reference &", std::string(name),
                   "; is not a valid XML character"));
      }
      if (code < 0x80) {
        out += static_cast<char>(code);
      } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else if (code < 0x10000) {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        out += static_cast<char>(0xF0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      }
    } else {
      return Status::InvalidArgument(
          StrCat("unknown entity &", std::string(name), ";"));
    }
    pos_ = end + 1;
    return Status::Ok();
  }

  Status ParseAttrValue(std::string& out) {
    if (pos_ >= input_.size() ||
        (input_[pos_] != '"' && input_[pos_] != '\'')) {
      return Status::InvalidArgument(
          StrCat("expected a quoted attribute value at offset ", pos_));
    }
    char quote = input_[pos_++];
    while (pos_ < input_.size() && input_[pos_] != quote) {
      if (input_[pos_] == '&') {
        HEDGEQ_RETURN_IF_ERROR(DecodeEntity(out));
      } else if (input_[pos_] == '<') {
        return Status::InvalidArgument(
            StrCat("'<' in attribute value at offset ", pos_));
      } else {
        out += input_[pos_++];
      }
    }
    if (pos_ >= input_.size()) {
      return Status::InvalidArgument("unterminated attribute value");
    }
    ++pos_;
    return Status::Ok();
  }

  // The text of the innermost open element not yet emitted; a parent's
  // text is emitted before a child's start tag, so no other element has
  // any. It is a view into the input while it is one raw slice, and moves
  // into text_buffer_ once an entity, CDATA section, comment or PI splits it.
  std::string& TextBuffer() {
    if (!text_buffered_) {
      text_buffer_.assign(pending_text_);
      text_buffered_ = true;
    }
    return text_buffer_;
  }

  void AppendText(std::string_view slice) {
    if (!text_buffered_ && pending_text_.empty()) {
      pending_text_ = slice;
    } else {
      TextBuffer().append(slice);
    }
  }

  Status EmitText() {
    std::string_view text =
        text_buffered_ ? std::string_view(text_buffer_) : pending_text_;
    pending_text_ = {};
    text_buffered_ = false;
    if (text.empty()) return Status::Ok();
    if (options_.ignore_whitespace_text && IsWhitespaceOnly(text)) {
      return Status::Ok();
    }
    return handler_.Text(text_variable_, text);
  }

  // One element the parser has opened but not yet closed. The element
  // stack lives on the heap, so max_depth is a pure semantic limit: a
  // nesting bomb fails cleanly no matter how large native stack frames
  // are (sanitizer builds inflate them severely enough that bounded
  // recursion at the old cap still overflowed an 8 MiB stack).
  struct OpenElement {
    std::string_view name;
    hedge::SymbolId symbol;
  };

  // Parses one element subtree iteratively: ParseStartTag pushes opened
  // elements onto open_, close tags pop them, and the loop ends when the
  // element that started it is closed.
  Status ParseElement() {
    HEDGEQ_RETURN_IF_ERROR(ParseStartTag());
    while (!open_.empty()) {
      if (pos_ >= input_.size()) {
        return Status::InvalidArgument(
            StrCat("unterminated element <", open_.back().name, ">"));
      }
      const char c = input_[pos_];
      if (c == '&') {
        HEDGEQ_RETURN_IF_ERROR(DecodeEntity(TextBuffer()));
        continue;
      }
      if (c != '<') {
        size_t start = pos_;
        while (pos_ < input_.size() && input_[pos_] != '<' &&
               input_[pos_] != '&') {
          ++pos_;
        }
        AppendText(input_.substr(start, pos_ - start));
        continue;
      }
      const char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
      if (next == '/') {
        HEDGEQ_RETURN_IF_ERROR(EmitText());
        pos_ += 2;
        std::string_view close_name;
        HEDGEQ_RETURN_IF_ERROR(ParseName(close_name));
        if (close_name != open_.back().name) {
          return Status::InvalidArgument(StrCat("mismatched close tag </",
                                                close_name, "> for <",
                                                open_.back().name, ">"));
        }
        SkipWhitespace();
        if (pos_ >= input_.size() || input_[pos_] != '>') {
          return Status::InvalidArgument("malformed close tag");
        }
        ++pos_;
        HEDGEQ_RETURN_IF_ERROR(handler_.EndElement(open_.back().symbol));
        open_.pop_back();
        continue;
      }
      if (next == '!' && At("<!--")) {
        HEDGEQ_RETURN_IF_ERROR(SkipPast("-->", "unterminated comment"));
        continue;
      }
      if (next == '!' && At("<![CDATA[")) {
        size_t start = pos_ + 9;
        HEDGEQ_RETURN_IF_ERROR(SkipPast("]]>", "unterminated CDATA section"));
        AppendText(input_.substr(start, pos_ - 3 - start));
        continue;
      }
      if (next == '?') {
        HEDGEQ_RETURN_IF_ERROR(
            SkipPast("?>", "unterminated processing instruction"));
        continue;
      }
      HEDGEQ_RETURN_IF_ERROR(EmitText());
      HEDGEQ_RETURN_IF_ERROR(ParseStartTag());
    }
    return Status::Ok();
  }

  // Parses one start tag (attributes included). A self-closing tag emits
  // its EndElement immediately; otherwise the element is pushed onto
  // open_ and ParseElement's loop consumes its content.
  Status ParseStartTag() {
    if (open_.size() >= options_.max_depth) {
      return Status::ResourceExhausted(
          StrCat("element nesting deeper than XmlParseOptions::max_depth=",
                 options_.max_depth, " at offset ", pos_));
    }
    HEDGEQ_CHECK(input_[pos_] == '<');
    ++pos_;
    std::string_view name;
    HEDGEQ_RETURN_IF_ERROR(ParseName(name));
    hedge::SymbolId symbol = vocab_.symbols.Intern(name);
    HEDGEQ_RETURN_IF_ERROR(handler_.StartElement(symbol));

    // Attributes.
    std::vector<std::pair<std::string_view, std::string>> attributes;
    while (true) {
      SkipWhitespace();
      if (pos_ >= input_.size()) {
        return Status::InvalidArgument("unterminated start tag");
      }
      if (input_[pos_] == '>' || At("/>")) break;
      std::string_view attr_name;
      HEDGEQ_RETURN_IF_ERROR(ParseName(attr_name));
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != '=') {
        return Status::InvalidArgument(
            StrCat("expected '=' after attribute ", attr_name));
      }
      ++pos_;
      SkipWhitespace();
      std::string value;
      HEDGEQ_RETURN_IF_ERROR(ParseAttrValue(value));
      if (attribute_sink_ != nullptr) {
        HEDGEQ_RETURN_IF_ERROR(attribute_sink_->Attribute(attr_name, value));
      }
      attributes.emplace_back(attr_name, std::move(value));
    }

    if (options_.attributes_as_elements) {
      for (const auto& [attr_name, value] : attributes) {
        hedge::SymbolId attr_symbol =
            vocab_.symbols.Intern(StrCat("@", attr_name));
        HEDGEQ_RETURN_IF_ERROR(handler_.StartElement(attr_symbol));
        HEDGEQ_RETURN_IF_ERROR(handler_.Text(text_variable_, value));
        HEDGEQ_RETURN_IF_ERROR(handler_.EndElement(attr_symbol));
      }
    }

    if (At("/>")) {
      pos_ += 2;
      return handler_.EndElement(symbol);
    }
    ++pos_;  // '>'
    open_.push_back(OpenElement{name, symbol});
    return Status::Ok();
  }

  std::string_view input_;
  hedge::Vocabulary& vocab_;
  XmlHandler& handler_;
  AttributeSink* attribute_sink_;
  const XmlParseOptions& options_;
  hedge::VarId text_variable_;
  size_t pos_ = 0;
  std::vector<OpenElement> open_;
  std::string_view pending_text_;
  std::string text_buffer_;
  bool text_buffered_ = false;
};

// Builds an XmlDocument from the event stream (what ParseXml returns).
class TreeBuilder : public XmlHandler, public AttributeSink {
 public:
  Status StartElement(hedge::SymbolId name) override {
    NodeId parent = stack_.empty() ? kNullNode : stack_.back();
    NodeId node = doc_.hedge.Append(parent, Label::Symbol(name));
    doc_.texts.emplace_back();
    doc_.attributes.emplace_back();
    stack_.push_back(node);
    return Status::Ok();
  }
  Status EndElement(hedge::SymbolId) override {
    stack_.pop_back();
    return Status::Ok();
  }
  Status Text(hedge::VarId variable, std::string_view content) override {
    NodeId parent = stack_.empty() ? kNullNode : stack_.back();
    doc_.hedge.Append(parent, Label::Variable(variable));
    doc_.texts.emplace_back(content);
    doc_.attributes.emplace_back();
    return Status::Ok();
  }
  Status Attribute(std::string_view name, std::string_view value) override {
    HEDGEQ_CHECK(!stack_.empty());
    doc_.attributes[stack_.back()].emplace_back(name, value);
    return Status::Ok();
  }

  XmlDocument Take() { return std::move(doc_); }

 private:
  XmlDocument doc_;
  std::vector<NodeId> stack_;
};

// EscapeText, appending to `out`.
void AppendEscaped(std::string_view text, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
}

void SerializeNode(const XmlDocument& doc, const hedge::Vocabulary& vocab,
                   NodeId n, std::string& out) {
  const Label label = doc.hedge.label(n);
  if (label.kind == hedge::LabelKind::kVariable) {
    if (n < doc.texts.size()) AppendEscaped(doc.texts[n], out);
    return;
  }
  HEDGEQ_CHECK(label.kind == hedge::LabelKind::kSymbol);
  const std::string& name = vocab.symbols.NameOf(label.id);
  out += '<';
  out += name;
  if (n < doc.attributes.size()) {
    for (const auto& [attr, value] : doc.attributes[n]) {
      out += ' ';
      out += attr;
      out += "=\"";
      AppendEscaped(value, out);
      out += '"';
    }
  }
  NodeId child = doc.hedge.first_child(n);
  if (child == kNullNode) {
    out += "/>";
    return;
  }
  out += ">";
  for (; child != kNullNode; child = doc.hedge.next_sibling(child)) {
    SerializeNode(doc, vocab, child, out);
  }
  out += "</";
  out += name;
  out += '>';
}

}  // namespace

Result<XmlDocument> ParseXml(std::string_view input, hedge::Vocabulary& vocab,
                             const XmlParseOptions& options) {
  HEDGEQ_OBS_SPAN(span, obs::spans::kXmlParse);
  TreeBuilder builder;
  XmlStreamParser parser(input, vocab, builder, &builder, options);
  Status status = parser.Parse();
  if (!status.ok()) return status;
  XmlDocument doc = builder.Take();
  doc.texts.resize(doc.hedge.num_nodes());
  doc.attributes.resize(doc.hedge.num_nodes());
  if (obs::Enabled()) {
    const size_t n = doc.hedge.num_nodes();
    // Element depth via one forward sweep (arena ids ascend parent->child).
    std::vector<uint32_t> depth(n, 1);
    uint32_t max_depth = n == 0 ? 0 : 1;
    for (NodeId node = 0; node < n; ++node) {
      NodeId parent = doc.hedge.parent(node);
      if (parent != kNullNode) depth[node] = depth[parent] + 1;
      max_depth = std::max(max_depth, depth[node]);
    }
    HEDGEQ_OBS_COUNT(obs::metrics::kXmlParseBytes, input.size());
    HEDGEQ_OBS_COUNT(obs::metrics::kXmlParseNodes, n);
    HEDGEQ_OBS_GAUGE_MAX(obs::metrics::kXmlParseMaxDepth, max_depth);
    HEDGEQ_OBS_OBSERVE(obs::metrics::kHistDocNodes, n);
    span.AddArg("bytes", input.size());
    span.AddArg("nodes", n);
    span.AddArg("max_depth", max_depth);
  }
  return doc;
}

Status ParseXmlStream(std::string_view input, hedge::Vocabulary& vocab,
                      XmlHandler& handler, const XmlParseOptions& options) {
  HEDGEQ_OBS_SPAN(span, obs::spans::kXmlParse);
  HEDGEQ_OBS_COUNT(obs::metrics::kXmlParseBytes, input.size());
  span.AddArg("bytes", input.size());
  XmlStreamParser parser(input, vocab, handler, nullptr, options);
  return parser.Parse();
}

std::string SerializeXml(const XmlDocument& doc,
                         const hedge::Vocabulary& vocab) {
  std::string out;
  for (NodeId r : doc.hedge.roots()) {
    SerializeNode(doc, vocab, r, out);
  }
  return out;
}

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(text, out);
  return out;
}

XmlDocument WrapHedge(const hedge::Hedge& h, hedge::Vocabulary& vocab,
                      std::string placeholder_text) {
  XmlDocument doc;
  std::vector<NodeId> map(h.num_nodes(), kNullNode);
  for (NodeId n : h.PreOrder()) {
    NodeId parent = h.parent(n) == kNullNode ? kNullNode : map[h.parent(n)];
    Label label = h.label(n);
    switch (label.kind) {
      case hedge::LabelKind::kSymbol:
      case hedge::LabelKind::kVariable:
        break;
      case hedge::LabelKind::kSubst:
        label = Label::Symbol(
            vocab.symbols.Intern("z:" + vocab.substs.NameOf(label.id)));
        break;
      case hedge::LabelKind::kEta:
        label = Label::Symbol(vocab.symbols.Intern("eta"));
        break;
    }
    map[n] = doc.hedge.Append(parent, label);
  }
  doc.texts.assign(doc.hedge.num_nodes(), "");
  doc.attributes.resize(doc.hedge.num_nodes());
  for (NodeId n = 0; n < doc.hedge.num_nodes(); ++n) {
    if (doc.hedge.label(n).kind == hedge::LabelKind::kVariable) {
      doc.texts[n] = placeholder_text;
    }
  }
  return doc;
}

}  // namespace hedgeq::xml
