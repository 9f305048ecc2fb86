#include "hedge/hedge.h"

#include <algorithm>
#include <cctype>

#include "util/check.h"
#include "util/strings.h"

namespace hedgeq::hedge {

NodeId Hedge::Append(NodeId parent, Label label) {
  HEDGEQ_CHECK(parent == kNullNode ||
               labels_[parent].kind == LabelKind::kSymbol);
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  parents_.push_back(parent);
  first_children_.push_back(kNullNode);
  last_children_.push_back(kNullNode);
  next_siblings_.push_back(kNullNode);

  NodeId prev = kNullNode;
  if (parent == kNullNode) {
    if (!roots_.empty()) prev = roots_.back();
    roots_.push_back(id);
  } else {
    prev = last_children_[parent];
    if (first_children_[parent] == kNullNode) first_children_[parent] = id;
    last_children_[parent] = id;
  }
  prev_siblings_.push_back(prev);
  if (prev != kNullNode) next_siblings_[prev] = id;
  return id;
}

NodeId Hedge::AppendCopy(NodeId parent, const Hedge& src, NodeId src_root) {
  NodeId copy = Append(parent, src.label(src_root));
  for (NodeId c = src.first_child(src_root); c != kNullNode;
       c = src.next_sibling(c)) {
    AppendCopy(copy, src, c);
  }
  return copy;
}

void Hedge::AppendHedgeCopy(NodeId parent, const Hedge& src) {
  for (NodeId r : src.roots()) AppendCopy(parent, src, r);
}

std::vector<NodeId> Hedge::ChildrenOf(NodeId n) const {
  if (n == kNullNode) return roots_;
  std::vector<NodeId> out;
  for (NodeId c = first_children_[n]; c != kNullNode; c = next_siblings_[c]) {
    out.push_back(c);
  }
  return out;
}

std::vector<NodeId> Hedge::PreOrder() const {
  std::vector<NodeId> out;
  out.reserve(num_nodes());
  std::vector<NodeId> stack(roots_.rbegin(), roots_.rend());
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (NodeId c = last_children_[n]; c != kNullNode; c = prev_siblings_[c]) {
      stack.push_back(c);
    }
  }
  return out;
}

size_t Hedge::SubtreeSize(NodeId n) const {
  size_t total = 1;
  for (NodeId c = first_children_[n]; c != kNullNode; c = next_siblings_[c]) {
    total += SubtreeSize(c);
  }
  return total;
}

std::vector<Label> Hedge::Ceil() const {
  std::vector<Label> out;
  out.reserve(roots_.size());
  for (NodeId r : roots_) out.push_back(labels_[r]);
  return out;
}

std::vector<uint32_t> Hedge::DeweyOf(NodeId n) const {
  std::vector<uint32_t> path;
  NodeId cur = n;
  while (cur != kNullNode) {
    uint32_t index = 0;
    for (NodeId s = prev_siblings_[cur]; s != kNullNode;
         s = prev_siblings_[s]) {
      ++index;
    }
    path.push_back(index);
    cur = parents_[cur];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Hedge::DeweyString(NodeId n) const {
  std::string out;
  for (uint32_t step : DeweyOf(n)) {
    out += '/';
    out += std::to_string(step);
  }
  return out.empty() ? "/" : out;
}

NodeId Hedge::AtDewey(const std::vector<uint32_t>& address) const {
  NodeId cur = kNullNode;
  for (uint32_t index : address) {
    NodeId child = (cur == kNullNode)
                       ? (roots_.empty() ? kNullNode : roots_.front())
                       : first_children_[cur];
    for (uint32_t i = 0; i < index && child != kNullNode; ++i) {
      child = next_siblings_[child];
    }
    if (child == kNullNode) return kNullNode;
    cur = child;
  }
  return cur;
}

size_t Hedge::DepthOf(NodeId n) const {
  size_t depth = 0;
  for (NodeId p = parents_[n]; p != kNullNode; p = parents_[p]) ++depth;
  return depth;
}

Hedge Hedge::SubhedgeOf(NodeId n) const {
  Hedge out;
  for (NodeId c = first_children_[n]; c != kNullNode; c = next_siblings_[c]) {
    out.AppendCopy(kNullNode, *this, c);
  }
  return out;
}

namespace {

// Copies the subtree at `root` of `src` into `dst` under `parent`, except
// that the descendants of `skip_children_of` are replaced by a single eta
// leaf.
NodeId CopyWithEta(const Hedge& src, NodeId root, Hedge& dst, NodeId parent,
                   NodeId skip_children_of, NodeId* eta_parent) {
  NodeId copy = dst.Append(parent, src.label(root));
  if (root == skip_children_of) {
    dst.Append(copy, Label::Eta());
    if (eta_parent != nullptr) *eta_parent = copy;
    return copy;
  }
  for (NodeId c = src.first_child(root); c != kNullNode;
       c = src.next_sibling(c)) {
    CopyWithEta(src, c, dst, copy, skip_children_of, eta_parent);
  }
  return copy;
}

}  // namespace

Hedge Hedge::EnvelopeOf(NodeId n, NodeId* eta_parent) const {
  HEDGEQ_CHECK_MSG(labels_[n].kind == LabelKind::kSymbol,
                   "envelope requires a symbol-labeled node");
  Hedge out;
  for (NodeId r : roots_) {
    CopyWithEta(*this, r, out, kNullNode, n, eta_parent);
  }
  return out;
}

bool Hedge::SubtreeEqual(NodeId a, const Hedge& other, NodeId b) const {
  if (!(labels_[a] == other.labels_[b])) return false;
  NodeId ca = first_children_[a];
  NodeId cb = other.first_children_[b];
  while (ca != kNullNode && cb != kNullNode) {
    if (!SubtreeEqual(ca, other, cb)) return false;
    ca = next_siblings_[ca];
    cb = other.next_siblings_[cb];
  }
  return ca == kNullNode && cb == kNullNode;
}

bool Hedge::EqualTo(const Hedge& other) const {
  if (roots_.size() != other.roots_.size()) return false;
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (!SubtreeEqual(roots_[i], other, other.roots_[i])) return false;
  }
  return true;
}

std::string LabelToString(const Label& label, const Vocabulary& vocab) {
  switch (label.kind) {
    case LabelKind::kSymbol:
      return vocab.symbols.NameOf(label.id);
    case LabelKind::kVariable:
      return "$" + vocab.variables.NameOf(label.id);
    case LabelKind::kSubst:
      return "%" + vocab.substs.NameOf(label.id);
    case LabelKind::kEta:
      return "@";
  }
  return "?";
}

namespace {

void TreeToString(const Hedge& h, NodeId n, const Vocabulary& vocab,
                  std::string& out) {
  out += LabelToString(h.label(n), vocab);
  if (h.label(n).kind == LabelKind::kSymbol &&
      h.first_child(n) != kNullNode) {
    out += "<";
    bool first = true;
    for (NodeId c = h.first_child(n); c != kNullNode; c = h.next_sibling(c)) {
      if (!first) out += " ";
      first = false;
      TreeToString(h, c, vocab, out);
    }
    out += ">";
  }
}

}  // namespace

std::string Hedge::ToString(const Vocabulary& vocab) const {
  std::string out;
  bool first = true;
  for (NodeId r : roots_) {
    if (!first) out += " ";
    first = false;
    TreeToString(*this, r, vocab, out);
  }
  return out;
}

namespace {

class HedgeParser {
 public:
  HedgeParser(std::string_view text, Vocabulary& vocab)
      : text_(text), vocab_(vocab) {}

  Result<Hedge> Parse() {
    Hedge h;
    Status s = ParseSequence(h, kNullNode);
    if (!s.ok()) return s;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(StrCat("unexpected character '",
                                            text_[pos_], "' at offset ", pos_,
                                            " in hedge: ", text_));
    }
    return h;
  }

 private:
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-' || c == '#';
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtTreeStart() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    return IsIdentChar(c) || c == '$' || c == '%' || c == '@';
  }

  Status ParseSequence(Hedge& h, NodeId parent) {
    while (AtTreeStart()) {
      HEDGEQ_RETURN_IF_ERROR(ParseTree(h, parent));
    }
    return Status::Ok();
  }

  Status ParseTree(Hedge& h, NodeId parent) {
    SkipSpace();
    char c = text_[pos_];
    if (c == '@') {
      ++pos_;
      h.Append(parent, Label::Eta());
      return Status::Ok();
    }
    if (c == '$' || c == '%') {
      ++pos_;
      std::string name;
      HEDGEQ_RETURN_IF_ERROR(ParseIdent(name));
      Label label = (c == '$') ? Label::Variable(vocab_.variables.Intern(name))
                               : Label::Subst(vocab_.substs.Intern(name));
      h.Append(parent, label);
      return Status::Ok();
    }
    std::string name;
    HEDGEQ_RETURN_IF_ERROR(ParseIdent(name));
    NodeId node = h.Append(parent, Label::Symbol(vocab_.symbols.Intern(name)));
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '<') {
      ++pos_;
      HEDGEQ_RETURN_IF_ERROR(ParseSequence(h, node));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '>') {
        return Status::InvalidArgument(
            StrCat("missing '>' at offset ", pos_, " in hedge: ", text_));
      }
      ++pos_;
    }
    return Status::Ok();
  }

  Status ParseIdent(std::string& out) {
    size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    if (pos_ == start) {
      return Status::InvalidArgument(
          StrCat("expected an identifier at offset ", pos_, " in: ", text_));
    }
    out = std::string(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  std::string_view text_;
  Vocabulary& vocab_;
  size_t pos_ = 0;
};

}  // namespace

Result<Hedge> ParseHedge(std::string_view text, Vocabulary& vocab) {
  HedgeParser parser(text, vocab);
  return parser.Parse();
}

}  // namespace hedgeq::hedge
