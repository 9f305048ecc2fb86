#ifndef HEDGEQ_HEDGE_HEDGE_H_
#define HEDGEQ_HEDGE_HEDGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/interner.h"
#include "util/status.h"

namespace hedgeq::hedge {

/// Node id within one Hedge arena.
using NodeId = uint32_t;
inline constexpr NodeId kNullNode = UINT32_MAX;

/// Interned element name (Sigma), variable (X) or substitution symbol (Z).
using SymbolId = InternId;
using VarId = InternId;
using SubstId = InternId;

/// The shared name spaces of a document/query universe: the alphabet Sigma,
/// the variable set X, and the substitution symbols Z of the paper. All are
/// pairwise disjoint by construction (separate interners).
struct Vocabulary {
  Interner symbols;    // Sigma: labels of non-leaf nodes (XML elements)
  Interner variables;  // X: labels of leaf nodes (XML text)
  Interner substs;     // Z: substitution symbols of hedge regular expressions
};

/// What a node is labeled with.
enum class LabelKind : uint8_t {
  kSymbol,    // a in Sigma, may have children
  kVariable,  // x in X, always a leaf
  kSubst,     // z in Z, always a leaf (hedges with substitution symbols)
  kEta,       // the point of a pointed hedge, always a leaf
};

/// A node label: kind plus the id within the kind's interner.
struct Label {
  LabelKind kind;
  InternId id;  // unused for kEta

  static Label Symbol(SymbolId s) { return {LabelKind::kSymbol, s}; }
  static Label Variable(VarId x) { return {LabelKind::kVariable, x}; }
  static Label Subst(SubstId z) { return {LabelKind::kSubst, z}; }
  static Label Eta() { return {LabelKind::kEta, 0}; }

  bool operator==(const Label& other) const {
    if (kind != other.kind) return false;
    if (kind == LabelKind::kEta) return true;
    return id == other.id;
  }
};

/// An ordered sequence of ordered labeled trees (Definition 1), stored in an
/// append-only arena. Nodes labeled with symbols may have children; nodes
/// labeled with variables, substitution symbols or eta are leaves.
class Hedge {
 public:
  Hedge() = default;

  /// Appends a node as the last child of `parent`, or as a new top-level
  /// tree when parent is kNullNode. Returns the new node's id.
  NodeId Append(NodeId parent, Label label);

  /// Deep-copies the subtree rooted at `src_root` of `src` as the last child
  /// of `parent` (top level when kNullNode). Returns the copy's root id.
  NodeId AppendCopy(NodeId parent, const Hedge& src, NodeId src_root);

  /// Deep-copies every top-level tree of `src` under `parent` (or at the top
  /// level when parent is kNullNode), in order.
  void AppendHedgeCopy(NodeId parent, const Hedge& src);

  size_t num_nodes() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  const std::vector<NodeId>& roots() const { return roots_; }

  Label label(NodeId n) const { return labels_[n]; }
  NodeId parent(NodeId n) const { return parents_[n]; }
  NodeId first_child(NodeId n) const { return first_children_[n]; }
  NodeId last_child(NodeId n) const { return last_children_[n]; }
  NodeId next_sibling(NodeId n) const { return next_siblings_[n]; }
  NodeId prev_sibling(NodeId n) const { return prev_siblings_[n]; }

  /// Children of `n` in document order (the top-level sequence when n is
  /// kNullNode).
  std::vector<NodeId> ChildrenOf(NodeId n) const;

  /// All node ids in document (pre-)order.
  std::vector<NodeId> PreOrder() const;

  /// Number of nodes in the subtree rooted at n (including n).
  size_t SubtreeSize(NodeId n) const;

  /// The ceil (Definition 2): labels of the top-level nodes, in order.
  std::vector<Label> Ceil() const;

  /// Dewey address of a node: the 0-based child-index path from the top.
  std::vector<uint32_t> DeweyOf(NodeId n) const;
  /// DeweyOf rendered as text: "/0/2" for the third child of the first
  /// top-level node ("/" for kNullNode).
  std::string DeweyString(NodeId n) const;
  /// Inverse of DeweyOf; kNullNode when the address does not exist.
  NodeId AtDewey(const std::vector<uint32_t>& address) const;

  /// Depth of n (top-level nodes have depth 0).
  size_t DepthOf(NodeId n) const;

  /// The subhedge of n (Definition 21): the hedge of all descendants of n,
  /// i.e. the sequence of n's children subtrees.
  Hedge SubhedgeOf(NodeId n) const;

  /// The envelope of n (Definition 21): this hedge with the subhedge of n
  /// removed and eta added as the only child of n. The result is a pointed
  /// hedge. `eta_parent`, when non-null, receives the id of n's copy.
  Hedge EnvelopeOf(NodeId n, NodeId* eta_parent = nullptr) const;

  /// Structural equality.
  bool EqualTo(const Hedge& other) const;

  /// Renders in the term syntax accepted by ParseHedge.
  std::string ToString(const Vocabulary& vocab) const;

 private:
  bool SubtreeEqual(NodeId a, const Hedge& other, NodeId b) const;

  std::vector<Label> labels_;
  std::vector<NodeId> parents_;
  std::vector<NodeId> first_children_;
  std::vector<NodeId> last_children_;
  std::vector<NodeId> next_siblings_;
  std::vector<NodeId> prev_siblings_;
  std::vector<NodeId> roots_;
};

/// Calls `fn(std::span<const NodeId>)` once per non-empty sibling group, in
/// order: the top-level sequence, then the children of every node in arena
/// order. The groups share one buffer, so the walk allocates O(1) times
/// rather than once per internal node; a span is valid only during its call.
template <typename Fn>
void ForEachSiblingGroup(const Hedge& h, Fn&& fn) {
  if (!h.roots().empty()) fn(std::span<const NodeId>(h.roots()));
  std::vector<NodeId> kids;
  for (NodeId n = 0; n < h.num_nodes(); ++n) {
    if (h.first_child(n) == kNullNode) continue;
    kids.clear();
    for (NodeId c = h.first_child(n); c != kNullNode; c = h.next_sibling(c)) {
      kids.push_back(c);
    }
    fn(std::span<const NodeId>(kids));
  }
}

/// Parses the term syntax of the paper:
///   hedge  := tree*
///   tree   := SYMBOL ('<' hedge '>')?   -- a<u>; bare a abbreviates a<>
///           | '$' IDENT                 -- variable x in X
///           | '%' IDENT                 -- substitution symbol z in Z
///           | '@'                       -- eta (the point)
/// Identifiers are [A-Za-z0-9_.-]+; whitespace separates trees.
/// New names are interned into `vocab`.
Result<Hedge> ParseHedge(std::string_view text, Vocabulary& vocab);

/// Renders one label ("a", "$x", "%z", "@").
std::string LabelToString(const Label& label, const Vocabulary& vocab);

}  // namespace hedgeq::hedge

#endif  // HEDGEQ_HEDGE_HEDGE_H_
