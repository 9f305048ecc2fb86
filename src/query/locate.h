#ifndef HEDGEQ_QUERY_LOCATE_H_
#define HEDGEQ_QUERY_LOCATE_H_

#include <span>
#include <vector>

#include "hedge/hedge.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/automaton.h"

namespace hedgeq::query {

/// Algorithm 1, written once for both PHR engines, the way the hedge fold
/// (automata/fold.h) is written once for both hedge automata. `Tables` is
/// the engine's view of the Theorem 4 artifacts: the eager engine reads
/// CompiledPhr, the lazy engine fills the same tables on demand. It offers:
///   RunM(doc)            pass 1: M's state id at every node
///   single_class()       true when every sibling word falls in one class
///   SiblingClasses()     a per-group kernel: Compute(kids, states) fills
///                        elder(j)/younger(j), the classes of the j-th
///                        member's elder and younger siblings
///   N()                  N's stepper, with top() (N's start state),
///                        Step(from, elder, label, younger) (N's step into
///                        a node with this label and these sibling
///                        classes; kNoState on a dead branch, or for a
///                        label in no triplet) and IsAccepting(s)
///   kLazy                tags the pass spans with lazy=1
/// The second traversal runs N top-down: N accepts the mirror of L, so
/// feeding triplets from the top level toward a node evaluates the
/// bottom-to-top decomposition sequence. Arena ids ascend from parents to
/// children, so a forward sweep finds every parent's state final.
template <typename Tables>
std::vector<bool> LocateWith(Tables& t, const hedge::Hedge& doc) {
  using hedge::NodeId;
  std::vector<uint32_t> states;
  {
    HEDGEQ_OBS_SPAN(pass1, obs::spans::kPhrEvalPass1);
    states = t.RunM(doc);
    if (obs::Enabled()) {
      HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalPass1Nodes, doc.num_nodes());
      pass1.AddArg("nodes", doc.num_nodes());
      if constexpr (Tables::kLazy) pass1.AddArg("lazy", 1);
    }
  }
  HEDGEQ_OBS_SPAN(pass2, obs::spans::kPhrEvalPass2);

  // A copy where the engine allows one: the stores below cannot alias a
  // local, so the table's pointers stay in registers.
  decltype(auto) n = t.N();
  std::vector<strre::StateId> nstate(doc.num_nodes(), strre::kNoState);
  std::vector<bool> located(doc.num_nodes(), false);
  // N's state at the parent of a node, kNoState on a dead branch.
  auto from = [&](NodeId parent) {
    return parent == hedge::kNullNode ? n.top() : nstate[parent];
  };
  auto step = [&](NodeId node, strre::StateId parent_state, uint32_t elder,
                  uint32_t younger) {
    const strre::StateId to =
        n.Step(parent_state, elder, doc.label(node).id, younger);
    if (to == strre::kNoState) return;  // both outputs start out so
    nstate[node] = to;
    located[node] = n.IsAccepting(to);
  };
  if (t.single_class()) {
    // Every letter has class 0 on both sides, so N steps node by node in
    // arena order with no sibling walk (chasing sibling links costs more
    // than the rest of this sweep).
    for (NodeId node = 0; node < doc.num_nodes(); ++node) {
      if (doc.label(node).kind != hedge::LabelKind::kSymbol) continue;
      const strre::StateId parent_state = from(doc.parent(node));
      if (parent_state != strre::kNoState) step(node, parent_state, 0, 0);
    }
  } else {
    // One sweep over the sibling groups: the group's classes into shared
    // buffers, then N's step into each member. A dead parent's group is
    // skipped whole, since nothing below it can match.
    auto group = t.SiblingClasses();
    hedge::ForEachSiblingGroup(doc, [&](std::span<const NodeId> kids) {
      const strre::StateId parent_state = from(doc.parent(kids.front()));
      if (parent_state == strre::kNoState) return;
      group.Compute(kids, states.data());
      for (size_t j = 0; j < kids.size(); ++j) {
        if (doc.label(kids[j]).kind != hedge::LabelKind::kSymbol) continue;
        step(kids[j], parent_state, group.elder(j), group.younger(j));
      }
    });
  }
  if (obs::Enabled()) {
    size_t hits = 0;
    for (const bool hit : located) hits += hit ? 1 : 0;
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalPass2Nodes, doc.num_nodes());
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalLocated, hits);
    pass2.AddArg("nodes", doc.num_nodes());
    pass2.AddArg("located", hits);
    if constexpr (Tables::kLazy) pass2.AddArg("lazy", 1);
  }
  return located;
}

}  // namespace hedgeq::query

#endif  // HEDGEQ_QUERY_LOCATE_H_
