#ifndef HEDGEQ_AUTOMATA_FOLD_H_
#define HEDGEQ_AUTOMATA_FOLD_H_

#include <vector>

#include "hedge/hedge.h"

namespace hedgeq::automata {

/// The bottom-up hedge fold, written once for every hedge automaton. A fold
/// drives a *stepper*, the automaton's per-run view (Dha::Stepper,
/// LazyDha::Stepper), through these calls:
///   Sink()                  state of an eta leaf (and the initial value)
///   HStart(), HNext(h, q)   horizontal run over a child sequence
///   Assign(a, h)            alpha(a, w) once the children ended in h
///   VariableState(x), SubstState(z)   iota of a leaf
///   FinalStart(), FinalNext(f, q), FinalAccepting(f)   the final language
/// Dispatch is static, so each instantiation keeps its engine's own inner
/// loop: table lookups for the determinized DHA, memoized subset steps for
/// the lazy engine.

/// Per-node states of one run and, when marks were asked for, whether each
/// symbol node's child sequence lies in the final language F (Theorem 3).
template <typename State>
struct MarkedRunOf {
  std::vector<State> states;
  std::vector<bool> marks;  // empty unless the run was asked for marks
};

/// The computation M||u (Definition 4). Children have larger arena ids than
/// their parents, so a reverse sweep visits every child before its parent.
template <bool kMarks, typename Stepper>
auto FoldHedge(const Stepper& step, const hedge::Hedge& h) {
  MarkedRunOf<decltype(step.Sink())> out;
  out.states.assign(h.num_nodes(), step.Sink());
  if constexpr (kMarks) out.marks.assign(h.num_nodes(), false);
  for (hedge::NodeId n = static_cast<hedge::NodeId>(h.num_nodes()); n-- > 0;) {
    const hedge::Label label = h.label(n);
    switch (label.kind) {
      case hedge::LabelKind::kVariable:
        out.states[n] = step.VariableState(label.id);
        break;
      case hedge::LabelKind::kSubst:
        out.states[n] = step.SubstState(label.id);
        break;
      case hedge::LabelKind::kEta:
        break;  // eta never carries automaton states: it keeps the sink
      case hedge::LabelKind::kSymbol: {
        auto hs = step.HStart();
        [[maybe_unused]] auto f =
            kMarks ? step.FinalStart() : decltype(step.FinalStart()){};
        for (hedge::NodeId c = h.first_child(n); c != hedge::kNullNode;
             c = h.next_sibling(c)) {
          hs = step.HNext(hs, out.states[c]);
          if constexpr (kMarks) f = step.FinalNext(f, out.states[c]);
        }
        out.states[n] = step.Assign(label.id, hs);
        if constexpr (kMarks) out.marks[n] = step.FinalAccepting(f);
        break;
      }
    }
  }
  return out;
}

/// Definition 5 (and 8) acceptance: the final language reads the states of
/// the top-level nodes.
template <typename Stepper>
bool FoldAccepts(const Stepper& step, const hedge::Hedge& h) {
  const auto run = FoldHedge<false>(step, h);
  auto f = step.FinalStart();
  for (hedge::NodeId r : h.roots()) f = step.FinalNext(f, run.states[r]);
  return step.FinalAccepting(f);
}

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_FOLD_H_
