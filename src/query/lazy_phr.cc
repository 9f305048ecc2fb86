#include "query/lazy_phr.h"

#include "automata/engine.h"
#include "automata/nha.h"
#include "hre/compile.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/ops.h"

namespace hedgeq::query {

using automata::HState;
using automata::Nha;
using hedge::Hedge;
using hedge::kNullNode;
using hedge::NodeId;
using strre::Nfa;
using strre::StateId;

namespace {

Nfa ShiftLetters(const Nfa& nfa, HState offset) {
  return strre::SubstituteSets(nfa, [offset](strre::Symbol q) {
    return std::vector<strre::Symbol>{q + offset};
  });
}

// Epsilon-closed start set of an NFA, as a Bitset over its states.
Bitset StartSet(const Nfa& nfa) {
  Bitset s(nfa.num_states());
  if (nfa.start() != strre::kNoState) s.Set(nfa.start());
  nfa.EpsilonClosure(s);
  return s;
}

bool AnyAccepting(const Nfa& nfa, const Bitset& set) {
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    if (set.Test(q) && nfa.IsAccepting(q)) return true;
  }
  return false;
}

// One step of set simulation where the letter is itself a SET of symbols:
// the successor set under any symbol in `letter`. This is exactly the
// transition of the lifted subset DFA (LiftToSubsets) computed on demand.
Bitset StepSet(const Nfa& nfa, const Bitset& from, const Bitset& letter) {
  Bitset next(nfa.num_states());
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    if (!from.Test(q)) continue;
    for (const Nfa::Transition& t : nfa.TransitionsFrom(q)) {
      if (t.symbol < letter.size() && letter.Test(t.symbol)) next.Set(t.to);
    }
  }
  nfa.EpsilonClosure(next);
  return next;
}

}  // namespace

Result<LazyPhrEvaluator> LazyPhrEvaluator::Create(const phr::Phr& phr,
                                                  const ExecBudget& budget) {
  // A fresh scope: charges of a failed eager attempt must not count against
  // the (linear) lazy construction.
  BudgetScope scope(budget);
  LazyPhrEvaluator out;
  const size_t n = phr.triplets().size();

  Nha union_nha;
  out.elder_final_.resize(n);
  out.younger_rev_.resize(n);
  out.elder_any_.assign(n, false);
  out.younger_any_.assign(n, false);
  out.labels_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const phr::PointedBaseRep& t = phr.triplets()[i];
    out.labels_.push_back(t.label);
    if (t.elder == nullptr) {
      out.elder_any_[i] = true;
    } else {
      Result<Nha> m = hre::CompileHre(t.elder, scope);
      if (!m.ok()) return m.status();
      HState off = automata::CopyNhaInto(*m, union_nha);
      out.elder_final_[i] = ShiftLetters(m->final_nfa(), off);
    }
    if (t.younger == nullptr) {
      out.younger_any_[i] = true;
    } else {
      Result<Nha> m = hre::CompileHre(t.younger, scope);
      if (!m.ok()) return m.status();
      HState off = automata::CopyNhaInto(*m, union_nha);
      out.younger_rev_[i] =
          strre::ReverseNfa(ShiftLetters(m->final_nfa(), off));
    }
  }
  out.rev_regex_ = strre::ReverseNfa(strre::CompileRegex(phr.regex()));

  out.lazy_.emplace(std::move(union_nha), automata::LazyOptionsFor(budget));
  return out;
}

std::vector<bool> LazyPhrEvaluator::Locate(const Hedge& doc) const {
  const size_t n = labels_.size();
  // Pass 1 (bottom-up): the subset of M's states at every node.
  std::vector<Bitset> subsets;
  {
    HEDGEQ_OBS_SPAN(pass1, obs::spans::kPhrEvalPass1);
    subsets = lazy_->Run(doc);
    if (obs::Enabled()) {
      HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalPass1Nodes, doc.num_nodes());
      pass1.AddArg("nodes", doc.num_nodes());
      pass1.AddArg("lazy", 1);
    }
  }
  HEDGEQ_OBS_SPAN(pass2, obs::spans::kPhrEvalPass2);

  // Pass 2 (per sibling group): which triplets' elder/younger conditions
  // hold at each node. elder_ok[node].Test(i) iff the elder sibling word
  // lies in F_i1 — decided by simulating F_i1's NFA over the subset
  // letters, recording acceptance before each position; symmetrically for
  // the younger side with the reversed NFA fed right-to-left.
  std::vector<Bitset> elder_ok(doc.num_nodes());
  std::vector<Bitset> younger_ok(doc.num_nodes());
  hedge::ForEachSiblingGroup(doc, [&](std::span<const NodeId> kids) {
    for (NodeId kid : kids) {
      elder_ok[kid] = Bitset(n);
      younger_ok[kid] = Bitset(n);
    }
    for (size_t i = 0; i < n; ++i) {
      if (elder_any_[i]) {
        for (NodeId kid : kids) elder_ok[kid].Set(i);
      } else {
        Bitset cur = StartSet(elder_final_[i]);
        for (NodeId kid : kids) {
          if (AnyAccepting(elder_final_[i], cur)) elder_ok[kid].Set(i);
          cur = StepSet(elder_final_[i], cur, subsets[kid]);
        }
      }
      if (younger_any_[i]) {
        for (NodeId kid : kids) younger_ok[kid].Set(i);
      } else {
        Bitset cur = StartSet(younger_rev_[i]);
        for (size_t jj = kids.size(); jj-- > 0;) {
          if (AnyAccepting(younger_rev_[i], cur)) younger_ok[kids[jj]].Set(i);
          cur = StepSet(younger_rev_[i], cur, subsets[kids[jj]]);
        }
      }
    }
  });

  // Pass 3 (top-down): set simulation of the reversed triplet regex. The
  // letter consumed at a node is the set of triplets admissible there —
  // label matches and both sibling conditions hold (precisely the encoded
  // letters whose xi image the eager mirror DFA could read). Arena ids
  // ascend from parents to children, so a forward sweep visits parents
  // first.
  std::vector<Bitset> nstate(doc.num_nodes());
  std::vector<bool> located(doc.num_nodes(), false);
  const Bitset start = StartSet(rev_regex_);
  for (NodeId node = 0; node < doc.num_nodes(); ++node) {
    if (doc.label(node).kind != hedge::LabelKind::kSymbol) continue;
    NodeId parent = doc.parent(node);
    const Bitset& from = parent == kNullNode ? start : nstate[parent];
    nstate[node] = Bitset(rev_regex_.num_states());
    if (from.size() == 0 || from.None()) continue;  // dead branch
    Bitset allowed(n);
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      if (labels_[i] == doc.label(node).id && elder_ok[node].Test(i) &&
          younger_ok[node].Test(i)) {
        allowed.Set(i);
        any = true;
      }
    }
    if (!any) continue;  // label admits no triplet here: branch dies
    nstate[node] = StepSet(rev_regex_, from, allowed);
    located[node] = AnyAccepting(rev_regex_, nstate[node]);
  }
  if (obs::Enabled()) {
    size_t hits = 0;
    for (NodeId node = 0; node < doc.num_nodes(); ++node) {
      hits += located[node] ? 1 : 0;
    }
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalPass2Nodes, doc.num_nodes());
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrEvalLocated, hits);
    pass2.AddArg("nodes", doc.num_nodes());
    pass2.AddArg("located", hits);
    pass2.AddArg("lazy", 1);
  }
  return located;
}

}  // namespace hedgeq::query
