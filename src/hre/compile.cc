#include "hre/compile.h"

#include <deque>
#include <unordered_map>

#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/ops.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace hedgeq::hre {

using automata::HState;
using automata::Nha;
using strre::Nfa;
using strre::StateId;

namespace {

// Lemma 1 compiler. To keep the construction linear in the expression size
// (the paper's claim, measured by experiment E4), all hedge-automaton
// states live in one accumulator Nha — no renaming or copying when
// subexpressions combine — and all final state sequence languages are
// Thompson fragments inside one shared NFA arena, glued with epsilons in
// O(1) per operator. A fragment is materialized into a standalone content
// NFA only when a rule consumes it (case 4) or a splice needs a copy
// (cases 9 and 10); every arena state is extracted at most once per
// consuming site.
class Compiler {
 public:
  explicit Compiler(BudgetScope& scope, CompileTrace* trace = nullptr)
      : scope_(scope), trace_(trace) {}

  Result<Nha> Compile(const Hre& root) {
    Result<Frag> final_frag = CompileExpr(root);
    if (!final_frag.ok()) return final_frag.status();
    nha_.SetFinal(Extract(*final_frag));
    if (trace_ != nullptr) {
      trace_->total_states = nha_.num_states();
      trace_->total_rules = nha_.rules().size();
    }
    return std::move(nha_);
  }

 private:
  // Thompson fragment in the arena: one entry, one exit, exit has no
  // outgoing edges.
  struct Frag {
    StateId in;
    StateId out;
  };

  Frag NewFrag() { return {arena_.AddState(), arena_.AddState()}; }

  // Records one post-order trace entry around the actual case dispatch, so
  // the certificate sees exactly the accumulator deltas each case caused.
  Result<Frag> CompileExpr(const Hre& e) {
    if (trace_ == nullptr) return CompileCase(e);
    const size_t states_before = nha_.num_states();
    const size_t rules_before = nha_.rules().size();
    Result<Frag> out = CompileCase(e);
    if (out.ok()) {
      trace_->entries.push_back(CompileTraceEntry{
          e->kind(), states_before, nha_.num_states(), rules_before,
          nha_.rules().size()});
    }
    return out;
  }

  Result<Frag> CompileCase(const Hre& e) {
    DepthGuard depth(scope_, "hre/compile");
    HEDGEQ_RETURN_IF_ERROR(depth.status());
    HEDGEQ_RETURN_IF_ERROR(scope_.ChargeSteps(1, "hre/compile"));
    switch (e->kind()) {
      case HreKind::kEmptySet: {  // Case 1: no path from in to out.
        return NewFrag();
      }
      case HreKind::kEpsilon: {  // Case 2
        Frag f = NewFrag();
        arena_.AddEpsilon(f.in, f.out);
        return f;
      }
      case HreKind::kVariable: {  // Case 3
        HState q = nha_.AddState();
        nha_.AddVariableState(e->id(), q);
        return SingleLetter(q);
      }
      case HreKind::kTree: {  // Case 4: a<e1>
        Result<Frag> inner = CompileExpr(e->left());
        if (!inner.ok()) return inner.status();
        HState q2 = nha_.AddState();
        nha_.AddRule(e->id(), Extract(*inner), q2);
        return SingleLetter(q2);
      }
      case HreKind::kConcat: {  // Case 5
        Result<Frag> f1 = CompileExpr(e->left());
        if (!f1.ok()) return f1.status();
        Result<Frag> f2 = CompileExpr(e->right());
        if (!f2.ok()) return f2.status();
        arena_.AddEpsilon(f1->out, f2->in);
        return Frag{f1->in, f2->out};
      }
      case HreKind::kUnion: {  // Case 6
        Result<Frag> f1 = CompileExpr(e->left());
        if (!f1.ok()) return f1.status();
        Result<Frag> f2 = CompileExpr(e->right());
        if (!f2.ok()) return f2.status();
        Frag f = NewFrag();
        arena_.AddEpsilon(f.in, f1->in);
        arena_.AddEpsilon(f.in, f2->in);
        arena_.AddEpsilon(f1->out, f.out);
        arena_.AddEpsilon(f2->out, f.out);
        return f;
      }
      case HreKind::kStar: {  // Case 7
        Result<Frag> f1 = CompileExpr(e->left());
        if (!f1.ok()) return f1.status();
        Frag f = NewFrag();
        arena_.AddEpsilon(f.in, f1->in);
        arena_.AddEpsilon(f.in, f.out);
        arena_.AddEpsilon(f1->out, f1->in);
        arena_.AddEpsilon(f1->out, f.out);
        return f;
      }
      case HreKind::kSubstLeaf: {  // Case 8: a<z>
        HState zbar = nha_.AddState();
        HState q = nha_.AddState();
        nha_.AddSubstState(e->subst(), zbar);
        nha_.AddRule(e->id(), SingleLetterNfa(zbar), q);
        return SingleLetter(q);
      }
      case HreKind::kEmbed: {  // Case 9: e1 o_z e2
        const hedge::SubstId z = e->subst();
        // Compile e2 first and remember which z-bar states and rules it
        // contributed (they are exactly the splice sites).
        size_t z_before = nha_.SubstStates(z).size();
        size_t rules_before = nha_.rules().size();
        Result<Frag> f2 = CompileExpr(e->right());
        if (!f2.ok()) return f2.status();
        size_t z_after = nha_.SubstStates(z).size();
        size_t rules_after = nha_.rules().size();
        Result<Frag> f1 = CompileExpr(e->left());
        if (!f1.ok()) return f1.status();

        // F1 as a standalone NFA for splicing (each splice site gets its
        // own copy inside SpliceLetter).
        Nfa lang = Extract(*f1);

        std::vector<HState> zbars(
            nha_.SubstStates(z).begin() + static_cast<long>(z_before),
            nha_.SubstStates(z).begin() + static_cast<long>(z_after));
        // Q2' = Q2 \ {z-bar}: e2's z leaves are no longer substitutable.
        for (HState zbar : zbars) nha_.RemoveSubstState(z, zbar);
        // (alpha2^{-1}(i,q) \ {z-bar}) union F1, rule-wise.
        for (size_t i = rules_before; i < rules_after; ++i) {
          Nfa content = nha_.rules()[i].content;
          size_t before = content.num_states();
          bool touched = false;
          for (HState zbar : zbars) {
            content = SpliceLetter(content, zbar, lang,
                                   /*keep_original=*/false);
            touched = true;
          }
          HEDGEQ_RETURN_IF_ERROR(ChargeSplice(content.num_states(), before));
          if (touched) nha_.SetRuleContent(i, std::move(content));
        }
        // F2 never mentions z-bar (z-bar states occur only inside content
        // models), so the final fragment carries over unchanged.
        return *f2;
      }
      case HreKind::kVClose: {  // Case 10: e^z
        const hedge::SubstId z = e->subst();
        size_t z_before = nha_.SubstStates(z).size();
        size_t rules_before = nha_.rules().size();
        Result<Frag> f = CompileExpr(e->left());
        if (!f.ok()) return f.status();
        size_t z_after = nha_.SubstStates(z).size();
        size_t rules_after = nha_.rules().size();

        Nfa lang = Extract(*f);
        std::vector<HState> zbars(
            nha_.SubstStates(z).begin() + static_cast<long>(z_before),
            nha_.SubstStates(z).begin() + static_cast<long>(z_after));
        // alpha2^{-1}(i,q) = alpha1^{-1}(i,q) union F1 wherever z-bar leads
        // to q: keep the z-bar transition (a leaf z may remain) and allow a
        // full F1 word; deeper nesting recurses through these same rules.
        for (size_t i = rules_before; i < rules_after; ++i) {
          Nfa content = nha_.rules()[i].content;
          size_t before = content.num_states();
          bool touched = false;
          for (HState zbar : zbars) {
            content =
                SpliceLetter(content, zbar, lang, /*keep_original=*/true);
            touched = true;
          }
          HEDGEQ_RETURN_IF_ERROR(ChargeSplice(content.num_states(), before));
          if (touched) nha_.SetRuleContent(i, std::move(content));
        }
        return *f;
      }
    }
    HEDGEQ_CHECK_MSG(false, "unreachable HreKind");
    return NewFrag();
  }

  // The splice copies of cases 9/10 are the only super-linear growth of the
  // Lemma 1 construction; charge the new NFA states against the budget.
  Status ChargeSplice(size_t after, size_t before) {
    if (after <= before) return Status::Ok();
    size_t added = after - before;
    HEDGEQ_RETURN_IF_ERROR(scope_.ChargeSteps(added, "hre/splice"));
    return scope_.ChargeBytes(added * 32, "hre/splice");
  }

  Frag SingleLetter(HState q) {
    Frag f = NewFrag();
    arena_.AddTransition(f.in, q, f.out);
    return f;
  }

  static Nfa SingleLetterNfa(HState q) {
    Nfa nfa;
    StateId in = nfa.AddState();
    StateId out = nfa.AddState(true);
    nfa.SetStart(in);
    nfa.AddTransition(in, q, out);
    return nfa;
  }

  // Copies the arena subgraph reachable from f.in into a standalone NFA
  // whose only accepting state is (the image of) f.out. Thompson fragments
  // are closed under reachability (exits have no outgoing edges), so this
  // touches only the fragment's own states.
  Nfa Extract(const Frag& f) {
    Nfa out;
    std::unordered_map<StateId, StateId> map;
    std::deque<StateId> worklist;
    auto intern = [&](StateId s) {
      auto it = map.find(s);
      if (it != map.end()) return it->second;
      StateId id = out.AddState(false);
      map.emplace(s, id);
      worklist.push_back(s);
      return id;
    };
    out.SetStart(intern(f.in));
    while (!worklist.empty()) {
      StateId s = worklist.front();
      worklist.pop_front();
      StateId from = map.at(s);
      for (const Nfa::Transition& t : arena_.TransitionsFrom(s)) {
        out.AddTransition(from, t.symbol, intern(t.to));
      }
      for (StateId t : arena_.EpsilonsFrom(s)) {
        out.AddEpsilon(from, intern(t));
      }
    }
    auto it = map.find(f.out);
    if (it != map.end()) out.SetAccepting(it->second, true);
    return out;
  }

  // Replaces transitions on `letter` in `content` by a detour through a
  // fresh copy of `lang`. When keep_original is true the direct transition
  // stays as an alternative (case 10); otherwise it is removed (case 9).
  // Each spliced transition gets its own copy of `lang` so distinct splice
  // points cannot cross over.
  static Nfa SpliceLetter(const Nfa& content, strre::Symbol letter,
                          const Nfa& lang, bool keep_original) {
    Nfa out;
    for (StateId s = 0; s < content.num_states(); ++s) {
      out.AddState(content.IsAccepting(s));
    }
    if (content.start() != strre::kNoState) out.SetStart(content.start());

    auto splice_copy = [&](StateId from, StateId to) {
      StateId offset = static_cast<StateId>(out.num_states());
      for (StateId s = 0; s < lang.num_states(); ++s) out.AddState(false);
      for (StateId s = 0; s < lang.num_states(); ++s) {
        for (const Nfa::Transition& t : lang.TransitionsFrom(s)) {
          out.AddTransition(offset + s, t.symbol, offset + t.to);
        }
        for (StateId t : lang.EpsilonsFrom(s)) {
          out.AddEpsilon(offset + s, offset + t);
        }
        if (lang.IsAccepting(s)) out.AddEpsilon(offset + s, to);
      }
      if (lang.start() != strre::kNoState) {
        out.AddEpsilon(from, offset + lang.start());
      }
    };

    for (StateId s = 0; s < content.num_states(); ++s) {
      for (const Nfa::Transition& t : content.TransitionsFrom(s)) {
        if (t.symbol == letter) {
          if (keep_original) out.AddTransition(s, t.symbol, t.to);
          splice_copy(s, t.to);
        } else {
          out.AddTransition(s, t.symbol, t.to);
        }
      }
      for (StateId t : content.EpsilonsFrom(s)) {
        out.AddEpsilon(s, t);
      }
    }
    return out;
  }

  BudgetScope& scope_;
  CompileTrace* trace_;
  Nha nha_;
  Nfa arena_;
};

}  // namespace

Nha CompileHre(const Hre& e) {
  BudgetScope scope(ExecBudget::Unlimited());
  Compiler compiler(scope);
  Result<Nha> out = compiler.Compile(e);
  HEDGEQ_CHECK_MSG(out.ok(), "unbudgeted CompileHre cannot fail");
  return std::move(out).value();
}

Result<Nha> CompileHre(const Hre& e, BudgetArg budget, CompileTrace* trace) {
  HEDGEQ_FAILPOINT("hre/compile");
  HEDGEQ_OBS_SPAN(span, obs::spans::kHreCompile);
  Compiler compiler(budget.scope(), trace);
  Result<Nha> out = compiler.Compile(e);
  if (out.ok() && obs::Enabled()) {
    const size_t ast_nodes = HreSize(e);
    HEDGEQ_OBS_COUNT(obs::metrics::kHreCompileAstNodes, ast_nodes);
    HEDGEQ_OBS_COUNT(obs::metrics::kHreCompileNhaStates, out->num_states());
    HEDGEQ_OBS_COUNT(obs::metrics::kHreCompileNhaRules, out->rules().size());
    span.AddArg("ast_nodes", ast_nodes);
    span.AddArg("nha_states", out->num_states());
    span.AddArg("nha_rules", out->rules().size());
  }
  return out;
}

}  // namespace hedgeq::hre
