#include "verify/checker.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <unordered_set>

#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/ops.h"
#include "util/digest.h"
#include "util/strings.h"
#include "verify/enumerate.h"
#include "verify/naive_match.h"

namespace hedgeq::verify {

using automata::Dha;
using automata::HState;
using automata::HhState;
using automata::Nha;
using lint::Diagnostic;
using lint::DiagnosticCode;
using lint::Severity;
using strre::Nfa;

namespace {

constexpr size_t kMaxFindings = 64;

void Report(std::vector<Diagnostic>& out, DiagnosticCode code,
            std::string span, std::string message) {
  if (out.size() >= kMaxFindings) return;
  Diagnostic d;
  d.severity = Severity::kError;
  d.code = code;
  d.span = std::move(span);
  d.message = std::move(message);
  out.push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// Independent recomputation primitives. These deliberately re-derive what
// automata/content_union.cc and the constructions compute, from the input
// NHA alone: the combined content-NFA layout is pure arithmetic (rule
// contents concatenated in rule order), and closures/steps are re-coded
// here rather than calling the construction helpers.

struct ContentIndex {
  std::vector<size_t> offset;  // offset[r]: first combined state of rule r
  size_t total = 0;            // total combined states
};

ContentIndex IndexContents(const Nha& nha) {
  ContentIndex ci;
  ci.offset.reserve(nha.rules().size());
  for (const Nha::Rule& rule : nha.rules()) {
    ci.offset.push_back(ci.total);
    ci.total += rule.content.num_states();
  }
  return ci;
}

// Rule index owning combined state `cs` (cs must be < ci.total).
size_t RuleOf(const ContentIndex& ci, uint32_t cs) {
  size_t lo = 0, hi = ci.offset.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (ci.offset[mid] <= cs) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Memoized per-state epsilon closures over the combined content space —
// the checker-side analogue of the determinizer's interned-Bitset pool.
// Closing a set ORs per-state closures computed once on demand, so the
// dense (h, letter) loops of CheckDeterminize and the audit replay stop
// re-walking the same epsilon edges for every pair. One pool per check:
// it borrows the input NHA and index, never the construction's own state.
class CombinedClosurePool {
 public:
  CombinedClosurePool(const Nha& nha, const ContentIndex& ci)
      : nha_(nha), ci_(ci), closure_(ci.total) {}

  /// Replaces `set` with its epsilon closure.
  void Close(Bitset& set) {
    Bitset out(ci_.total);
    for (uint32_t cs : set.ToVector()) out |= ClosureOf(cs);
    set = std::move(out);
  }

  /// One horizontal step over the combined content model: the (closed)
  /// set reached from `h` by reading any NHA state in `letter`.
  Bitset Step(const Bitset& h, const Bitset& letter) {
    Bitset next(ci_.total);
    for (uint32_t cs : h.ToVector()) {
      size_t r = RuleOf(ci_, cs);
      const Nfa& content = nha_.rules()[r].content;
      uint32_t local = cs - static_cast<uint32_t>(ci_.offset[r]);
      for (const Nfa::Transition& t : content.TransitionsFrom(local)) {
        if (t.symbol < letter.size() && letter.Test(t.symbol)) {
          next.Set(static_cast<uint32_t>(ci_.offset[r]) + t.to);
        }
      }
    }
    Close(next);
    return next;
  }

  /// Per-symbol closed target unions out of `h`: for every NHA state q
  /// labelling a transition from some member of `h`, the epsilon-closed
  /// union of those transitions' targets. Closure distributes over union,
  /// so Step(h, letter) equals the union of the rows of the letter's
  /// members — each row pre-closed once per h — which turns the dense
  /// (h, letter) matrix walk of CheckDeterminize into word-wide ORs
  /// instead of a transition re-walk per letter.
  std::unordered_map<uint32_t, Bitset> TargetsBySymbol(const Bitset& h) {
    std::unordered_map<uint32_t, Bitset> out;
    for (uint32_t cs : h.ToVector()) {
      size_t r = RuleOf(ci_, cs);
      const Nfa& content = nha_.rules()[r].content;
      uint32_t local = cs - static_cast<uint32_t>(ci_.offset[r]);
      for (const Nfa::Transition& t : content.TransitionsFrom(local)) {
        auto [it, fresh] = out.try_emplace(t.symbol, Bitset(ci_.total));
        it->second.Set(static_cast<uint32_t>(ci_.offset[r]) + t.to);
      }
    }
    // Close each row once at the end: distinct transitions often share a
    // target, so closing the deduplicated row beats OR-ing a closure per
    // transition.
    for (auto& [symbol, row] : out) Close(row);
    return out;
  }

 private:
  const Bitset& ClosureOf(uint32_t cs) {
    Bitset& c = closure_[cs];
    if (c.size() == ci_.total) return c;  // default-constructed = unfilled
    c = Bitset(ci_.total);
    c.Set(cs);
    std::deque<uint32_t> queue{cs};
    while (!queue.empty()) {
      uint32_t s = queue.front();
      queue.pop_front();
      size_t r = RuleOf(ci_, s);
      const Nfa& content = nha_.rules()[r].content;
      uint32_t local = s - static_cast<uint32_t>(ci_.offset[r]);
      for (strre::StateId t : content.EpsilonsFrom(local)) {
        uint32_t to = static_cast<uint32_t>(ci_.offset[r]) + t;
        if (!c.Test(to)) {
          c.Set(to);
          queue.push_back(to);
        }
      }
    }
    return c;
  }

  const Nha& nha_;
  const ContentIndex& ci_;
  std::vector<Bitset> closure_;  // per combined state, filled lazily
};

// Epsilon closure within a single NFA.
void CloseNfa(const Nfa& nfa, Bitset& set) {
  std::deque<uint32_t> queue;
  for (uint32_t s : set.ToVector()) queue.push_back(s);
  while (!queue.empty()) {
    uint32_t s = queue.front();
    queue.pop_front();
    for (strre::StateId t : nfa.EpsilonsFrom(s)) {
      if (!set.Test(t)) {
        set.Set(t);
        queue.push_back(t);
      }
    }
  }
}

// Per-symbol target sets of the rules accepting somewhere in `h`.
std::map<hedge::SymbolId, Bitset> AcceptTargets(const Nha& nha,
                                                const ContentIndex& ci,
                                                const Bitset& h) {
  std::map<hedge::SymbolId, Bitset> out;
  for (uint32_t cs : h.ToVector()) {
    size_t r = RuleOf(ci, cs);
    const Nha::Rule& rule = nha.rules()[r];
    uint32_t local = cs - static_cast<uint32_t>(ci.offset[r]);
    if (rule.content.IsAccepting(local)) {
      auto [it, inserted] =
          out.try_emplace(rule.symbol, Bitset(nha.num_states()));
      it->second.Set(rule.target);
    }
  }
  return out;
}

// Does `nfa` accept some word using only letters in `allowed`?
bool AcceptsOverAlphabet(const Nfa& nfa, const Bitset& allowed) {
  if (nfa.num_states() == 0 || nfa.start() == strre::kNoState) return false;
  Bitset seen(nfa.num_states());
  std::deque<strre::StateId> queue;
  seen.Set(nfa.start());
  queue.push_back(nfa.start());
  while (!queue.empty()) {
    strre::StateId s = queue.front();
    queue.pop_front();
    if (nfa.IsAccepting(s)) return true;
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (t.symbol < allowed.size() && allowed.Test(t.symbol) &&
          !seen.Test(t.to)) {
        seen.Set(t.to);
        queue.push_back(t.to);
      }
    }
    for (strre::StateId t : nfa.EpsilonsFrom(s)) {
      if (!seen.Test(t)) {
        seen.Set(t);
        queue.push_back(t);
      }
    }
  }
  return false;
}

// Letters (restricted to `allowed`) occurring on some accepting path of
// `nfa` whose every letter is in `allowed`.
Bitset LettersOnAcceptingPaths(const Nfa& nfa, const Bitset& allowed,
                               size_t num_letters) {
  Bitset usable(num_letters);
  if (nfa.num_states() == 0 || nfa.start() == strre::kNoState) return usable;
  auto ok = [&](strre::Symbol p) {
    return p < allowed.size() && allowed.Test(p);
  };
  Bitset fwd(nfa.num_states());
  std::deque<strre::StateId> queue;
  fwd.Set(nfa.start());
  queue.push_back(nfa.start());
  while (!queue.empty()) {
    strre::StateId s = queue.front();
    queue.pop_front();
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (ok(t.symbol) && !fwd.Test(t.to)) {
        fwd.Set(t.to);
        queue.push_back(t.to);
      }
    }
    for (strre::StateId t : nfa.EpsilonsFrom(s)) {
      if (!fwd.Test(t)) {
        fwd.Set(t);
        queue.push_back(t);
      }
    }
  }
  std::vector<std::vector<strre::StateId>> rev(nfa.num_states());
  for (strre::StateId s = 0; s < nfa.num_states(); ++s) {
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (ok(t.symbol)) rev[t.to].push_back(s);
    }
    for (strre::StateId t : nfa.EpsilonsFrom(s)) rev[t].push_back(s);
  }
  Bitset bwd(nfa.num_states());
  for (strre::StateId s = 0; s < nfa.num_states(); ++s) {
    if (nfa.IsAccepting(s)) {
      bwd.Set(s);
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    strre::StateId s = queue.front();
    queue.pop_front();
    for (strre::StateId t : rev[s]) {
      if (!bwd.Test(t)) {
        bwd.Set(t);
        queue.push_back(t);
      }
    }
  }
  for (strre::StateId s = 0; s < nfa.num_states(); ++s) {
    if (!fwd.Test(s)) continue;
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (ok(t.symbol) && bwd.Test(t.to) && t.symbol < num_letters) {
        usable.Set(t.symbol);
      }
    }
  }
  return usable;
}

// Structural NFA equality: same states, start, acceptance, transition
// multisets and epsilon sets.
bool NfaStructEq(const Nfa& a, const Nfa& b) {
  if (a.num_states() != b.num_states() || a.start() != b.start()) {
    return false;
  }
  for (strre::StateId s = 0; s < a.num_states(); ++s) {
    if (a.IsAccepting(s) != b.IsAccepting(s)) return false;
    std::vector<std::pair<strre::Symbol, strre::StateId>> ta, tb;
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      ta.emplace_back(t.symbol, t.to);
    }
    for (const Nfa::Transition& t : b.TransitionsFrom(s)) {
      tb.emplace_back(t.symbol, t.to);
    }
    std::sort(ta.begin(), ta.end());
    std::sort(tb.begin(), tb.end());
    if (ta != tb) return false;
    std::vector<strre::StateId> ea(a.EpsilonsFrom(s).begin(),
                                   a.EpsilonsFrom(s).end());
    std::vector<strre::StateId> eb(b.EpsilonsFrom(s).begin(),
                                   b.EpsilonsFrom(s).end());
    std::sort(ea.begin(), ea.end());
    std::sort(eb.begin(), eb.end());
    if (ea != eb) return false;
  }
  return true;
}

// Projection of an NFA over NHA-state letters through a state renaming
// (kNoState letters drop their transitions) — the checker's own version of
// the trim's content projection.
Nfa ProjectLetters(const Nfa& in, const std::vector<HState>& rename) {
  Nfa out;
  for (strre::StateId s = 0; s < in.num_states(); ++s) {
    out.AddState(in.IsAccepting(s));
  }
  if (in.start() != strre::kNoState) out.SetStart(in.start());
  for (strre::StateId s = 0; s < in.num_states(); ++s) {
    for (const Nfa::Transition& t : in.TransitionsFrom(s)) {
      if (t.symbol < rename.size() && rename[t.symbol] != strre::kNoState) {
        out.AddTransition(s, rename[t.symbol], t.to);
      }
    }
    for (strre::StateId t : in.EpsilonsFrom(s)) out.AddEpsilon(s, t);
  }
  return out;
}

// RAII observation of one checker invocation: a verify.check span plus the
// verify.* counters, reading the diagnostics vector at scope exit so every
// early `return out;` path is covered (the named return value outlives the
// guard under NRVO).
class CheckObserver {
 public:
  explicit CheckObserver(const std::vector<Diagnostic>& out)
      : span_(obs::spans::kVerifyCheck), out_(out) {}
  ~CheckObserver() {
    if (obs::Enabled()) {
      HEDGEQ_OBS_COUNT(obs::metrics::kVerifyChecksRun, 1);
      HEDGEQ_OBS_COUNT(obs::metrics::kVerifyFindings, out_.size());
      span_.AddArg("findings", out_.size());
    }
  }
  CheckObserver(const CheckObserver&) = delete;
  CheckObserver& operator=(const CheckObserver&) = delete;

 private:
  obs::Span span_;
  const std::vector<Diagnostic>& out_;
};

std::vector<uint32_t> SortedStates(const std::vector<HState>& states) {
  std::vector<uint32_t> out(states.begin(), states.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Shared sections of the full (CheckDeterminize) and light
// (CheckCertificateLight) determinize checkers. Each reports into `out`;
// DetShape returns false when the semantic sections cannot safely index
// through the certificate's arrays.

bool DetShape(const Nha& input, const automata::Determinized& output,
              const automata::DeterminizeWitness& witness,
              const ContentIndex& ci, std::vector<Diagnostic>& out) {
  const Dha& dha = output.dha;
  const std::vector<Bitset>& subsets = output.subsets;
  const size_t nq = input.num_states();
  if (subsets.empty() || subsets.size() != dha.num_states()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "subsets",
           StrCat("subset count ", subsets.size(), " != DHA states ",
                  dha.num_states()));
    return false;
  }
  if (witness.h_sets.empty() ||
      witness.h_sets.size() != dha.num_h_states()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "hsets",
           StrCat("horizontal witness count ", witness.h_sets.size(),
                  " != DHA horizontal states ", dha.num_h_states()));
    return false;
  }
  if (dha.h_start() >= witness.h_sets.size()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "hstart",
           "horizontal start out of range");
    return false;
  }
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (subsets[i].size() != nq) {
      Report(out, DiagnosticCode::kCertificateMalformed,
             StrCat("subset/", i),
             StrCat("subset width ", subsets[i].size(), " != NHA states ",
                    nq));
      return false;
    }
  }
  for (size_t i = 0; i < witness.h_sets.size(); ++i) {
    if (witness.h_sets[i].size() != ci.total) {
      Report(out, DiagnosticCode::kCertificateMalformed, StrCat("hset/", i),
             StrCat("horizontal set width ", witness.h_sets[i].size(),
                    " != combined content states ", ci.total));
      return false;
    }
  }
  if (!subsets[dha.sink()].None()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "sink",
           "sink state does not denote the empty subset");
  }
  {
    std::unordered_set<Bitset, BitsetHash> seen;
    for (size_t i = 0; i < subsets.size(); ++i) {
      if (!seen.insert(subsets[i]).second) {
        Report(out, DiagnosticCode::kCertificateMalformed,
               StrCat("subset/", i), "duplicate DHA state subset");
      }
    }
    seen.clear();
    for (size_t i = 0; i < witness.h_sets.size(); ++i) {
      if (!seen.insert(witness.h_sets[i]).second) {
        Report(out, DiagnosticCode::kCertificateMalformed,
               StrCat("hset/", i), "duplicate horizontal witness set");
      }
    }
  }
  return true;
}

void DetHStart(const Nha& input, const Dha& dha,
               const automata::DeterminizeWitness& witness,
               const ContentIndex& ci, CombinedClosurePool& pool,
               std::vector<Diagnostic>& out) {
  Bitset h0(ci.total);
  for (size_t r = 0; r < input.rules().size(); ++r) {
    const Nfa& content = input.rules()[r].content;
    if (content.num_states() > 0 && content.start() != strre::kNoState) {
      h0.Set(static_cast<uint32_t>(ci.offset[r]) + content.start());
    }
  }
  pool.Close(h0);
  if (!(witness.h_sets[dha.h_start()] == h0)) {
    Report(out, DiagnosticCode::kSubsetTransitionIncoherent, "hstart",
           "horizontal start set is not the closure of the content start "
           "states");
  }
}

void DetIota(const Nha& input, const Dha& dha,
             const std::vector<Bitset>& subsets,
             std::vector<Diagnostic>& out) {
  const size_t nq = input.num_states();
  for (const auto& [x, states] : input.var_map()) {
    Bitset expect(nq);
    for (HState q : states) expect.Set(q);
    HState sid = dha.VariableState(x);
    if (sid >= subsets.size() || !(subsets[sid] == expect)) {
      Report(out, DiagnosticCode::kAssignmentIncoherent, StrCat("var/", x),
             "variable state does not denote iota(x)");
    }
  }
  for (const auto& [x, sid] : dha.var_map()) {
    if (!input.var_map().contains(x)) {
      Report(out, DiagnosticCode::kAssignmentIncoherent, StrCat("var/", x),
             "DHA knows a variable the input does not");
    }
  }
  for (const auto& [z, states] : input.subst_map()) {
    Bitset expect(nq);
    for (HState q : states) expect.Set(q);
    HState sid = dha.SubstState(z);
    if (sid >= subsets.size() || !(subsets[sid] == expect)) {
      Report(out, DiagnosticCode::kAssignmentIncoherent, StrCat("subst/", z),
             "substitution state does not denote iota(z)");
    }
  }
  for (const auto& [z, sid] : dha.subst_map()) {
    if (!input.subst_map().contains(z)) {
      Report(out, DiagnosticCode::kAssignmentIncoherent, StrCat("subst/", z),
             "DHA knows a substitution symbol the input does not");
    }
  }
}

void DetFinal(const Nha& input, const Dha& dha,
              const std::vector<Bitset>& subsets,
              const std::vector<std::vector<uint32_t>>& subset_bits,
              const automata::DeterminizeWitness& witness,
              std::vector<Diagnostic>& out) {
  const Nfa& fl = input.final_nfa();
  const strre::Dfa& fdfa = dha.final_dfa();
  if (witness.final_sets.size() != fdfa.num_states()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "finalsets",
           StrCat("final witness count ", witness.final_sets.size(),
                  " != final DFA states ", fdfa.num_states()));
    return;
  }
  if (fl.num_states() == 0 || fl.start() == strre::kNoState) {
    // Empty final language: one dead total state.
    if (fdfa.num_states() != 1 || fdfa.IsAccepting(0)) {
      Report(out, DiagnosticCode::kFinalSetInconsistent, "final",
             "empty final language must lift to one non-accepting state");
    } else {
      for (HState sid = 0; sid < subsets.size(); ++sid) {
        if (fdfa.Next(0, sid) != 0) {
          Report(out, DiagnosticCode::kFinalSetInconsistent, "final",
                 "dead final state must loop on every letter");
          break;
        }
      }
    }
    return;
  }
  for (size_t i = 0; i < witness.final_sets.size(); ++i) {
    if (witness.final_sets[i].size() != fl.num_states()) {
      Report(out, DiagnosticCode::kCertificateMalformed,
             StrCat("finalset/", i), "final witness set width mismatch");
      return;
    }
  }
  if (fdfa.start() == strre::kNoState ||
      fdfa.start() >= witness.final_sets.size()) {
    Report(out, DiagnosticCode::kFinalSetInconsistent, "final",
           "lifted final DFA has no start state");
    return;
  }
  {
    Bitset start(fl.num_states());
    start.Set(fl.start());
    CloseNfa(fl, start);
    if (!(witness.final_sets[fdfa.start()] == start)) {
      Report(out, DiagnosticCode::kFinalSetInconsistent, "final/start",
             "final DFA start does not denote the closed final-NFA start");
    }
  }
  // Per-state epsilon closures of the final NFA, filled on demand: the
  // same distribute-closure-over-union rewrite as the horizontal matrix,
  // so each final DFA state walks its NFA transitions once, not once per
  // subset letter.
  std::vector<Bitset> fl_closure(fl.num_states());
  auto fl_closure_of = [&](uint32_t s) -> const Bitset& {
    Bitset& c = fl_closure[s];
    if (c.size() != fl.num_states()) {
      c = Bitset(fl.num_states());
      c.Set(s);
      CloseNfa(fl, c);
    }
    return c;
  };
  for (strre::StateId f = 0; f < fdfa.num_states(); ++f) {
    bool want_accepting = false;
    std::unordered_map<uint32_t, Bitset> frows;
    for (uint32_t s : witness.final_sets[f].ToVector()) {
      if (fl.IsAccepting(s)) want_accepting = true;
      for (const Nfa::Transition& t : fl.TransitionsFrom(s)) {
        auto [it, fresh] = frows.try_emplace(t.symbol, fl.num_states());
        it->second |= fl_closure_of(t.to);
      }
    }
    if (want_accepting != fdfa.IsAccepting(f)) {
      Report(out, DiagnosticCode::kFinalSetInconsistent,
             StrCat("final/", f),
             "lifted final DFA acceptance disagrees with the witnessed "
             "final-NFA state set");
    }
    Bitset next(fl.num_states());
    for (HState sid = 0; sid < subsets.size(); ++sid) {
      next.ClearAll();
      for (uint32_t q : subset_bits[sid]) {
        auto it = frows.find(q);
        if (it != frows.end()) next |= it->second;
      }
      strre::StateId to = fdfa.Next(f, sid);
      if (to == strre::kNoState || to >= witness.final_sets.size()) {
        Report(out, DiagnosticCode::kFinalSetInconsistent,
               StrCat("final/", f, "/", sid),
               "lifted final DFA is not total over subset letters");
      } else if (!(witness.final_sets[to] == next)) {
        Report(out, DiagnosticCode::kFinalSetInconsistent,
               StrCat("final/", f, "/", sid),
               "lifted final DFA transition does not match the recomputed "
               "step");
      }
    }
  }
}

// One horizontal row re-derived in full — closedness, every transition out
// of `h`, and every assignment at `h`. The light checker samples rows
// through this; CheckDeterminize keeps its own dense loops (same logic) so
// its finding order stays stable.
void DetRow(HhState h, const Nha& input, const ContentIndex& ci,
            CombinedClosurePool& pool, const Dha& dha,
            const automata::DeterminizeWitness& witness,
            const std::vector<Bitset>& subsets,
            const std::vector<std::vector<uint32_t>>& subset_bits,
            const std::set<hedge::SymbolId>& all_symbols,
            std::vector<Diagnostic>& out) {
  bool is_closed = true;
  for (uint32_t cs : witness.h_sets[h].ToVector()) {
    size_t r = RuleOf(ci, cs);
    const Nfa& content = input.rules()[r].content;
    uint32_t local = cs - static_cast<uint32_t>(ci.offset[r]);
    for (strre::StateId t : content.EpsilonsFrom(local)) {
      if (!witness.h_sets[h].Test(static_cast<uint32_t>(ci.offset[r]) + t)) {
        is_closed = false;
        break;
      }
    }
    if (!is_closed) break;
  }
  if (!is_closed) {
    Report(out, DiagnosticCode::kSubsetTransitionIncoherent,
           StrCat("hset/", h), "horizontal set is not epsilon-closed");
    return;
  }
  const std::unordered_map<uint32_t, Bitset> targets =
      pool.TargetsBySymbol(witness.h_sets[h]);
  Bitset expect(ci.total);
  for (HState sid = 0; sid < subsets.size(); ++sid) {
    expect.ClearAll();
    for (uint32_t q : subset_bits[sid]) {
      auto it = targets.find(q);
      if (it != targets.end()) expect |= it->second;
    }
    HhState to = dha.HNext(h, sid);
    if (to >= witness.h_sets.size()) {
      Report(out, DiagnosticCode::kCertificateMalformed,
             StrCat("htrans/", h, "/", sid),
             "horizontal transition target out of range");
    } else if (!(witness.h_sets[to] == expect)) {
      Report(out, DiagnosticCode::kSubsetTransitionIncoherent,
             StrCat("htrans/", h, "/", sid),
             "horizontal transition does not match the recomputed subset "
             "step");
    }
  }
  std::map<hedge::SymbolId, Bitset> accept =
      AcceptTargets(input, ci, witness.h_sets[h]);
  for (hedge::SymbolId symbol : all_symbols) {
    HState sid = dha.Assign(symbol, h);
    if (sid >= subsets.size()) {
      Report(out, DiagnosticCode::kCertificateMalformed,
             StrCat("assign/", symbol, "/", h),
             "assignment target out of range");
      continue;
    }
    auto it = accept.find(symbol);
    const bool match = it == accept.end() ? subsets[sid].None()
                                          : subsets[sid] == it->second;
    if (!match) {
      Report(out, DiagnosticCode::kAssignmentIncoherent,
             StrCat("assign/", symbol, "/", h),
             "assignment does not match the accepting rules' targets");
    }
  }
}

}  // namespace

std::vector<Diagnostic> CheckDeterminize(
    const Nha& input, const automata::Determinized& output,
    const automata::DeterminizeWitness& witness) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const Dha& dha = output.dha;
  const std::vector<Bitset>& subsets = output.subsets;
  const ContentIndex ci = IndexContents(input);
  CombinedClosurePool pool(input, ci);

  // --- Shape (HQV001). Shape failures abort: the semantic checks below
  // index through these arrays.
  if (!DetShape(input, output, witness, ci, out)) return out;

  // --- Horizontal start: closure of every rule content's start state.
  DetHStart(input, dha, witness, ci, pool, out);

  // --- Horizontal transitions (HQV002): every (h, subset-letter) entry of
  // the dense matrix must be the recomputed closed step. The step is
  // recomputed as a union of per-symbol pre-closed target rows (see
  // TargetsBySymbol), so each h walks its transitions once rather than
  // once per letter.
  std::vector<std::vector<uint32_t>> subset_bits(subsets.size());
  for (size_t i = 0; i < subsets.size(); ++i) {
    subset_bits[i] = subsets[i].ToVector();
  }
  for (HhState h = 0; h < witness.h_sets.size(); ++h) {
    // Closedness in place: a set is epsilon-closed iff every member's
    // epsilon successors are already members — no closure materialized.
    bool is_closed = true;
    for (uint32_t cs : witness.h_sets[h].ToVector()) {
      size_t r = RuleOf(ci, cs);
      const Nfa& content = input.rules()[r].content;
      uint32_t local = cs - static_cast<uint32_t>(ci.offset[r]);
      for (strre::StateId t : content.EpsilonsFrom(local)) {
        if (!witness.h_sets[h].Test(static_cast<uint32_t>(ci.offset[r]) +
                                    t)) {
          is_closed = false;
          break;
        }
      }
      if (!is_closed) break;
    }
    if (!is_closed) {
      Report(out, DiagnosticCode::kSubsetTransitionIncoherent,
             StrCat("hset/", h), "horizontal set is not epsilon-closed");
      continue;
    }
    const std::unordered_map<uint32_t, Bitset> targets =
        pool.TargetsBySymbol(witness.h_sets[h]);
    Bitset expect(ci.total);
    for (HState sid = 0; sid < subsets.size(); ++sid) {
      expect.ClearAll();
      for (uint32_t q : subset_bits[sid]) {
        auto it = targets.find(q);
        if (it != targets.end()) expect |= it->second;
      }
      HhState to = dha.HNext(h, sid);
      if (to >= witness.h_sets.size()) {
        Report(out, DiagnosticCode::kCertificateMalformed,
               StrCat("htrans/", h, "/", sid),
               "horizontal transition target out of range");
      } else if (!(witness.h_sets[to] == expect)) {
        Report(out, DiagnosticCode::kSubsetTransitionIncoherent,
               StrCat("htrans/", h, "/", sid),
               "horizontal transition does not match the recomputed subset "
               "step");
      }
    }
  }

  // --- Assignments (HQV004): alpha(symbol, h) must denote exactly the
  // targets of the rules accepting at h.
  std::set<hedge::SymbolId> all_symbols;
  for (const Nha::Rule& rule : input.rules()) all_symbols.insert(rule.symbol);
  for (const auto& [symbol, row] : dha.assign_map()) {
    all_symbols.insert(symbol);
  }
  for (HhState h = 0; h < witness.h_sets.size(); ++h) {
    std::map<hedge::SymbolId, Bitset> expect =
        AcceptTargets(input, ci, witness.h_sets[h]);
    for (hedge::SymbolId symbol : all_symbols) {
      HState sid = dha.Assign(symbol, h);
      if (sid >= subsets.size()) {
        Report(out, DiagnosticCode::kCertificateMalformed,
               StrCat("assign/", symbol, "/", h),
               "assignment target out of range");
        continue;
      }
      auto it = expect.find(symbol);
      const bool match = it == expect.end() ? subsets[sid].None()
                                            : subsets[sid] == it->second;
      if (!match) {
        Report(out, DiagnosticCode::kAssignmentIncoherent,
               StrCat("assign/", symbol, "/", h),
               "assignment does not match the accepting rules' targets");
      }
    }
  }

  // --- iota (HQV004): variable/substitution states denote the input sets.
  DetIota(input, dha, subsets, out);

  // --- Lifted final DFA (HQV003): simulation against the witnessed
  // final-NFA state sets.
  DetFinal(input, dha, subsets, subset_bits, witness, out);
  return out;
}

std::vector<Diagnostic> CheckTrim(const Nha& input, const Nha& output,
                                  const automata::TrimWitness& witness) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const size_t n = input.num_states();
  if (witness.derivable.size() != n || witness.useful.size() != n ||
      witness.mapping.size() != n) {
    Report(out, DiagnosticCode::kCertificateMalformed, "trim",
           "trim witness widths do not match the input state count");
    return out;
  }

  // --- Own bottom-up derivability fixpoint.
  Bitset derivable(n);
  for (const auto& [x, states] : input.var_map()) {
    for (HState q : states) derivable.Set(q);
  }
  for (const auto& [z, states] : input.subst_map()) {
    for (HState q : states) derivable.Set(q);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Nha::Rule& rule : input.rules()) {
      if (derivable.Test(rule.target)) continue;
      if (AcceptsOverAlphabet(rule.content, derivable)) {
        derivable.Set(rule.target);
        changed = true;
      }
    }
  }
  if (!(witness.derivable == derivable)) {
    Report(out, DiagnosticCode::kTrimWitnessMismatch, "derivable",
           "witnessed derivable set does not match the recomputed "
           "bottom-up fixpoint");
  }

  // --- Own co-reachability fixpoint, seeded from the final language.
  Bitset co = LettersOnAcceptingPaths(input.final_nfa(), derivable, n);
  changed = true;
  while (changed) {
    changed = false;
    for (const Nha::Rule& rule : input.rules()) {
      if (!co.Test(rule.target)) continue;
      Bitset usable = LettersOnAcceptingPaths(rule.content, derivable, n);
      Bitset before = co;
      co |= usable;
      if (!(co == before)) changed = true;
    }
  }
  Bitset useful = derivable;
  useful &= co;
  if (!(witness.useful == useful)) {
    Report(out, DiagnosticCode::kTrimWitnessMismatch, "useful",
           "witnessed useful set does not match derivable ∧ co-reachable");
  }

  // --- Renaming: dense, increasing, defined exactly on the useful states.
  HState next_id = 0;
  bool mapping_ok = true;
  for (HState q = 0; q < n; ++q) {
    const bool kept = witness.mapping[q] != strre::kNoState;
    if (kept != witness.useful.Test(q) ||
        (kept && witness.mapping[q] != next_id)) {
      Report(out, DiagnosticCode::kTrimWitnessMismatch, StrCat("map/", q),
             "renaming is not the dense order-preserving map of the useful "
             "states");
      mapping_ok = false;
      break;
    }
    if (kept) ++next_id;
  }
  if (!mapping_ok) return out;
  if (output.num_states() != next_id) {
    Report(out, DiagnosticCode::kTrimWitnessMismatch, "output",
           StrCat("output has ", output.num_states(),
                  " states, renaming produces ", next_id));
    return out;
  }

  // --- Structural projection: the output must be exactly the input
  // filtered to useful targets with letters renamed.
  size_t out_rule = 0;
  for (size_t r = 0; r < input.rules().size(); ++r) {
    const Nha::Rule& rule = input.rules()[r];
    if (rule.target >= n || !witness.useful.Test(rule.target)) continue;
    if (out_rule >= output.rules().size()) {
      Report(out, DiagnosticCode::kTrimWitnessMismatch, StrCat("rule/", r),
             "output is missing a rule with a useful target");
      return out;
    }
    const Nha::Rule& projected = output.rules()[out_rule];
    if (projected.symbol != rule.symbol ||
        projected.target != witness.mapping[rule.target] ||
        !NfaStructEq(projected.content,
                     ProjectLetters(rule.content, witness.mapping))) {
      Report(out, DiagnosticCode::kTrimWitnessMismatch, StrCat("rule/", r),
             "output rule is not the projection of the input rule");
    }
    ++out_rule;
  }
  if (out_rule != output.rules().size()) {
    Report(out, DiagnosticCode::kTrimWitnessMismatch, "rules",
           "output has rules beyond the projected input rules");
  }
  for (const auto& [x, states] : input.var_map()) {
    std::vector<uint32_t> expect;
    for (HState q : states) {
      if (witness.useful.Test(q)) expect.push_back(witness.mapping[q]);
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    if (SortedStates(output.VariableStates(x)) != expect) {
      Report(out, DiagnosticCode::kTrimWitnessMismatch, StrCat("var/", x),
             "projected variable states disagree");
    }
  }
  for (const auto& [x, states] : output.var_map()) {
    if (!input.var_map().contains(x)) {
      Report(out, DiagnosticCode::kTrimWitnessMismatch, StrCat("var/", x),
             "output knows a variable the input does not");
    }
  }
  for (const auto& [z, states] : input.subst_map()) {
    std::vector<uint32_t> expect;
    for (HState q : states) {
      if (witness.useful.Test(q)) expect.push_back(witness.mapping[q]);
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    if (SortedStates(output.SubstStates(z)) != expect) {
      Report(out, DiagnosticCode::kTrimWitnessMismatch, StrCat("subst/", z),
             "projected substitution states disagree");
    }
  }
  for (const auto& [z, states] : output.subst_map()) {
    if (!input.subst_map().contains(z)) {
      Report(out, DiagnosticCode::kTrimWitnessMismatch, StrCat("subst/", z),
             "output knows a substitution symbol the input does not");
    }
  }
  if (!NfaStructEq(output.final_nfa(),
                   ProjectLetters(input.final_nfa(), witness.mapping))) {
    Report(out, DiagnosticCode::kTrimWitnessMismatch, "final",
           "output final language is not the projection of the input's");
  }
  return out;
}

namespace {

int CompileArity(hre::HreKind kind) {
  switch (kind) {
    case hre::HreKind::kEmptySet:
    case hre::HreKind::kEpsilon:
    case hre::HreKind::kVariable:
    case hre::HreKind::kSubstLeaf:
      return 0;
    case hre::HreKind::kTree:
    case hre::HreKind::kStar:
    case hre::HreKind::kVClose:
      return 1;
    case hre::HreKind::kConcat:
    case hre::HreKind::kUnion:
    case hre::HreKind::kEmbed:
      return 2;
  }
  return 0;
}

// The compiler's own recursion order, as a post-order kind sequence
// (kEmbed compiles its right child e2 before its left child e1). Returns
// false when the sequence exceeds `limit` (sharing blow-up or mismatch).
bool ExpectedKindSequence(const hre::Hre& root, size_t limit,
                          std::vector<hre::HreKind>& out) {
  struct Item {
    const hre::HreNode* node;
    bool expanded;
  };
  std::vector<Item> stack{{root.get(), false}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (item.expanded) {
      out.push_back(item.node->kind());
      if (out.size() > limit) return false;
      continue;
    }
    stack.push_back({item.node, true});
    switch (item.node->kind()) {
      case hre::HreKind::kTree:
      case hre::HreKind::kStar:
      case hre::HreKind::kVClose:
        stack.push_back({item.node->left().get(), false});
        break;
      case hre::HreKind::kConcat:
      case hre::HreKind::kUnion:
        // Left compiled first: push right below left on the stack.
        stack.push_back({item.node->right().get(), false});
        stack.push_back({item.node->left().get(), false});
        break;
      case hre::HreKind::kEmbed:
        // e2 (right) compiled first.
        stack.push_back({item.node->left().get(), false});
        stack.push_back({item.node->right().get(), false});
        break;
      default:
        break;
    }
  }
  return true;
}

}  // namespace

std::vector<Diagnostic> CheckCompile(const hre::Hre& expr, const Nha& output,
                                     const hre::CompileTrace& trace) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  if (expr == nullptr || trace.entries.empty()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "compile",
           "empty compile trace");
    return out;
  }
  std::vector<hre::HreKind> expected;
  if (!ExpectedKindSequence(expr, trace.entries.size(), expected) ||
      expected.size() != trace.entries.size()) {
    Report(out, DiagnosticCode::kCompileWitnessRejected, "compile",
           "trace length does not match the expression's traversal");
    return out;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (trace.entries[i].kind != expected[i]) {
      Report(out, DiagnosticCode::kCompileWitnessRejected,
             StrCat("entry/", i),
             "trace case order does not match the expression's traversal");
      return out;
    }
  }

  // Replay the per-case accounting on a summary stack.
  struct Span {
    size_t sb, sa, rb, ra;
  };
  std::vector<Span> stack;
  for (size_t i = 0; i < trace.entries.size(); ++i) {
    const hre::CompileTraceEntry& e = trace.entries[i];
    if (e.states_after < e.states_before || e.rules_after < e.rules_before) {
      Report(out, DiagnosticCode::kCompileWitnessRejected,
             StrCat("entry/", i), "state or rule count decreased");
      return out;
    }
    const int arity = CompileArity(e.kind);
    if (static_cast<int>(stack.size()) < arity) {
      Report(out, DiagnosticCode::kCompileWitnessRejected,
             StrCat("entry/", i), "trace underflows its child entries");
      return out;
    }
    size_t child_sa = e.states_before;  // end of the children's range
    size_t child_ra = e.rules_before;
    if (arity >= 1) {
      const Span& last = stack.back();
      child_sa = last.sa;
      child_ra = last.ra;
      const Span& first = stack[stack.size() - arity];
      bool contiguous = first.sb == e.states_before &&
                        first.rb == e.rules_before;
      if (arity == 2) {
        const Span& second = stack.back();
        contiguous = contiguous && second.sb == first.sa &&
                     second.rb == first.ra;
      }
      if (!contiguous) {
        Report(out, DiagnosticCode::kCompileWitnessRejected,
               StrCat("entry/", i),
               "child entries are not contiguous inside their parent");
        return out;
      }
    }
    size_t own_states = 0, own_rules = 0;
    switch (e.kind) {
      case hre::HreKind::kVariable:
        own_states = 1;
        break;
      case hre::HreKind::kSubstLeaf:
        own_states = 2;
        own_rules = 1;
        break;
      case hre::HreKind::kTree:
        own_states = 1;
        own_rules = 1;
        break;
      default:
        break;
    }
    if (e.states_after != child_sa + own_states ||
        e.rules_after != child_ra + own_rules) {
      Report(out, DiagnosticCode::kCompileWitnessRejected,
             StrCat("entry/", i),
             StrCat("case accounting does not close: states ",
                    e.states_before, "->", e.states_after, ", rules ",
                    e.rules_before, "->", e.rules_after));
      return out;
    }
    stack.resize(stack.size() - static_cast<size_t>(arity));
    stack.push_back(
        Span{e.states_before, e.states_after, e.rules_before, e.rules_after});
  }
  if (stack.size() != 1 || stack[0].sb != 0 || stack[0].rb != 0) {
    Report(out, DiagnosticCode::kCompileWitnessRejected, "compile",
           "trace does not reduce to a single root span");
    return out;
  }
  if (stack[0].sa != output.num_states() ||
      stack[0].ra != output.rules().size() ||
      trace.total_states != output.num_states() ||
      trace.total_rules != output.rules().size()) {
    Report(out, DiagnosticCode::kCompileWitnessRejected, "compile",
           StrCat("trace totals (", stack[0].sa, " states, ", stack[0].ra,
                  " rules) do not match the output (",
                  output.num_states(), ", ", output.rules().size(), ")"));
  }
  return out;
}

std::vector<Diagnostic> CheckLazyAudit(
    const Nha& nha, std::span<const automata::LazyAuditEntry> entries) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const ContentIndex ci = IndexContents(nha);
  CombinedClosurePool pool(nha, ci);
  const size_t nq = nha.num_states();
  for (size_t i = 0; i < entries.size(); ++i) {
    const automata::LazyAuditEntry& e = entries[i];
    if (e.h.size() != ci.total) {
      Report(out, DiagnosticCode::kCertificateMalformed,
             StrCat("audit/", i), "audited horizontal set width mismatch");
      continue;
    }
    if (e.is_assign) {
      if (e.result.size() != nq) {
        Report(out, DiagnosticCode::kCertificateMalformed,
               StrCat("audit/", i), "audited assignment width mismatch");
        continue;
      }
      Bitset expect(nq);
      for (uint32_t cs : e.h.ToVector()) {
        size_t r = RuleOf(ci, cs);
        const Nha::Rule& rule = nha.rules()[r];
        uint32_t local = cs - static_cast<uint32_t>(ci.offset[r]);
        if (rule.symbol == e.symbol && rule.content.IsAccepting(local)) {
          expect.Set(rule.target);
        }
      }
      if (!(expect == e.result)) {
        Report(out, DiagnosticCode::kLazyAuditMismatch, StrCat("audit/", i),
               "memoized assignment disagrees with independent "
               "recomputation");
      }
    } else {
      if (e.subset.size() != nq || e.result.size() != ci.total) {
        Report(out, DiagnosticCode::kCertificateMalformed,
               StrCat("audit/", i), "audited step width mismatch");
        continue;
      }
      Bitset expect = pool.Step(e.h, e.subset);
      if (!(expect == e.result)) {
        Report(out, DiagnosticCode::kLazyAuditMismatch, StrCat("audit/", i),
               "memoized horizontal step disagrees with independent "
               "recomputation");
      }
    }
  }
  return out;
}

std::vector<Diagnostic> CheckProjection(const schema::MatchIdentifying& mi,
                                        const query::CompiledPhr& compiled,
                                        const hedge::Hedge& doc) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const std::vector<uint32_t> states = mi.UniqueRunStates(doc);
  const std::vector<bool> marks = mi.UniqueRunMarks(doc);
  const std::vector<HState> dha_run = compiled.dha().Run(doc);
  const std::vector<Bitset> sets = mi.nha().ComputeStateSets(doc);
  if (states.size() != doc.num_nodes() || marks.size() != doc.num_nodes()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "projection",
           "unique run does not cover the document");
    return out;
  }
  for (hedge::NodeId n = 0; n < doc.num_nodes(); ++n) {
    const uint32_t st = states[n];
    if (st >= mi.nha().num_states()) {
      Report(out, DiagnosticCode::kCertificateMalformed, StrCat("node/", n),
             "unique-run state out of range");
      continue;
    }
    const bool is_leaf_node =
        doc.label(n).kind != hedge::LabelKind::kSymbol;
    if (mi.IsLeafState(st) != is_leaf_node) {
      Report(out, DiagnosticCode::kProjectionHomomorphismViolated,
             StrCat("node/", n),
             "leaf/product state does not match the node's label kind");
    }
    if (mi.QOf(st) != dha_run[n]) {
      Report(out, DiagnosticCode::kProjectionHomomorphismViolated,
             StrCat("node/", n),
             "product state does not project onto the shared DHA's run");
    }
    if (!sets[n].Test(st)) {
      Report(out, DiagnosticCode::kProjectionHomomorphismViolated,
             StrCat("node/", n),
             "claimed unique-run state is not assignable by the "
             "match-identifying NHA");
    }
    if (st < mi.marked().size() && marks[n] != mi.marked()[st]) {
      Report(out, DiagnosticCode::kProjectionHomomorphismViolated,
             StrCat("node/", n),
             "unique-run mark disagrees with the marked-state table");
    }
  }
  return out;
}

std::vector<Diagnostic> CheckMinimize(
    const Dha& input, const Dha& output,
    const automata::MinimizeWitness& witness) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const size_t nq = input.num_states();
  const size_t nh = input.num_h_states();

  // --- Shape (HQV001): block maps total over the input, block ids in
  // range, every output state/horizontal state has a preimage.
  if (witness.qblock.size() != nq || witness.hblock.size() != nh) {
    Report(out, DiagnosticCode::kCertificateMalformed, "minimize",
           StrCat("partition widths (", witness.qblock.size(), ", ",
                  witness.hblock.size(), ") do not match the input (", nq,
                  ", ", nh, ")"));
    return out;
  }
  std::vector<bool> qseen(output.num_states(), false);
  std::vector<bool> hseen(output.num_h_states(), false);
  for (size_t q = 0; q < nq; ++q) {
    if (witness.qblock[q] >= output.num_states()) {
      Report(out, DiagnosticCode::kCertificateMalformed, StrCat("qblock/", q),
             "block id out of range of the output states");
      return out;
    }
    qseen[witness.qblock[q]] = true;
  }
  for (size_t h = 0; h < nh; ++h) {
    if (witness.hblock[h] >= output.num_h_states()) {
      Report(out, DiagnosticCode::kCertificateMalformed, StrCat("hblock/", h),
             "block id out of range of the output horizontal states");
      return out;
    }
    hseen[witness.hblock[h]] = true;
  }
  for (size_t b = 0; b < qseen.size(); ++b) {
    if (!qseen[b]) {
      Report(out, DiagnosticCode::kMinimizeWitnessRejected,
             StrCat("block/", b), "output state has no preimage block");
    }
  }
  for (size_t b = 0; b < hseen.size(); ++b) {
    if (!hseen[b]) {
      Report(out, DiagnosticCode::kMinimizeWitnessRejected,
             StrCat("hblock/", b),
             "output horizontal state has no preimage block");
    }
  }

  // --- Congruence: the block maps must commute with every transition
  // table. Together with the final-language walk below this proves the
  // quotient is language-preserving, without re-running the refinement.
  if (output.h_start() != witness.hblock[input.h_start()]) {
    Report(out, DiagnosticCode::kMinimizeWitnessRejected, "hstart",
           "output horizontal start is not the start's block");
  }
  if (output.sink() != witness.qblock[input.sink()]) {
    Report(out, DiagnosticCode::kMinimizeWitnessRejected, "sink",
           "output sink is not the sink's block");
  }
  for (HhState h = 0; h < nh; ++h) {
    for (HState q = 0; q < nq; ++q) {
      if (witness.hblock[input.HNext(h, q)] !=
          output.HNext(witness.hblock[h], witness.qblock[q])) {
        Report(out, DiagnosticCode::kMinimizeWitnessRejected,
               StrCat("htrans/", h, "/", q),
               "horizontal transition does not commute with the partition");
      }
    }
  }
  std::set<hedge::SymbolId> all_symbols;
  for (const auto& [symbol, row] : input.assign_map()) {
    all_symbols.insert(symbol);
  }
  for (const auto& [symbol, row] : output.assign_map()) {
    all_symbols.insert(symbol);
  }
  for (hedge::SymbolId symbol : all_symbols) {
    for (HhState h = 0; h < nh; ++h) {
      if (witness.qblock[input.Assign(symbol, h)] !=
          output.Assign(symbol, witness.hblock[h])) {
        Report(out, DiagnosticCode::kMinimizeWitnessRejected,
               StrCat("assign/", symbol, "/", h),
               "assignment does not commute with the partition");
      }
    }
  }
  for (const auto& [x, q] : input.var_map()) {
    auto it = output.var_map().find(x);
    if (it == output.var_map().end() || it->second != witness.qblock[q]) {
      Report(out, DiagnosticCode::kMinimizeWitnessRejected, StrCat("var/", x),
             "variable state is not the input state's block");
    }
  }
  for (const auto& [x, q] : output.var_map()) {
    if (!input.var_map().contains(x)) {
      Report(out, DiagnosticCode::kMinimizeWitnessRejected, StrCat("var/", x),
             "output knows a variable the input does not");
    }
  }
  for (const auto& [z, q] : input.subst_map()) {
    auto it = output.subst_map().find(z);
    if (it == output.subst_map().end() || it->second != witness.qblock[q]) {
      Report(out, DiagnosticCode::kMinimizeWitnessRejected,
             StrCat("subst/", z),
             "substitution state is not the input state's block");
    }
  }
  for (const auto& [z, q] : output.subst_map()) {
    if (!input.subst_map().contains(z)) {
      Report(out, DiagnosticCode::kMinimizeWitnessRejected,
             StrCat("subst/", z),
             "output knows a substitution symbol the input does not");
    }
  }

  // --- Final-language preservation: walk the product of the input's
  // final DFA (letters: input states) against the output's final DFA read
  // through the block map. Implicit dead sinks are modeled as a virtual
  // non-accepting state so partial DFAs compare soundly.
  const strre::Dfa& fin = input.final_dfa();
  const strre::Dfa& fout = output.final_dfa();
  const strre::StateId in_dead = static_cast<strre::StateId>(fin.num_states());
  const strre::StateId out_dead =
      static_cast<strre::StateId>(fout.num_states());
  auto in_id = [&](strre::StateId s) { return s == strre::kNoState ? in_dead : s; };
  auto out_id = [&](strre::StateId s) {
    return s == strre::kNoState ? out_dead : s;
  };
  std::vector<bool> visited(
      (static_cast<size_t>(in_dead) + 1) * (out_dead + 1), false);
  std::deque<std::pair<strre::StateId, strre::StateId>> queue;
  auto push = [&](strre::StateId a, strre::StateId b) {
    size_t key = static_cast<size_t>(a) * (out_dead + 1) + b;
    if (!visited[key]) {
      visited[key] = true;
      queue.emplace_back(a, b);
    }
  };
  push(in_id(fin.start()), out_id(fout.start()));
  while (!queue.empty()) {
    auto [a, b] = queue.front();
    queue.pop_front();
    const bool acc_a = a != in_dead && fin.IsAccepting(a);
    const bool acc_b = b != out_dead && fout.IsAccepting(b);
    if (acc_a != acc_b) {
      Report(out, DiagnosticCode::kMinimizeWitnessRejected,
             StrCat("final/", a, "/", b),
             "quotient's final language differs from the input's");
      break;
    }
    if (a == in_dead && b == out_dead) continue;
    for (HState q = 0; q < nq; ++q) {
      strre::StateId a2 = a == in_dead ? in_dead : in_id(fin.Next(a, q));
      strre::StateId b2 =
          b == out_dead ? out_dead : out_id(fout.Next(b, witness.qblock[q]));
      push(a2, b2);
    }
  }
  return out;
}

std::vector<Diagnostic> CheckPhrProduct(const phr::Phr& phr,
                                        const query::CompiledPhr& compiled,
                                        const query::PhrWitness& witness) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const size_t n = phr.triplets().size();
  const size_t num_dha = compiled.dha().num_states();

  // --- Shape (HQV001).
  if (witness.elder_final.size() != n || witness.younger_final.size() != n ||
      witness.elder_any.size() != n || witness.younger_any.size() != n ||
      witness.components.size() != 2 * n || compiled.num_triplets() != n) {
    Report(out, DiagnosticCode::kCertificateMalformed, "phr",
           "witness vectors do not cover the representation's triplets");
    return out;
  }
  if (compiled.subsets().size() != num_dha) {
    Report(out, DiagnosticCode::kCertificateMalformed, "phr",
           "subset count does not match the shared DHA's states");
    return out;
  }

  // --- Components: each witnessed DFA must be exactly the subset-lift of
  // its final NFA over the compiled subsets (or the canonical accept-all /
  // dead DFA for unconditional / empty languages).
  for (size_t j = 0; j < 2 * n; ++j) {
    const size_t i = j / 2;
    const bool is_elder = (j % 2 == 0);
    const strre::Dfa& comp = witness.components[j];
    const std::string span = StrCat(is_elder ? "elder/" : "younger/", i);
    const bool any = is_elder ? witness.elder_any[i] : witness.younger_any[i];
    auto is_one_state_loop = [&](bool accepting) {
      if (comp.num_states() != 1 || comp.start() != 0 ||
          comp.IsAccepting(0) != accepting) {
        return false;
      }
      for (HState q = 0; q < num_dha; ++q) {
        if (comp.Next(0, static_cast<strre::Symbol>(q)) != 0) return false;
      }
      return true;
    };
    if (any) {
      if (!is_one_state_loop(true)) {
        Report(out, DiagnosticCode::kPhrProductIncoherent, span,
               "unconditional triplet must lift to the one-state accept-all "
               "DFA");
      }
      continue;
    }
    const Nfa& lang =
        is_elder ? witness.elder_final[i] : witness.younger_final[i];
    if (lang.num_states() == 0 || lang.start() == strre::kNoState) {
      if (!is_one_state_loop(false)) {
        Report(out, DiagnosticCode::kPhrProductIncoherent, span,
               "empty final language must lift to the one-state dead DFA");
      }
      continue;
    }
    if (comp.start() == strre::kNoState ||
        comp.start() >= comp.num_states()) {
      Report(out, DiagnosticCode::kPhrProductIncoherent, span,
             "lifted component has no start state");
      continue;
    }
    std::vector<Bitset> sets(comp.num_states());
    std::vector<bool> have(comp.num_states(), false);
    Bitset s0(lang.num_states());
    s0.Set(lang.start());
    CloseNfa(lang, s0);
    sets[comp.start()] = std::move(s0);
    have[comp.start()] = true;
    std::deque<strre::StateId> queue{comp.start()};
    size_t reached = 1;
    bool bad = false;
    while (!queue.empty() && !bad) {
      strre::StateId f = queue.front();
      queue.pop_front();
      bool want_accepting = false;
      for (uint32_t s : sets[f].ToVector()) {
        if (lang.IsAccepting(s)) {
          want_accepting = true;
          break;
        }
      }
      if (want_accepting != comp.IsAccepting(f)) {
        Report(out, DiagnosticCode::kPhrProductIncoherent, span,
               "lifted component acceptance disagrees with the recomputed "
               "subset");
        bad = true;
        break;
      }
      for (HState sid = 0; sid < num_dha && !bad; ++sid) {
        const Bitset& letter = compiled.subsets()[sid];
        Bitset next(lang.num_states());
        for (uint32_t s : sets[f].ToVector()) {
          for (const Nfa::Transition& t : lang.TransitionsFrom(s)) {
            if (t.symbol < letter.size() && letter.Test(t.symbol)) {
              next.Set(t.to);
            }
          }
        }
        CloseNfa(lang, next);
        strre::StateId to = comp.Next(f, static_cast<strre::Symbol>(sid));
        if (to == strre::kNoState || to >= comp.num_states()) {
          Report(out, DiagnosticCode::kPhrProductIncoherent,
                 StrCat(span, "/", sid),
                 "lifted component is not total over subset letters");
          bad = true;
        } else if (!have[to]) {
          sets[to] = std::move(next);
          have[to] = true;
          ++reached;
          queue.push_back(to);
        } else if (!(sets[to] == next)) {
          Report(out, DiagnosticCode::kPhrProductIncoherent,
                 StrCat(span, "/", sid),
                 "lifted component transition does not match the recomputed "
                 "subset step");
          bad = true;
        }
      }
    }
    if (!bad && reached != comp.num_states()) {
      Report(out, DiagnosticCode::kPhrProductIncoherent, span,
             "lifted component has unreachable states");
    }
  }

  // --- Class product: one independent tuple walk of the components must
  // reproduce the equivalence DFA and both saturation tables.
  const strre::Dfa& equiv = compiled.equiv();
  if (compiled.num_classes() != equiv.num_states()) {
    Report(out, DiagnosticCode::kCertificateMalformed, "equiv",
           "class count does not match the class product's states");
    return out;
  }
  if (equiv.num_states() == 0 || equiv.start() == strre::kNoState ||
      equiv.start() >= equiv.num_states()) {
    Report(out, DiagnosticCode::kPhrProductIncoherent, "equiv",
           "class product has no start state");
    return out;
  }
  {
    std::vector<std::vector<strre::StateId>> tuple_of(equiv.num_states());
    std::vector<bool> have(equiv.num_states(), false);
    std::vector<strre::StateId> t0(2 * n);
    for (size_t j = 0; j < 2 * n; ++j) t0[j] = witness.components[j].start();
    tuple_of[equiv.start()] = std::move(t0);
    have[equiv.start()] = true;
    std::deque<strre::StateId> queue{equiv.start()};
    size_t reached = 1;
    bool bad = false;
    while (!queue.empty() && !bad) {
      strre::StateId e = queue.front();
      queue.pop_front();
      const std::vector<strre::StateId> tuple = tuple_of[e];
      for (size_t i = 0; i < n; ++i) {
        const bool elder_acc =
            tuple[2 * i] != strre::kNoState &&
            witness.components[2 * i].IsAccepting(tuple[2 * i]);
        const bool younger_acc =
            tuple[2 * i + 1] != strre::kNoState &&
            witness.components[2 * i + 1].IsAccepting(tuple[2 * i + 1]);
        if (elder_acc != compiled.ElderClassOk(i, e) ||
            younger_acc != compiled.YoungerClassOk(i, e)) {
          Report(out, DiagnosticCode::kPhrProductIncoherent,
                 StrCat("saturation/", i, "/", e),
                 "saturation table disagrees with the component tuple");
          bad = true;
          break;
        }
      }
      for (HState q = 0; q < num_dha && !bad; ++q) {
        strre::StateId e2 = equiv.Next(e, static_cast<strre::Symbol>(q));
        if (e2 == strre::kNoState || e2 >= equiv.num_states()) {
          Report(out, DiagnosticCode::kPhrProductIncoherent,
                 StrCat("equiv/", e, "/", q),
                 "class product is not total over the state alphabet");
          bad = true;
          break;
        }
        std::vector<strre::StateId> t2(2 * n);
        for (size_t j = 0; j < 2 * n; ++j) {
          t2[j] = witness.components[j].Next(tuple[j],
                                             static_cast<strre::Symbol>(q));
        }
        if (!have[e2]) {
          tuple_of[e2] = std::move(t2);
          have[e2] = true;
          ++reached;
          queue.push_back(e2);
        } else if (tuple_of[e2] != t2) {
          Report(out, DiagnosticCode::kPhrProductIncoherent,
                 StrCat("equiv/", e, "/", q),
                 "two distinct component tuples collapse to one class");
          bad = true;
        }
      }
    }
    if (!bad && reached != equiv.num_states()) {
      Report(out, DiagnosticCode::kPhrProductIncoherent, "equiv",
             "class product has unreachable classes");
    }
    if (bad) return out;
  }

  // --- Symbol index: dense bijection covering every triplet label.
  const uint32_t num_symbols = compiled.num_symbols();
  {
    std::set<hedge::SymbolId> distinct;
    for (uint32_t k = 0; k < num_symbols; ++k) {
      hedge::SymbolId s = compiled.SymbolAt(k);
      if (!distinct.insert(s).second || compiled.SymbolIndex(s) != k) {
        Report(out, DiagnosticCode::kPhrProductIncoherent, "symbols",
               "symbol index is not a dense bijection");
        return out;
      }
    }
    for (const phr::PointedBaseRep& t : phr.triplets()) {
      if (compiled.SymbolIndex(t.label) == query::CompiledPhr::kNoSymbol) {
        Report(out, DiagnosticCode::kPhrProductIncoherent, "symbols",
               "a triplet label is missing from the symbol index");
        return out;
      }
    }
    // Locate reads the dense index for every node, so every entry must
    // name its own triplet symbol.
    const std::span<const uint32_t> symbol_index = compiled.symbol_index();
    for (size_t id = 0; id < symbol_index.size(); ++id) {
      const uint32_t k = symbol_index[id];
      if (k != query::CompiledPhr::kNoSymbol &&
          (k >= num_symbols || compiled.SymbolAt(k) != id)) {
        Report(out, DiagnosticCode::kPhrProductIncoherent,
               StrCat("symbols/", id),
               "dense symbol index names the wrong triplet symbol");
        return out;
      }
    }
  }

  // --- L = xi(L(r)): recompute the homomorphism image with our own letter
  // arithmetic and compare structurally.
  const uint32_t num_classes = compiled.num_classes();
  {
    std::vector<std::vector<strre::Symbol>> images(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t si = compiled.SymbolIndex(phr.triplets()[i].label);
      for (uint32_t c1 = 0; c1 < num_classes; ++c1) {
        if (!compiled.ElderClassOk(i, c1)) continue;
        for (uint32_t c2 = 0; c2 < num_classes; ++c2) {
          if (!compiled.YoungerClassOk(i, c2)) continue;
          images[i].push_back(
              (static_cast<strre::Symbol>(c1) * num_symbols + si) *
                  num_classes +
              c2);
        }
      }
    }
    Nfa expect = strre::SubstituteSets(
        strre::CompileRegex(phr.regex()), [&](strre::Symbol t) {
          return t < images.size() ? images[t]
                                   : std::vector<strre::Symbol>{};
        });
    if (!NfaStructEq(expect, compiled.L())) {
      Report(out, DiagnosticCode::kPhrProductIncoherent, "L",
             "xi-image language does not match the recomputed homomorphism");
      return out;
    }
  }

  // --- Mirror: simulate the reversal of L by backward subsets and walk it
  // against the mirror DFA.
  {
    const Nfa& lang = compiled.L();
    const strre::Dfa& mirror = compiled.mirror();
    std::vector<std::vector<Nfa::Transition>> revtrans(lang.num_states());
    std::vector<std::vector<strre::StateId>> reveps(lang.num_states());
    for (strre::StateId s = 0; s < lang.num_states(); ++s) {
      for (const Nfa::Transition& t : lang.TransitionsFrom(s)) {
        revtrans[t.to].push_back(Nfa::Transition{t.symbol, s});
      }
      for (strre::StateId t : lang.EpsilonsFrom(s)) reveps[t].push_back(s);
    }
    auto close_rev = [&](Bitset& set) {
      std::deque<uint32_t> bfs;
      for (uint32_t s : set.ToVector()) bfs.push_back(s);
      while (!bfs.empty()) {
        uint32_t s = bfs.front();
        bfs.pop_front();
        for (strre::StateId p : reveps[s]) {
          if (!set.Test(p)) {
            set.Set(p);
            bfs.push_back(p);
          }
        }
      }
    };
    std::vector<strre::Symbol> letters = mirror.AlphabetInUse();
    {
      std::vector<strre::Symbol> more = lang.AlphabetInUse();
      letters.insert(letters.end(), more.begin(), more.end());
      std::sort(letters.begin(), letters.end());
      letters.erase(std::unique(letters.begin(), letters.end()),
                    letters.end());
    }
    Bitset s0(lang.num_states());
    for (strre::StateId s = 0; s < lang.num_states(); ++s) {
      if (lang.IsAccepting(s)) s0.Set(s);
    }
    close_rev(s0);
    auto accept_set = [&](const Bitset& set) {
      return lang.start() != strre::kNoState && set.Test(lang.start());
    };
    auto accept_m = [&](strre::StateId m) {
      return m != strre::kNoState && mirror.IsAccepting(m);
    };
    struct PairHash {
      size_t operator()(
          const std::pair<Bitset, strre::StateId>& p) const {
        return BitsetHash{}(p.first) * 1000003u + p.second + 1;
      }
    };
    std::unordered_set<std::pair<Bitset, strre::StateId>, PairHash> visited;
    std::deque<std::pair<Bitset, strre::StateId>> queue;
    const size_t cap = 64 * (mirror.num_states() + 2) + 1024;
    visited.insert({s0, mirror.start()});
    queue.emplace_back(std::move(s0), mirror.start());
    while (!queue.empty()) {
      auto [set, m] = std::move(queue.front());
      queue.pop_front();
      if (accept_set(set) != accept_m(m)) {
        Report(out, DiagnosticCode::kPhrProductIncoherent, "mirror",
               "mirror automaton disagrees with the reversed-subset "
               "simulation of L");
        break;
      }
      if (set.None() && m == strre::kNoState) continue;  // dead pair
      for (strre::Symbol a : letters) {
        Bitset next(lang.num_states());
        for (uint32_t s : set.ToVector()) {
          for (const Nfa::Transition& t : revtrans[s]) {
            if (t.symbol == a) next.Set(t.to);
          }
        }
        close_rev(next);
        strre::StateId m2 = mirror.Next(m, a);
        if (!visited.insert({next, m2}).second) continue;
        if (visited.size() > cap) {
          Report(out, DiagnosticCode::kPhrProductIncoherent, "mirror",
                 "reversed-subset simulation exceeded its state bound");
          queue.clear();
          break;
        }
        queue.emplace_back(std::move(next), m2);
      }
    }
  }

  return out;
}

std::vector<Diagnostic> CheckContainment(
    const schema::Schema& schema, const query::SelectionQuery& q1,
    const query::SelectionQuery& q2, const schema::ContainmentResult& result,
    const schema::ContainmentWitness& witness) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const Nha& product = witness.product;
  const size_t np = product.num_states();
  if (witness.marked1.size() != np || witness.marked2.size() != np) {
    Report(out, DiagnosticCode::kCertificateMalformed, "containment",
           "mark table widths do not match the product's states");
    return out;
  }

  if (!result.contained) {
    // Non-containment is certified by a concrete document: it must be
    // schema-valid, and the two queries must actually disagree on the
    // claimed node — re-derived through the naive Definition 22 oracle,
    // never through the product.
    if (!result.counterexample.has_value()) {
      Report(out, DiagnosticCode::kContainmentCertificateRejected, "verdict",
             "not-contained verdict carries no counterexample document");
      return out;
    }
    const hedge::Hedge& doc = result.counterexample->document;
    const hedge::NodeId located = result.counterexample->located;
    if (located >= doc.num_nodes()) {
      Report(out, DiagnosticCode::kCertificateMalformed, "counterexample",
             "located node id out of range");
      return out;
    }
    if (!schema.nha().Accepts(doc)) {
      Report(out, DiagnosticCode::kContainmentCertificateRejected,
             "counterexample",
             "counterexample document is not schema-valid");
    }
    std::optional<std::vector<bool>> l1 = NaiveSelectionLocate(q1, doc);
    std::optional<std::vector<bool>> l2 = NaiveSelectionLocate(q2, doc);
    if (!l1.has_value() || !l2.has_value()) {
      Report(out, DiagnosticCode::kCertificateMalformed, "counterexample",
             "naive re-evaluation exhausted its step budget");
      return out;
    }
    if (!(*l1)[located]) {
      Report(out, DiagnosticCode::kContainmentCertificateRejected,
             "counterexample",
             "q1 does not locate the claimed node of the counterexample");
    }
    if ((*l2)[located]) {
      Report(out, DiagnosticCode::kContainmentCertificateRejected,
             "counterexample",
             "q2 also locates the claimed node — the document separates "
             "nothing");
    }
    return out;
  }

  if (result.counterexample.has_value()) {
    Report(out, DiagnosticCode::kContainmentCertificateRejected, "verdict",
           "contained verdict carries a counterexample document");
    return out;
  }
  // Containment: our own usable-state fixpoint over the witnessed product
  // (bottom-up derivability, then co-reachability from the final language)
  // must find no state q1 marks that q2 does not.
  Bitset derivable(np);
  for (const auto& [x, states] : product.var_map()) {
    for (HState q : states) derivable.Set(q);
  }
  for (const auto& [z, states] : product.subst_map()) {
    for (HState q : states) derivable.Set(q);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Nha::Rule& rule : product.rules()) {
      if (derivable.Test(rule.target)) continue;
      if (AcceptsOverAlphabet(rule.content, derivable)) {
        derivable.Set(rule.target);
        changed = true;
      }
    }
  }
  Bitset co = LettersOnAcceptingPaths(product.final_nfa(), derivable, np);
  changed = true;
  while (changed) {
    changed = false;
    for (const Nha::Rule& rule : product.rules()) {
      if (!co.Test(rule.target)) continue;
      Bitset usable = LettersOnAcceptingPaths(rule.content, derivable, np);
      Bitset before = co;
      co |= usable;
      if (!(co == before)) changed = true;
    }
  }
  Bitset useful = derivable;
  useful &= co;
  for (size_t p = 0; p < np; ++p) {
    if (useful.Test(static_cast<uint32_t>(p)) && witness.marked1[p] &&
        !witness.marked2[p]) {
      Report(out, DiagnosticCode::kContainmentCertificateRejected,
             StrCat("state/", p),
             "a usable product state is marked by q1 but not q2 — the "
             "verdict cannot be \"contained\"");
      break;
    }
  }
  return out;
}

namespace {

// Structural HRE equality over shared DAGs, memoized on node-pointer pairs
// so repeated shared subtrees are compared once.
bool HreStructEqImpl(
    const hre::HreNode* a, const hre::HreNode* b,
    std::map<std::pair<const hre::HreNode*, const hre::HreNode*>, bool>&
        memo) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  const auto key = std::make_pair(a, b);
  auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const bool eq = a->kind() == b->kind() && a->id() == b->id() &&
                  a->subst() == b->subst() &&
                  HreStructEqImpl(a->left().get(), b->left().get(), memo) &&
                  HreStructEqImpl(a->right().get(), b->right().get(), memo);
  memo.emplace(key, eq);
  return eq;
}

bool HreStructEq(const hre::Hre& a, const hre::Hre& b) {
  std::map<std::pair<const hre::HreNode*, const hre::HreNode*>, bool> memo;
  return HreStructEqImpl(a.get(), b.get(), memo);
}

// Checker-side pairing product — the spec of schema::IntersectSchemas
// re-coded independently: output states qa*|Qb|+qb, rule pairs in
// a-outer/b-inner order on matching symbols, content NFAs paired state-wise
// (pair states sa*|Sb|+sb, per-side epsilons, pair letters, accepting iff
// both sides accept), iota paired per variable/substitution symbol, final
// language the pairing of the final NFAs.
Nha CheckerPairProduct(const Nha& a, const Nha& b) {
  Nha out;
  const size_t nb = b.num_states();
  out.AddStates(a.num_states() * nb);
  auto encode = [nb](HState qa, HState qb) {
    return static_cast<HState>(qa * nb + qb);
  };
  auto pair_nfa = [&](const Nfa& ca, const Nfa& cb) {
    Nfa prod;
    const size_t pb = cb.num_states();
    for (size_t i = 0; i < ca.num_states() * pb; ++i) prod.AddState(false);
    if (ca.num_states() == 0 || cb.num_states() == 0) return prod;
    auto pid = [pb](uint32_t sa, uint32_t sb) {
      return static_cast<strre::StateId>(sa * pb + sb);
    };
    prod.SetStart(pid(ca.start(), cb.start()));
    for (uint32_t sa = 0; sa < ca.num_states(); ++sa) {
      for (uint32_t sb = 0; sb < cb.num_states(); ++sb) {
        if (ca.IsAccepting(sa) && cb.IsAccepting(sb)) {
          prod.SetAccepting(pid(sa, sb), true);
        }
        for (uint32_t ta : ca.EpsilonsFrom(sa)) {
          prod.AddEpsilon(pid(sa, sb), pid(ta, sb));
        }
        for (uint32_t tb : cb.EpsilonsFrom(sb)) {
          prod.AddEpsilon(pid(sa, sb), pid(sa, tb));
        }
        for (const Nfa::Transition& ta : ca.TransitionsFrom(sa)) {
          for (const Nfa::Transition& tb : cb.TransitionsFrom(sb)) {
            prod.AddTransition(pid(sa, sb), encode(ta.symbol, tb.symbol),
                               pid(ta.to, tb.to));
          }
        }
      }
    }
    return prod;
  };
  for (const Nha::Rule& ra : a.rules()) {
    for (const Nha::Rule& rb : b.rules()) {
      if (ra.symbol != rb.symbol) continue;
      out.AddRule(ra.symbol, pair_nfa(ra.content, rb.content),
                  encode(ra.target, rb.target));
    }
  }
  for (const auto& [x, states_a] : a.var_map()) {
    for (HState qa : states_a) {
      for (HState qb : b.VariableStates(x)) {
        out.AddVariableState(x, encode(qa, qb));
      }
    }
  }
  for (const auto& [z, states_a] : a.subst_map()) {
    for (HState qa : states_a) {
      for (HState qb : b.SubstStates(z)) {
        out.AddSubstState(z, encode(qa, qb));
      }
    }
  }
  out.SetFinal(pair_nfa(a.final_nfa(), b.final_nfa()));
  return out;
}

// Whole-NHA structural equality (rule order included); on mismatch `why`
// names the first disagreeing section.
bool NhaStructEqWhy(const Nha& x, const Nha& y, std::string* why) {
  if (x.num_states() != y.num_states()) {
    *why = StrCat("states ", x.num_states(), " != ", y.num_states());
    return false;
  }
  if (x.rules().size() != y.rules().size()) {
    *why = StrCat("rules ", x.rules().size(), " != ", y.rules().size());
    return false;
  }
  for (size_t i = 0; i < x.rules().size(); ++i) {
    const Nha::Rule& rx = x.rules()[i];
    const Nha::Rule& ry = y.rules()[i];
    if (rx.symbol != ry.symbol || rx.target != ry.target ||
        !NfaStructEq(rx.content, ry.content)) {
      *why = StrCat("rule/", i);
      return false;
    }
  }
  for (const auto& [v, states] : x.var_map()) {
    if (SortedStates(states) != SortedStates(y.VariableStates(v))) {
      *why = StrCat("var/", v);
      return false;
    }
  }
  for (const auto& [v, states] : y.var_map()) {
    if (!x.var_map().contains(v)) {
      *why = StrCat("var/", v);
      return false;
    }
  }
  for (const auto& [z, states] : x.subst_map()) {
    if (SortedStates(states) != SortedStates(y.SubstStates(z))) {
      *why = StrCat("subst/", z);
      return false;
    }
  }
  for (const auto& [z, states] : y.subst_map()) {
    if (!x.subst_map().contains(z)) {
      *why = StrCat("subst/", z);
      return false;
    }
  }
  if (!NfaStructEq(x.final_nfa(), y.final_nfa())) {
    *why = "final";
    return false;
  }
  return true;
}

}  // namespace

std::vector<Diagnostic> CheckFromNha(const Nha& input, const hre::Hre& output,
                                     const hre::FromNhaWitness& witness) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  if (output == nullptr || witness.result == nullptr) {
    Report(out, DiagnosticCode::kCertificateMalformed, "fromnha",
           "certificate carries no expression");
    return out;
  }
  if (!input.subst_map().empty()) {
    Report(out, DiagnosticCode::kFromNhaWitnessRejected, "input",
           "Lemma 2 does not apply to automata with substitution-symbol "
           "states — the construction cannot have succeeded");
    return out;
  }

  // --- Split table (re-enumerated): the (symbol, target) pairs of the
  // input's rules in first-occurrence order, at most 62.
  std::vector<std::pair<hedge::SymbolId, HState>> splits;
  {
    std::set<std::pair<hedge::SymbolId, HState>> seen;
    for (const Nha::Rule& rule : input.rules()) {
      const auto key = std::make_pair(rule.symbol, rule.target);
      if (seen.insert(key).second) splits.push_back(key);
    }
  }
  if (witness.splits != splits) {
    Report(out, DiagnosticCode::kFromNhaWitnessRejected, "splits",
           "witnessed split table does not match the rule targets in "
           "first-occurrence order");
    return out;
  }
  if (splits.size() > 62 || witness.substs.size() != splits.size()) {
    Report(out, DiagnosticCode::kFromNhaWitnessRejected, "substs",
           StrCat("split table has ", splits.size(), " entries but ",
                  witness.substs.size(), " substitution symbols"));
    return out;
  }
  const uint64_t all_mask =
      splits.empty() ? 0
                     : (splits.size() == 62 ? ~uint64_t{0} >> 2
                                            : (uint64_t{1} << splits.size()) -
                                                  1);

  // --- Recurrence replay (the heart of HQV014): every recursive entry of
  // the witness must equal the recurrence combination of its recorded
  // sub-entries — which precede it in fill order — rebuilt here and
  // compared structurally. A construction that drops an alternative (the
  // from_nha/drop-alternative failpoint) fails this deterministically.
  std::map<std::tuple<uint32_t, uint64_t, uint64_t>, hre::Hre> table;
  for (size_t i = 0; i < witness.entries.size(); ++i) {
    const hre::FromNhaWitness::Entry& e = witness.entries[i];
    if (e.expr == nullptr || e.c >= splits.size() ||
        (e.q1 & ~all_mask) != 0 || (e.q2 & ~all_mask) != 0 ||
        (e.q1 & e.q2) != 0) {
      Report(out, DiagnosticCode::kFromNhaWitnessRejected,
             StrCat("entry/", i), "recurrence entry out of range");
      return out;
    }
    if (e.q1 != 0) {
      const uint32_t p = 63 - static_cast<uint32_t>(__builtin_clzll(e.q1));
      const uint64_t q1_rest = e.q1 & ~(uint64_t{1} << p);
      const uint64_t q2_with_p = e.q2 | (uint64_t{1} << p);
      auto sub = [&](uint32_t c, uint64_t q1, uint64_t q2) -> hre::Hre {
        auto it = table.find(std::make_tuple(c, q1, q2));
        return it == table.end() ? nullptr : it->second;
      };
      const hre::Hre rp = sub(p, q1_rest, e.q2);
      const hre::Hre rp_up = sub(p, q1_rest, q2_with_p);
      const hre::Hre rq_up = sub(e.c, q1_rest, q2_with_p);
      const hre::Hre rq = sub(e.c, q1_rest, e.q2);
      if (rp == nullptr || rp_up == nullptr || rq_up == nullptr ||
          rq == nullptr) {
        Report(out, DiagnosticCode::kFromNhaWitnessRejected,
               StrCat("entry/", i),
               "recurrence entry precedes one of its sub-entries");
        return out;
      }
      const hedge::SubstId zp = witness.substs[p];
      const hre::Hre expected = hre::HUnion(
          hre::HEmbed(
              hre::HUnion(hre::HEmbed(rp, zp, hre::HVClose(rp_up, zp)), rp),
              zp, rq_up),
          rq);
      if (!HreStructEq(expected, e.expr)) {
        Report(out, DiagnosticCode::kFromNhaWitnessRejected,
               StrCat("entry/", i),
               "recurrence entry is not the combination of its sub-entries "
               "(an elimination alternative was altered or dropped)");
      }
    }
    if (!table.emplace(std::make_tuple(e.c, e.q1, e.q2), e.expr).second) {
      Report(out, DiagnosticCode::kFromNhaWitnessRejected,
             StrCat("entry/", i), "duplicate recurrence entry");
    }
    if (out.size() >= kMaxFindings) return out;
  }
  if (!HreStructEq(witness.result, output)) {
    Report(out, DiagnosticCode::kFromNhaWitnessRejected, "result",
           "witnessed result is not the returned expression");
  }
  if (!out.empty()) return out;

  // --- Independent semantic tier: recompile the emitted expression through
  // the Lemma 1 pipeline (verify/checker never shares code with Lemma 2)
  // and differentially compare membership against the source automaton on
  // a bounded-exhaustive plus sampled hedge corpus. Budget exhaustion
  // degrades to the structural tier above instead of flagging.
  ExecBudget budget;
  budget.max_states = size_t{1} << 14;
  budget.max_memory_bytes = size_t{32} << 20;
  budget.max_steps = size_t{1} << 24;
  budget.max_depth = 1024;
  Result<Nha> compiled = hre::CompileHre(output, budget);
  if (!compiled.ok()) return out;

  EnumVocab ev;
  {
    std::set<hedge::SymbolId> syms;
    for (const Nha::Rule& rule : input.rules()) syms.insert(rule.symbol);
    ev.symbols.assign(syms.begin(), syms.end());
    // One fresh symbol the automaton has no rule for: both sides must
    // reject hedges mentioning it.
    ev.symbols.push_back(ev.symbols.empty() ? 0 : ev.symbols.back() + 1);
    for (const auto& [x, states] : input.var_map()) {
      ev.variables.push_back(x);
    }
  }
  bool disagreed = false;
  auto compare = [&](const hedge::Hedge& h) {
    const bool want = input.Accepts(h);
    const bool got = compiled->Accepts(h);
    if (want != got) {
      disagreed = true;
      Report(out, DiagnosticCode::kFromNhaWitnessRejected,
             StrCat("hedge/", h.num_nodes()),
             StrCat("recompiled expression ", got ? "accepts" : "rejects",
                    " a ", h.num_nodes(),
                    "-node hedge the source automaton ",
                    want ? "accepts" : "rejects"));
      return false;
    }
    return true;
  };
  size_t remaining = 2000;
  for (size_t size = 0; size <= 3 && remaining > 0 && !disagreed; ++size) {
    const size_t emitted = EnumerateHedges(ev, size, remaining, compare);
    remaining -= std::min(remaining, emitted);
  }
  SplitMix64 rng(1);
  for (size_t i = 0; i < 24 && !disagreed; ++i) {
    compare(SampleHedge(ev, 5, rng));
  }
  return out;
}

std::vector<Diagnostic> CheckAlgebra(const schema::Schema& a,
                                     const schema::Schema& b,
                                     const schema::Schema& result,
                                     const schema::AlgebraWitness& witness) {
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const Nha& na = a.nha();
  const Nha& nb = b.nha();
  const Nha& no = result.nha();

  switch (witness.op) {
    case schema::AlgebraOp::kIntersect:
    case schema::AlgebraOp::kDifference: {
      // --- Product re-derivation: the pairing product of the left operand
      // with the right operand (b, or the witnessed complement of b for
      // difference), rebuilt with the checker's own pairing code and
      // compared structurally — rule order included, so a dropped or
      // reordered rule (the algebra/drop-rule failpoint) cannot hide.
      const Nha& right = witness.op == schema::AlgebraOp::kDifference
                             ? witness.complement
                             : nb;
      std::string why;
      if (!NhaStructEqWhy(CheckerPairProduct(na, right), witness.product,
                          &why)) {
        Report(out, DiagnosticCode::kAlgebraWitnessRejected,
               StrCat("product/", why),
               "witnessed product does not match the re-derived pairing "
               "product");
      }
      // --- The output is the pruned product; re-validate the prune through
      // the independent trim checker.
      for (Diagnostic& d : CheckTrim(witness.product, no, witness.trim)) {
        if (out.size() >= kMaxFindings) break;
        out.push_back(std::move(d));
      }
      break;
    }
    case schema::AlgebraOp::kUnion: {
      // --- Disjoint-union layout: a's copy at offset 0, b's copy after it,
      // rules and iota shifted, re-derived structurally.
      if (witness.offset_a != 0 ||
          witness.offset_b != static_cast<HState>(na.num_states()) ||
          no.num_states() != na.num_states() + nb.num_states()) {
        Report(out, DiagnosticCode::kAlgebraWitnessRejected, "offsets",
               "union offsets do not match the operand state counts");
        break;
      }
      if (no.rules().size() != na.rules().size() + nb.rules().size()) {
        Report(out, DiagnosticCode::kAlgebraWitnessRejected, "rules",
               StrCat("union has ", no.rules().size(), " rules for ",
                      na.rules().size(), " + ", nb.rules().size(),
                      " operand rules"));
        break;
      }
      std::vector<HState> shift_a(na.num_states());
      std::vector<HState> shift_b(nb.num_states());
      for (HState q = 0; q < na.num_states(); ++q) {
        shift_a[q] = q + witness.offset_a;
      }
      for (HState q = 0; q < nb.num_states(); ++q) {
        shift_b[q] = q + witness.offset_b;
      }
      auto check_side = [&](const Nha& side, const std::vector<HState>& shift,
                            HState offset, size_t rule_offset,
                            const char* name) {
        for (size_t i = 0; i < side.rules().size(); ++i) {
          const Nha::Rule& rs = side.rules()[i];
          const Nha::Rule& ro = no.rules()[rule_offset + i];
          if (ro.symbol != rs.symbol || ro.target != rs.target + offset ||
              !NfaStructEq(ro.content, ProjectLetters(rs.content, shift))) {
            Report(out, DiagnosticCode::kAlgebraWitnessRejected,
                   StrCat("rule/", name, "/", i),
                   "union rule is not the shifted copy of the operand rule");
          }
        }
      };
      check_side(na, shift_a, witness.offset_a, 0, "a");
      check_side(nb, shift_b, witness.offset_b, na.rules().size(), "b");
      auto check_iota = [&](auto states_of_a, auto states_of_b,
                            auto states_of_out, const auto& keys,
                            const char* name) {
        for (const auto& key : keys) {
          std::vector<uint32_t> expect;
          for (HState q : states_of_a(key)) {
            expect.push_back(q + witness.offset_a);
          }
          for (HState q : states_of_b(key)) {
            expect.push_back(q + witness.offset_b);
          }
          std::sort(expect.begin(), expect.end());
          expect.erase(std::unique(expect.begin(), expect.end()),
                       expect.end());
          if (SortedStates(states_of_out(key)) != expect) {
            Report(out, DiagnosticCode::kAlgebraWitnessRejected,
                   StrCat(name, "/", key),
                   "union iota is not the shifted pairing of the operands'");
          }
        }
      };
      {
        std::set<hedge::VarId> vars;
        for (const auto& [x, states] : na.var_map()) vars.insert(x);
        for (const auto& [x, states] : nb.var_map()) vars.insert(x);
        for (const auto& [x, states] : no.var_map()) vars.insert(x);
        check_iota([&](hedge::VarId x) { return na.VariableStates(x); },
                   [&](hedge::VarId x) { return nb.VariableStates(x); },
                   [&](hedge::VarId x) { return no.VariableStates(x); },
                   vars, "var");
      }
      {
        std::set<hedge::SubstId> subs;
        for (const auto& [z, states] : na.subst_map()) subs.insert(z);
        for (const auto& [z, states] : nb.subst_map()) subs.insert(z);
        for (const auto& [z, states] : no.subst_map()) subs.insert(z);
        check_iota([&](hedge::SubstId z) { return na.SubstStates(z); },
                   [&](hedge::SubstId z) { return nb.SubstStates(z); },
                   [&](hedge::SubstId z) { return no.SubstStates(z); },
                   subs, "subst");
      }
      // The union's final NFA is covered semantically by the membership
      // oracle below (re-deriving strre::UnionNfa's layout here would just
      // re-run construction code).
      break;
    }
  }

  // --- Enumeration membership oracle: the output must agree with the
  // operand validators pointwise (out == a OP b) on a bounded-exhaustive
  // plus sampled corpus over the joint vocabulary; for difference the
  // witnessed complement must additionally disagree with b everywhere.
  EnumVocab ev;
  {
    std::set<hedge::SymbolId> syms;
    for (hedge::SymbolId s : a.Symbols()) syms.insert(s);
    for (hedge::SymbolId s : b.Symbols()) syms.insert(s);
    ev.symbols.assign(syms.begin(), syms.end());
    std::set<hedge::VarId> vars;
    for (hedge::VarId v : a.Variables()) vars.insert(v);
    for (hedge::VarId v : b.Variables()) vars.insert(v);
    ev.variables.assign(vars.begin(), vars.end());
  }
  bool disagreed = false;
  auto compare = [&](const hedge::Hedge& h) {
    const bool ina = na.Accepts(h);
    const bool inb = nb.Accepts(h);
    const bool ino = no.Accepts(h);
    bool want = false;
    switch (witness.op) {
      case schema::AlgebraOp::kIntersect:
        want = ina && inb;
        break;
      case schema::AlgebraOp::kUnion:
        want = ina || inb;
        break;
      case schema::AlgebraOp::kDifference:
        want = ina && !inb;
        break;
    }
    if (ino != want) {
      disagreed = true;
      Report(out, DiagnosticCode::kAlgebraWitnessRejected,
             StrCat("hedge/", h.num_nodes()),
             StrCat("output ", ino ? "accepts" : "rejects", " a ",
                    h.num_nodes(),
                    "-node hedge the operand validators say it must ",
                    want ? "accept" : "reject"));
      return false;
    }
    if (witness.op == schema::AlgebraOp::kDifference &&
        witness.complement.Accepts(h) == inb) {
      disagreed = true;
      Report(out, DiagnosticCode::kAlgebraWitnessRejected,
             StrCat("hedge/", h.num_nodes()),
             "witnessed complement agrees with b on a joint-vocabulary "
             "hedge");
      return false;
    }
    return true;
  };
  size_t remaining = 1500;
  for (size_t size = 0; size <= 3 && remaining > 0 && !disagreed; ++size) {
    const size_t emitted = EnumerateHedges(ev, size, remaining, compare);
    remaining -= std::min(remaining, emitted);
  }
  SplitMix64 rng(1);
  for (size_t i = 0; i < 16 && !disagreed; ++i) {
    compare(SampleHedge(ev, 5, rng));
  }
  return out;
}

std::vector<Diagnostic> CheckCertificateLight(const Certificate& cert,
                                              size_t sample_rows) {
  if (cert.kind != CertificateKind::kDeterminize || cert.det.chain.empty()) {
    // No chain (or not a determinize certificate): nothing light to do —
    // fall through to the full checker.
    return CheckCertificate(cert);
  }
  std::vector<Diagnostic> out;
  CheckObserver obs_guard(out);
  const automata::Determinized output{cert.dha, cert.subsets};
  const automata::DeterminizeWitness& witness = cert.det;
  const Nha& input = cert.input;
  const Dha& dha = output.dha;
  const ContentIndex ci = IndexContents(input);
  CombinedClosurePool pool(input, ci);
  if (!DetShape(input, output, witness, ci, out)) return out;

  // --- Digest chain (HQV016): one link per stored set in section order;
  // recomputing every link is O(total set bits) and catches any tampering
  // of a set or a link deterministically.
  const size_t total_sets = output.subsets.size() + witness.h_sets.size() +
                            witness.final_sets.size();
  if (witness.chain.size() != total_sets) {
    Report(out, DiagnosticCode::kDigestChainMismatch, "chain",
           StrCat("chain has ", witness.chain.size(), " links for ",
                  total_sets, " interned sets"));
    return out;
  }
  {
    std::string prev;
    size_t i = 0;
    for (const std::vector<Bitset>* section :
         {&output.subsets, &witness.h_sets, &witness.final_sets}) {
      for (const Bitset& set : *section) {
        prev = DigestChainLink(prev, set);
        if (witness.chain[i] != prev) {
          Report(out, DiagnosticCode::kDigestChainMismatch,
                 StrCat("chain/", i),
                 "digest chain link does not recompute from the stored set");
          return out;
        }
        ++i;
      }
    }
  }

  // --- Deterministic cheap sections: start row, iota, and the full lifted
  // final DFA (so a flipped final bit is still caught in light mode).
  DetHStart(input, dha, witness, ci, pool, out);
  DetIota(input, dha, output.subsets, out);

  // --- Spot checks: a seeded random sample of horizontal rows gets the
  // full transition/assignment re-derivation. The seed folds the chain
  // tail, so the choice is deterministic per certificate but varies across
  // entries.
  std::set<hedge::SymbolId> all_symbols;
  for (const Nha::Rule& rule : input.rules()) all_symbols.insert(rule.symbol);
  for (const auto& [symbol, row] : dha.assign_map()) {
    all_symbols.insert(symbol);
  }
  std::vector<std::vector<uint32_t>> subset_bits(output.subsets.size());
  for (size_t i = 0; i < output.subsets.size(); ++i) {
    subset_bits[i] = output.subsets[i].ToVector();
  }
  const size_t rows = witness.h_sets.size();
  if (rows <= sample_rows + 1) {
    for (HhState h = 0; h < rows; ++h) {
      DetRow(h, input, ci, pool, dha, witness, output.subsets, subset_bits,
             all_symbols, out);
    }
  } else {
    uint64_t seed = 0x9e3779b97f4a7c15ull;
    for (char c : witness.chain.back()) {
      seed = seed * 131 + static_cast<unsigned char>(c);
    }
    SplitMix64 rng(seed);
    std::set<HhState> picked{dha.h_start()};
    while (picked.size() < sample_rows + 1) {
      picked.insert(static_cast<HhState>(rng.Below(rows)));
    }
    for (HhState h : picked) {
      DetRow(h, input, ci, pool, dha, witness, output.subsets, subset_bits,
             all_symbols, out);
    }
  }

  DetFinal(input, dha, output.subsets, subset_bits, witness, out);
  return out;
}

std::vector<Diagnostic> CheckCertificate(const Certificate& cert) {
  switch (cert.kind) {
    case CertificateKind::kDeterminize: {
      automata::Determinized output{cert.dha, cert.subsets};
      return CheckDeterminize(cert.input, output, cert.det);
    }
    case CertificateKind::kTrim:
      return CheckTrim(cert.input, cert.trimmed, cert.trim);
    case CertificateKind::kMinimize:
      return CheckMinimize(cert.min_input, cert.min_output, cert.min);
    case CertificateKind::kContainment: {
      if (!cert.q1.has_value() || !cert.q2.has_value()) {
        std::vector<Diagnostic> out;
        Report(out, DiagnosticCode::kCertificateMalformed, "containment",
               "certificate carries no parsed queries");
        return out;
      }
      schema::Schema schema(cert.input);
      return CheckContainment(schema, *cert.q1, *cert.q2, cert.containment,
                              cert.cont);
    }
    case CertificateKind::kFromNha:
      return CheckFromNha(cert.input, cert.fn_output, cert.fn);
    case CertificateKind::kAlgebra: {
      schema::Schema a(cert.input);
      schema::Schema b(cert.alg_b);
      schema::Schema result(cert.alg_out);
      return CheckAlgebra(a, b, result, cert.alg);
    }
  }
  return CheckTrim(cert.input, cert.trimmed, cert.trim);
}

Status DiagnosticsToStatus(const std::vector<Diagnostic>& diagnostics) {
  if (diagnostics.empty()) return Status::Ok();
  std::string message =
      StrCat("certificate rejected: ", lint::FormatDiagnostic(diagnostics[0]));
  if (diagnostics.size() > 1) {
    message += StrCat(" (+", diagnostics.size() - 1, " more)");
  }
  return Status::Internal(std::move(message));
}

}  // namespace hedgeq::verify
