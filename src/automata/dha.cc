#include "automata/dha.h"

#include <algorithm>

#include "strre/ops.h"
#include "util/check.h"

namespace hedgeq::automata {

using hedge::Hedge;

Dha::Dha(HState num_states, HhState num_h, HhState h_start, HState sink)
    : num_states_(num_states),
      num_h_(num_h),
      h_start_(h_start),
      sink_(sink),
      h_trans_(static_cast<size_t>(num_h) * num_states, h_start) {
  HEDGEQ_CHECK(sink < num_states && h_start < num_h);
}

void Dha::SetAssign(hedge::SymbolId symbol, HhState h, HState q) {
  auto [it, inserted] = assign_.try_emplace(
      symbol, std::vector<HState>(num_h_, sink_));
  it->second[h] = q;
}

HState Dha::Assign(hedge::SymbolId symbol, HhState h) const {
  auto it = assign_.find(symbol);
  return it == assign_.end() ? sink_ : it->second[h];
}

HState Dha::VariableState(hedge::VarId x) const {
  auto it = var_states_.find(x);
  return it == var_states_.end() ? sink_ : it->second;
}

HState Dha::SubstState(hedge::SubstId z) const {
  auto it = subst_states_.find(z);
  return it == subst_states_.end() ? sink_ : it->second;
}

std::vector<HState> Dha::Run(const Hedge& h) const {
  return FoldHedge<false>(Stepper(*this), h).states;
}

bool Dha::Accepts(const Hedge& h) const {
  return FoldAccepts(Stepper(*this), h);
}

Dha::MarkedRun Dha::RunWithMarks(const Hedge& h) const {
  return FoldHedge<true>(Stepper(*this), h);
}

Nha DhaToNha(const Dha& dha, std::span<const hedge::VarId> extra_vars,
             std::span<const hedge::SymbolId> extra_symbols) {
  Nha out;
  out.AddStates(dha.num_states());
  // Symbols the DHA never mentions assign the sink on any child sequence.
  for (hedge::SymbolId symbol : extra_symbols) {
    if (dha.assign_map().contains(symbol)) continue;
    strre::Nfa all;
    strre::StateId s = all.AddState(true);
    for (HState q = 0; q < dha.num_states(); ++q) {
      all.AddTransition(s, q, s);
    }
    out.AddRule(symbol, std::move(all), dha.sink());
  }
  for (const auto& [symbol, assign] : dha.assign_map()) {
    // Content model for (symbol, q): the horizontal DFA with accepting set
    // { h : assign[h] == q }.
    std::vector<HState> targets(assign.begin(), assign.end());
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (HState q : targets) {
      strre::Dfa content;
      for (HhState hs = 0; hs < dha.num_h_states(); ++hs) {
        content.AddState(assign[hs] == q);
      }
      content.SetStart(dha.h_start());
      for (HhState hs = 0; hs < dha.num_h_states(); ++hs) {
        for (HState p = 0; p < dha.num_states(); ++p) {
          content.SetTransition(hs, p, dha.HNext(hs, p));
        }
      }
      out.AddRule(symbol, strre::NfaFromDfa(content), q);
    }
  }
  for (const auto& [x, q] : dha.var_map()) out.AddVariableState(x, q);
  for (hedge::VarId x : extra_vars) {
    if (!dha.var_map().contains(x)) {
      out.AddVariableState(x, dha.VariableState(x));
    }
  }
  for (const auto& [z, q] : dha.subst_map()) out.AddSubstState(z, q);
  out.SetFinal(strre::NfaFromDfa(dha.final_dfa()));
  return out;
}

Dha ComplementDha(const Dha& dha) {
  Dha out = dha;
  std::vector<strre::Symbol> alphabet;
  alphabet.reserve(dha.num_states());
  for (HState q = 0; q < dha.num_states(); ++q) alphabet.push_back(q);
  out.SetFinalDfa(strre::Complement(dha.final_dfa(), alphabet));
  return out;
}

Dha BuildMarkedDha(const Dha& dha,
                   std::span<const hedge::SymbolId> extra_symbols) {
  const HState nq = dha.num_states();
  std::vector<strre::Symbol> alphabet;
  alphabet.reserve(nq);
  for (HState q = 0; q < nq; ++q) alphabet.push_back(q);
  strre::Dfa ftotal = strre::Complete(dha.final_dfa(), alphabet);

  const HhState nh = dha.num_h_states();
  const auto nf = static_cast<HhState>(ftotal.num_states());
  auto hpair = [nf](HhState hs, strre::StateId f) {
    return static_cast<HhState>(hs * nf + static_cast<HhState>(f));
  };
  auto qpair = [](HState q, bool bit) {
    return static_cast<HState>(2 * q + (bit ? 1 : 0));
  };

  Dha out(static_cast<HState>(2 * nq), static_cast<HhState>(nh) * nf,
          hpair(dha.h_start(), ftotal.start()), qpair(dha.sink(), false));

  for (HhState hs = 0; hs < nh; ++hs) {
    for (strre::StateId f = 0; f < ftotal.num_states(); ++f) {
      for (HState q = 0; q < nq; ++q) {
        // Reading (q, bit) moves both components on q; the bit is ignored.
        HhState to = hpair(dha.HNext(hs, q), ftotal.Next(f, q));
        out.SetHTransition(hpair(hs, f), qpair(q, false), to);
        out.SetHTransition(hpair(hs, f), qpair(q, true), to);
      }
    }
  }
  for (const auto& [symbol, assign] : dha.assign_map()) {
    for (HhState hs = 0; hs < nh; ++hs) {
      for (strre::StateId f = 0; f < ftotal.num_states(); ++f) {
        out.SetAssign(symbol, hpair(hs, f),
                      qpair(assign[hs], ftotal.IsAccepting(f)));
      }
    }
  }
  // The mark tests the child sequence only, so it applies to symbols the
  // original automaton never mentions: give them explicit (sink, bit) rows.
  for (hedge::SymbolId symbol : extra_symbols) {
    if (dha.assign_map().contains(symbol)) continue;
    for (HhState hs = 0; hs < nh; ++hs) {
      for (strre::StateId f = 0; f < ftotal.num_states(); ++f) {
        out.SetAssign(symbol, hpair(hs, f),
                      qpair(dha.sink(), ftotal.IsAccepting(f)));
      }
    }
  }
  for (const auto& [x, q] : dha.var_map()) {
    out.SetVariableState(x, qpair(q, false));
  }
  for (const auto& [z, q] : dha.subst_map()) {
    out.SetSubstState(z, qpair(q, false));
  }

  // M-down-e accepts every hedge: a one-state all-accepting final DFA.
  strre::Dfa accept_all;
  strre::StateId s0 = accept_all.AddState(true);
  for (HState q = 0; q < 2 * nq; ++q) accept_all.SetTransition(s0, q, s0);
  out.SetFinalDfa(std::move(accept_all));
  return out;
}

}  // namespace hedgeq::automata
