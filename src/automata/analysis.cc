#include "automata/analysis.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>

#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/ops.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace hedgeq::automata {

namespace {
std::atomic<TrimValidationHook> g_trim_hook{nullptr};
std::atomic<MinimizeValidationHook> g_minimize_hook{nullptr};
}  // namespace

void SetTrimValidationHook(TrimValidationHook hook) {
  g_trim_hook.store(hook, std::memory_order_relaxed);
}

TrimValidationHook GetTrimValidationHook() {
  return g_trim_hook.load(std::memory_order_relaxed);
}

void SetMinimizeValidationHook(MinimizeValidationHook hook) {
  g_minimize_hook.store(hook, std::memory_order_relaxed);
}

MinimizeValidationHook GetMinimizeValidationHook() {
  return g_minimize_hook.load(std::memory_order_relaxed);
}

using strre::Nfa;
using strre::StateId;

namespace {

// Keeps only transitions on allowed letters, renaming letters via `rename`
// (kNoState-valued renames drop the transition).
Nfa FilterAndRename(const Nfa& in, const std::vector<HState>& rename) {
  Nfa out;
  for (StateId s = 0; s < in.num_states(); ++s) {
    out.AddState(in.IsAccepting(s));
  }
  if (in.start() != strre::kNoState) out.SetStart(in.start());
  for (StateId s = 0; s < in.num_states(); ++s) {
    for (const Nfa::Transition& t : in.TransitionsFrom(s)) {
      if (t.symbol < rename.size() && rename[t.symbol] != strre::kNoState) {
        out.AddTransition(s, rename[t.symbol], t.to);
      }
    }
    for (StateId t : in.EpsilonsFrom(s)) out.AddEpsilon(s, t);
  }
  return out;
}

// Product of two content NFAs reading pair letters p1 * n + p2, where n is
// the state count of the underlying NHA.
Nfa PairContentNfa(const Nfa& a, const Nfa& b, size_t n) {
  return strre::ProductNfa(a, b, [n](strre::Symbol x, strre::Symbol y) {
    return std::optional<strre::Symbol>(static_cast<strre::Symbol>(x * n + y));
  });
}

}  // namespace

Bitset CoReachableStates(const Nha& nha, const Bitset& derivable) {
  const size_t n = nha.num_states();
  Bitset co = strre::UsableLetters(nha.final_nfa(), derivable, n);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Nha::Rule& rule : nha.rules()) {
      if (!co.Test(rule.target)) continue;
      Bitset before = co;
      co |= strre::UsableLetters(rule.content, derivable, n);
      if (!(co == before)) changed = true;
    }
  }
  return co;
}

Nha PruneNha(const Nha& nha, std::vector<HState>* mapping,
             TrimWitness* witness) {
  HEDGEQ_OBS_SPAN(span, obs::spans::kTrim);
  const size_t n = nha.num_states();
  Bitset derivable = ReachableStates(nha);

  Bitset useful = derivable;
  useful &= CoReachableStates(nha, derivable);

  // Dense renumbering of the surviving states.
  std::vector<HState> rename(n, strre::kNoState);
  Nha out;
  for (HState q = 0; q < n; ++q) {
    if (useful.Test(q)) rename[q] = out.AddState();
  }
  for (const Nha::Rule& rule : nha.rules()) {
    if (rule.target >= n || !useful.Test(rule.target)) continue;
    out.AddRule(rule.symbol, FilterAndRename(rule.content, rename),
                rename[rule.target]);
  }
  for (const auto& [x, states] : nha.var_map()) {
    for (HState q : states) {
      if (useful.Test(q)) out.AddVariableState(x, rename[q]);
    }
  }
  for (const auto& [z, states] : nha.subst_map()) {
    for (HState q : states) {
      if (useful.Test(q)) out.AddSubstState(z, rename[q]);
    }
  }
  out.SetFinal(FilterAndRename(nha.final_nfa(), rename));
  if (mapping != nullptr) *mapping = rename;
  const bool want_witness =
      witness != nullptr || GetTrimValidationHook() != nullptr;
  if (want_witness) {
    TrimWitness local{derivable, useful, rename};
    if (TrimValidationHook hook = GetTrimValidationHook()) {
      Status verdict = hook(nha, out, local);
      HEDGEQ_CHECK_MSG(verdict.ok(), verdict.ToString().c_str());
    }
    if (witness != nullptr) *witness = std::move(local);
  }
  if (obs::Enabled()) {
    const size_t removed = n - out.num_states();
    HEDGEQ_OBS_COUNT(obs::metrics::kTrimCalls, 1);
    HEDGEQ_OBS_COUNT(obs::metrics::kTrimStatesRemoved, removed);
    span.AddArg("states_in", n);
    span.AddArg("states_removed", removed);
  }
  return out;
}

bool IsAmbiguous(const Nha& nha) {
  const size_t n = nha.num_states();
  if (n == 0) return false;
  // Flagged self-product: state (q1, q2, d) with d = "the two labelings
  // differ at or below this node".
  Nha product;
  product.AddStates(n * n * 2);
  auto encode = [n](HState q1, HState q2, bool d) {
    return static_cast<HState>((q1 * n + q2) * 2 + (d ? 1 : 0));
  };

  // NFA over the full flagged-pair alphabet accepting words with at least
  // one flagged letter.
  const size_t num_letters = n * n * 2;
  Nfa flagged_once;
  {
    StateId s0 = flagged_once.AddState(false);
    StateId s1 = flagged_once.AddState(true);
    for (strre::Symbol letter = 0; letter < num_letters; ++letter) {
      flagged_once.AddTransition(s0, letter, s0);
      flagged_once.AddTransition(s1, letter, s1);
      if (letter % 2 == 1) flagged_once.AddTransition(s0, letter, s1);
    }
  }

  auto expand_bits = [](strre::Symbol pair) {
    return std::vector<strre::Symbol>{2 * pair, 2 * pair + 1};
  };
  auto only_unflagged = [](strre::Symbol pair) {
    return std::vector<strre::Symbol>{2 * pair};
  };

  for (const Nha::Rule& r1 : nha.rules()) {
    for (const Nha::Rule& r2 : nha.rules()) {
      if (r1.symbol != r2.symbol) continue;
      Nfa base = PairContentNfa(r1.content, r2.content, n);
      if (r1.target != r2.target) {
        // The labelings differ right here: children may be anything.
        product.AddRule(r1.symbol, strre::SubstituteSets(base, expand_bits),
                        encode(r1.target, r2.target, true));
      } else {
        // Same label here: differ iff some child differs.
        product.AddRule(r1.symbol, strre::SubstituteSets(base, only_unflagged),
                        encode(r1.target, r2.target, false));
        Nfa any_bits = strre::SubstituteSets(base, expand_bits);
        product.AddRule(r1.symbol,
                        strre::IntersectNfa(any_bits, flagged_once),
                        encode(r1.target, r2.target, true));
      }
    }
  }
  for (const auto& [x, states] : nha.var_map()) {
    for (HState q1 : states) {
      for (HState q2 : states) {
        product.AddVariableState(x, encode(q1, q2, q1 != q2));
      }
    }
  }
  for (const auto& [z, states] : nha.subst_map()) {
    for (HState q1 : states) {
      for (HState q2 : states) {
        product.AddSubstState(z, encode(q1, q2, q1 != q2));
      }
    }
  }

  // Accept: both projections accept and some top-level letter is flagged.
  Nfa final_pairs = PairContentNfa(nha.final_nfa(), nha.final_nfa(), n);
  product.SetFinal(strre::IntersectNfa(
      strre::SubstituteSets(final_pairs, expand_bits), flagged_once));

  return !IsEmptyNha(product);
}

Dha MinimizeDha(const Dha& dha, MinimizeWitness* witness) {
  const HState nq = dha.num_states();
  const HhState nh = dha.num_h_states();

  // Minimal complete final DFA: two letters are final-indistinguishable iff
  // they induce the same transition from every minimal state.
  std::vector<strre::Symbol> alphabet(nq);
  for (HState q = 0; q < nq; ++q) alphabet[q] = q;
  strre::Dfa fmin =
      strre::Complete(strre::Minimize(dha.final_dfa(), alphabet), alphabet);

  // Initial state partition: final-DFA letter signatures (condition A).
  std::vector<uint32_t> qblock(nq, 0);
  {
    std::map<std::vector<StateId>, uint32_t> ids;
    for (HState q = 0; q < nq; ++q) {
      std::vector<StateId> sig;
      sig.reserve(fmin.num_states());
      for (StateId s = 0; s < fmin.num_states(); ++s) {
        sig.push_back(fmin.Next(s, q));
      }
      auto [it, inserted] =
          ids.try_emplace(std::move(sig), static_cast<uint32_t>(ids.size()));
      qblock[q] = it->second;
    }
  }
  std::vector<uint32_t> hblock(nh, 0);

  // Mutual Moore refinement: H-blocks must agree on assignments (up to the
  // state partition) and successors (up to the H partition); state blocks
  // must agree on how every horizontal state reads them.
  const auto& assign_map = dha.assign_map();
  bool changed = true;
  while (changed) {
    changed = false;
    {
      std::map<std::vector<uint32_t>, uint32_t> ids;
      std::vector<uint32_t> next(nh);
      for (HhState h = 0; h < nh; ++h) {
        std::vector<uint32_t> sig;
        sig.reserve(assign_map.size() + nq + 1);
        sig.push_back(hblock[h]);
        for (const auto& [symbol, row] : assign_map) {
          (void)symbol;  // map iteration order is stable per run
          sig.push_back(qblock[row[h]]);
        }
        for (HState q = 0; q < nq; ++q) {
          sig.push_back(hblock[dha.HNext(h, q)]);
        }
        auto [it, inserted] = ids.try_emplace(
            std::move(sig), static_cast<uint32_t>(ids.size()));
        next[h] = it->second;
      }
      if (next != hblock) {
        changed = true;
        hblock = std::move(next);
      }
    }
    {
      std::map<std::vector<uint32_t>, uint32_t> ids;
      std::vector<uint32_t> next(nq);
      for (HState q = 0; q < nq; ++q) {
        std::vector<uint32_t> sig;
        sig.reserve(nh + 1);
        sig.push_back(qblock[q]);
        for (HhState h = 0; h < nh; ++h) {
          sig.push_back(hblock[dha.HNext(h, q)]);
        }
        auto [it, inserted] = ids.try_emplace(
            std::move(sig), static_cast<uint32_t>(ids.size()));
        next[q] = it->second;
      }
      if (next != qblock) {
        changed = true;
        qblock = std::move(next);
      }
    }
  }

  uint32_t num_qblocks = *std::max_element(qblock.begin(), qblock.end()) + 1;
  if (!failpoint::Check("minimize/merge-nonbisimilar").ok() &&
      num_qblocks >= 2) {
    // Seeded bug: collapse the last block into block 0 even though the
    // refinement proved them distinguishable. The quotient below then
    // over-merges; CheckMinimize must reject the witness with HQV010.
    for (HState q = 0; q < nq; ++q) {
      if (qblock[q] == num_qblocks - 1) qblock[q] = 0;
    }
    --num_qblocks;
  }
  const uint32_t num_hblocks =
      *std::max_element(hblock.begin(), hblock.end()) + 1;

  // Representatives.
  std::vector<HState> qrep(num_qblocks, 0);
  for (HState q = nq; q-- > 0;) qrep[qblock[q]] = q;
  std::vector<HhState> hrep(num_hblocks, 0);
  for (HhState h = nh; h-- > 0;) hrep[hblock[h]] = h;

  Dha out(num_qblocks, num_hblocks, hblock[dha.h_start()],
          qblock[dha.sink()]);
  for (uint32_t hb = 0; hb < num_hblocks; ++hb) {
    for (uint32_t qb = 0; qb < num_qblocks; ++qb) {
      out.SetHTransition(hb, qb, hblock[dha.HNext(hrep[hb], qrep[qb])]);
    }
  }
  for (const auto& [symbol, row] : assign_map) {
    for (uint32_t hb = 0; hb < num_hblocks; ++hb) {
      out.SetAssign(symbol, hb, qblock[row[hrep[hb]]]);
    }
  }
  for (const auto& [x, q] : dha.var_map()) {
    out.SetVariableState(x, qblock[q]);
  }
  for (const auto& [z, q] : dha.subst_map()) {
    out.SetSubstState(z, qblock[q]);
  }
  // Final: fmin with letters renamed to blocks (well-defined by condition
  // A: letters in one block share all fmin transitions).
  strre::Dfa final_out;
  for (StateId s = 0; s < fmin.num_states(); ++s) {
    final_out.AddState(fmin.IsAccepting(s));
  }
  final_out.SetStart(fmin.start());
  for (StateId s = 0; s < fmin.num_states(); ++s) {
    for (uint32_t qb = 0; qb < num_qblocks; ++qb) {
      StateId t = fmin.Next(s, qrep[qb]);
      if (t != strre::kNoState) final_out.SetTransition(s, qb, t);
    }
  }
  out.SetFinalDfa(std::move(final_out));
  const bool want_witness =
      witness != nullptr || GetMinimizeValidationHook() != nullptr;
  if (want_witness) {
    MinimizeWitness local{qblock, hblock};
    if (MinimizeValidationHook hook = GetMinimizeValidationHook()) {
      Status verdict = hook(dha, out, local);
      HEDGEQ_CHECK_MSG(verdict.ok(), verdict.ToString().c_str());
    }
    if (witness != nullptr) *witness = std::move(local);
  }
  return out;
}

}  // namespace hedgeq::automata
