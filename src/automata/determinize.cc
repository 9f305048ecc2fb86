#include "automata/determinize.h"

#include <atomic>
#include <chrono>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/content_union.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/lazy_dfa.h"
#include "strre/ops.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/failpoint.h"

namespace hedgeq::automata {

using strre::Nfa;

namespace {
// Set once (before main, by the HEDGEQ_CERTIFY static installer) and read on
// every construction; relaxed is enough for a set-once pointer.
std::atomic<DeterminizeValidationHook> g_determinize_hook{nullptr};
// Installed by the CLI (--cache-dir) or a test; set-once per process in
// practice, but acquire/release so an installing thread's cache object is
// visible to construction threads.
std::atomic<DeterminizeCache*> g_determinize_cache{nullptr};
}  // namespace

void SetDeterminizeValidationHook(DeterminizeValidationHook hook) {
  g_determinize_hook.store(hook, std::memory_order_relaxed);
}

DeterminizeValidationHook GetDeterminizeValidationHook() {
  return g_determinize_hook.load(std::memory_order_relaxed);
}

void SetDeterminizeCache(DeterminizeCache* cache) {
  g_determinize_cache.store(cache, std::memory_order_release);
}

DeterminizeCache* GetDeterminizeCache() {
  return g_determinize_cache.load(std::memory_order_acquire);
}

Result<Determinized> Determinize(const Nha& nha, BudgetArg budget,
                                 DeterminizeWitness* witness) {
  BudgetScope& scope = budget.scope();
  HEDGEQ_FAILPOINT("determinize/alloc");
  DeterminizeCache* cache = GetDeterminizeCache();
  if (cache != nullptr) {
    // Before the stage span opens: a validated hit means the determinize
    // stage did not run, and the trace/timings must say so.
    Determinized cached{Dha{1, 1, 0, 0}, {}};
    if (cache->Lookup(nha, &cached, witness)) return cached;
  }
  HEDGEQ_OBS_SPAN(span, obs::spans::kDeterminize);
  const auto obs_start = std::chrono::steady_clock::now();
  const size_t obs_steps_before = scope.steps_used();
  // Local attribution accumulators: plain integers in the construction
  // loops, folded into the registry once at the end (bulk attribution keeps
  // the disabled-mode cost at zero inside the loops).
  size_t obs_interned_hits = 0;
  size_t obs_closure_recomputations = 0;
  CombinedContent combined = CombineContents(nha);
  const size_t ncomb = combined.nfa.num_states();
  const size_t nq = nha.num_states();
  HEDGEQ_RETURN_IF_ERROR(
      scope.ChargeBytes(ncomb * 16 + nq * 8, "determinize"));

  // Charges the sets `pool` interned since it held `prev`: each lives twice
  // (map key and vector) plus map overhead.
  auto charge = [&](const strre::BitsetPool& pool, size_t prev) -> Status {
    if (pool.size() == prev) return Status::Ok();
    HEDGEQ_RETURN_IF_ERROR(
        scope.ChargeStates(pool.size() - prev, "determinize"));
    size_t bytes = 0;
    for (size_t i = prev; i < pool.size(); ++i) {
      bytes += 2 * pool[static_cast<uint32_t>(i)].ApproxBytes() + 32;
    }
    return scope.ChargeBytes(bytes, "determinize");
  };
  // Interns into `pool`, counting the sets found already interned.
  auto intern = [&](strre::BitsetPool& pool, Bitset set) -> uint32_t {
    const size_t before = pool.size();
    const uint32_t id = pool.Intern(std::move(set));
    if (pool.size() == before) ++obs_interned_hits;
    return id;
  };

  // --- DHA states: canonical subsets of NHA states. Sink (empty) is id 0.
  strre::BitsetPool subsets;
  intern(subsets, Bitset(nq));  // sink = empty subset

  // Variable/substitution subsets are DHA letters from the start.
  std::unordered_map<hedge::VarId, HState> var_sid;
  for (const auto& [x, states] : nha.var_map()) {
    Bitset b(nq);
    for (HState q : states) b.Set(q);
    var_sid[x] = intern(subsets, std::move(b));
  }
  std::unordered_map<hedge::SubstId, HState> subst_sid;
  for (const auto& [z, states] : nha.subst_map()) {
    Bitset b(nq);
    for (HState q : states) b.Set(q);
    subst_sid[z] = intern(subsets, std::move(b));
  }
  HEDGEQ_RETURN_IF_ERROR(charge(subsets, 0));

  // --- Horizontal states: epsilon-closed sets of combined-content states.
  strre::BitsetPool h_sets;
  auto intern_h = [&](Bitset set) -> HhState {
    ++obs_closure_recomputations;
    return intern(h_sets, std::move(set));
  };
  Bitset h0(ncomb);
  for (strre::StateId s : combined.starts) {
    if (s != strre::kNoState) h0.Set(s);
  }
  combined.nfa.EpsilonClosure(h0);
  HhState h_start = intern_h(std::move(h0));
  HEDGEQ_CHECK(h_start == 0);
  HEDGEQ_RETURN_IF_ERROR(charge(h_sets, 0));

  // assign_table[h] : symbol -> subset id reached after the rules accepting
  // at h fire. h_trans[h] : subset id -> next horizontal state.
  std::vector<std::map<hedge::SymbolId, HState>> assign_table;
  std::vector<std::vector<HhState>> h_trans;

  size_t h_assigned = 0;          // prefix of h_sets with assigns computed
  // h_trans[h].size() tracks how many subset letters are processed for h.
  while (true) {
    bool progress = false;

    // 1. Compute assignments for newly discovered horizontal states; this
    //    may discover new DHA states (subsets).
    while (h_assigned < h_sets.size()) {
      HEDGEQ_FAILPOINT("determinize/subset");
      const Bitset& hs = h_sets[h_assigned];
      const size_t prev_subsets = subsets.size();
      std::map<hedge::SymbolId, Bitset> per_symbol;
      for (uint32_t cs : hs.ToVector()) {
        for (uint32_t rule_index : combined.accept_info[cs]) {
          const Nha::Rule& rule = nha.rules()[rule_index];
          auto [it, inserted] =
              per_symbol.try_emplace(rule.symbol, Bitset(nq));
          it->second.Set(rule.target);
        }
      }
      std::map<hedge::SymbolId, HState> row;
      for (auto& [symbol, bits] : per_symbol) {
        row[symbol] = intern(subsets, std::move(bits));
      }
      HEDGEQ_RETURN_IF_ERROR(
          scope.ChargeSteps(hs.Count() + row.size() + 1, "determinize"));
      HEDGEQ_RETURN_IF_ERROR(charge(subsets, prev_subsets));
      assign_table.push_back(std::move(row));
      ++h_assigned;
      progress = true;
    }

    // 2. Extend horizontal transitions to every known subset letter; this
    //    may discover new horizontal states.
    for (HhState hs = 0; hs < h_sets.size(); ++hs) {
      if (h_trans.size() <= hs) h_trans.emplace_back();
      while (h_trans[hs].size() < subsets.size()) {
        HEDGEQ_FAILPOINT("determinize/htrans");
        HState sid = static_cast<HState>(h_trans[hs].size());
        const Bitset& letter = subsets[sid];
        const size_t prev_h = h_sets.size();
        Bitset next;
        const size_t scanned =
            strre::StepOverSet(combined.nfa, h_sets[hs], letter, next);
        h_trans[hs].push_back(intern_h(std::move(next)));
        HEDGEQ_RETURN_IF_ERROR(scope.ChargeSteps(1 + scanned, "determinize"));
        HEDGEQ_RETURN_IF_ERROR(charge(h_sets, prev_h));
        // The dense transition matrix entry itself.
        HEDGEQ_RETURN_IF_ERROR(
            scope.ChargeBytes(sizeof(HhState), "determinize"));
        progress = true;
      }
    }

    if (!progress) break;
  }

  // --- Assemble the DHA.
  const HState num_states = static_cast<HState>(subsets.size());
  const HhState num_h = static_cast<HhState>(h_sets.size());
  Dha dha(num_states, num_h, h_start, /*sink=*/0);
  for (HhState hs = 0; hs < num_h; ++hs) {
    for (HState sid = 0; sid < num_states; ++sid) {
      dha.SetHTransition(hs, sid, h_trans[hs][sid]);
    }
    for (const auto& [symbol, sid] : assign_table[hs]) {
      dha.SetAssign(symbol, hs, sid);
    }
  }
  for (const auto& [x, sid] : var_sid) dha.SetVariableState(x, sid);
  for (const auto& [z, sid] : subst_sid) dha.SetSubstState(z, sid);
  const bool want_witness = witness != nullptr || cache != nullptr ||
                            GetDeterminizeValidationHook() != nullptr;
  std::vector<Bitset> final_sets;
  Result<strre::Dfa> final_dfa = LiftToSubsetsBounded(
      nha.final_nfa(), subsets.sets(), scope,
      want_witness ? &final_sets : nullptr);
  if (!final_dfa.ok()) return final_dfa.status();
  // Seeded-bug failpoint for the translation-validation tests: silently
  // corrupt the construction (flip acceptance of the final DFA's start
  // state) so the certificate checker and the differential oracle can prove
  // they catch it. Check() is used as a probe — the armed "failure" flips
  // the bit instead of propagating.
  if (!failpoint::Check("determinize/flip-final").ok()) {
    strre::StateId s0 = final_dfa->start();
    if (s0 != strre::kNoState) {
      final_dfa->SetAccepting(s0, !final_dfa->IsAccepting(s0));
    }
  }
  dha.SetFinalDfa(std::move(final_dfa).value());

  Determinized out{std::move(dha), subsets.TakeSets()};
  uint64_t certify_ns = 0;
  if (want_witness) {
    DeterminizeWitness local;
    local.h_sets = h_sets.TakeSets();
    local.final_sets = std::move(final_sets);
    // Digest chain over every interned set, in the fixed section order the
    // light checker recomputes (subsets, h_sets, final_sets).
    local.chain.reserve(out.subsets.size() + local.h_sets.size() +
                        local.final_sets.size());
    std::string prev;
    for (const std::vector<Bitset>* section :
         {&out.subsets, &local.h_sets, &local.final_sets}) {
      for (const Bitset& set : *section) {
        prev = DigestChainLink(prev, set);
        local.chain.push_back(prev);
      }
    }
    if (DeterminizeValidationHook hook = GetDeterminizeValidationHook()) {
      HEDGEQ_OBS_SPAN(certify_span, obs::spans::kDeterminizeCertify);
      const auto certify_start = std::chrono::steady_clock::now();
      HEDGEQ_RETURN_IF_ERROR(hook(nha, out, local));
      certify_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - certify_start)
              .count());
    }
    if (cache != nullptr) cache->Store(nha, out, local);
    if (witness != nullptr) *witness = std::move(local);
  }
  if (obs::Enabled()) {
    const uint64_t total_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - obs_start)
            .count());
    const size_t num_subsets = out.subsets.size();
    const size_t num_h = out.dha.num_h_states();
    HEDGEQ_OBS_COUNT(obs::metrics::kDetSubsetsExplored, num_subsets);
    HEDGEQ_OBS_COUNT(obs::metrics::kDetHSetsExplored, num_h);
    HEDGEQ_OBS_COUNT(obs::metrics::kDetClosureRecomputations,
                     obs_closure_recomputations);
    HEDGEQ_OBS_COUNT(obs::metrics::kDetInternedBitsetHits, obs_interned_hits);
    HEDGEQ_OBS_COUNT(obs::metrics::kDetSteps,
                     scope.steps_used() - obs_steps_before);
    HEDGEQ_OBS_OBSERVE(obs::metrics::kHistDetSubsets, num_subsets);
    HEDGEQ_OBS_COUNT(obs::metrics::kDetTotalNs, total_ns);
    if (certify_ns != 0) {
      HEDGEQ_OBS_COUNT(obs::metrics::kDetCertifyNs, certify_ns);
      if (total_ns != 0) {
        HEDGEQ_OBS_GAUGE_SET(obs::metrics::kDetCertifyFracPct,
                             100 * certify_ns / total_ns);
      }
    }
    span.AddArg("subsets_explored", num_subsets);
    span.AddArg("h_sets_explored", num_h);
    span.AddArg("closure_recomputations", obs_closure_recomputations);
    span.AddArg("interned_bitset_hits", obs_interned_hits);
    span.AddArg("certify_ns", certify_ns);
  }
  return out;
}

Result<strre::Dfa> LiftToSubsetsBounded(const Nfa& lang,
                                        std::span<const Bitset> subsets,
                                        BudgetScope& scope,
                                        std::vector<Bitset>* state_sets) {
  HEDGEQ_FAILPOINT("determinize/lift");
  strre::Dfa out;
  if (lang.num_states() == 0 || lang.start() == strre::kNoState) {
    // Empty language: a single non-accepting total state.
    strre::StateId dead = out.AddState(false);
    for (strre::Symbol sid = 0; sid < subsets.size(); ++sid) {
      out.SetTransition(dead, sid, dead);
    }
    if (state_sets != nullptr) {
      state_sets->assign(1, Bitset(lang.num_states()));
    }
    return out;
  }

  strre::BitsetPool sets;  // by lifted state
  // `set` is epsilon-closed.
  auto intern = [&](Bitset set) -> strre::StateId {
    const size_t before = sets.size();
    const strre::StateId id = sets.Intern(std::move(set));
    if (sets.size() > before) {
      bool accepting = false;
      for (uint32_t s : sets[id].ToVector()) accepting |= lang.IsAccepting(s);
      out.AddState(accepting);
    }
    return id;
  };
  size_t table_bytes = 0;
  auto charge = [&](size_t prev) -> Status {
    HEDGEQ_RETURN_IF_ERROR(strre::ChargeTableGrowth(out, table_bytes, scope,
                                                    "determinize/lift"));
    if (sets.size() == prev) return Status::Ok();
    HEDGEQ_RETURN_IF_ERROR(
        scope.ChargeStates(sets.size() - prev, "determinize/lift"));
    size_t bytes = 0;
    for (size_t i = prev; i < sets.size(); ++i) {
      bytes += 2 * sets[static_cast<uint32_t>(i)].ApproxBytes() + 32;
    }
    return scope.ChargeBytes(bytes, "determinize/lift");
  };

  Bitset start(lang.num_states());
  start.Set(lang.start());
  lang.EpsilonClosure(start);
  intern(std::move(start));
  HEDGEQ_RETURN_IF_ERROR(charge(0));

  for (strre::StateId from = 0; from < sets.size(); ++from) {
    const Bitset current = sets[from];  // a copy: the pool grows below
    for (strre::Symbol sid = 0; sid < subsets.size(); ++sid) {
      const size_t prev = sets.size();
      Bitset next;
      const size_t scanned =
          strre::StepOverSet(lang, current, subsets[sid], next);
      out.SetTransition(from, sid, intern(std::move(next)));
      HEDGEQ_RETURN_IF_ERROR(
          scope.ChargeSteps(1 + scanned, "determinize/lift"));
      HEDGEQ_RETURN_IF_ERROR(charge(prev));
    }
  }
  // The epsilon-closed NFA state set of each lifted state.
  if (state_sets != nullptr) *state_sets = sets.TakeSets();
  return out;
}

strre::Dfa LiftToSubsets(const Nfa& lang, std::span<const Bitset> subsets) {
  BudgetScope scope(ExecBudget::Unlimited());
  Result<strre::Dfa> out = LiftToSubsetsBounded(lang, subsets, scope);
  HEDGEQ_CHECK_MSG(out.ok(), "unbounded LiftToSubsets cannot fail");
  return std::move(out).value();
}

}  // namespace hedgeq::automata
