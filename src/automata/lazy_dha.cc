#include "automata/lazy_dha.h"

#include <utility>

#include "obs/catalogue.h"
#include "obs/obs.h"

namespace hedgeq::automata {

using hedge::Hedge;
using strre::Nfa;

LazyDha::LazyDha(Nha nha, LazyDhaOptions options)
    : nha_(std::move(nha)),
      options_(options),
      combined_(CombineContents(nha_)) {
  h_start_ = Bitset(combined_.nfa.num_states());
  for (strre::StateId s : combined_.starts) {
    if (s != strre::kNoState) h_start_.Set(s);
  }
  combined_.nfa.EpsilonClosure(h_start_);
  const size_t nq = nha_.num_states();
  for (const auto& [x, states] : nha_.var_map()) {
    Bitset b(nq);
    for (HState q : states) b.Set(q);
    var_subsets_.emplace(x, std::move(b));
  }
  for (const auto& [z, states] : nha_.subst_map()) {
    Bitset b(nq);
    for (HState q : states) b.Set(q);
    subst_subsets_.emplace(z, std::move(b));
  }
}

void LazyDha::NoteInsert(size_t bytes_added) const {
  ++stats_.states_materialized;
  ++stats_.cache_misses;
  (void)bytes_added;
  stats_.peak_cache_bytes = std::max(
      stats_.peak_cache_bytes, hnext_cache_.bytes + assign_cache_.bytes);
  HEDGEQ_OBS_COUNT(obs::metrics::kLazyStatesMaterialized, 1);
  HEDGEQ_OBS_COUNT(obs::metrics::kLazyCacheMisses, 1);
  HEDGEQ_OBS_GAUGE_MAX(obs::metrics::kLazyPeakCacheBytes,
                       stats_.peak_cache_bytes);
  // Evict LRU entries, from whichever cache is larger, until the joint
  // budget holds again.
  auto evict_one = [&](auto& cache) -> bool {
    if (cache.entries.empty()) return false;
    cache.bytes -= cache.entries.back().bytes;
    cache.index.erase(cache.entries.back().key);
    cache.entries.pop_back();
    ++stats_.cache_evictions;
    HEDGEQ_OBS_COUNT(obs::metrics::kLazyCacheEvictions, 1);
    return true;
  };
  while (hnext_cache_.bytes + assign_cache_.bytes >
         options_.max_cache_bytes) {
    bool evicted = hnext_cache_.bytes >= assign_cache_.bytes
                       ? evict_one(hnext_cache_)
                       : evict_one(assign_cache_);
    if (!evicted) {
      evicted = evict_one(hnext_cache_) || evict_one(assign_cache_);
    }
    if (!evicted) break;
  }
}

Bitset LazyDha::HNext(const Bitset& h, const Bitset& subset) const {
  HNextKey key{h, subset};
  if (const Bitset* cached = hnext_cache_.Find(key)) {
    ++stats_.cache_hits;
    HEDGEQ_OBS_COUNT(obs::metrics::kLazyCacheHits, 1);
    return *cached;
  }
  Bitset next(combined_.nfa.num_states());
  for (uint32_t cs : h.ToVector()) {
    for (const Nfa::Transition& t : combined_.nfa.TransitionsFrom(cs)) {
      if (t.symbol < subset.size() && subset.Test(t.symbol)) {
        next.Set(t.to);
      }
    }
  }
  combined_.nfa.EpsilonClosure(next);
  size_t bytes = key.h.ApproxBytes() + key.subset.ApproxBytes() +
                 2 * next.ApproxBytes() + 64;
  Bitset out = next;
  if (audit_ != nullptr) {
    audit_->push_back(LazyAuditEntry{false, 0, h, subset, out});
  }
  hnext_cache_.Insert(std::move(key), std::move(next), bytes);
  NoteInsert(bytes);
  return out;
}

Bitset LazyDha::Assign(hedge::SymbolId symbol, const Bitset& h) const {
  AssignKey key{symbol, h};
  if (const Bitset* cached = assign_cache_.Find(key)) {
    ++stats_.cache_hits;
    HEDGEQ_OBS_COUNT(obs::metrics::kLazyCacheHits, 1);
    return *cached;
  }
  Bitset targets(nha_.num_states());
  for (uint32_t cs : h.ToVector()) {
    for (uint32_t rule_index : combined_.accept_info[cs]) {
      const Nha::Rule& rule = nha_.rules()[rule_index];
      if (rule.symbol == symbol) targets.Set(rule.target);
    }
  }
  size_t bytes = key.h.ApproxBytes() + 2 * targets.ApproxBytes() + 64;
  Bitset out = targets;
  if (audit_ != nullptr) {
    audit_->push_back(
        LazyAuditEntry{true, symbol, h, Bitset(0), out});
  }
  assign_cache_.Insert(std::move(key), std::move(targets), bytes);
  NoteInsert(bytes);
  return out;
}

Bitset LazyDha::VariableSubset(hedge::VarId x) const {
  auto it = var_subsets_.find(x);
  return it == var_subsets_.end() ? Bitset(nha_.num_states()) : it->second;
}

Bitset LazyDha::SubstSubset(hedge::SubstId z) const {
  auto it = subst_subsets_.find(z);
  return it == subst_subsets_.end() ? Bitset(nha_.num_states()) : it->second;
}

Bitset LazyDha::Stepper::FinalStart() const {
  const Nfa& final = dha_.nha_.final_nfa();
  Bitset f(final.num_states());
  if (final.num_states() > 0 && final.start() != strre::kNoState) {
    f.Set(final.start());
    final.EpsilonClosure(f);
  }
  return f;
}

Bitset LazyDha::Stepper::FinalNext(const Bitset& f,
                                   const Bitset& subset) const {
  const Nfa& final = dha_.nha_.final_nfa();
  Bitset next(final.num_states());
  for (uint32_t p : f.ToVector()) {
    for (const Nfa::Transition& t : final.TransitionsFrom(p)) {
      if (t.symbol < subset.size() && subset.Test(t.symbol)) {
        next.Set(t.to);
      }
    }
  }
  final.EpsilonClosure(next);
  return next;
}

bool LazyDha::Stepper::FinalAccepting(const Bitset& f) const {
  const Nfa& final = dha_.nha_.final_nfa();
  for (uint32_t p : f.ToVector()) {
    if (final.IsAccepting(p)) return true;
  }
  return false;
}

std::vector<Bitset> LazyDha::Run(const Hedge& h) const {
  return FoldHedge<false>(Stepper(*this), h).states;
}

LazyDha::MarkedRun LazyDha::RunWithMarks(const Hedge& h) const {
  return FoldHedge<true>(Stepper(*this), h);
}

bool LazyDha::Accepts(const Hedge& h) const {
  return FoldAccepts(Stepper(*this), h);
}

}  // namespace hedgeq::automata
