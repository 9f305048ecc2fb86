#include "automata/lazy_dha.h"

#include <algorithm>
#include <utility>

#include "obs/catalogue.h"
#include "obs/obs.h"

namespace hedgeq::automata {

using hedge::Hedge;
using strre::StateId;

LazyDha::LazyDha(Nha nha, LazyDhaOptions options)
    : nha_(std::move(nha)),
      options_(options),
      combined_(CombineContents(nha_)),
      memo_(NewMemo()) {
  base_bytes_ = MemoBytes();
}

LazyDha::Memo LazyDha::NewMemo() const {
  Bitset h_start(combined_.nfa.num_states());
  for (StateId s : combined_.starts) {
    if (s != strre::kNoState) h_start.Set(s);
  }
  const strre::Nfa& final = nha_.final_nfa();
  Bitset final_start(final.num_states());
  if (final.start() != strre::kNoState) final_start.Set(final.start());
  Memo memo{{}, strre::LazyDfa(combined_.nfa, std::move(h_start)), {},
            strre::LazyDfa(final, std::move(final_start)), {}, {}};
  const size_t nq = nha_.num_states();
  memo.subsets.Intern(Bitset(nq));  // the sink
  auto intern_all = [&](const auto& by_id, std::vector<uint32_t>& ids) {
    for (const auto& [id, states] : by_id) {
      Bitset b(nq);
      for (HState q : states) b.Set(q);
      if (id >= ids.size()) ids.resize(size_t{id} + 1, 0);
      ids[id] = memo.subsets.Intern(std::move(b));
    }
  };
  intern_all(nha_.var_map(), memo.vars);
  intern_all(nha_.subst_map(), memo.substs);
  return memo;
}

void LazyDha::CountEvictions() const {
  const size_t rows = memo_.h.rows().num_rows() + memo_.assign.num_rows() +
                      memo_.final.rows().num_rows();
  stats_.cache_evictions += rows;
  HEDGEQ_OBS_COUNT(obs::metrics::kLazyCacheEvictions, rows);
}

LazyDha::Memo LazyDha::Restart() const {
  CountEvictions();
  return std::exchange(memo_, NewMemo());
}

LazyDha::Stepper::Stepper(const LazyDha& dha) : dha_(dha) {
  // No other run holds ids: the sets can go with the rows.
  if (dha.runs_.open++ == 0 &&
      dha.MemoBytes() > dha.options_.max_cache_bytes) {
    dha.Restart();
  }
}

void LazyDha::Stepper::Compact(std::span<StateId> open,
                               StateId& final) const {
  if (dha_.runs_.open != 1 ||
      dha_.MemoBytes() <= dha_.options_.max_cache_bytes) {
    return;
  }
  const Memo old = dha_.Restart();
  Memo& memo = dha_.memo_;
  for (StateId& h : open) h = memo.h.Intern(dha_.combined_.nfa, old.h.set(h));
  final = memo.final.Intern(dha_.nha_.final_nfa(), old.final.set(final));
}

uint32_t LazyDha::Hit(uint32_t to) const {
  ++stats_.cache_hits;
  HEDGEQ_OBS_COUNT(obs::metrics::kLazyCacheHits, 1);
  return to;
}

size_t LazyDha::RowBytes() const {
  return memo_.h.rows().bytes() + memo_.assign.bytes() +
         memo_.final.rows().bytes();
}

size_t LazyDha::MemoBytes() const {
  return RowBytes() + memo_.subsets.bytes() + memo_.h.SetBytes() +
         memo_.final.SetBytes() - base_bytes_;
}

void LazyDha::NoteMiss() const {
  ++stats_.states_materialized;
  ++stats_.cache_misses;
  const size_t bytes = MemoBytes();
  stats_.peak_cache_bytes = std::max(stats_.peak_cache_bytes, bytes);
  HEDGEQ_OBS_COUNT(obs::metrics::kLazyStatesMaterialized, 1);
  HEDGEQ_OBS_COUNT(obs::metrics::kLazyCacheMisses, 1);
  HEDGEQ_OBS_GAUGE_MAX(obs::metrics::kLazyPeakCacheBytes,
                       stats_.peak_cache_bytes);
  if (bytes <= options_.max_cache_bytes) return;
  // Every row at once; runs keep their ids and refill the rows. The sets
  // wait for a point where the live ids are known (Stepper).
  CountEvictions();
  memo_.h.FlushRows();
  memo_.assign.Flush();
  memo_.final.FlushRows();
}

StateId LazyDha::HMiss(StateId h, uint32_t q) const {
  const StateId to = memo_.h.Fill(combined_.nfa, h, q, memo_.subsets[q]);
  if (audit_ != nullptr) {
    audit_->push_back(LazyAuditEntry{false, 0, memo_.h.set(h),
                                     memo_.subsets[q], memo_.h.set(to)});
  }
  NoteMiss();
  return to;
}

uint32_t LazyDha::AssignMiss(hedge::SymbolId symbol, StateId h) const {
  Bitset targets(nha_.num_states());
  for (uint32_t cs : memo_.h.set(h).ToVector()) {
    for (uint32_t rule_index : combined_.accept_info[cs]) {
      const Nha::Rule& rule = nha_.rules()[rule_index];
      if (rule.symbol == symbol) targets.Set(rule.target);
    }
  }
  if (audit_ != nullptr) {
    audit_->push_back(
        LazyAuditEntry{true, symbol, memo_.h.set(h), Bitset(0), targets});
  }
  const uint32_t q = memo_.subsets.Intern(std::move(targets));
  memo_.assign.Store(h, symbol, q);
  NoteMiss();
  return q;
}

StateId LazyDha::FinalMiss(StateId f, uint32_t q) const {
  const StateId to =
      memo_.final.Fill(nha_.final_nfa(), f, q, memo_.subsets[q]);
  NoteMiss();
  return to;
}

std::vector<Bitset> LazyDha::Run(const Hedge& h) const {
  return RunWithMarks(h).states;
}

LazyDha::MarkedRun LazyDha::RunWithMarks(const Hedge& h) const {
  Stepper step(*this);
  MarkedRunOf<uint32_t> run = FoldHedge<true>(step, h);
  MarkedRun out{{}, std::move(run.marks)};
  out.states.reserve(run.states.size());
  for (uint32_t q : run.states) out.states.push_back(step.Subset(q));
  return out;
}

bool LazyDha::Accepts(const Hedge& h) const {
  return FoldAccepts(Stepper(*this), h);
}

}  // namespace hedgeq::automata
