#ifndef HEDGEQ_AUTOMATA_LAZY_DHA_H_
#define HEDGEQ_AUTOMATA_LAZY_DHA_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "automata/content_union.h"
#include "automata/fold.h"
#include "automata/nha.h"
#include "hedge/hedge.h"
#include "util/bitset.h"

namespace hedgeq::automata {

/// Which engine answered, and what the lazy engine spent. Returned by every
/// evaluator that can degrade from eager determinization to on-the-fly
/// subset simulation.
struct EvalStats {
  bool fallback_used = false;      // lazy engine (not the eager DHA) ran
  size_t states_materialized = 0;  // distinct subset computations performed
  size_t cache_evictions = 0;      // LRU entries dropped under memory budget
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t peak_cache_bytes = 0;     // high-water mark of cache memory

  /// What one operation spent: the counter-wise difference `after - before`
  /// of two stats() snapshots around it (peak_cache_bytes, a high-water
  /// mark, is carried over from `after`). Lets callers report
  /// per-operation expenditure without mutating a shared engine through
  /// ResetStats.
  static EvalStats Delta(const EvalStats& before, const EvalStats& after) {
    EvalStats d;
    d.fallback_used = after.fallback_used;
    d.states_materialized = after.states_materialized - before.states_materialized;
    d.cache_evictions = after.cache_evictions - before.cache_evictions;
    d.cache_hits = after.cache_hits - before.cache_hits;
    d.cache_misses = after.cache_misses - before.cache_misses;
    d.peak_cache_bytes = after.peak_cache_bytes;
    return d;
  }

  /// Joint expenditure of two engines: counters and peaks add (their caches
  /// are separate), and the fallback flag is set when either degraded.
  static EvalStats Sum(const EvalStats& a, const EvalStats& b) {
    return {a.fallback_used || b.fallback_used,
            a.states_materialized + b.states_materialized,
            a.cache_evictions + b.cache_evictions, a.cache_hits + b.cache_hits,
            a.cache_misses + b.cache_misses,
            a.peak_cache_bytes + b.peak_cache_bytes};
  }
};

struct LazyDhaOptions {
  /// Cap on memoization memory; least-recently-used transitions are evicted
  /// beyond it, so evaluation memory stays bounded no matter how many
  /// distinct subsets a document touches.
  size_t max_cache_bytes = size_t{8} << 20;  // 8 MiB
};

/// One freshly computed (cache-miss) lazy step, recorded when an audit sink
/// is enabled. The checker (verify::CheckLazyAudit) recomputes each entry
/// from the NHA alone and compares, so a memoization bug (stale or
/// mis-keyed cache hit can only replay a recorded value) or a subset-step
/// bug surfaces as a mismatch. For horizontal steps `h` and `result` are
/// sets of combined content-NFA states and `subset` is the NHA-state letter
/// read; for assignments `symbol` is set, `subset` is empty, and `result`
/// is the set of assigned NHA states.
struct LazyAuditEntry {
  bool is_assign = false;
  hedge::SymbolId symbol = 0;
  Bitset h;
  Bitset subset;
  Bitset result;
};

/// On-the-fly subset simulation: the lazy counterpart of the Theorem 1
/// subset construction. Where `Determinize` materializes every reachable
/// subset and horizontal set up front (worst-case exponential), LazyDha
/// computes exactly the subsets a given document touches, memoizing
/// horizontal steps and assignments in LRU caches bounded by
/// `max_cache_bytes`. Evaluation therefore runs in time linear in the
/// document (times the cost of a set step) with bounded memory — it can
/// never fail, only slow down — which makes it the graceful-degradation
/// fallback when eager determinization exceeds its ExecBudget.
///
/// States are represented by value as Bitsets (subsets of NHA states for
/// vertical states, epsilon-closed sets of combined content-NFA states for
/// horizontal states), so cache eviction can never invalidate a client's
/// handle. The empty subset is the sink. Methods are const but not
/// thread-safe (the caches mutate); clone one LazyDha per thread.
class LazyDha {
 public:
  explicit LazyDha(Nha nha, LazyDhaOptions options = {});

  const Nha& nha() const { return nha_; }
  const LazyDhaOptions& options() const { return options_; }

  /// The horizontal start set (epsilon closure of every rule content start).
  const Bitset& HStart() const { return h_start_; }

  /// One horizontal step: the set reached from `h` by reading any NHA state
  /// in `subset`. Memoized.
  Bitset HNext(const Bitset& h, const Bitset& subset) const;

  /// alpha(symbol, w) for a child sequence whose horizontal run ended in
  /// `h`: the set of targets of `symbol`-rules accepting at `h`. Memoized.
  Bitset Assign(hedge::SymbolId symbol, const Bitset& h) const;

  /// iota(x) / iota(z) as subsets; unknown ids give the empty (sink) subset.
  Bitset VariableSubset(hedge::VarId x) const;
  Bitset SubstSubset(hedge::SubstId z) const;

  /// Definition 7 / Definition 4: the subset assigned to every node,
  /// indexed by NodeId. Equals Determinize(nha).subsets[Dha::Run(h)[n]].
  std::vector<Bitset> Run(const hedge::Hedge& h) const;

  /// Theorem 3 shortcut: along with the run, whether each symbol node's
  /// child sequence lies in F (the lazy RunWithMarks).
  using MarkedRun = MarkedRunOf<Bitset>;
  MarkedRun RunWithMarks(const hedge::Hedge& h) const;

  /// Definition 8 acceptance.
  bool Accepts(const hedge::Hedge& h) const;

  /// Per-run view for the shared folds (automata/fold.h): forwards to the
  /// memoized steps above and simulates the final language F over subset
  /// letters (the lazy counterpart of the lifted final DFA).
  class Stepper;

  /// Thin compatibility accessor: the same numbers are also mirrored into
  /// the process-wide obs::MetricsRegistry (automata.lazy.* metrics) while
  /// observability is enabled.
  const EvalStats& stats() const { return stats_; }
  /// Zeroes the per-instance stats. Non-const by design: resetting is an
  /// observable mutation, unlike the const evaluation methods whose cache
  /// writes are semantically transparent. Callers that only need a
  /// per-operation delta should snapshot stats() before/after instead
  /// (see EvalStats::Delta).
  void ResetStats() { stats_ = EvalStats{}; }

  /// Points the audit log at `sink` (nullptr disables). While enabled,
  /// every cache-miss HNext/Assign computation appends one LazyAuditEntry;
  /// cache hits are not recorded (they replay an already-audited value).
  void EnableAudit(std::vector<LazyAuditEntry>* sink) const { audit_ = sink; }

 private:
  struct HNextKey {
    Bitset h;
    Bitset subset;
    bool operator==(const HNextKey& o) const {
      return h == o.h && subset == o.subset;
    }
  };
  struct HNextKeyHash {
    size_t operator()(const HNextKey& k) const {
      return k.h.Hash() * 1000003u ^ k.subset.Hash();
    }
  };
  struct AssignKey {
    hedge::SymbolId symbol;
    Bitset h;
    bool operator==(const AssignKey& o) const {
      return symbol == o.symbol && h == o.h;
    }
  };
  struct AssignKeyHash {
    size_t operator()(const AssignKey& k) const {
      return k.h.Hash() * 1000003u ^ k.symbol;
    }
  };

  template <typename Key, typename Hash>
  struct LruCache {
    struct Entry {
      Key key;
      Bitset value;
      size_t bytes;
    };
    std::list<Entry> entries;  // front = most recent
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index;
    size_t bytes = 0;

    LruCache() = default;
    // A copy rebuilds its index over its own list: copied iterators would
    // still point into the source's entries.
    LruCache(const LruCache& other)
        : entries(other.entries), bytes(other.bytes) {
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        index.emplace(it->key, it);
      }
    }
    LruCache& operator=(const LruCache& other) {
      return *this = LruCache(other);
    }
    LruCache(LruCache&&) = default;
    LruCache& operator=(LruCache&&) = default;

    const Bitset* Find(const Key& key) {
      auto it = index.find(key);
      if (it == index.end()) return nullptr;
      entries.splice(entries.begin(), entries, it->second);
      return &it->second->value;
    }
    void Insert(Key key, Bitset value, size_t entry_bytes) {
      entries.push_front(Entry{std::move(key), std::move(value), entry_bytes});
      index.emplace(entries.front().key, entries.begin());
      bytes += entry_bytes;
    }
  };

  void NoteInsert(size_t bytes_added) const;

  Nha nha_;
  LazyDhaOptions options_;
  CombinedContent combined_;
  Bitset h_start_;
  std::unordered_map<hedge::VarId, Bitset> var_subsets_;
  std::unordered_map<hedge::SubstId, Bitset> subst_subsets_;

  mutable LruCache<HNextKey, HNextKeyHash> hnext_cache_;
  mutable LruCache<AssignKey, AssignKeyHash> assign_cache_;
  mutable EvalStats stats_;
  mutable std::vector<LazyAuditEntry>* audit_ = nullptr;
};

class LazyDha::Stepper {
 public:
  explicit Stepper(const LazyDha& dha) : dha_(dha) {}

  Bitset Sink() const { return Bitset(dha_.nha_.num_states()); }
  const Bitset& HStart() const { return dha_.h_start_; }
  Bitset HNext(const Bitset& h, const Bitset& subset) const {
    return dha_.HNext(h, subset);
  }
  Bitset Assign(hedge::SymbolId symbol, const Bitset& h) const {
    return dha_.Assign(symbol, h);
  }
  Bitset VariableState(hedge::VarId x) const { return dha_.VariableSubset(x); }
  Bitset SubstState(hedge::SubstId z) const { return dha_.SubstSubset(z); }
  /// Final-language states are epsilon-closed sets of final-NFA states.
  Bitset FinalStart() const;
  Bitset FinalNext(const Bitset& f, const Bitset& subset) const;
  bool FinalAccepting(const Bitset& f) const;

 private:
  const LazyDha& dha_;
};

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_LAZY_DHA_H_
