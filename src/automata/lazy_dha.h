#ifndef HEDGEQ_AUTOMATA_LAZY_DHA_H_
#define HEDGEQ_AUTOMATA_LAZY_DHA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "automata/content_union.h"
#include "automata/fold.h"
#include "automata/nha.h"
#include "hedge/hedge.h"
#include "strre/lazy_dfa.h"
#include "util/bitset.h"

namespace hedgeq::automata {

/// Which engine answered, and what the lazy engine spent. Returned by every
/// evaluator that can degrade from eager determinization to on-the-fly
/// subset simulation.
struct EvalStats {
  bool fallback_used = false;      // lazy engine (not the eager DHA) ran
  size_t states_materialized = 0;  // distinct subset computations performed
  size_t cache_evictions = 0;      // memo rows flushed under memory budget
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
  /// Cap on memoization memory, rows and interned sets together: past it
  /// the rows are flushed all at once, and the sets as soon as no run
  /// holds ids into them (see LazyDha), so a streaming run stays bounded
  /// no matter how many distinct subsets a document touches.
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
/// builds the same construction on demand, for exactly the subsets a
/// document touches. M's states (subsets of NHA states, the empty subset
/// the sink) are interned to dense ids; the horizontal states (epsilon-
/// closed sets of combined content-NFA states) and the final language are
/// strre::LazyDfas over those ids, and the assignment is a strre::LazyRows
/// memo. Evaluation therefore runs in time linear in the document, at a
/// table read per step once warm, with bounded memory: it can never fail,
/// only slow down, which makes it the graceful-degradation fallback when
/// eager determinization exceeds its ExecBudget.
///
/// Memory: `max_cache_bytes` caps the rows and the interned sets together
/// (beyond the few a fresh memo holds). Past it every row flushes at once
/// and refills from the interned sets, so the ids a run holds stay valid.
/// The sets go where every live id is known and no other run is open: when
/// a run starts, and, in a streaming run (automata/streaming.h), after
/// every event, when the memo restarts from the O(element depth) sets that
/// the run still holds (Stepper::Compact). A tree run pins the subsets its
/// output names until it returns, bounded by the node count like the
/// output itself. Methods are const but not thread-safe (the memo
/// mutates); clone one LazyDha per thread.
class LazyDha {
 public:
  explicit LazyDha(Nha nha, LazyDhaOptions options = {});

  const Nha& nha() const { return nha_; }
  const LazyDhaOptions& options() const { return options_; }

  /// Definition 7 / Definition 4: the subset assigned to every node,
  /// indexed by NodeId. Equals Determinize(nha).subsets[Dha::Run(h)[n]].
  std::vector<Bitset> Run(const hedge::Hedge& h) const;

  /// Theorem 3 shortcut: along with the run, whether each symbol node's
  /// child sequence lies in F (the lazy RunWithMarks).
  using MarkedRun = MarkedRunOf<Bitset>;
  MarkedRun RunWithMarks(const hedge::Hedge& h) const;

  /// Definition 8 acceptance.
  bool Accepts(const hedge::Hedge& h) const;

  /// Per-run view for the shared folds (automata/fold.h,
  /// automata/streaming.h): states are ids into the memo, pinned while the
  /// stepper lives (a streaming run's are rewritten by Compact).
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
  /// every horizontal step and assignment computed on a miss appends one
  /// LazyAuditEntry; hits are not recorded (they replay an audited value).
  void EnableAudit(std::vector<LazyAuditEntry>* sink) const { audit_ = sink; }

 private:
  struct Memo {
    strre::BitsetPool subsets;  // M's states; id 0 is the empty subset
    strre::LazyDfa h;           // horizontal states, over subset letters
    strre::LazyRows assign;     // (h, symbol) -> subset
    strre::LazyDfa final;       // the final language, over subset letters
    std::vector<uint32_t> vars, substs;  // iota, by id; 0 past the end
  };
  // Open runs, which pin the memo's ids; a copy has none of its own.
  struct RunCount {
    RunCount() = default;
    RunCount(const RunCount&) {}
    RunCount& operator=(const RunCount&) { return *this; }
    int open = 0;
  };

  Memo NewMemo() const;
  // Starts a fresh memo, counting the old one's rows as evicted, and
  // returns the old one so that live ids can be carried over.
  Memo Restart() const;
  strre::StateId HMiss(strre::StateId h, uint32_t q) const;
  uint32_t AssignMiss(hedge::SymbolId symbol, strre::StateId h) const;
  strre::StateId FinalMiss(strre::StateId f, uint32_t q) const;
  uint32_t Hit(uint32_t to) const;
  void NoteMiss() const;
  // Counts every row as evicted.
  void CountEvictions() const;
  size_t RowBytes() const;
  size_t MemoBytes() const;

  Nha nha_;
  LazyDhaOptions options_;
  CombinedContent combined_;
  mutable Memo memo_;
  size_t base_bytes_ = 0;  // a fresh memo's, not counted
  mutable RunCount runs_;
  mutable EvalStats stats_;
  mutable std::vector<LazyAuditEntry>* audit_ = nullptr;
};

class LazyDha::Stepper {
 public:
  explicit Stepper(const LazyDha& dha);
  Stepper(const Stepper& other) : dha_(other.dha_) { ++dha_.runs_.open; }
  Stepper& operator=(const Stepper&) = delete;
  ~Stepper() { --dha_.runs_.open; }

  uint32_t Sink() const { return 0; }
  strre::StateId HStart() const { return strre::LazyDfa::kStart; }
  strre::StateId HNext(strre::StateId h, uint32_t q) const {
    const strre::StateId to = dha_.memo_.h.Lookup(h, q);
    return to != strre::kNoState ? dha_.Hit(to) : dha_.HMiss(h, q);
  }
  uint32_t Assign(hedge::SymbolId symbol, strre::StateId h) const {
    const uint32_t q = dha_.memo_.assign.Lookup(h, symbol);
    return q != strre::kNoState ? dha_.Hit(q) : dha_.AssignMiss(symbol, h);
  }
  uint32_t VariableState(hedge::VarId x) const {
    return x < dha_.memo_.vars.size() ? dha_.memo_.vars[x] : 0;
  }
  uint32_t SubstState(hedge::SubstId z) const {
    return z < dha_.memo_.substs.size() ? dha_.memo_.substs[z] : 0;
  }
  strre::StateId FinalStart() const { return strre::LazyDfa::kStart; }
  strre::StateId FinalNext(strre::StateId f, uint32_t q) const {
    const strre::StateId to = dha_.memo_.final.Lookup(f, q);
    return to != strre::kNoState ? dha_.Hit(to) : dha_.FinalMiss(f, q);
  }
  bool FinalAccepting(strre::StateId f) const {
    return dha_.memo_.final.IsAccepting(f);
  }

  /// A streaming run's safe point, given every id the run holds: the open
  /// elements' horizontal states and the final-language state. When the
  /// memo has passed the cap and no other run is open, the memo restarts
  /// from these sets alone and the ids are rewritten into it.
  void Compact(std::span<strre::StateId> open, strre::StateId& final) const;

  /// The subset of NHA states that M-state id `q` stands for.
  const Bitset& Subset(uint32_t q) const { return dha_.memo_.subsets[q]; }

 private:
  const LazyDha& dha_;
};

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_LAZY_DHA_H_
