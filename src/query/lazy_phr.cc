#include "query/lazy_phr.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "automata/engine.h"
#include "automata/fold.h"
#include "query/locate.h"
#include "query/phr_compile.h"
#include "strre/lazy_dfa.h"
#include "strre/ops.h"

namespace hedgeq::query {

using hedge::Hedge;
using hedge::NodeId;
using strre::LazyDfa;
using strre::Nfa;
using strre::StateId;

namespace {

struct LetterKey {
  uint32_t elder, symbol, younger;
  bool operator==(const LetterKey&) const = default;
};
struct LetterKeyHash {
  size_t operator()(const LetterKey& k) const {
    return (size_t{k.elder} * 0x9E3779B97F4A7C15ull) ^
           (size_t{k.younger} << 24) ^ k.symbol;
  }
};
// A letter-memo entry's share of the cache: node, key, value and bucket.
constexpr size_t kLetterEntryBytes = 64;

}  // namespace

// The on-demand Theorem 4 tables of one Locate (see the class comment).
class LazyPhrEvaluator::Tables {
 public:
  static constexpr bool kLazy = true;

  explicit Tables(const LazyPhrEvaluator& e)
      : e_(e),
        stats_(e.rows_stats_),
        m_(*e.lazy_),
        elder_(e.elder_.nfa, e.elder_.start),
        younger_(e.younger_.nfa, e.younger_.start),
        n_(e.rev_regex_, e.rev_regex_start_) {}

  std::vector<uint32_t> RunM(const Hedge& doc) {
    return automata::FoldHedge<false>(m_, doc).states;
  }

  // With no sibling condition both products stay in their start state.
  bool single_class() const {
    return e_.elder_.nfa.num_states() == 0 &&
           e_.younger_.nfa.num_states() == 0;
  }

  // The classes of one sibling group: elder by a forward run of the elder
  // product, younger by a backward run of the younger one.
  class Group {
   public:
    explicit Group(Tables& t) : t_(t) {}

    void Compute(std::span<const NodeId> kids, const uint32_t* states) {
      const size_t k = kids.size();
      if (elder_.size() < k) {
        elder_.resize(k);
        younger_.resize(k);
      }
      StateId s = LazyDfa::kStart;
      for (size_t j = 0; j < k; ++j) {
        elder_[j] = s;
        s = t_.Next(t_.elder_, t_.e_.elder_.nfa, s, states[kids[j]],
                    t_.m_.Subset(states[kids[j]]));
      }
      s = LazyDfa::kStart;
      for (size_t j = k; j-- > 0;) {
        younger_[j] = s;
        if (j > 0) {
          s = t_.Next(t_.younger_, t_.e_.younger_.nfa, s, states[kids[j]],
                      t_.m_.Subset(states[kids[j]]));
        }
      }
    }
    uint32_t elder(size_t j) const { return elder_[j]; }
    uint32_t younger(size_t j) const { return younger_[j]; }

   private:
    Tables& t_;
    std::vector<StateId> elder_, younger_;
  };
  Group SiblingClasses() { return Group(*this); }
  Tables& N() { return *this; }

  StateId top() const { return LazyDfa::kStart; }
  StateId Step(StateId from, uint32_t elder, hedge::SymbolId label,
               uint32_t younger) {
    const uint32_t si = label < e_.symbol_index_.size()
                            ? e_.symbol_index_[label]
                            : kNoSymbol;
    if (si == kNoSymbol) return strre::kNoState;
    const uint32_t letter = Letter(elder, si, younger);
    const StateId to =
        Next(n_, e_.rev_regex_, from, letter, letters_[letter]);
    return to == n_.dead() ? strre::kNoState : to;
  }
  bool IsAccepting(StateId s) const { return n_.IsAccepting(s); }

 private:
  // A step of `dfa` (over `nfa`) on `letter`, whose set is `set`.
  StateId Next(LazyDfa& dfa, const Nfa& nfa, StateId s, uint32_t letter,
               const Bitset& set) {
    StateId to = dfa.Lookup(s, letter);
    if (to != strre::kNoState) {
      ++stats_.cache_hits;
      return to;
    }
    to = dfa.Fill(nfa, s, letter, set);
    NoteMiss();
    return to;
  }

  // N's letter for a node: the triplets that its symbol and its sibling
  // classes admit, interned.
  uint32_t Letter(uint32_t elder, uint32_t si, uint32_t younger) {
    auto [it, fresh] = letter_of_.try_emplace({elder, si, younger}, 0);
    if (!fresh) return it->second;
    Bitset allowed = e_.label_triplets_[si];
    allowed &= Holding(elder_, e_.elder_, elder);
    allowed &= Holding(younger_, e_.younger_, younger);
    const uint32_t letter = it->second = letters_.Intern(std::move(allowed));
    NoteMiss();  // may flush the memo, `it` with it
    return letter;
  }

  // The triplets whose condition on this side holds in class `s`.
  static Bitset Holding(const LazyDfa& product, const Conditions& side,
                        StateId s) {
    Bitset ok = side.any;
    for (size_t i = 0; i < side.accepting.size(); ++i) {
      if (product.set(s).Intersects(side.accepting[i])) ok.Set(i);
    }
    return ok;
  }

  // Past the cap, every row and the letter memo go at once; the pinned sets
  // stay, so ids held by the caller stay valid and rows refill from them.
  void NoteMiss() {
    ++stats_.cache_misses;
    ++stats_.states_materialized;
    const size_t bytes = elder_.rows().bytes() + younger_.rows().bytes() +
                         n_.rows().bytes() +
                         letter_of_.size() * kLetterEntryBytes;
    stats_.peak_cache_bytes = std::max(stats_.peak_cache_bytes, bytes);
    if (bytes <= e_.row_cap_) return;
    stats_.cache_evictions += elder_.rows().num_rows() +
                              younger_.rows().num_rows() +
                              n_.rows().num_rows() + letter_of_.size();
    elder_.FlushRows();
    younger_.FlushRows();
    n_.FlushRows();
    letter_of_ = {};
  }

  const LazyPhrEvaluator& e_;
  automata::EvalStats& stats_;    // the evaluator's, across calls
  automata::LazyDha::Stepper m_;  // pins M's states for the call
  LazyDfa elder_, younger_, n_;
  strre::BitsetPool letters_;  // N's letters: sets of triplets
  std::unordered_map<LetterKey, uint32_t, LetterKeyHash> letter_of_;
};

LazyPhrEvaluator::Conditions LazyPhrEvaluator::Union(
    const std::vector<Nfa>& parts, const std::vector<bool>& any) {
  Conditions out;
  size_t states = 0;
  for (const Nfa& part : parts) states += part.num_states();
  out.start = Bitset(states);
  out.accepting.assign(parts.size(), out.start);
  out.any = Bitset(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    const StateId offset = strre::CopyInto(parts[i], out.nfa);
    if (any[i]) out.any.Set(i);
    if (parts[i].start() != strre::kNoState) {
      out.start.Set(offset + parts[i].start());
    }
    for (StateId q = 0; q < parts[i].num_states(); ++q) {
      if (parts[i].IsAccepting(q)) out.accepting[i].Set(offset + q);
    }
  }
  return out;
}

Result<LazyPhrEvaluator> LazyPhrEvaluator::Create(const phr::Phr& phr,
                                                  const ExecBudget& budget) {
  // A fresh scope: charges of a failed eager attempt must not count against
  // the (linear) lazy construction.
  BudgetScope scope(budget);
  Result<PhrFrontEnd> front = BuildPhrFrontEnd(phr, scope);
  if (!front.ok()) return front.status();
  LazyPhrEvaluator out;
  const size_t n = phr.triplets().size();
  std::vector<Nfa> younger_rev(n);
  for (size_t i = 0; i < n; ++i) {
    if (!front->younger_any[i]) {
      younger_rev[i] = strre::ReverseNfa(front->younger_final[i]);
    }
  }
  out.elder_ = Union(front->elder_final, front->elder_any);
  out.younger_ = Union(younger_rev, front->younger_any);
  out.label_triplets_.assign(front->symbols.size(), Bitset(n));
  for (size_t i = 0; i < n; ++i) {
    out.label_triplets_[front->symbol_index[phr.triplets()[i].label]].Set(i);
  }
  out.symbol_index_ = std::move(front->symbol_index);
  out.rev_regex_ = strre::ReverseNfa(strre::CompileRegex(phr.regex()));
  out.rev_regex_start_ = Bitset(out.rev_regex_.num_states());
  out.rev_regex_start_.Set(out.rev_regex_.start());
  const size_t cap = automata::LazyOptionsFor(budget).max_cache_bytes;
  out.row_cap_ = cap - cap / 2;
  out.lazy_.emplace(std::move(front->union_nha),
                    automata::LazyDhaOptions{cap / 2});
  return out;
}

std::vector<bool> LazyPhrEvaluator::Locate(const Hedge& doc) const {
  Tables tables(*this);
  return LocateWith(tables, doc);
}

}  // namespace hedgeq::query
