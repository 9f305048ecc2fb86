#include "hre/from_nha.h"

#include <atomic>
#include <map>
#include <unordered_map>
#include <vector>

#include "strre/ops.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace hedgeq::hre {

using automata::HState;
using automata::Nha;
using strre::Nfa;
using strre::Regex;

Hre RegexToHre(const Regex& regex,
               const std::function<Hre(strre::Symbol)>& leaf) {
  switch (regex->kind()) {
    case strre::RegexKind::kEmptySet:
      return HEmptySet();
    case strre::RegexKind::kEpsilon:
      return HEpsilon();
    case strre::RegexKind::kSymbol:
      return leaf(regex->symbol());
    case strre::RegexKind::kConcat:
      return HConcat(RegexToHre(regex->left(), leaf),
                     RegexToHre(regex->right(), leaf));
    case strre::RegexKind::kUnion:
      return HUnion(RegexToHre(regex->left(), leaf),
                    RegexToHre(regex->right(), leaf));
    case strre::RegexKind::kStar:
      return HStar(RegexToHre(regex->left(), leaf));
    case strre::RegexKind::kPlus: {
      Hre inner = RegexToHre(regex->left(), leaf);
      return HConcat(inner, HStar(inner));
    }
    case strre::RegexKind::kOptional:
      return HUnion(RegexToHre(regex->left(), leaf), HEpsilon());
  }
  HEDGEQ_CHECK_MSG(false, "unreachable RegexKind");
  return HEmptySet();
}

namespace {

// The Lemma 2 construction. "Split states" are the (symbol, state) pairs
// that occur as rule targets; they are the only states that can label
// non-leaf nodes, so they are the connectors and the members of Q1/Q2.
// Letters of content/final regexes live in a combined space:
//   [0, n)           original states as leaf letters (via iota),
//   [n, n + splits)  split states (zeta(q) = the pair's symbol).
class Lemma2 {
 public:
  Lemma2(const Nha& nha, hedge::Vocabulary& vocab, FromNhaWitness* witness)
      : nha_(nha), vocab_(vocab), n_(nha.num_states()), witness_(witness) {}

  Result<Hre> Build() {
    if (!nha_.subst_map().empty()) {
      return Status::InvalidArgument(
          "Lemma 2 applies to hedge automata over Sigma and X; languages "
          "with substitution-symbol leaves are not expression-denotable");
    }
    // Enumerate split states and their per-split content regexes.
    std::map<std::pair<hedge::SymbolId, HState>, uint32_t> split_ids;
    for (const Nha::Rule& rule : nha_.rules()) {
      auto key = std::make_pair(rule.symbol, rule.target);
      if (!split_ids.contains(key)) {
        uint32_t id = static_cast<uint32_t>(splits_.size());
        split_ids.emplace(key, id);
        splits_.push_back(key);
      }
    }
    if (splits_.size() > 62) {
      return Status::ResourceExhausted(
          StrCat("Lemma 2 construction supports at most 62 split states, "
                 "got ",
                 splits_.size()));
    }
    for (size_t i = 0; i < splits_.size(); ++i) {
      subst_.push_back(vocab_.substs.Intern(StrCat("_zq", i)));
    }

    // Lift each original-state letter to its leaf/split variants.
    Bitset leaf_state(n_ == 0 ? 1 : n_);
    for (const auto& [x, states] : nha_.var_map()) {
      (void)x;
      for (HState q : states) leaf_state.Set(q);
    }
    auto lift = [&](strre::Symbol q) {
      std::vector<strre::Symbol> out;
      if (q < n_ && leaf_state.Test(q)) out.push_back(q);
      for (size_t i = 0; i < splits_.size(); ++i) {
        if (splits_[i].second == q) {
          out.push_back(static_cast<strre::Symbol>(n_ + i));
        }
      }
      return out;
    };

    // Content regex per split state: union of its rules' contents, lifted.
    content_.resize(splits_.size());
    for (size_t i = 0; i < splits_.size(); ++i) {
      Nfa combined;
      bool first = true;
      for (const Nha::Rule& rule : nha_.rules()) {
        if (rule.symbol != splits_[i].first ||
            rule.target != splits_[i].second) {
          continue;
        }
        combined = first ? rule.content
                         : strre::UnionNfa(combined, rule.content);
        first = false;
      }
      content_[i] =
          strre::NfaToRegex(strre::SubstituteSets(combined, lift));
    }

    // Leaf expansions: for each original state, the union of variables
    // mapping to it.
    leaf_expr_.assign(n_, HEmptySet());
    for (const auto& [x, states] : nha_.var_map()) {
      for (HState q : states) {
        leaf_expr_[q] = HUnion(leaf_expr_[q], HVar(x));
      }
    }

    // Final: replace each split letter r by zeta(r)<R(r, all, {})> and
    // each leaf letter by its variable union.
    Regex final_regex =
        strre::NfaToRegex(strre::SubstituteSets(nha_.final_nfa(), lift));
    const uint64_t all = splits_.empty()
                             ? 0
                             : (splits_.size() == 62
                                    ? ~uint64_t{0} >> 2
                                    : (uint64_t{1} << splits_.size()) - 1);
    Hre result = RegexToHre(final_regex, [&](strre::Symbol letter) {
      if (letter < n_) return leaf_expr_[letter];
      uint32_t c = static_cast<uint32_t>(letter - n_);
      return HTree(splits_[c].first, R(c, all, 0));
    });
    if (witness_ != nullptr) {
      witness_->splits = splits_;
      witness_->substs = subst_;
      witness_->result = result;
    }
    return result;
  }

 private:
  // R(q, Q1, Q2) of the paper, memoized; Q1/Q2 are bitmasks over splits.
  Hre R(uint32_t c, uint64_t q1, uint64_t q2) {
    auto key = std::make_tuple(c, q1, q2);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    Hre result;
    if (q1 == 0) {
      result = Base(c, q2);
    } else {
      // p := the highest split in Q1 (a fixed elimination order keeps the
      // number of distinct (Q1, Q2) arguments polynomial in practice).
      uint32_t p = 63 - static_cast<uint32_t>(__builtin_clzll(q1));
      uint64_t q1_rest = q1 & ~(uint64_t{1} << p);
      uint64_t q2_with_p = q2 | (uint64_t{1} << p);
      hedge::SubstId zp = subst_[p];

      Hre rp = R(p, q1_rest, q2);
      Hre rp_up = R(p, q1_rest, q2_with_p);
      Hre rq_up = R(c, q1_rest, q2_with_p);
      Hre rq = R(c, q1_rest, q2);
      // R(q, Q1 u {p}, Q2) =
      //   (R(p,Q1,Q2) o_p R(p,Q1,Q2 u {p})^p  u  R(p,Q1,Q2))
      //     o_p R(q,Q1,Q2 u {p})  u  R(q,Q1,Q2).
      Hre middle = HUnion(HEmbed(rp, zp, HVClose(rp_up, zp)), rp);
      if (!failpoint::Check("from_nha/drop-alternative").ok()) {
        // Seeded bug: forget the "p never occurs" alternative, shrinking
        // the language. The recurrence replay in CheckFromNha must flag
        // the entry (HQV014).
        result = HEmbed(std::move(middle), zp, rq_up);
      } else {
        result = HUnion(HEmbed(std::move(middle), zp, rq_up), rq);
      }
    }
    memo_.emplace(key, result);
    if (witness_ != nullptr) {
      witness_->entries.push_back(FromNhaWitness::Entry{c, q1, q2, result});
    }
    return result;
  }

  // Base case: every node of the content is a leaf or a connector whose
  // split state lies in Q2.
  Hre Base(uint32_t c, uint64_t q2) {
    return RegexToHre(content_[c], [&](strre::Symbol letter) {
      if (letter < n_) return leaf_expr_[letter];
      uint32_t d = static_cast<uint32_t>(letter - n_);
      if (q2 & (uint64_t{1} << d)) {
        return HSubstLeaf(splits_[d].first, subst_[d]);
      }
      return HEmptySet();
    });
  }

  const Nha& nha_;
  hedge::Vocabulary& vocab_;
  const size_t n_;
  FromNhaWitness* const witness_;
  std::vector<std::pair<hedge::SymbolId, HState>> splits_;
  std::vector<Hre> leaf_expr_;
  std::vector<hedge::SubstId> subst_;
  std::vector<Regex> content_;
  std::map<std::tuple<uint32_t, uint64_t, uint64_t>, Hre> memo_;
};

std::atomic<FromNhaValidationHook> g_from_nha_hook{nullptr};

}  // namespace

void SetFromNhaValidationHook(FromNhaValidationHook hook) {
  g_from_nha_hook.store(hook, std::memory_order_relaxed);
}

FromNhaValidationHook GetFromNhaValidationHook() {
  return g_from_nha_hook.load(std::memory_order_relaxed);
}

Result<Hre> NhaToHre(const Nha& nha, hedge::Vocabulary& vocab,
                     FromNhaWitness* witness) {
  FromNhaValidationHook hook = GetFromNhaValidationHook();
  FromNhaWitness local;
  FromNhaWitness* sink =
      witness != nullptr ? witness : (hook != nullptr ? &local : nullptr);
  Lemma2 builder(nha, vocab, sink);
  Result<Hre> result = builder.Build();
  if (result.ok() && hook != nullptr) {
    HEDGEQ_RETURN_IF_ERROR(hook(nha, *result, *sink));
  }
  return result;
}

}  // namespace hedgeq::hre
