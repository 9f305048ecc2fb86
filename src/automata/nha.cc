#include "automata/nha.h"

#include <algorithm>
#include <deque>

#include "strre/ops.h"
#include "util/check.h"

namespace hedgeq::automata {

using hedge::Hedge;
using hedge::kNullNode;
using hedge::LabelKind;
using hedge::NodeId;
using strre::Nfa;

HState Nha::AddState() { return static_cast<HState>(num_states_++); }

HState Nha::AddStates(size_t n) {
  HState first = static_cast<HState>(num_states_);
  num_states_ += n;
  return first;
}

void Nha::AddRule(hedge::SymbolId symbol, Nfa content, HState target) {
  HEDGEQ_CHECK(target < num_states_);
  rules_.push_back({symbol, target, std::move(content)});
}

void Nha::SetRuleContent(size_t index, strre::Nfa content) {
  HEDGEQ_CHECK(index < rules_.size());
  rules_[index].content = std::move(content);
}

void Nha::AddVariableState(hedge::VarId x, HState q) {
  HEDGEQ_CHECK(q < num_states_);
  var_states_[x].push_back(q);
}

void Nha::AddSubstState(hedge::SubstId z, HState q) {
  HEDGEQ_CHECK(q < num_states_);
  subst_states_[z].push_back(q);
}

void Nha::RemoveSubstState(hedge::SubstId z, HState q) {
  auto it = subst_states_.find(z);
  if (it == subst_states_.end()) return;
  auto& states = it->second;
  states.erase(std::remove(states.begin(), states.end(), q), states.end());
  if (states.empty()) subst_states_.erase(it);
}

const std::vector<HState>& Nha::VariableStates(hedge::VarId x) const {
  static const std::vector<HState> kEmpty;
  auto it = var_states_.find(x);
  return it == var_states_.end() ? kEmpty : it->second;
}

const std::vector<HState>& Nha::SubstStates(hedge::SubstId z) const {
  static const std::vector<HState> kEmpty;
  auto it = subst_states_.find(z);
  return it == subst_states_.end() ? kEmpty : it->second;
}

namespace {

// Simulates `nfa` over a word of state *sets*: at each step any letter in
// the set may be read. Returns whether some concrete word is accepted.
bool SimulateOverSets(const Nfa& nfa, const std::vector<const Bitset*>& word) {
  if (nfa.num_states() == 0 || nfa.start() == strre::kNoState) return false;
  Bitset current(nfa.num_states());
  current.Set(nfa.start());
  nfa.EpsilonClosure(current);
  for (const Bitset* letters : word) {
    Bitset next(nfa.num_states());
    for (uint32_t p : current.ToVector()) {
      for (const Nfa::Transition& t : nfa.TransitionsFrom(p)) {
        if (t.symbol < letters->size() && letters->Test(t.symbol)) {
          next.Set(t.to);
        }
      }
    }
    nfa.EpsilonClosure(next);
    current = std::move(next);
    if (current.None()) return false;
  }
  for (uint32_t p : current.ToVector()) {
    if (nfa.IsAccepting(p)) return true;
  }
  return false;
}

// True when `nfa` accepts some word whose letters all lie in `allowed`.
bool NonEmptyOverAlphabet(const Nfa& nfa, const Bitset& allowed) {
  if (nfa.num_states() == 0 || nfa.start() == strre::kNoState) return false;
  Bitset seen(nfa.num_states());
  std::deque<uint32_t> queue;
  seen.Set(nfa.start());
  queue.push_back(nfa.start());
  while (!queue.empty()) {
    uint32_t s = queue.front();
    queue.pop_front();
    if (nfa.IsAccepting(s)) return true;
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (t.symbol < allowed.size() && allowed.Test(t.symbol) &&
          !seen.Test(t.to)) {
        seen.Set(t.to);
        queue.push_back(t.to);
      }
    }
    for (uint32_t t : nfa.EpsilonsFrom(s)) {
      if (!seen.Test(t)) {
        seen.Set(t);
        queue.push_back(t);
      }
    }
  }
  return false;
}

}  // namespace

std::vector<Bitset> Nha::ComputeStateSets(const Hedge& h) const {
  std::vector<Bitset> sets(h.num_nodes(), Bitset(num_states_));
  // Children always have larger arena ids than their parents, so a reverse
  // id sweep is a bottom-up (post-order-compatible) traversal.
  for (NodeId n = static_cast<NodeId>(h.num_nodes()); n-- > 0;) {
    const hedge::Label label = h.label(n);
    switch (label.kind) {
      case LabelKind::kVariable:
        for (HState q : VariableStates(label.id)) sets[n].Set(q);
        break;
      case LabelKind::kSubst:
        for (HState q : SubstStates(label.id)) sets[n].Set(q);
        break;
      case LabelKind::kEta:
        break;  // eta never carries automaton states
      case LabelKind::kSymbol: {
        std::vector<const Bitset*> word;
        for (NodeId c = h.first_child(n); c != kNullNode;
             c = h.next_sibling(c)) {
          word.push_back(&sets[c]);
        }
        for (const Rule& rule : rules_) {
          if (rule.symbol != label.id) continue;
          if (sets[n].Test(rule.target)) continue;
          if (SimulateOverSets(rule.content, word)) sets[n].Set(rule.target);
        }
        break;
      }
    }
  }
  return sets;
}

bool Nha::Accepts(const Hedge& h) const {
  std::vector<Bitset> sets = ComputeStateSets(h);
  std::vector<const Bitset*> word;
  for (NodeId r : h.roots()) word.push_back(&sets[r]);
  return SimulateOverSets(final_, word);
}

HState CopyNhaInto(const Nha& src, Nha& dst) {
  HState offset = dst.AddStates(src.num_states());
  auto shift = [offset](strre::Symbol q) {
    return std::vector<strre::Symbol>{q + offset};
  };
  for (const Nha::Rule& rule : src.rules()) {
    dst.AddRule(rule.symbol, strre::SubstituteSets(rule.content, shift),
                rule.target + offset);
  }
  for (const auto& [x, states] : src.var_map()) {
    for (HState q : states) dst.AddVariableState(x, q + offset);
  }
  for (const auto& [z, states] : src.subst_map()) {
    for (HState q : states) dst.AddSubstState(z, q + offset);
  }
  return offset;
}

Nha IntersectNha(const Nha& a, const Nha& b) {
  Nha out;
  const size_t nb = b.num_states();
  out.AddStates(a.num_states() * nb);
  auto encode = [nb](HState qa, HState qb) {
    return static_cast<HState>(qa * nb + qb);
  };

  // The product's content NFAs read pair letters.
  auto pair = [&](strre::Symbol x, strre::Symbol y) {
    return std::optional<strre::Symbol>(encode(x, y));
  };

  for (const Nha::Rule& ra : a.rules()) {
    for (const Nha::Rule& rb : b.rules()) {
      if (ra.symbol != rb.symbol) continue;
      out.AddRule(ra.symbol, strre::ProductNfa(ra.content, rb.content, pair),
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
  out.SetFinal(strre::ProductNfa(a.final_nfa(), b.final_nfa(), pair));
  return out;
}

Nha UnionNha(const Nha& a, const Nha& b) {
  Nha out;
  HState oa = CopyNhaInto(a, out);
  HState ob = CopyNhaInto(b, out);
  auto shift_a = [oa](strre::Symbol q) {
    return std::vector<strre::Symbol>{q + oa};
  };
  auto shift_b = [ob](strre::Symbol q) {
    return std::vector<strre::Symbol>{q + ob};
  };
  out.SetFinal(strre::UnionNfa(strre::SubstituteSets(a.final_nfa(), shift_a),
                               strre::SubstituteSets(b.final_nfa(), shift_b)));
  return out;
}

Bitset ReachableStates(const Nha& nha) {
  Bitset reachable(nha.num_states());
  for (const auto& [x, states] : nha.var_map()) {
    (void)x;
    for (HState q : states) reachable.Set(q);
  }
  for (const auto& [z, states] : nha.subst_map()) {
    (void)z;
    for (HState q : states) reachable.Set(q);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Nha::Rule& rule : nha.rules()) {
      if (reachable.Test(rule.target)) continue;
      if (NonEmptyOverAlphabet(rule.content, reachable)) {
        reachable.Set(rule.target);
        changed = true;
      }
    }
  }
  return reachable;
}

bool IsEmptyNha(const Nha& nha) {
  Bitset reachable = ReachableStates(nha);
  return !NonEmptyOverAlphabet(nha.final_nfa(), reachable);
}

std::optional<std::vector<strre::Symbol>> ShortestWordOverAlphabet(
    const Nfa& nfa, const Bitset& allowed) {
  if (nfa.num_states() == 0 || nfa.start() == strre::kNoState) {
    return std::nullopt;
  }
  std::vector<int> parent(nfa.num_states(), -1);
  std::vector<strre::Symbol> via(nfa.num_states(), 0);
  std::vector<bool> via_letter(nfa.num_states(), false);
  Bitset seen(nfa.num_states());
  std::deque<uint32_t> queue;
  seen.Set(nfa.start());
  queue.push_back(nfa.start());
  uint32_t found = UINT32_MAX;
  while (!queue.empty() && found == UINT32_MAX) {
    uint32_t s = queue.front();
    queue.pop_front();
    if (nfa.IsAccepting(s)) {
      found = s;
      break;
    }
    for (uint32_t t : nfa.EpsilonsFrom(s)) {
      if (!seen.Test(t)) {
        seen.Set(t);
        parent[t] = static_cast<int>(s);
        via_letter[t] = false;
        queue.push_back(t);
      }
    }
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (t.symbol < allowed.size() && allowed.Test(t.symbol) &&
          !seen.Test(t.to)) {
        seen.Set(t.to);
        parent[t.to] = static_cast<int>(s);
        via[t.to] = t.symbol;
        via_letter[t.to] = true;
        queue.push_back(t.to);
      }
    }
  }
  if (found == UINT32_MAX) return std::nullopt;
  std::vector<strre::Symbol> word;
  for (uint32_t s = found; parent[s] != -1;
       s = static_cast<uint32_t>(parent[s])) {
    if (via_letter[s]) word.push_back(via[s]);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

std::optional<std::vector<strre::Symbol>> ShortestWordContaining(
    const Nfa& nfa, const Bitset& allowed, strre::Symbol letter) {
  if (nfa.num_states() == 0 || nfa.start() == strre::kNoState) {
    return std::nullopt;
  }
  // BFS over (nfa state, have-we-read-`letter`) pairs.
  const size_t n = nfa.num_states();
  auto encode = [n](uint32_t s, bool bit) { return s + (bit ? n : 0); };
  std::vector<int> parent(2 * n, -1);
  std::vector<strre::Symbol> via(2 * n, 0);
  std::vector<bool> via_letter(2 * n, false);
  Bitset seen(2 * n);
  std::deque<uint32_t> queue;
  uint32_t start = encode(nfa.start(), false);
  seen.Set(start);
  queue.push_back(start);
  uint32_t found = UINT32_MAX;
  while (!queue.empty() && found == UINT32_MAX) {
    uint32_t node = queue.front();
    queue.pop_front();
    uint32_t s = node % n;
    bool bit = node >= n;
    if (bit && nfa.IsAccepting(s)) {
      found = node;
      break;
    }
    auto visit = [&](uint32_t next, bool is_letter, strre::Symbol sym) {
      if (seen.Test(next)) return;
      seen.Set(next);
      parent[next] = static_cast<int>(node);
      via[next] = sym;
      via_letter[next] = is_letter;
      queue.push_back(next);
    };
    for (uint32_t t : nfa.EpsilonsFrom(s)) {
      visit(encode(t, bit), false, 0);
    }
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (t.symbol >= allowed.size() || !allowed.Test(t.symbol)) continue;
      visit(encode(t.to, bit || t.symbol == letter), true, t.symbol);
    }
  }
  if (found == UINT32_MAX) return std::nullopt;
  std::vector<strre::Symbol> word;
  for (uint32_t node = found; parent[node] != -1;
       node = static_cast<uint32_t>(parent[node])) {
    if (via_letter[node]) word.push_back(via[node]);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

std::vector<std::optional<Hedge>> StateWitnesses(const Nha& nha) {
  std::vector<std::optional<Hedge>> witness(nha.num_states());
  Bitset have(nha.num_states());
  for (const auto& [x, states] : nha.var_map()) {
    for (HState q : states) {
      if (have.Test(q)) continue;
      Hedge h;
      h.Append(kNullNode, hedge::Label::Variable(x));
      witness[q] = std::move(h);
      have.Set(q);
    }
  }
  for (const auto& [z, states] : nha.subst_map()) {
    for (HState q : states) {
      if (have.Test(q)) continue;
      Hedge h;
      h.Append(kNullNode, hedge::Label::Subst(z));
      witness[q] = std::move(h);
      have.Set(q);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Nha::Rule& rule : nha.rules()) {
      if (have.Test(rule.target)) continue;
      std::optional<std::vector<strre::Symbol>> word =
          ShortestWordOverAlphabet(rule.content, have);
      if (!word.has_value()) continue;
      Hedge h;
      NodeId root = h.Append(kNullNode, hedge::Label::Symbol(rule.symbol));
      for (strre::Symbol q : *word) {
        h.AppendHedgeCopy(root, *witness[q]);
      }
      witness[rule.target] = std::move(h);
      have.Set(rule.target);
      changed = true;
    }
  }
  return witness;
}

std::optional<Hedge> WitnessHedge(const Nha& nha) {
  std::vector<std::optional<Hedge>> witness = StateWitnesses(nha);
  Bitset have(nha.num_states());
  for (HState q = 0; q < nha.num_states(); ++q) {
    if (witness[q].has_value()) have.Set(q);
  }
  std::optional<std::vector<strre::Symbol>> final_word =
      ShortestWordOverAlphabet(nha.final_nfa(), have);
  if (!final_word.has_value()) return std::nullopt;
  Hedge out;
  for (strre::Symbol q : *final_word) {
    out.AppendHedgeCopy(kNullNode, *witness[q]);
  }
  return out;
}

}  // namespace hedgeq::automata
