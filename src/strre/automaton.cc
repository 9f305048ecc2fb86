#include "strre/automaton.h"

#include <algorithm>

#include "util/check.h"

namespace hedgeq::strre {

StateId Nfa::AddState(bool accepting) {
  StateId id = static_cast<StateId>(accepting_.size());
  transitions_.emplace_back();
  epsilons_.emplace_back();
  accepting_.push_back(accepting);
  if (start_ == kNoState) start_ = id;
  return id;
}

void Nfa::AddTransition(StateId from, Symbol symbol, StateId to) {
  HEDGEQ_CHECK(from < num_states() && to < num_states());
  transitions_[from].push_back({symbol, to});
}

void Nfa::AddEpsilon(StateId from, StateId to) {
  HEDGEQ_CHECK(from < num_states() && to < num_states());
  epsilons_[from].push_back(to);
}

void Nfa::SetAccepting(StateId s, bool accepting) {
  HEDGEQ_CHECK(s < num_states());
  accepting_[s] = accepting;
}

void Nfa::EpsilonClosure(Bitset& states) const {
  std::vector<StateId> stack = states.ToVector();
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (StateId t : epsilons_[s]) {
      if (!states.Test(t)) {
        states.Set(t);
        stack.push_back(t);
      }
    }
  }
}

size_t StepOverSet(const Nfa& nfa, const Bitset& from, const Bitset& letter,
                   Bitset& to) {
  to = Bitset(nfa.num_states());
  size_t scanned = 0;
  for (uint32_t s : from.ToVector()) {
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      ++scanned;
      if (t.symbol < letter.size() && letter.Test(t.symbol)) to.Set(t.to);
    }
  }
  nfa.EpsilonClosure(to);
  return scanned;
}

bool Nfa::Accepts(std::span<const Symbol> word) const {
  if (num_states() == 0 || start_ == kNoState) return false;
  Bitset current(num_states());
  current.Set(start_);
  EpsilonClosure(current);
  for (Symbol a : word) {
    Bitset next(num_states());
    for (uint32_t s : current.ToVector()) {
      for (const Transition& t : transitions_[s]) {
        if (t.symbol == a) next.Set(t.to);
      }
    }
    EpsilonClosure(next);
    current = std::move(next);
    if (current.None()) return false;
  }
  for (uint32_t s : current.ToVector()) {
    if (accepting_[s]) return true;
  }
  return false;
}

std::vector<Symbol> Nfa::AlphabetInUse() const {
  std::vector<Symbol> out;
  for (const auto& ts : transitions_) {
    for (const Transition& t : ts) out.push_back(t.symbol);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

StateId Dfa::AddState(bool accepting) {
  StateId id = static_cast<StateId>(accepting_.size());
  cells_.resize(cells_.size() + stride_, kNoState);
  accepting_.push_back(accepting ? 1 : 0);
  if (start_ == kNoState) start_ = id;
  return id;
}

uint32_t Dfa::AddColumn(Symbol symbol) {
  const uint32_t col = static_cast<uint32_t>(symbols_.size()) + 1;
  if (col == stride_) {
    const uint32_t stride = 2 * stride_;
    std::vector<StateId> cells(num_states() * stride, kNoState);
    for (size_t s = 0; s < num_states(); ++s) {
      std::copy_n(cells_.begin() + s * stride_, stride_,
                  cells.begin() + s * stride);
    }
    cells_ = std::move(cells);
    stride_ = stride;
  }
  if (symbol >= column_.size()) column_.resize(size_t{symbol} + 1, 0);
  column_[symbol] = col;
  symbols_.insert(std::upper_bound(symbols_.begin(), symbols_.end(),
                                   std::make_pair(symbol, col)),
                  {symbol, col});
  return col;
}

void Dfa::SetTransition(StateId from, Symbol symbol, StateId to) {
  HEDGEQ_CHECK(to < num_states());
  SetCell(from, symbol, to);
}

void Dfa::SetCell(StateId from, Symbol symbol, StateId value) {
  HEDGEQ_CHECK(from < num_states());
  uint32_t col = view().Column(symbol);
  if (col == 0) col = AddColumn(symbol);
  cells_[static_cast<size_t>(from) * stride_ + col] = value;
}

StateId Dfa::Run(std::span<const Symbol> word) const {
  StateId s = start_;
  for (Symbol a : word) {
    s = Next(s, a);
    if (s == kNoState) return kNoState;
  }
  return s;
}

std::vector<Symbol> Dfa::AlphabetInUse() const {
  // Every column has a live entry: SetTransition never writes kNoState.
  std::vector<Symbol> out;
  out.reserve(symbols_.size());
  for (const auto& [symbol, col] : symbols_) out.push_back(symbol);
  return out;
}

size_t Dfa::TableBytes() const {
  return cells_.size() * sizeof(StateId) + column_.size() * sizeof(uint32_t) +
         symbols_.size() * sizeof(symbols_[0]) + accepting_.size();
}

}  // namespace hedgeq::strre
