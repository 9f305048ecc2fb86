#include "strre/lazy_dfa.h"

#include <utility>

namespace hedgeq::strre {

uint32_t BitsetPool::Intern(Bitset set) {
  auto [it, inserted] =
      ids_.try_emplace(set, static_cast<uint32_t>(sets_.size()));
  if (inserted) {
    bytes_ += 2 * set.ApproxBytes() + 32;
    sets_.push_back(std::move(set));
  }
  return it->second;
}

void LazyRows::Store(StateId id, Symbol column, StateId value) {
  if (id >= row_of_.size()) row_of_.resize(size_t{id} + 1, kNoState);
  if (row_of_[id] == kNoState) {
    row_of_[id] = rows_.AddState();
    id_of_row_.push_back(id);
  }
  rows_.SetCell(row_of_[id], column, value);
}

void LazyRows::Flush() {
  for (StateId id : id_of_row_) row_of_[id] = kNoState;
  id_of_row_.clear();
  rows_ = Dfa();
}

LazyDfa::LazyDfa(const Nfa& nfa, Bitset start) {
  nfa.EpsilonClosure(start);
  Intern(nfa, std::move(start));
  dead_ = Intern(nfa, Bitset(nfa.num_states()));
}

StateId LazyDfa::Intern(const Nfa& nfa, Bitset set) {
  const StateId id = states_.Intern(std::move(set));
  if (id == accepting_.size()) {
    bool accepting = false;
    for (uint32_t q : states_[id].ToVector()) accepting |= nfa.IsAccepting(q);
    accepting_.push_back(accepting ? 1 : 0);
  }
  return id;
}

StateId LazyDfa::Fill(const Nfa& nfa, StateId s, Symbol letter,
                      const Bitset& letter_set) {
  Bitset next;
  StepOverSet(nfa, states_[s], letter_set, next);
  const StateId to = Intern(nfa, std::move(next));
  rows_.Store(s, letter, to);
  return to;
}

}  // namespace hedgeq::strre
