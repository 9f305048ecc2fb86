#ifndef HEDGEQ_AUTOMATA_CONTENT_UNION_H_
#define HEDGEQ_AUTOMATA_CONTENT_UNION_H_

#include <cstdint>
#include <vector>

#include "automata/nha.h"
#include "strre/automaton.h"

namespace hedgeq::automata {

/// All rule content NFAs of an NHA glued into one disjoint automaton so one
/// horizontal state (a set of combined states) simulates every content model
/// at once. Shared by the eager subset construction (Theorem 1,
/// automata/determinize.cc) and the lazy engine (automata/lazy_dha.cc).
struct CombinedContent {
  strre::Nfa nfa;  // letters are NHA state ids; start and accept unused
  std::vector<strre::StateId> starts;  // one per rule
  // accept_info[s]: rules (by index) whose content accepts at combined
  // state s.
  std::vector<std::vector<uint32_t>> accept_info;
};

CombinedContent CombineContents(const Nha& nha);

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_CONTENT_UNION_H_
