#include "automata/content_union.h"

#include "strre/ops.h"

namespace hedgeq::automata {

CombinedContent CombineContents(const Nha& nha) {
  CombinedContent out;
  for (uint32_t rule_index = 0; rule_index < nha.rules().size();
       ++rule_index) {
    const Nha::Rule& rule = nha.rules()[rule_index];
    const strre::StateId offset = strre::CopyInto(rule.content, out.nfa);
    for (strre::StateId s = 0; s < rule.content.num_states(); ++s) {
      out.accept_info.emplace_back();
      if (rule.content.IsAccepting(s)) {
        out.accept_info.back().push_back(rule_index);
      }
    }
    out.starts.push_back(rule.content.start() == strre::kNoState
                             ? strre::kNoState
                             : offset + rule.content.start());
  }
  return out;
}

}  // namespace hedgeq::automata
