#include "automata/serialize.h"

#include <map>
#include <optional>
#include <sstream>

#include "util/budget.h"
#include "util/strings.h"

namespace hedgeq::automata {

using strre::Nfa;

namespace {

// Header counts size allocations made before any line is read, so a
// corrupt count could ask for many GiB: tables past the default memory
// budget are refused.
const size_t kMaxTableBytes = ExecBudget{}.max_memory_bytes;

void WriteNfa(const Nfa& nfa, std::string& out) {
  out += StrCat("nfa ", nfa.num_states(), " ",
                nfa.start() == strre::kNoState
                    ? std::string("-")
                    : std::to_string(nfa.start()),
                "\n");
  std::string accepts = "accept";
  for (strre::StateId s = 0; s < nfa.num_states(); ++s) {
    if (nfa.IsAccepting(s)) accepts += StrCat(" ", s);
  }
  out += accepts + "\n";
  for (strre::StateId s = 0; s < nfa.num_states(); ++s) {
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      out += StrCat("t ", s, " ", t.symbol, " ", t.to, "\n");
    }
    for (strre::StateId t : nfa.EpsilonsFrom(s)) {
      out += StrCat("e ", s, " ", t, "\n");
    }
  }
  out += "end\n";
}

class LineReader {
 public:
  explicit LineReader(std::string_view text) : lines_(StrSplit(text, '\n')) {}

  bool Done() const { return index_ >= lines_.size(); }

  // Next non-empty line, split on spaces.
  Result<std::vector<std::string>> Next() {
    while (index_ < lines_.size()) {
      std::string_view stripped = StripAsciiWhitespace(lines_[index_]);
      ++index_;
      if (stripped.empty() || stripped[0] == '#') continue;
      std::vector<std::string> fields;
      for (std::string& f : StrSplit(stripped, ' ')) {
        if (!f.empty()) fields.push_back(std::move(f));
      }
      return fields;
    }
    return Status::InvalidArgument("unexpected end of automaton text");
  }

  size_t line() const { return index_; }

 private:
  std::vector<std::string> lines_;
  size_t index_ = 0;
};

Result<uint32_t> ParseU32(const std::string& field) {
  uint32_t value = 0;
  for (char c : field) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrCat("expected a number, got '", field, "'"));
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
  }
  return value;
}

// Reads one nfa block. Its states are charged to `bytes_left`, shared by
// every block of one automaton, before any is allocated.
Result<Nfa> ReadNfa(LineReader& reader, size_t& bytes_left) {
  Result<std::vector<std::string>> header = reader.Next();
  if (!header.ok()) return header.status();
  if (header->size() != 3 || (*header)[0] != "nfa") {
    return Status::InvalidArgument(
        StrCat("expected 'nfa <states> <start>' near line ", reader.line()));
  }
  Result<uint32_t> count = ParseU32((*header)[1]);
  if (!count.ok()) return count.status();
  // Each state holds a transition list and an epsilon list.
  constexpr size_t kStateBytes = 2 * sizeof(std::vector<strre::StateId>);
  if (*count > bytes_left / kStateBytes) {
    return Status::InvalidArgument(
        StrCat("nfa of ", *count, " states exceeds the ", bytes_left,
               " bytes left in the memory budget"));
  }
  bytes_left -= *count * kStateBytes;
  Nfa nfa;
  for (uint32_t s = 0; s < *count; ++s) nfa.AddState(false);
  if ((*header)[2] != "-") {
    Result<uint32_t> start = ParseU32((*header)[2]);
    if (!start.ok()) return start.status();
    if (*start >= *count) {
      return Status::InvalidArgument("nfa start out of range");
    }
    nfa.SetStart(*start);
  }

  Result<std::vector<std::string>> accepts = reader.Next();
  if (!accepts.ok()) return accepts.status();
  if (accepts->empty() || (*accepts)[0] != "accept") {
    return Status::InvalidArgument(
        StrCat("expected 'accept ...' near line ", reader.line()));
  }
  for (size_t i = 1; i < accepts->size(); ++i) {
    Result<uint32_t> s = ParseU32((*accepts)[i]);
    if (!s.ok()) return s.status();
    if (*s >= *count) return Status::InvalidArgument("accept out of range");
    nfa.SetAccepting(*s, true);
  }

  while (true) {
    Result<std::vector<std::string>> fields = reader.Next();
    if (!fields.ok()) return fields.status();
    const std::string& tag = (*fields)[0];
    if (tag == "end") break;
    if (tag == "t" && fields->size() == 4) {
      Result<uint32_t> from = ParseU32((*fields)[1]);
      Result<uint32_t> letter = ParseU32((*fields)[2]);
      Result<uint32_t> to = ParseU32((*fields)[3]);
      if (!from.ok() || !letter.ok() || !to.ok()) {
        return Status::InvalidArgument("bad transition line");
      }
      if (*from >= *count || *to >= *count) {
        return Status::InvalidArgument("transition state out of range");
      }
      nfa.AddTransition(*from, *letter, *to);
    } else if (tag == "e" && fields->size() == 3) {
      Result<uint32_t> from = ParseU32((*fields)[1]);
      Result<uint32_t> to = ParseU32((*fields)[2]);
      if (!from.ok() || !to.ok()) {
        return Status::InvalidArgument("bad epsilon line");
      }
      if (*from >= *count || *to >= *count) {
        return Status::InvalidArgument("epsilon state out of range");
      }
      nfa.AddEpsilon(*from, *to);
    } else {
      return Status::InvalidArgument(
          StrCat("unexpected line in nfa block near line ", reader.line()));
    }
  }
  return nfa;
}

}  // namespace

std::string SerializeNha(const Nha& nha, const hedge::Vocabulary& vocab) {
  std::string out = "nha 1\n";
  out += StrCat("states ", nha.num_states(), "\n");
  // var_map/subst_map are unordered; sort by name so the output is
  // canonical (the certificate layer requires byte-identical round trips).
  std::map<std::string, const std::vector<HState>*> vars;
  for (const auto& [x, states] : nha.var_map()) {
    vars.emplace(std::string(vocab.variables.NameOf(x)), &states);
  }
  for (const auto& [name, states] : vars) {
    std::string line = StrCat("var ", name);
    for (HState q : *states) line += StrCat(" ", q);
    out += line + "\n";
  }
  std::map<std::string, const std::vector<HState>*> substs;
  for (const auto& [z, states] : nha.subst_map()) {
    substs.emplace(std::string(vocab.substs.NameOf(z)), &states);
  }
  for (const auto& [name, states] : substs) {
    std::string line = StrCat("subst ", name);
    for (HState q : *states) line += StrCat(" ", q);
    out += line + "\n";
  }
  for (const Nha::Rule& rule : nha.rules()) {
    out += StrCat("rule ", vocab.symbols.NameOf(rule.symbol), " ",
                  rule.target, "\n");
    WriteNfa(rule.content, out);
  }
  out += "final\n";
  WriteNfa(nha.final_nfa(), out);
  return out;
}

Result<Nha> DeserializeNha(std::string_view text, hedge::Vocabulary& vocab) {
  LineReader reader(text);
  Result<std::vector<std::string>> magic = reader.Next();
  if (!magic.ok()) return magic.status();
  if (magic->size() != 2 || (*magic)[0] != "nha" || (*magic)[1] != "1") {
    return Status::InvalidArgument("expected 'nha 1' header");
  }
  Result<std::vector<std::string>> states_line = reader.Next();
  if (!states_line.ok()) return states_line.status();
  if (states_line->size() != 2 || (*states_line)[0] != "states") {
    return Status::InvalidArgument("expected 'states <n>'");
  }
  Result<uint32_t> num_states = ParseU32((*states_line)[1]);
  if (!num_states.ok()) return num_states.status();
  // Determinization charges at least 8 bytes per NHA state up front.
  if (*num_states > kMaxTableBytes / 8) {
    return Status::InvalidArgument(StrCat(
        "nha of ", *num_states, " states exceeds ", kMaxTableBytes, " bytes"));
  }
  size_t nfa_bytes_left = kMaxTableBytes;

  Nha nha;
  nha.AddStates(*num_states);

  while (true) {
    Result<std::vector<std::string>> fields = reader.Next();
    if (!fields.ok()) return fields.status();
    const std::string& tag = (*fields)[0];
    if (tag == "var" || tag == "subst") {
      if (fields->size() < 2) {
        return Status::InvalidArgument(StrCat("bad ", tag, " line"));
      }
      for (size_t i = 2; i < fields->size(); ++i) {
        Result<uint32_t> q = ParseU32((*fields)[i]);
        if (!q.ok()) return q.status();
        if (*q >= *num_states) {
          return Status::InvalidArgument(StrCat(tag, " state out of range"));
        }
        if (tag == "var") {
          nha.AddVariableState(vocab.variables.Intern((*fields)[1]), *q);
        } else {
          nha.AddSubstState(vocab.substs.Intern((*fields)[1]), *q);
        }
      }
    } else if (tag == "rule") {
      if (fields->size() != 3) {
        return Status::InvalidArgument("expected 'rule <symbol> <target>'");
      }
      Result<uint32_t> target = ParseU32((*fields)[2]);
      if (!target.ok()) return target.status();
      if (*target >= *num_states) {
        return Status::InvalidArgument("rule target out of range");
      }
      Result<Nfa> content = ReadNfa(reader, nfa_bytes_left);
      if (!content.ok()) return content.status();
      nha.AddRule(vocab.symbols.Intern((*fields)[1]),
                  std::move(content).value(), *target);
    } else if (tag == "final") {
      Result<Nfa> final_nfa = ReadNfa(reader, nfa_bytes_left);
      if (!final_nfa.ok()) return final_nfa.status();
      nha.SetFinal(std::move(final_nfa).value());
      return nha;
    } else {
      return Status::InvalidArgument(
          StrCat("unexpected directive '", tag, "' near line ",
                 reader.line()));
    }
  }
}

std::string SerializeDha(const Dha& dha, const hedge::Vocabulary& vocab) {
  std::string out = "dha 1\n";
  out += StrCat("states ", dha.num_states(), " ", dha.sink(), "\n");
  out += StrCat("hstates ", dha.num_h_states(), " ", dha.h_start(), "\n");
  for (HhState h = 0; h < dha.num_h_states(); ++h) {
    for (HState q = 0; q < dha.num_states(); ++q) {
      HhState to = dha.HNext(h, q);
      if (to != dha.h_start()) out += StrCat("h ", h, " ", q, " ", to, "\n");
    }
  }
  std::map<std::string, const std::vector<HState>*> assigns;
  for (const auto& [symbol, row] : dha.assign_map()) {
    assigns.emplace(std::string(vocab.symbols.NameOf(symbol)), &row);
  }
  for (const auto& [name, row] : assigns) {
    for (HhState h = 0; h < row->size(); ++h) {
      out += StrCat("assign ", name, " ", h, " ", (*row)[h], "\n");
    }
  }
  std::map<std::string, HState> vars;
  for (const auto& [x, q] : dha.var_map()) {
    vars.emplace(std::string(vocab.variables.NameOf(x)), q);
  }
  for (const auto& [name, q] : vars) out += StrCat("var ", name, " ", q, "\n");
  std::map<std::string, HState> substs;
  for (const auto& [z, q] : dha.subst_map()) {
    substs.emplace(std::string(vocab.substs.NameOf(z)), q);
  }
  for (const auto& [name, q] : substs) {
    out += StrCat("subst ", name, " ", q, "\n");
  }
  const strre::Dfa& final = dha.final_dfa();
  out += StrCat("final ", final.num_states(), " ",
                final.start() == strre::kNoState
                    ? std::string("-")
                    : std::to_string(final.start()),
                "\n");
  std::string accepts = "accept";
  for (strre::StateId s = 0; s < final.num_states(); ++s) {
    if (final.IsAccepting(s)) accepts += StrCat(" ", s);
  }
  out += accepts + "\n";
  for (strre::StateId s = 0; s < final.num_states(); ++s) {
    for (const auto& [letter, to] : final.Transitions(s)) {
      out += StrCat("d ", s, " ", letter, " ", to, "\n");
    }
  }
  out += "end\n";
  return out;
}

Result<Dha> DeserializeDha(std::string_view text, hedge::Vocabulary& vocab) {
  LineReader reader(text);
  Result<std::vector<std::string>> magic = reader.Next();
  if (!magic.ok()) return magic.status();
  if (magic->size() != 2 || (*magic)[0] != "dha" || (*magic)[1] != "1") {
    return Status::InvalidArgument("expected 'dha 1' header");
  }
  Result<std::vector<std::string>> states_line = reader.Next();
  if (!states_line.ok()) return states_line.status();
  if (states_line->size() != 3 || (*states_line)[0] != "states") {
    return Status::InvalidArgument("expected 'states <n> <sink>'");
  }
  Result<uint32_t> num_states = ParseU32((*states_line)[1]);
  Result<uint32_t> sink = ParseU32((*states_line)[2]);
  if (!num_states.ok()) return num_states.status();
  if (!sink.ok()) return sink.status();
  if (*num_states == 0 || *sink >= *num_states) {
    return Status::InvalidArgument("dha sink out of range");
  }
  Result<std::vector<std::string>> h_line = reader.Next();
  if (!h_line.ok()) return h_line.status();
  if (h_line->size() != 3 || (*h_line)[0] != "hstates") {
    return Status::InvalidArgument("expected 'hstates <n> <start>'");
  }
  Result<uint32_t> num_h = ParseU32((*h_line)[1]);
  Result<uint32_t> h_start = ParseU32((*h_line)[2]);
  if (!num_h.ok()) return num_h.status();
  if (!h_start.ok()) return h_start.status();
  if (*num_h == 0 || *h_start >= *num_h) {
    return Status::InvalidArgument("dha horizontal start out of range");
  }
  // The header sizes tables allocated before any line is read, so a
  // corrupt count could ask for many GiB: refuse tables past the default
  // memory budget.
  if (*num_h > kMaxTableBytes / sizeof(HhState) / *num_states) {
    return Status::InvalidArgument(
        StrCat("dha horizontal table of ", *num_h, " x ", *num_states,
               " entries exceeds ", kMaxTableBytes, " bytes"));
  }

  Dha dha(*num_states, *num_h, *h_start, *sink);
  while (true) {
    Result<std::vector<std::string>> fields = reader.Next();
    if (!fields.ok()) return fields.status();
    const std::string& tag = (*fields)[0];
    if (tag == "h") {
      if (fields->size() != 4) {
        return Status::InvalidArgument("expected 'h <from> <q> <to>'");
      }
      Result<uint32_t> from = ParseU32((*fields)[1]);
      Result<uint32_t> q = ParseU32((*fields)[2]);
      Result<uint32_t> to = ParseU32((*fields)[3]);
      if (!from.ok() || !q.ok() || !to.ok()) {
        return Status::InvalidArgument("bad horizontal transition line");
      }
      if (*from >= *num_h || *to >= *num_h || *q >= *num_states) {
        return Status::InvalidArgument(
            "horizontal transition out of range");
      }
      dha.SetHTransition(*from, *q, *to);
    } else if (tag == "assign") {
      if (fields->size() != 4) {
        return Status::InvalidArgument("expected 'assign <symbol> <h> <q>'");
      }
      Result<uint32_t> h = ParseU32((*fields)[2]);
      Result<uint32_t> q = ParseU32((*fields)[3]);
      if (!h.ok() || !q.ok()) {
        return Status::InvalidArgument("bad assign line");
      }
      if (*h >= *num_h || *q >= *num_states) {
        return Status::InvalidArgument("assignment out of range");
      }
      // A symbol's first line allocates its row of num_h states: refuse the
      // row past the bound before its name reaches the vocabulary.
      const std::optional<hedge::SymbolId> known =
          vocab.symbols.Find((*fields)[1]);
      if ((!known.has_value() || !dha.assign_map().contains(*known)) &&
          dha.assign_map().size() + 1 >
              kMaxTableBytes / sizeof(HState) / *num_h) {
        return Status::InvalidArgument(
            StrCat("dha assignment rows of ", *num_h, " states exceed ",
                   kMaxTableBytes, " bytes"));
      }
      dha.SetAssign(vocab.symbols.Intern((*fields)[1]), *h, *q);
    } else if (tag == "var" || tag == "subst") {
      if (fields->size() != 3) {
        return Status::InvalidArgument(StrCat("bad ", tag, " line"));
      }
      Result<uint32_t> q = ParseU32((*fields)[2]);
      if (!q.ok()) return q.status();
      if (*q >= *num_states) {
        return Status::InvalidArgument(StrCat(tag, " state out of range"));
      }
      if (tag == "var") {
        dha.SetVariableState(vocab.variables.Intern((*fields)[1]), *q);
      } else {
        dha.SetSubstState(vocab.substs.Intern((*fields)[1]), *q);
      }
    } else if (tag == "final") {
      if (fields->size() != 3) {
        return Status::InvalidArgument("expected 'final <states> <start>'");
      }
      Result<uint32_t> count = ParseU32((*fields)[1]);
      if (!count.ok()) return count.status();
      // A row costs at least one cell and one accepting flag.
      if (*count > kMaxTableBytes / (sizeof(strre::StateId) + 1)) {
        return Status::InvalidArgument(
            StrCat("final dfa of ", *count, " states exceeds ",
                   kMaxTableBytes, " bytes"));
      }
      strre::Dfa final;
      for (uint32_t s = 0; s < *count; ++s) final.AddState(false);
      if ((*fields)[2] != "-") {
        Result<uint32_t> start = ParseU32((*fields)[2]);
        if (!start.ok()) return start.status();
        if (*start >= *count) {
          return Status::InvalidArgument("final dfa start out of range");
        }
        final.SetStart(*start);
      } else {
        // AddState auto-started the DFA on its first state; "-" means the
        // serialized automaton genuinely had none, so undo that or the
        // round trip is not canonical.
        final.SetStart(strre::kNoState);
      }
      Result<std::vector<std::string>> accepts = reader.Next();
      if (!accepts.ok()) return accepts.status();
      if (accepts->empty() || (*accepts)[0] != "accept") {
        return Status::InvalidArgument("expected 'accept ...' in final dfa");
      }
      for (size_t i = 1; i < accepts->size(); ++i) {
        Result<uint32_t> s = ParseU32((*accepts)[i]);
        if (!s.ok()) return s.status();
        if (*s >= *count) {
          return Status::InvalidArgument("final accept out of range");
        }
        final.SetAccepting(*s, true);
      }
      while (true) {
        Result<std::vector<std::string>> edge = reader.Next();
        if (!edge.ok()) return edge.status();
        if ((*edge)[0] == "end") break;
        if ((*edge)[0] != "d" || edge->size() != 4) {
          return Status::InvalidArgument(
              StrCat("unexpected line in final dfa near line ",
                     reader.line()));
        }
        Result<uint32_t> from = ParseU32((*edge)[1]);
        Result<uint32_t> letter = ParseU32((*edge)[2]);
        Result<uint32_t> to = ParseU32((*edge)[3]);
        if (!from.ok() || !letter.ok() || !to.ok()) {
          return Status::InvalidArgument("bad final dfa transition line");
        }
        // Letters are M's states; an out-of-range one would also size the
        // final DFA's dense column array.
        if (*from >= *count || *to >= *count || *letter >= *num_states) {
          return Status::InvalidArgument(
              "final dfa transition out of range");
        }
        final.SetTransition(*from, *letter, *to);
      }
      dha.SetFinalDfa(std::move(final));
      return dha;
    } else {
      return Status::InvalidArgument(
          StrCat("unexpected directive '", tag, "' near line ",
                 reader.line()));
    }
  }
}

}  // namespace hedgeq::automata
