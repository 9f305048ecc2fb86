#ifndef HEDGEQ_AUTOMATA_SERIALIZE_H_
#define HEDGEQ_AUTOMATA_SERIALIZE_H_

#include <string>
#include <string_view>

#include "automata/dha.h"
#include "automata/nha.h"
#include "hedge/hedge.h"

namespace hedgeq::automata {

/// Text serialization of non-deterministic hedge automata, so compiled
/// queries and schemas can be cached across processes. Names (element,
/// variable, substitution) are stored as strings and re-interned on load;
/// state ids and NFA structure are stored verbatim. The format is
/// line-oriented and versioned:
///
///   nha 1
///   states <n>
///   var <name> <q>...
///   subst <name> <q>...
///   rule <symbol> <target>
///   <nfa block>
///   final
///   <nfa block>
///
/// where an nfa block is
///
///   nfa <states> <start|->
///   accept <s>...
///   t <from> <letter> <to>
///   e <from> <to>
///   end
std::string SerializeNha(const Nha& nha, const hedge::Vocabulary& vocab);

/// Inverse of SerializeNha; new names are interned into `vocab`. State
/// counts whose lists would outgrow the default memory budget
/// (ExecBudget{}.max_memory_bytes) are rejected with kInvalidArgument before
/// anything is allocated.
Result<Nha> DeserializeNha(std::string_view text, hedge::Vocabulary& vocab);

/// Text serialization of deterministic hedge automata, used by the
/// certificate layer (verify::Certificate) to persist subset-construction
/// output next to its witness. Deterministic byte output: maps are emitted
/// sorted by name/id. Format:
///
///   dha 1
///   states <n> <sink>
///   hstates <num_h> <h_start>
///   h <from> <q> <to>            (omitted when <to> equals h_start)
///   assign <symbol> <h> <q>      (full row, one line per horizontal state)
///   var <name> <q>
///   subst <name> <q>
///   final <states> <start|->
///   accept <s>...
///   d <from> <letter> <to>
///   end
std::string SerializeDha(const Dha& dha, const hedge::Vocabulary& vocab);

/// Inverse of SerializeDha; new names are interned into `vocab`. Rejects
/// structurally malformed input (out-of-range states, duplicate rows,
/// truncated blocks) with kInvalidArgument, and so tables (the header's,
/// each new symbol's assignment row) that would outgrow the default memory
/// budget, before they are allocated or the symbol is interned.
Result<Dha> DeserializeDha(std::string_view text, hedge::Vocabulary& vocab);

}  // namespace hedgeq::automata

#endif  // HEDGEQ_AUTOMATA_SERIALIZE_H_
