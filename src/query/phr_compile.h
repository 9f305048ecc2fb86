#ifndef HEDGEQ_QUERY_PHR_COMPILE_H_
#define HEDGEQ_QUERY_PHR_COMPILE_H_

#include <span>
#include <vector>

#include "automata/determinize.h"
#include "automata/dha.h"
#include "phr/phr.h"
#include "strre/automaton.h"
#include "util/status.h"

namespace hedgeq::query {

/// Dense index of a symbol within the triplet alphabet when the symbol
/// occurs in no triplet (such nodes can never be located).
inline constexpr uint32_t kNoSymbol = UINT32_MAX;

/// The Theorem 4 front end, shared by CompilePhr and the lazy engine: the
/// union NHA of every hedge regular expression in the triplets (M before
/// determinization), each triplet's elder/younger final NFA rewritten over
/// the union NHA's states (empty when the triplet has no such condition:
/// see the *_any flags), and the dense index of the triplet alphabet.
struct PhrFrontEnd {
  automata::Nha union_nha;
  std::vector<strre::Nfa> elder_final;
  std::vector<strre::Nfa> younger_final;
  std::vector<bool> elder_any;
  std::vector<bool> younger_any;
  std::vector<hedge::SymbolId> symbols;  // by dense index
  std::vector<uint32_t> symbol_index;    // by SymbolId; kNoSymbol if none
};

/// Builds the front end under `scope`: linear in the representation, it
/// fails only when compiling a triplet's expressions exceeds the budget.
Result<PhrFrontEnd> BuildPhrFrontEnd(const phr::Phr& phr, BudgetScope& scope);

/// Certificate of the Theorem 4 shared determinization: the front end that
/// fed the subset construction (its union NHA before the pipeline consumed
/// it) plus the determinization witness, so verify::CheckDeterminize can
/// validate the query compile's central transformation independently.
/// Theorem 4 class-product extension (verify::CheckPhrProduct): the
/// front end's per-triplet final NFAs and *_any flags, plus the lifted
/// component DFAs exactly as they fed the synchronous product
/// (components[2i] = elder of triplet i, components[2i+1] = younger).
struct PhrWitness : PhrFrontEnd {
  automata::DeterminizeWitness det;
  std::vector<strre::Dfa> components;
};

/// The Theorem 4 artifacts for a pointed hedge representation r:
///  - one deterministic hedge automaton M shared by every hedge regular
///    expression occurring in r's triplets (their union NHA, determinized),
///  - the right-invariant equivalence relation over Q*, realized as a
///    complete DFA over M's states whose states are the classes (the
///    synchronous product of all lifted final-language DFAs saturates every
///    F_i1/F_i2),
///  - saturation tables telling which classes lie inside each F_i1/F_i2,
///  - the regular set L over (Q*/==) x Sigma x (Q*/==) (letters encoded as
///    integers), and
///  - the deterministic string automaton N accepting the mirror image of L
///    (run top-down during the second traversal of Algorithm 1).
/// equiv() and mirror() are dense-row strre::Dfas, so PhrEvaluator::Locate
/// steps them by array reads; the same automata serve the checker and
/// Theorem 5 (schema/match_identify).
class CompiledPhr {
 public:
  /// Dense index of a symbol within the triplet alphabet, or kNoSymbol.
  static constexpr uint32_t kNoSymbol = query::kNoSymbol;

  uint32_t num_classes() const { return num_classes_; }
  uint32_t num_symbols() const {
    return static_cast<uint32_t>(symbols_.size());
  }

  uint32_t SymbolIndex(hedge::SymbolId s) const {
    return s < symbol_index_.size() ? symbol_index_[s] : kNoSymbol;
  }
  /// SymbolIndex as a dense array by SymbolId; ids past its end are in no
  /// triplet.
  std::span<const uint32_t> symbol_index() const { return symbol_index_; }
  hedge::SymbolId SymbolAt(uint32_t index) const { return symbols_[index]; }

  /// Encodes one letter of the triplet alphabet.
  strre::Symbol EncodeLetter(uint32_t elder_class, uint32_t symbol_index,
                             uint32_t younger_class) const {
    return (elder_class * num_symbols() + symbol_index) * num_classes_ +
           younger_class;
  }

  const automata::Dha& dha() const { return dha_; }
  const std::vector<Bitset>& subsets() const { return subsets_; }
  const strre::Dfa& equiv() const { return equiv_; }
  const strre::Nfa& L() const { return language_; }
  const strre::Dfa& mirror() const { return mirror_; }

  /// Does equivalence class `cls` lie inside F_i1 (elder condition of
  /// triplet i)? Unconditional triplets accept every class.
  bool ElderClassOk(size_t triplet, uint32_t cls) const {
    return elder_ok_[triplet][cls];
  }
  bool YoungerClassOk(size_t triplet, uint32_t cls) const {
    return younger_ok_[triplet][cls];
  }
  size_t num_triplets() const { return elder_ok_.size(); }

 private:
  friend Result<CompiledPhr> CompilePhr(const phr::Phr& phr, BudgetArg,
                                        PhrWitness*);

  automata::Dha dha_{1, 1, 0, 0};
  std::vector<Bitset> subsets_;
  strre::Dfa equiv_;
  uint32_t num_classes_ = 0;
  std::vector<hedge::SymbolId> symbols_;
  std::vector<uint32_t> symbol_index_;  // by SymbolId
  std::vector<std::vector<bool>> elder_ok_;
  std::vector<std::vector<bool>> younger_ok_;
  strre::Nfa language_;
  strre::Dfa mirror_;
};

/// Inline certification hook (HEDGEQ_CERTIFY): when installed, every
/// witnessed CompilePhr validates its class product, saturation tables,
/// xi-image language and mirror before returning (a rejection surfaces as
/// the compile's error status). When the caller passed no witness sink,
/// CompilePhr records into a local one so the hook always sees the full
/// certificate. Installed by hedgeq_inline_certify.
using PhrProductValidationHook = Status (*)(const phr::Phr& phr,
                                            const CompiledPhr& compiled,
                                            const PhrWitness& witness);
void SetPhrProductValidationHook(PhrProductValidationHook hook);
PhrProductValidationHook GetPhrProductValidationHook();

/// Theorem 4: compiles a pointed hedge representation. Exponential in the
/// representation size in the worst case (determinization of M and of N,
/// and the class product); the produced artifacts evaluate documents in
/// linear time. Every exponential stage charges `budget` — the caller's
/// scope when the compile is one stage of a larger pipeline, or a fresh
/// one — so compilation fails with kResourceExhausted, naming the stage and
/// the count reached, instead of overrunning; PhrEvaluator falls back to
/// the lazy engine then. When `witness` is non-null the Theorem 4
/// certificate is recorded into it. The shared determinization goes
/// through automata::Determinize, so an installed DeterminizeCache serves
/// it under the union NHA's own key.
Result<CompiledPhr> CompilePhr(const phr::Phr& phr, BudgetArg budget = {},
                               PhrWitness* witness = nullptr);

}  // namespace hedgeq::query

#endif  // HEDGEQ_QUERY_PHR_COMPILE_H_
