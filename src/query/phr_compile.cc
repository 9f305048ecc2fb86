#include "query/phr_compile.h"

#include <algorithm>
#include <atomic>

#include "hre/compile.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "strre/ops.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace hedgeq::query {

using automata::Determinize;
using automata::HState;
using automata::LiftToSubsetsBounded;
using automata::Nha;
using strre::Dfa;
using strre::Nfa;

namespace {

std::atomic<PhrProductValidationHook> g_phr_product_hook{nullptr};

// Complete one-state accept-everything DFA over [0, alphabet_size).
Dfa AcceptAllDfa(size_t alphabet_size) {
  Dfa dfa;
  strre::StateId s = dfa.AddState(true);
  for (strre::Symbol a = 0; a < alphabet_size; ++a) {
    dfa.SetTransition(s, a, s);
  }
  return dfa;
}

// A copy of `dfa` whose start row is flipped over the letters in use: each
// dead entry leads to the start state, and each live one dies.
Dfa FlipStartRow(const Dfa& dfa) {
  Dfa out;
  for (strre::StateId s = 0; s < dfa.num_states(); ++s) {
    out.AddState(dfa.IsAccepting(s));
  }
  out.SetStart(dfa.start());
  for (strre::Symbol letter : dfa.AlphabetInUse()) {
    for (strre::StateId s = 0; s < dfa.num_states(); ++s) {
      const strre::StateId to = dfa.Next(s, letter);
      if (s == dfa.start()) {
        if (to == strre::kNoState) out.SetTransition(s, letter, s);
      } else if (to != strre::kNoState) {
        out.SetTransition(s, letter, to);
      }
    }
  }
  return out;
}

}  // namespace

Result<PhrFrontEnd> BuildPhrFrontEnd(const phr::Phr& phr, BudgetScope& scope) {
  // One state set for all M_i1/M_i2 is the paper's "without loss of
  // generality" step: a disjoint union instead of a full cross product (the
  // determinization and the class product play the same role).
  PhrFrontEnd out;
  const size_t n = phr.triplets().size();
  out.elder_final.resize(n);
  out.younger_final.resize(n);
  out.elder_any.resize(n);
  out.younger_any.resize(n);
  // The final NFA of `e` over the union NHA's states.
  auto final_of = [&](const hre::Hre& e, Nfa& final) -> Status {
    Result<Nha> m = hre::CompileHre(e, scope);
    if (!m.ok()) return m.status();
    const HState offset = automata::CopyNhaInto(*m, out.union_nha);
    final = strre::SubstituteSets(m->final_nfa(), [offset](strre::Symbol q) {
      return std::vector<strre::Symbol>{q + offset};
    });
    return Status::Ok();
  };
  for (size_t i = 0; i < n; ++i) {
    const phr::PointedBaseRep& t = phr.triplets()[i];
    out.elder_any[i] = t.elder == nullptr;
    if (!out.elder_any[i]) {
      HEDGEQ_RETURN_IF_ERROR(final_of(t.elder, out.elder_final[i]));
    }
    out.younger_any[i] = t.younger == nullptr;
    if (!out.younger_any[i]) {
      HEDGEQ_RETURN_IF_ERROR(final_of(t.younger, out.younger_final[i]));
    }
    if (t.label >= out.symbol_index.size()) {
      out.symbol_index.resize(t.label + 1, kNoSymbol);
    }
    if (out.symbol_index[t.label] == kNoSymbol) {
      out.symbol_index[t.label] = static_cast<uint32_t>(out.symbols.size());
      out.symbols.push_back(t.label);
    }
  }
  HEDGEQ_RETURN_IF_ERROR(scope.ChargeBytes(
      out.symbol_index.size() * sizeof(uint32_t), "phr/xi"));
  return out;
}

void SetPhrProductValidationHook(PhrProductValidationHook hook) {
  g_phr_product_hook.store(hook, std::memory_order_relaxed);
}

PhrProductValidationHook GetPhrProductValidationHook() {
  return g_phr_product_hook.load(std::memory_order_relaxed);
}

Result<CompiledPhr> CompilePhr(const phr::Phr& phr, BudgetArg budget,
                               PhrWitness* witness) {
  BudgetScope& scope = budget.scope();
  HEDGEQ_FAILPOINT("phr/compile");
  HEDGEQ_OBS_SPAN(span, obs::spans::kPhrCompile);
  CompiledPhr out;
  const size_t n = phr.triplets().size();

  // The inline hook needs a full certificate even when the caller did not
  // ask for one: record into a local in that case.
  PhrWitness local_witness;
  if (witness == nullptr && GetPhrProductValidationHook() != nullptr) {
    witness = &local_witness;
  }

  // --- Shared automaton M: the union NHA of every triplet expression.
  Result<PhrFrontEnd> front = BuildPhrFrontEnd(phr, scope);
  if (!front.ok()) return front.status();
  const std::vector<bool>& elder_any = front->elder_any;
  const std::vector<bool>& younger_any = front->younger_any;
  Result<automata::Determinized> det = Determinize(
      front->union_nha, scope, witness != nullptr ? &witness->det : nullptr);
  if (!det.ok()) return det.status();
  if (witness != nullptr) static_cast<PhrFrontEnd&>(*witness) = *front;
  out.dha_ = std::move(det->dha);
  out.subsets_ = std::move(det->subsets);

  // --- Lift every final language to a DFA over M's (subset) states and
  // take the synchronous product: its states are the classes of ==.
  const size_t num_dha_states = out.dha_.num_states();
  std::vector<Dfa> components;
  components.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    if (elder_any[i]) {
      components.push_back(AcceptAllDfa(num_dha_states));
    } else {
      Result<Dfa> lifted =
          LiftToSubsetsBounded(front->elder_final[i], out.subsets_, scope);
      if (!lifted.ok()) return lifted.status();
      components.push_back(std::move(lifted).value());
    }
    if (younger_any[i]) {
      components.push_back(AcceptAllDfa(num_dha_states));
    } else {
      Result<Dfa> lifted =
          LiftToSubsetsBounded(front->younger_final[i], out.subsets_, scope);
      if (!lifted.ok()) return lifted.status();
      components.push_back(std::move(lifted).value());
    }
  }
  if (witness != nullptr) witness->components = components;
  std::vector<strre::Symbol> state_alphabet;
  state_alphabet.reserve(num_dha_states);
  for (HState q = 0; q < num_dha_states; ++q) state_alphabet.push_back(q);
  HEDGEQ_FAILPOINT("phr/product");
  Result<strre::MultiDfa> multi =
      strre::ProductAllBounded(components, state_alphabet, scope);
  if (!multi.ok()) return multi.status();
  out.equiv_ = std::move(multi->dfa);
  out.num_classes_ = static_cast<uint32_t>(out.equiv_.num_states());

  out.elder_ok_.resize(n);
  out.younger_ok_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.elder_ok_[i] = std::move(multi->component_accepts[2 * i]);
    out.younger_ok_[i] = std::move(multi->component_accepts[2 * i + 1]);
  }

  out.symbols_ = std::move(front->symbols);
  out.symbol_index_ = std::move(front->symbol_index);

  // --- L = xi(L(r)): substitute each triplet letter by its set of
  // (class1, symbol, class2) encodings (the homomorphism image of
  // Theorem 4).
  std::vector<std::vector<strre::Symbol>> images(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t si = out.SymbolIndex(phr.triplets()[i].label);
    HEDGEQ_CHECK(si != CompiledPhr::kNoSymbol);
    // The image of one triplet letter is worst-case classes^2 letters.
    HEDGEQ_RETURN_IF_ERROR(scope.ChargeSteps(
        static_cast<size_t>(out.num_classes_) * out.num_classes_ + 1,
        "phr/xi"));
    for (uint32_t c1 = 0; c1 < out.num_classes_; ++c1) {
      if (!out.elder_ok_[i][c1]) continue;
      for (uint32_t c2 = 0; c2 < out.num_classes_; ++c2) {
        if (!out.younger_ok_[i][c2]) continue;
        images[i].push_back(out.EncodeLetter(c1, si, c2));
      }
    }
    HEDGEQ_RETURN_IF_ERROR(scope.ChargeBytes(
        images[i].size() * sizeof(strre::Symbol), "phr/xi"));
  }
  Nfa regex_nfa = strre::CompileRegex(phr.regex());
  out.language_ = strre::SubstituteSets(
      regex_nfa,
      [&images](strre::Symbol t) { return images[t]; });

  // --- N: deterministic automaton for the mirror image of L.
  HEDGEQ_FAILPOINT("phr/mirror");
  Result<Dfa> mirror =
      strre::DeterminizeBounded(strre::ReverseNfa(out.language_), scope);
  if (!mirror.ok()) return mirror.status();
  out.mirror_ = std::move(mirror).value();
  // Seeded bug for the checker: N's start row comes out flipped.
  if (!failpoint::Check("phr/mirror-flip-row").ok()) {
    out.mirror_ = FlipStartRow(out.mirror_);
  }

  if (PhrProductValidationHook hook = GetPhrProductValidationHook();
      hook != nullptr && witness != nullptr) {
    HEDGEQ_RETURN_IF_ERROR(hook(phr, out, *witness));
  }

  if (obs::Enabled()) {
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrCompileTriplets, n);
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrCompileClasses, out.num_classes_);
    HEDGEQ_OBS_COUNT(obs::metrics::kPhrCompileMirrorStates,
                     out.mirror_.num_states());
    span.AddArg("triplets", n);
    span.AddArg("classes", out.num_classes_);
    span.AddArg("mirror_states", out.mirror_.num_states());
  }
  return out;
}

}  // namespace hedgeq::query
