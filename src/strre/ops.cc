#include "strre/ops.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "util/check.h"

namespace hedgeq::strre {

namespace {

// Fragment of a Thompson NFA under construction: entry and exit states.
struct Fragment {
  StateId in;
  StateId out;
};

Fragment BuildThompson(const Regex& e, Nfa& nfa) {
  StateId in = nfa.AddState();
  StateId out = nfa.AddState();
  switch (e->kind()) {
    case RegexKind::kEmptySet:
      break;  // no path from in to out
    case RegexKind::kEpsilon:
      nfa.AddEpsilon(in, out);
      break;
    case RegexKind::kSymbol:
      nfa.AddTransition(in, e->symbol(), out);
      break;
    case RegexKind::kConcat: {
      Fragment a = BuildThompson(e->left(), nfa);
      Fragment b = BuildThompson(e->right(), nfa);
      nfa.AddEpsilon(in, a.in);
      nfa.AddEpsilon(a.out, b.in);
      nfa.AddEpsilon(b.out, out);
      break;
    }
    case RegexKind::kUnion: {
      Fragment a = BuildThompson(e->left(), nfa);
      Fragment b = BuildThompson(e->right(), nfa);
      nfa.AddEpsilon(in, a.in);
      nfa.AddEpsilon(in, b.in);
      nfa.AddEpsilon(a.out, out);
      nfa.AddEpsilon(b.out, out);
      break;
    }
    case RegexKind::kStar: {
      Fragment a = BuildThompson(e->left(), nfa);
      nfa.AddEpsilon(in, a.in);
      nfa.AddEpsilon(in, out);
      nfa.AddEpsilon(a.out, a.in);
      nfa.AddEpsilon(a.out, out);
      break;
    }
    case RegexKind::kPlus: {
      Fragment a = BuildThompson(e->left(), nfa);
      nfa.AddEpsilon(in, a.in);
      nfa.AddEpsilon(a.out, a.in);
      nfa.AddEpsilon(a.out, out);
      break;
    }
    case RegexKind::kOptional: {
      Fragment a = BuildThompson(e->left(), nfa);
      nfa.AddEpsilon(in, a.in);
      nfa.AddEpsilon(in, out);
      nfa.AddEpsilon(a.out, out);
      break;
    }
  }
  return {in, out};
}

}  // namespace

StateId CopyInto(const Nfa& src, Nfa& dst) {
  StateId offset = static_cast<StateId>(dst.num_states());
  for (StateId s = 0; s < src.num_states(); ++s) {
    dst.AddState(src.IsAccepting(s));
  }
  for (StateId s = 0; s < src.num_states(); ++s) {
    for (const Nfa::Transition& t : src.TransitionsFrom(s)) {
      dst.AddTransition(offset + s, t.symbol, offset + t.to);
    }
    for (StateId t : src.EpsilonsFrom(s)) {
      dst.AddEpsilon(offset + s, offset + t);
    }
  }
  return offset;
}

Bitset UsableLetters(const Nfa& nfa, const Bitset& allowed,
                     size_t num_letters) {
  Bitset usable(num_letters);
  if (nfa.num_states() == 0 || nfa.start() == kNoState) return usable;
  auto letter_ok = [&](strre::Symbol p) {
    return p < allowed.size() && allowed.Test(p);
  };
  Bitset fwd(nfa.num_states());
  std::deque<StateId> queue;
  fwd.Set(nfa.start());
  queue.push_back(nfa.start());
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (letter_ok(t.symbol) && !fwd.Test(t.to)) {
        fwd.Set(t.to);
        queue.push_back(t.to);
      }
    }
    for (StateId t : nfa.EpsilonsFrom(s)) {
      if (!fwd.Test(t)) {
        fwd.Set(t);
        queue.push_back(t);
      }
    }
  }
  std::vector<std::vector<StateId>> rev(nfa.num_states());
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (letter_ok(t.symbol)) rev[t.to].push_back(s);
    }
    for (StateId t : nfa.EpsilonsFrom(s)) rev[t].push_back(s);
  }
  Bitset bwd(nfa.num_states());
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    if (nfa.IsAccepting(s)) {
      bwd.Set(s);
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    for (StateId t : rev[s]) {
      if (!bwd.Test(t)) {
        bwd.Set(t);
        queue.push_back(t);
      }
    }
  }
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    if (!fwd.Test(s)) continue;
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (letter_ok(t.symbol) && bwd.Test(t.to) && t.symbol < num_letters) {
        usable.Set(t.symbol);
      }
    }
  }
  return usable;
}

Nfa CompileRegex(const Regex& e) {
  Nfa nfa;
  Fragment f = BuildThompson(e, nfa);
  nfa.SetStart(f.in);
  nfa.SetAccepting(f.out, true);
  return nfa;
}

Status ChargeTableGrowth(const Dfa& dfa, size_t& charged, BudgetScope& scope,
                         const char* stage) {
  const size_t bytes = dfa.TableBytes();
  if (bytes <= charged) return Status::Ok();
  const size_t growth = bytes - charged;
  charged = bytes;
  return scope.ChargeBytes(growth, stage);
}

Dfa Determinize(const Nfa& nfa) {
  BudgetScope scope(ExecBudget::Unlimited());
  Result<Dfa> out = DeterminizeBounded(nfa, scope);
  HEDGEQ_CHECK_MSG(out.ok(), "unbounded Determinize cannot fail");
  return std::move(out).value();
}

Result<Dfa> DeterminizeBounded(const Nfa& nfa, BudgetScope& scope) {
  Dfa dfa;
  if (nfa.num_states() == 0 || nfa.start() == kNoState) {
    dfa.AddState(false);
    return dfa;
  }
  std::unordered_map<Bitset, StateId, BitsetHash> ids;
  std::deque<Bitset> worklist;

  Status charge_status;
  size_t table_bytes = 0;
  auto intern = [&](Bitset subset) -> StateId {
    auto it = ids.find(subset);
    if (it != ids.end()) return it->second;
    bool accepting = false;
    for (uint32_t s : subset.ToVector()) {
      if (nfa.IsAccepting(s)) {
        accepting = true;
        break;
      }
    }
    if (charge_status.ok()) {
      Status st = scope.ChargeStates(1, "strre/determinize");
      if (st.ok()) {
        st = scope.ChargeBytes(2 * subset.ApproxBytes() + 32,
                               "strre/determinize");
      }
      if (!st.ok()) charge_status = std::move(st);
    }
    StateId id = dfa.AddState(accepting);
    ids.emplace(subset, id);
    worklist.push_back(std::move(subset));
    return id;
  };

  Bitset start(nfa.num_states());
  start.Set(nfa.start());
  nfa.EpsilonClosure(start);
  intern(std::move(start));

  while (!worklist.empty()) {
    if (!charge_status.ok()) return charge_status;
    Bitset subset = std::move(worklist.front());
    worklist.pop_front();
    StateId from = ids.at(subset);
    // Group successors by symbol.
    std::map<Symbol, Bitset> moves;
    size_t steps = 1;
    for (uint32_t s : subset.ToVector()) {
      for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
        ++steps;
        auto [it, inserted] = moves.try_emplace(t.symbol, nfa.num_states());
        it->second.Set(t.to);
      }
    }
    HEDGEQ_RETURN_IF_ERROR(scope.ChargeSteps(steps, "strre/determinize"));
    for (auto& [symbol, target] : moves) {
      nfa.EpsilonClosure(target);
      StateId to = intern(std::move(target));
      dfa.SetTransition(from, symbol, to);
    }
    if (charge_status.ok()) {
      charge_status =
          ChargeTableGrowth(dfa, table_bytes, scope, "strre/determinize");
    }
  }
  if (!charge_status.ok()) return charge_status;
  return dfa;
}

Dfa Complete(const Dfa& dfa, std::span<const Symbol> alphabet) {
  Dfa out;
  for (StateId s = 0; s < dfa.num_states(); ++s) {
    out.AddState(dfa.IsAccepting(s));
  }
  if (dfa.num_states() == 0) {
    out.AddState(false);  // lone sink doubles as start
    for (Symbol a : alphabet) out.SetTransition(0, a, 0);
    return out;
  }
  out.SetStart(dfa.start());
  StateId sink = kNoState;
  auto get_sink = [&]() {
    if (sink == kNoState) {
      sink = out.AddState(false);
      for (Symbol a : alphabet) out.SetTransition(sink, a, sink);
    }
    return sink;
  };
  for (StateId s = 0; s < dfa.num_states(); ++s) {
    for (const auto& [symbol, to] : dfa.Transitions(s)) {
      out.SetTransition(s, symbol, to);
    }
    for (Symbol a : alphabet) {
      if (dfa.Next(s, a) == kNoState) out.SetTransition(s, a, get_sink());
    }
  }
  return out;
}

Dfa Complement(const Dfa& dfa, std::span<const Symbol> alphabet) {
  Dfa total = Complete(dfa, alphabet);
  Dfa out;
  for (StateId s = 0; s < total.num_states(); ++s) {
    out.AddState(!total.IsAccepting(s));
  }
  out.SetStart(total.start());
  for (StateId s = 0; s < total.num_states(); ++s) {
    for (const auto& [symbol, to] : total.Transitions(s)) {
      out.SetTransition(s, symbol, to);
    }
  }
  return out;
}

Dfa Minimize(const Dfa& dfa, std::span<const Symbol> alphabet) {
  Dfa total = Complete(dfa, alphabet);

  // Drop unreachable states first.
  std::vector<bool> reachable(total.num_states(), false);
  std::deque<StateId> queue;
  reachable[total.start()] = true;
  queue.push_back(total.start());
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    for (const auto& [symbol, to] : total.Transitions(s)) {
      if (!reachable[to]) {
        reachable[to] = true;
        queue.push_back(to);
      }
    }
  }

  // Moore refinement: class id per state, refined by transition signatures.
  std::vector<int> cls(total.num_states(), -1);
  for (StateId s = 0; s < total.num_states(); ++s) {
    if (reachable[s]) cls[s] = total.IsAccepting(s) ? 1 : 0;
  }
  size_t num_classes = 2;
  while (true) {
    std::map<std::vector<int>, int> signature_ids;
    std::vector<int> next_cls(total.num_states(), -1);
    for (StateId s = 0; s < total.num_states(); ++s) {
      if (!reachable[s]) continue;
      std::vector<int> sig;
      sig.reserve(alphabet.size() + 1);
      sig.push_back(cls[s]);
      for (Symbol a : alphabet) {
        StateId t = total.Next(s, a);
        sig.push_back(t == kNoState ? -1 : cls[t]);
      }
      auto [it, inserted] =
          signature_ids.try_emplace(std::move(sig),
                                    static_cast<int>(signature_ids.size()));
      next_cls[s] = it->second;
    }
    if (signature_ids.size() == num_classes) break;
    num_classes = signature_ids.size();
    cls = std::move(next_cls);
  }

  // Detect the sink class (non-accepting, all transitions self) so it can
  // stay implicit in the output.
  std::vector<int> representative(num_classes, -1);
  for (StateId s = 0; s < total.num_states(); ++s) {
    if (reachable[s] && representative[static_cast<size_t>(cls[s])] == -1) {
      representative[static_cast<size_t>(cls[s])] = static_cast<int>(s);
    }
  }
  int sink_class = -1;
  for (size_t c = 0; c < num_classes; ++c) {
    StateId rep = static_cast<StateId>(representative[c]);
    if (total.IsAccepting(rep)) continue;
    bool all_self = true;
    for (Symbol a : alphabet) {
      StateId t = total.Next(rep, a);
      if (t == kNoState || cls[t] != static_cast<int>(c)) {
        all_self = false;
        break;
      }
    }
    if (all_self && static_cast<int>(c) != cls[total.start()]) {
      sink_class = static_cast<int>(c);
      break;
    }
  }

  // Build the quotient automaton.
  Dfa out;
  std::vector<StateId> class_state(num_classes, kNoState);
  for (size_t c = 0; c < num_classes; ++c) {
    if (static_cast<int>(c) == sink_class) continue;
    StateId rep = static_cast<StateId>(representative[c]);
    class_state[c] = out.AddState(total.IsAccepting(rep));
  }
  out.SetStart(class_state[static_cast<size_t>(cls[total.start()])]);
  for (size_t c = 0; c < num_classes; ++c) {
    if (static_cast<int>(c) == sink_class) continue;
    StateId rep = static_cast<StateId>(representative[c]);
    for (Symbol a : alphabet) {
      StateId t = total.Next(rep, a);
      HEDGEQ_CHECK(t != kNoState);
      int tc = cls[t];
      if (tc == sink_class) continue;  // implicit dead
      out.SetTransition(class_state[c], a, class_state[static_cast<size_t>(tc)]);
    }
  }
  return out;
}

Dfa Product(const Dfa& a, const Dfa& b, BoolOp op) {
  Dfa out;
  // Pair states; kNoState components model the implicit sink of either side.
  struct PairHash {
    size_t operator()(const std::pair<StateId, StateId>& p) const {
      return std::hash<uint64_t>()((uint64_t{p.first} << 32) | p.second);
    }
  };
  std::unordered_map<std::pair<StateId, StateId>, StateId, PairHash> ids;
  std::deque<std::pair<StateId, StateId>> worklist;

  auto is_accepting = [&](StateId sa, StateId sb) {
    bool aa = sa != kNoState && a.IsAccepting(sa);
    bool ba = sb != kNoState && b.IsAccepting(sb);
    switch (op) {
      case BoolOp::kAnd:
        return aa && ba;
      case BoolOp::kOr:
        return aa || ba;
      case BoolOp::kDiff:
        return aa && !ba;
    }
    return false;
  };

  auto intern = [&](StateId sa, StateId sb) -> StateId {
    auto key = std::make_pair(sa, sb);
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    StateId id = out.AddState(is_accepting(sa, sb));
    ids.emplace(key, id);
    worklist.push_back(key);
    return id;
  };

  StateId sa0 = a.num_states() == 0 ? kNoState : a.start();
  StateId sb0 = b.num_states() == 0 ? kNoState : b.start();
  if (sa0 == kNoState && sb0 == kNoState) {
    out.AddState(false);
    return out;
  }
  intern(sa0, sb0);

  while (!worklist.empty()) {
    auto [sa, sb] = worklist.front();
    worklist.pop_front();
    StateId from = ids.at({sa, sb});
    // Explore every symbol with a live successor on either side.
    std::vector<Symbol> symbols;
    if (sa != kNoState) {
      for (const auto& [symbol, to] : a.Transitions(sa)) {
        symbols.push_back(symbol);
      }
    }
    if (sb != kNoState) {
      for (const auto& [symbol, to] : b.Transitions(sb)) {
        symbols.push_back(symbol);
      }
    }
    std::sort(symbols.begin(), symbols.end());
    symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());
    for (Symbol symbol : symbols) {
      StateId ta = a.Next(sa, symbol);
      StateId tb = b.Next(sb, symbol);
      if (ta == kNoState && tb == kNoState) continue;  // implicit dead pair
      // For intersection, a dead component kills the pair: skip exploring.
      if (op == BoolOp::kAnd && (ta == kNoState || tb == kNoState)) continue;
      out.SetTransition(from, symbol, intern(ta, tb));
    }
  }
  return out;
}

Nfa IntersectNfa(const Nfa& a, const Nfa& b) {
  return ProductNfa(a, b, [](Symbol x, Symbol y) -> std::optional<Symbol> {
    if (x == y) return x;
    return std::nullopt;
  });
}

Nfa UnionNfa(const Nfa& a, const Nfa& b) {
  Nfa out;
  StateId start = out.AddState();
  StateId oa = CopyInto(a, out);
  StateId ob = CopyInto(b, out);
  out.SetStart(start);
  if (a.start() != kNoState) out.AddEpsilon(start, oa + a.start());
  if (b.start() != kNoState) out.AddEpsilon(start, ob + b.start());
  return out;
}

Nfa ConcatNfa(const Nfa& a, const Nfa& b) {
  Nfa out;
  StateId oa = CopyInto(a, out);
  StateId ob = CopyInto(b, out);
  if (a.start() != kNoState) out.SetStart(oa + a.start());
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (a.IsAccepting(s)) {
      out.SetAccepting(oa + s, false);
      if (b.start() != kNoState) out.AddEpsilon(oa + s, ob + b.start());
    }
  }
  for (StateId s = 0; s < b.num_states(); ++s) {
    out.SetAccepting(ob + s, b.IsAccepting(s));
  }
  return out;
}

Nfa StarNfa(const Nfa& a) {
  Nfa out;
  StateId start = out.AddState(true);
  StateId oa = CopyInto(a, out);
  out.SetStart(start);
  if (a.start() != kNoState) out.AddEpsilon(start, oa + a.start());
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (a.IsAccepting(s)) out.AddEpsilon(oa + s, start);
  }
  return out;
}

Nfa NfaFromDfa(const Dfa& d) {
  Nfa out;
  for (StateId s = 0; s < d.num_states(); ++s) out.AddState(d.IsAccepting(s));
  if (d.num_states() > 0) out.SetStart(d.start());
  for (StateId s = 0; s < d.num_states(); ++s) {
    for (const auto& [symbol, to] : d.Transitions(s)) {
      out.AddTransition(s, symbol, to);
    }
  }
  return out;
}

Nfa ReverseNfa(const Nfa& a) {
  Nfa out;
  for (StateId s = 0; s < a.num_states(); ++s) out.AddState(false);
  // Fresh start with epsilons into every accepting state of `a`.
  StateId start = out.AddState(false);
  out.SetStart(start);
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (a.IsAccepting(s)) out.AddEpsilon(start, s);
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      out.AddTransition(t.to, t.symbol, s);
    }
    for (StateId t : a.EpsilonsFrom(s)) {
      out.AddEpsilon(t, s);
    }
  }
  if (a.start() != kNoState) out.SetAccepting(a.start(), true);
  return out;
}

Nfa SubstituteSets(const Nfa& a,
                   const std::function<std::vector<Symbol>(Symbol)>& image) {
  Nfa out;
  for (StateId s = 0; s < a.num_states(); ++s) out.AddState(a.IsAccepting(s));
  if (a.start() != kNoState) out.SetStart(a.start());
  for (StateId s = 0; s < a.num_states(); ++s) {
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      for (Symbol b : image(t.symbol)) {
        out.AddTransition(s, b, t.to);
      }
    }
    for (StateId t : a.EpsilonsFrom(s)) out.AddEpsilon(s, t);
  }
  return out;
}

bool AcceptsChoices(const Nfa& nfa,
                    const std::vector<std::vector<Symbol>>& choices) {
  if (nfa.num_states() == 0 || nfa.start() == kNoState) return false;
  Bitset current(nfa.num_states());
  current.Set(nfa.start());
  nfa.EpsilonClosure(current);
  for (const std::vector<Symbol>& letters : choices) {
    Bitset next(nfa.num_states());
    for (uint32_t s : current.ToVector()) {
      for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
        for (Symbol a : letters) {
          if (t.symbol == a) {
            next.Set(t.to);
            break;
          }
        }
      }
    }
    nfa.EpsilonClosure(next);
    current = std::move(next);
    if (current.None()) return false;
  }
  for (uint32_t s : current.ToVector()) {
    if (nfa.IsAccepting(s)) return true;
  }
  return false;
}

bool IsEmpty(const Dfa& dfa) { return !ShortestWitness(dfa).has_value(); }

bool IsEmpty(const Nfa& nfa) {
  if (nfa.num_states() == 0 || nfa.start() == kNoState) return true;
  Bitset seen(nfa.num_states());
  std::deque<StateId> queue;
  seen.Set(nfa.start());
  queue.push_back(nfa.start());
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    if (nfa.IsAccepting(s)) return false;
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (!seen.Test(t.to)) {
        seen.Set(t.to);
        queue.push_back(t.to);
      }
    }
    for (StateId t : nfa.EpsilonsFrom(s)) {
      if (!seen.Test(t)) {
        seen.Set(t);
        queue.push_back(t);
      }
    }
  }
  return true;
}

std::optional<std::vector<Symbol>> ShortestWitness(const Dfa& dfa) {
  if (dfa.num_states() == 0 || dfa.start() == kNoState) return std::nullopt;
  std::vector<bool> seen(dfa.num_states(), false);
  // Parent links for witness reconstruction.
  std::vector<StateId> parent(dfa.num_states(), kNoState);
  std::vector<Symbol> via(dfa.num_states(), 0);
  std::deque<StateId> queue;
  seen[dfa.start()] = true;
  queue.push_back(dfa.start());
  StateId found = kNoState;
  while (!queue.empty() && found == kNoState) {
    StateId s = queue.front();
    queue.pop_front();
    if (dfa.IsAccepting(s)) {
      found = s;
      break;
    }
    for (const auto& [symbol, to] : dfa.Transitions(s)) {
      if (!seen[to]) {
        seen[to] = true;
        parent[to] = s;
        via[to] = symbol;
        queue.push_back(to);
      }
    }
  }
  if (found == kNoState) return std::nullopt;
  std::vector<Symbol> witness;
  for (StateId s = found; s != dfa.start(); s = parent[s]) {
    witness.push_back(via[s]);
  }
  std::reverse(witness.begin(), witness.end());
  return witness;
}

bool Equivalent(const Dfa& a, const Dfa& b, std::span<const Symbol> alphabet) {
  (void)alphabet;  // implicit-dead products already cover the full alphabet
  return IsEmpty(Product(a, b, BoolOp::kDiff)) &&
         IsEmpty(Product(b, a, BoolOp::kDiff));
}

Dfa MinimalDfaOfRegex(const Regex& e, std::span<const Symbol> alphabet) {
  return Minimize(Determinize(CompileRegex(e)), alphabet);
}

Regex NfaToRegex(const Nfa& nfa) {
  if (nfa.num_states() == 0 || nfa.start() == kNoState) return EmptySet();
  // GNFA over states [0, n) plus super-start n and super-accept n+1; edge
  // regexes live in a dense matrix (EmptySet = no edge).
  const size_t n = nfa.num_states();
  const size_t start = n;
  const size_t accept = n + 1;
  std::vector<std::vector<Regex>> edge(
      n + 2, std::vector<Regex>(n + 2, EmptySet()));
  for (StateId s = 0; s < n; ++s) {
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      edge[s][t.to] = Alt(edge[s][t.to], Sym(t.symbol));
    }
    for (StateId t : nfa.EpsilonsFrom(s)) {
      edge[s][t] = Alt(edge[s][t], Epsilon());
    }
    if (nfa.IsAccepting(s)) edge[s][accept] = Epsilon();
  }
  edge[start][nfa.start()] = Epsilon();

  auto is_empty = [](const Regex& r) {
    return r->kind() == RegexKind::kEmptySet;
  };
  // Eliminate states in min-degree order (fewest in x out rewired pairs),
  // simplifying as we go — both matter enormously for output readability.
  std::vector<bool> eliminated(n, false);
  for (size_t round = 0; round < n; ++round) {
    size_t best = n;
    size_t best_cost = SIZE_MAX;
    for (size_t k = 0; k < n; ++k) {
      if (eliminated[k]) continue;
      size_t in = 0, out = 0;
      for (size_t i = 0; i < n + 2; ++i) {
        if (i != k && !is_empty(edge[i][k])) ++in;
        if (i != k && !is_empty(edge[k][i])) ++out;
      }
      if (in * out < best_cost) {
        best_cost = in * out;
        best = k;
      }
    }
    size_t k = best;
    eliminated[k] = true;
    Regex loop = Star(edge[k][k]);
    for (size_t i = 0; i < n + 2; ++i) {
      if (i == k || is_empty(edge[i][k])) continue;
      for (size_t j = 0; j < n + 2; ++j) {
        if (j == k || is_empty(edge[k][j])) continue;
        edge[i][j] = SimplifyRegex(
            Alt(edge[i][j], Concat(Concat(edge[i][k], loop), edge[k][j])));
      }
    }
    for (size_t i = 0; i < n + 2; ++i) {
      edge[i][k] = EmptySet();
      edge[k][i] = EmptySet();
    }
  }
  return SimplifyRegex(edge[start][accept]);
}

MultiDfa ProductAll(std::span<const Dfa> components,
                    std::span<const Symbol> alphabet) {
  BudgetScope scope(ExecBudget::Unlimited());
  Result<MultiDfa> out = ProductAllBounded(components, alphabet, scope);
  HEDGEQ_CHECK_MSG(out.ok(), "unbounded ProductAll cannot fail");
  return std::move(out).value();
}

Result<MultiDfa> ProductAllBounded(std::span<const Dfa> components,
                                   std::span<const Symbol> alphabet,
                                   BudgetScope& scope) {
  MultiDfa out;
  out.component_accepts.resize(components.size());

  std::map<std::vector<StateId>, StateId> ids;
  std::deque<std::vector<StateId>> worklist;

  Status charge_status;
  size_t table_bytes = 0;
  auto intern = [&](std::vector<StateId> tuple) -> StateId {
    auto it = ids.find(tuple);
    if (it != ids.end()) return it->second;
    StateId id = out.dfa.AddState(false);
    for (size_t i = 0; i < components.size(); ++i) {
      bool acc = tuple[i] != kNoState && components[i].IsAccepting(tuple[i]);
      out.component_accepts[i].push_back(acc);
    }
    if (charge_status.ok()) {
      Status st = scope.ChargeStates(1, "strre/product");
      if (st.ok()) {
        st = scope.ChargeBytes(
            2 * tuple.size() * sizeof(StateId) + components.size() + 64,
            "strre/product");
      }
      if (!st.ok()) charge_status = std::move(st);
    }
    ids.emplace(tuple, id);
    worklist.push_back(std::move(tuple));
    return id;
  };

  std::vector<StateId> start(components.size());
  for (size_t i = 0; i < components.size(); ++i) {
    start[i] = components[i].num_states() == 0 ? kNoState
                                               : components[i].start();
  }
  intern(std::move(start));

  while (!worklist.empty()) {
    if (!charge_status.ok()) return charge_status;
    std::vector<StateId> tuple = std::move(worklist.front());
    worklist.pop_front();
    StateId from = ids.at(tuple);
    HEDGEQ_RETURN_IF_ERROR(scope.ChargeSteps(
        alphabet.size() * components.size() + 1, "strre/product"));
    for (Symbol a : alphabet) {
      std::vector<StateId> next(components.size());
      for (size_t i = 0; i < components.size(); ++i) {
        next[i] = components[i].Next(tuple[i], a);
      }
      StateId to = intern(std::move(next));
      out.dfa.SetTransition(from, a, to);
    }
    if (charge_status.ok()) {
      charge_status =
          ChargeTableGrowth(out.dfa, table_bytes, scope, "strre/product");
    }
  }
  if (!charge_status.ok()) return charge_status;
  return out;
}

}  // namespace hedgeq::strre
