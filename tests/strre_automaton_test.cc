#include <gtest/gtest.h>

#include "strre/automaton.h"
#include "strre/ops.h"

namespace hedgeq::strre {
namespace {

std::vector<Symbol> W(std::initializer_list<Symbol> syms) { return syms; }

TEST(NfaTest, HandBuiltAcceptance) {
  // (ab)* by hand.
  Nfa nfa;
  StateId s0 = nfa.AddState(true);
  StateId s1 = nfa.AddState(false);
  nfa.AddTransition(s0, 0, s1);
  nfa.AddTransition(s1, 1, s0);
  EXPECT_TRUE(nfa.Accepts(W({})));
  EXPECT_TRUE(nfa.Accepts(W({0, 1})));
  EXPECT_TRUE(nfa.Accepts(W({0, 1, 0, 1})));
  EXPECT_FALSE(nfa.Accepts(W({0})));
  EXPECT_FALSE(nfa.Accepts(W({1, 0})));
}

TEST(NfaTest, EpsilonMoves) {
  Nfa nfa;
  StateId s0 = nfa.AddState(false);
  StateId s1 = nfa.AddState(false);
  StateId s2 = nfa.AddState(true);
  nfa.AddEpsilon(s0, s1);
  nfa.AddTransition(s1, 5, s2);
  EXPECT_TRUE(nfa.Accepts(W({5})));
  EXPECT_FALSE(nfa.Accepts(W({})));
}

TEST(NfaTest, AlphabetInUse) {
  Nfa nfa;
  StateId s0 = nfa.AddState();
  nfa.AddTransition(s0, 7, s0);
  nfa.AddTransition(s0, 3, s0);
  nfa.AddTransition(s0, 7, s0);
  EXPECT_EQ(nfa.AlphabetInUse(), (std::vector<Symbol>{3, 7}));
}

TEST(DfaTest, RunAndImplicitDead) {
  Dfa dfa;
  StateId s0 = dfa.AddState(false);
  StateId s1 = dfa.AddState(true);
  dfa.SetTransition(s0, 0, s1);
  EXPECT_EQ(dfa.Run(W({0})), s1);
  EXPECT_EQ(dfa.Run(W({1})), kNoState);
  EXPECT_TRUE(dfa.Accepts(W({0})));
  EXPECT_FALSE(dfa.Accepts(W({0, 0})));
}

TEST(DfaTest, NextFromDeadStaysDead) {
  Dfa dfa;
  dfa.AddState(false);
  EXPECT_EQ(dfa.Next(kNoState, 0), kNoState);
}

std::vector<std::pair<Symbol, StateId>> RowOf(const Dfa& dfa, StateId s) {
  std::vector<std::pair<Symbol, StateId>> out;
  for (const auto& [symbol, to] : dfa.Transitions(s)) out.push_back({symbol, to});
  return out;
}

TEST(DfaTest, NextOnAbsentSymbolsIsDead) {
  Dfa dfa;
  StateId s0 = dfa.AddState(false);
  StateId s1 = dfa.AddState(true);
  dfa.SetTransition(s0, 9, s1);
  dfa.SetTransition(s1, 2, s0);
  EXPECT_EQ(dfa.Next(s0, 9), s1);
  EXPECT_EQ(dfa.Next(s1, 2), s0);
  // Used by the other state only, unused below the last column, past the
  // column array's end, and the largest symbol.
  EXPECT_EQ(dfa.Next(s0, 2), kNoState);
  EXPECT_EQ(dfa.Next(s1, 9), kNoState);
  EXPECT_EQ(dfa.Next(s0, 5), kNoState);
  EXPECT_EQ(dfa.Next(s0, 10), kNoState);
  EXPECT_EQ(dfa.Next(s0, UINT32_MAX), kNoState);
  EXPECT_EQ(dfa.Next(kNoState, 9), kNoState);
  EXPECT_EQ(dfa.view().Column(5), 0u);
  EXPECT_EQ(dfa.view().Column(UINT32_MAX), 0u);
}

TEST(DfaTest, TransitionsSkipDeadEntriesInAscendingSymbolOrder) {
  Dfa dfa;
  StateId s0 = dfa.AddState(false);
  StateId s1 = dfa.AddState(false);
  StateId s2 = dfa.AddState(true);
  // Columns are added out of symbol order, and enough of them to regrow
  // the rows several times.
  for (Symbol a : {40u, 3u, 17u, 1000u, 0u, 8u}) dfa.SetTransition(s0, a, s1);
  dfa.SetTransition(s1, 17, s2);
  dfa.SetTransition(s1, 3, s0);
  dfa.SetTransition(s0, 17, s2);  // overwrite
  using Row = std::vector<std::pair<Symbol, StateId>>;
  EXPECT_EQ(RowOf(dfa, s0), (Row{{0, s1}, {3, s1}, {8, s1}, {17, s2},
                                 {40, s1}, {1000, s1}}));
  EXPECT_EQ(RowOf(dfa, s1), (Row{{3, s0}, {17, s2}}));
  EXPECT_TRUE(RowOf(dfa, s2).empty());
  EXPECT_EQ(dfa.AlphabetInUse(), (std::vector<Symbol>{0, 3, 8, 17, 40, 1000}));
  EXPECT_TRUE(dfa.Accepts(W({1000, 17})));
  EXPECT_FALSE(dfa.Accepts(W({1000, 8})));
}

TEST(DfaTest, CopiesAreIndependent) {
  Dfa a;
  StateId s0 = a.AddState(false);
  StateId s1 = a.AddState(true);
  a.SetTransition(s0, 4, s1);
  Dfa b = a;
  b.SetTransition(s0, 4, s0);
  b.SetTransition(s1, 700, s0);
  b.SetAccepting(s0, true);
  b.AddState(false);
  EXPECT_EQ(a.Next(s0, 4), s1);
  EXPECT_EQ(a.Next(s1, 700), kNoState);
  EXPECT_FALSE(a.IsAccepting(s0));
  EXPECT_EQ(a.num_states(), 2u);
  EXPECT_EQ(a.AlphabetInUse(), (std::vector<Symbol>{4}));
  EXPECT_EQ(b.Next(s0, 4), s0);
  EXPECT_EQ(b.Next(s1, 700), s0);
  EXPECT_EQ(b.num_states(), 3u);
}

TEST(EmptyAutomataTest, EmptyNfaAcceptsNothing) {
  Nfa nfa;
  EXPECT_FALSE(nfa.Accepts(W({})));
  EXPECT_TRUE(IsEmpty(nfa));
}

}  // namespace
}  // namespace hedgeq::strre
