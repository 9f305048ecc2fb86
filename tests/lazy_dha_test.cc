// Equivalence of the on-the-fly subset engine (automata/lazy_dha.h) with
// eager Theorem 1 determinization through the shared folds (automata/fold.h,
// automata/streaming.h): same subsets and Theorem 3 marks at every node of
// every label kind, same acceptance in batch and streaming runs — including
// under a cache so small that the LRU evicts constantly.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "automata/determinize.h"
#include "automata/lazy_dha.h"
#include "automata/streaming.h"
#include "hre/compile.h"
#include "strre/ops.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace hedgeq::automata {
namespace {

using hedge::Hedge;
using hedge::NodeId;
using hedge::Vocabulary;
using strre::CompileRegex;
using strre::Concat;
using strre::Star;
using strre::Sym;

class LazyDhaTest : public ::testing::Test {
 protected:
  Hedge Parse(const std::string& text) {
    auto r = ParseHedge(text, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  // The paper's Example 1 automaton (dealer / purchase pairs).
  Nha BuildM1() {
    Nha m;
    HState qd = m.AddState();
    HState qp1 = m.AddState();
    HState qp2 = m.AddState();
    HState qx = m.AddState();
    m.AddVariableState(vocab_.variables.Intern("x"), qx);
    hedge::SymbolId d = vocab_.symbols.Intern("d");
    hedge::SymbolId p = vocab_.symbols.Intern("p");
    m.AddRule(d, CompileRegex(Concat(Sym(qp1), Star(Sym(qp2)))), qd);
    m.AddRule(p, CompileRegex(Concat(Sym(qx), Sym(qx))), qp1);
    m.AddRule(p, CompileRegex(Concat(Sym(qx), Sym(qx))), qp2);
    m.AddRule(p, CompileRegex(Sym(qx)), qp1);
    m.SetFinal(CompileRegex(Star(Sym(qd))));
    return m;
  }

  // A deliberately nondeterministic automaton: accepts hedges over {a,b,x,z}
  // containing an "a" node whose children are all x or z leaves.
  Nha BuildGuesser() {
    Nha m;
    HState any = m.AddState();
    HState hit = m.AddState();
    HState leaf = m.AddState();
    hedge::SymbolId a = vocab_.symbols.Intern("a");
    hedge::SymbolId b = vocab_.symbols.Intern("b");
    m.AddVariableState(vocab_.variables.Intern("x"), leaf);
    m.AddSubstState(vocab_.substs.Intern("z"), leaf);
    strre::Regex anyseq = Star(strre::Alt(Sym(any), Sym(leaf)));
    for (hedge::SymbolId s : {a, b}) {
      m.AddRule(s, CompileRegex(anyseq), any);
      m.AddRule(s, CompileRegex(strre::ConcatAll({anyseq, Sym(hit), anyseq})),
                hit);
    }
    m.AddRule(a, CompileRegex(strre::Plus(Sym(leaf))), hit);
    m.SetFinal(CompileRegex(strre::ConcatAll(
        {Star(strre::Alt(Sym(any), Sym(leaf))), Sym(hit),
         Star(strre::Alt(Sym(any), Sym(leaf)))})));
    return m;
  }

  // Random hedge over a, b and $x leaves; unless `sax_only`, also %z
  // substitution leaves and eta leaves, which SAX events cannot express.
  Hedge RandomDoc(Rng& rng, int size, bool sax_only = false) {
    Hedge h;
    std::vector<NodeId> open = {hedge::kNullNode};
    hedge::SymbolId a = vocab_.symbols.Intern("a");
    hedge::SymbolId b = vocab_.symbols.Intern("b");
    hedge::VarId x = vocab_.variables.Intern("x");
    hedge::SubstId z = vocab_.substs.Intern("z");
    for (int i = 0; i < size; ++i) {
      NodeId parent = open[rng.Below(open.size())];
      switch (rng.Below(sax_only ? 3 : 5)) {
        case 0:
          open.push_back(h.Append(parent, hedge::Label::Symbol(a)));
          break;
        case 1:
          open.push_back(h.Append(parent, hedge::Label::Symbol(b)));
          break;
        case 2:
          h.Append(parent, hedge::Label::Variable(x));
          break;
        case 3:
          h.Append(parent, hedge::Label::Subst(z));
          break;
        default:
          h.Append(parent, hedge::Label::Eta());
          break;
      }
    }
    return h;
  }

  // Asserts lazy and eager agree on `h`: subsets at every node (eta leaves
  // included), acceptance.
  void ExpectAgreement(const Nha& nha, const Determinized& det,
                       const LazyDha& lazy, const Hedge& h) {
    std::vector<HState> eager_run = det.dha.Run(h);
    std::vector<Bitset> lazy_run = lazy.Run(h);
    for (NodeId n = 0; n < h.num_nodes(); ++n) {
      EXPECT_EQ(lazy_run[n], det.subsets[eager_run[n]])
          << "node " << n << " in " << h.ToString(vocab_);
    }
    EXPECT_EQ(lazy.Accepts(h), det.dha.Accepts(h)) << h.ToString(vocab_);
    EXPECT_EQ(lazy.Accepts(h), nha.Accepts(h)) << h.ToString(vocab_);
  }

  Vocabulary vocab_;
};

TEST_F(LazyDhaTest, SubsetsMatchEagerOnPaperExamples) {
  Nha m1 = BuildM1();
  auto det = Determinize(m1);
  ASSERT_TRUE(det.ok());
  LazyDha lazy(m1);
  for (const char* text :
       {"d<p<$x> p<$y>>", "d<p<$x $x> p<$x $x>>", "d<p<$x>>", "",
        "d<p<$x $x>>", "d<p<$x $x> p<$x $x> p<$x $x>>", "p<$x>",
        "d<p<$x $x> p<$x>>", "unheard-of<d<p<$x>>>"}) {
    ExpectAgreement(m1, *det, lazy, Parse(text));
  }
  EXPECT_GT(lazy.stats().states_materialized, 0u);
  EXPECT_GT(lazy.stats().cache_hits, 0u);  // repeats pay a lookup, not work
}

TEST_F(LazyDhaTest, RandomizedAgreementWithEagerAndNha) {
  Nha guesser = BuildGuesser();
  auto det = Determinize(guesser);
  ASSERT_TRUE(det.ok());
  LazyDha lazy(guesser);
  Rng rng(20260806);
  for (int trial = 0; trial < 150; ++trial) {
    ExpectAgreement(guesser, *det, lazy,
                    RandomDoc(rng, 1 + static_cast<int>(rng.Below(40))));
  }
}

TEST_F(LazyDhaTest, MarkedRunMatchesEager) {
  Nha guesser = BuildGuesser();
  auto det = Determinize(guesser);
  ASSERT_TRUE(det.ok());
  LazyDha lazy(guesser);
  Rng rng(31337);
  for (int trial = 0; trial < 60; ++trial) {
    Hedge h = RandomDoc(rng, 1 + static_cast<int>(rng.Below(30)));
    Dha::MarkedRun eager = det->dha.RunWithMarks(h);
    LazyDha::MarkedRun got = lazy.RunWithMarks(h);
    for (NodeId n = 0; n < h.num_nodes(); ++n) {
      EXPECT_EQ(got.marks[n], eager.marks[n])
          << "node " << n << " in " << h.ToString(vocab_);
      EXPECT_EQ(got.states[n], det->subsets[eager.states[n]]);
    }
  }
}

TEST_F(LazyDhaTest, StreamingRunMatchesBatchAcceptance) {
  Nha guesser = BuildGuesser();
  auto det = Determinize(guesser);
  ASSERT_TRUE(det.ok());
  LazyDha lazy(guesser);
  Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    Hedge h = RandomDoc(rng, 1 + static_cast<int>(rng.Below(30)),
                        /*sax_only=*/true);
    StreamingRun<LazyDha> run(lazy);
    StreamingRun<Dha> eager(det->dha);
    // Emit the document as SAX events, children between start and end.
    auto emit = [&](auto&& self, NodeId n) -> void {
      for (; n != hedge::kNullNode; n = h.next_sibling(n)) {
        const hedge::Label label = h.label(n);
        if (label.kind == hedge::LabelKind::kVariable) {
          run.Text(label.id);
          eager.Text(label.id);
        } else if (label.kind == hedge::LabelKind::kSymbol) {
          run.StartElement(label.id);
          eager.StartElement(label.id);
          self(self, h.first_child(n));
          run.EndElement(label.id);
          eager.EndElement(label.id);
        }
      }
    };
    emit(emit, h.roots().empty() ? hedge::kNullNode : h.roots().front());
    EXPECT_FALSE(run.InProgress());
    EXPECT_FALSE(eager.InProgress());
    EXPECT_EQ(run.Accepted(), lazy.Accepts(h)) << h.ToString(vocab_);
    EXPECT_EQ(run.Accepted(), guesser.Accepts(h)) << h.ToString(vocab_);
    EXPECT_EQ(eager.Accepted(), guesser.Accepts(h)) << h.ToString(vocab_);
  }
}

TEST_F(LazyDhaTest, TinyCacheEvictsButStaysCorrect) {
  Nha guesser = BuildGuesser();
  auto det = Determinize(guesser);
  ASSERT_TRUE(det.ok());
  LazyDhaOptions options;
  options.max_cache_bytes = 256;  // a handful of entries at most
  LazyDha lazy(guesser, options);
  Rng rng(4242);
  for (int trial = 0; trial < 80; ++trial) {
    Hedge h = RandomDoc(rng, 1 + static_cast<int>(rng.Below(35)));
    EXPECT_EQ(lazy.Accepts(h), det->dha.Accepts(h)) << h.ToString(vocab_);
  }
  const EvalStats& stats = lazy.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_GT(stats.states_materialized, 0u);
  // The high-water mark can overshoot the cap by at most the one entry
  // that triggered eviction.
  EXPECT_LE(stats.peak_cache_bytes, options.max_cache_bytes + 1024);
}

TEST_F(LazyDhaTest, CopyOwnsItsCache) {
  // Engines are values (automata::HedgeEngine), so a LazyDha may be copied
  // after its caches filled: the copy must index its own entries, not the
  // original's, which here is destroyed before the copy runs.
  Nha guesser = BuildGuesser();
  auto det = Determinize(guesser);
  ASSERT_TRUE(det.ok());
  LazyDhaOptions options;
  // This NHA's whole memo, rows and sets, peaks near 2 KiB over these
  // documents, so a smaller cap is what makes the copy evict.
  options.max_cache_bytes = 512;
  std::optional<LazyDha> original(std::in_place, guesser, options);
  Rng rng(5150);
  for (int trial = 0; trial < 10; ++trial) {
    (void)original->Accepts(RandomDoc(rng, 25));
  }
  LazyDha copy = *original;
  original.reset();
  for (int trial = 0; trial < 40; ++trial) {
    Hedge h = RandomDoc(rng, 1 + static_cast<int>(rng.Below(35)));
    EXPECT_EQ(copy.Accepts(h), det->dha.Accepts(h)) << h.ToString(vocab_);
  }
  EXPECT_GT(copy.stats().cache_hits, 0u);
  EXPECT_GT(copy.stats().cache_evictions, 0u);
}

TEST_F(LazyDhaTest, HreCompiledAutomataAgree) {
  Rng rng(99);
  workload::RandomHedgeOptions doc_options;
  doc_options.target_nodes = 60;
  for (const char* expr :
       {"(a0<%z>*^z|a1<%z>*^z|a2<%z>*^z|a3<%z>*^z|$x)*",
        "a0<%z>*^z (a0<%z>*^z|a1<%z>*^z|$x)*",
        "(a0<(a1<%z>*^z|$x)*>|a1<%z>*^z)*"}) {
    auto e = hre::ParseHre(expr, vocab_);
    ASSERT_TRUE(e.ok()) << expr << ": " << e.status().ToString();
    Nha nha = hre::CompileHre(*e);
    auto det = Determinize(nha);
    ASSERT_TRUE(det.ok()) << expr;
    LazyDha lazy(nha);
    for (int trial = 0; trial < 25; ++trial) {
      Hedge doc = workload::RandomHedge(rng, vocab_, doc_options);
      ExpectAgreement(nha, *det, lazy, doc);
    }
  }
}

TEST_F(LazyDhaTest, StatsResetClearsCounters) {
  Nha m1 = BuildM1();
  LazyDha lazy(m1);
  (void)lazy.Accepts(Parse("d<p<$x $x>>"));
  EXPECT_GT(lazy.stats().states_materialized, 0u);
  lazy.ResetStats();
  EXPECT_EQ(lazy.stats().states_materialized, 0u);
  EXPECT_EQ(lazy.stats().cache_hits, 0u);
  EXPECT_EQ(lazy.stats().cache_evictions, 0u);
}

}  // namespace
}  // namespace hedgeq::automata
