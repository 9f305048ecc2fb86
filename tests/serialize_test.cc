#include <gtest/gtest.h>

#include "automata/determinize.h"
#include "automata/serialize.h"
#include "hre/compile.h"
#include "schema/schema.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/generators.h"

namespace hedgeq::automata {
namespace {

using hedge::Hedge;
using hedge::Vocabulary;

TEST(SerializeTest, RoundTripPreservesLanguage) {
  Vocabulary vocab;
  Rng rng(707);
  for (const char* expr :
       {"a", "(a|b)* c", "a<b<$x> c>*", "a<%z>*^z", "d<p<$x> p<$y>*>+",
        "(b|c) @z a<%z>"}) {
    auto e = hre::ParseHre(expr, vocab);
    ASSERT_TRUE(e.ok());
    Nha original = hre::CompileHre(*e);
    std::string text = SerializeNha(original, vocab);

    // Load into a FRESH vocabulary: names must re-intern consistently.
    Vocabulary vocab2;
    auto loaded = DeserializeNha(text, vocab2);
    ASSERT_TRUE(loaded.ok()) << expr << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->num_states(), original.num_states());
    EXPECT_EQ(loaded->rules().size(), original.rules().size());

    for (int trial = 0; trial < 30; ++trial) {
      workload::RandomHedgeOptions options;
      options.target_nodes = 1 + rng.Below(10);
      // Same generator stream against both vocabularies: the documents are
      // structurally identical because names intern in the same order.
      Rng fork1 = rng;
      Rng fork2 = rng;
      Hedge doc1 = workload::RandomHedge(fork1, vocab, options);
      Hedge doc2 = workload::RandomHedge(fork2, vocab2, options);
      rng = fork1;
      ASSERT_EQ(original.Accepts(doc1), loaded->Accepts(doc2)) << expr;
    }
  }
}

TEST(SerializeTest, SchemaRoundTrip) {
  Vocabulary vocab;
  auto schema = schema::ParseSchema(
      "start = A\nA = a<B* C?>\nB = b<>\nC = $t\n", vocab);
  ASSERT_TRUE(schema.ok());
  std::string text = SerializeNha(schema->nha(), vocab);
  auto loaded = DeserializeNha(text, vocab);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const char* doc : {"a", "a<b b>", "a<$t>", "a<b $t>", "a<$t b>", "b"}) {
    auto h = ParseHedge(doc, vocab);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(schema->nha().Accepts(*h), loaded->Accepts(*h)) << doc;
  }
}

TEST(SerializeTest, RejectsMalformedInput) {
  Vocabulary vocab;
  EXPECT_FALSE(DeserializeNha("", vocab).ok());
  EXPECT_FALSE(DeserializeNha("nha 2\nstates 1\nfinal\n", vocab).ok());
  EXPECT_FALSE(DeserializeNha("nha 1\nstates x\n", vocab).ok());
  EXPECT_FALSE(
      DeserializeNha("nha 1\nstates 1\nrule a 5\nnfa 0 -\naccept\nend\n"
                     "final\nnfa 0 -\naccept\nend\n",
                     vocab)
          .ok());  // target out of range
  EXPECT_FALSE(
      DeserializeNha("nha 1\nstates 1\nbogus\n", vocab).ok());
  // Truncated nfa block.
  EXPECT_FALSE(
      DeserializeNha("nha 1\nstates 1\nfinal\nnfa 2 0\naccept 1\nt 0 0 1\n",
                     vocab)
          .ok());
}

TEST(SerializeTest, NhaStateCountsPastTheMemoryBudgetFailFast) {
  // Counts whose state lists would outgrow the default budget are refused
  // before a single state is allocated: the NHA's own count, and one nfa
  // block's.
  Vocabulary vocab;
  for (const char* text :
       {"nha 1\nstates 4294967295\nfinal\nnfa 0 -\naccept\nend\n",
        "nha 1\nstates 1\nfinal\nnfa 4294967295 -\naccept\nend\n",
        "nha 1\nstates 1\nrule a 0\nnfa 4294967295 -\naccept\nend\n"
        "final\nnfa 0 -\naccept\nend\n"}) {
    SCOPED_TRACE(text);
    Result<Nha> loaded = DeserializeNha(text, vocab);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(vocab.symbols.Find("a"), std::nullopt);
}

TEST(SerializeTest, DhaRoundTripIsByteIdentical) {
  Vocabulary vocab;
  for (const char* expr :
       {"a", "(a|b)* c<$x>", "a<b<$x> c>*", "a<%z>*^z", "(b|c) @z a<%z>"}) {
    auto e = hre::ParseHre(expr, vocab);
    ASSERT_TRUE(e.ok());
    Nha nha = hre::CompileHre(*e);
    BudgetScope scope{ExecBudget{}};
    auto det = Determinize(nha, scope);
    ASSERT_TRUE(det.ok()) << expr;
    std::string text = SerializeDha(det->dha, vocab);

    Vocabulary vocab2;
    auto loaded = DeserializeDha(text, vocab2);
    ASSERT_TRUE(loaded.ok()) << expr << ": " << loaded.status().ToString();
    // Re-serializing the loaded automaton against the fresh vocabulary must
    // reproduce the exact bytes (the format is canonical).
    EXPECT_EQ(SerializeDha(*loaded, vocab2), text) << expr;

    Rng rng(19);
    for (int trial = 0; trial < 20; ++trial) {
      workload::RandomHedgeOptions options;
      options.target_nodes = 1 + rng.Below(8);
      Rng fork1 = rng;
      Rng fork2 = rng;
      Hedge doc1 = workload::RandomHedge(fork1, vocab, options);
      Hedge doc2 = workload::RandomHedge(fork2, vocab2, options);
      rng = fork1;
      ASSERT_EQ(det->dha.Accepts(doc1), loaded->Accepts(doc2)) << expr;
    }
  }
}

TEST(SerializeTest, DhaRejectsMalformedInput) {
  Vocabulary vocab;
  EXPECT_FALSE(DeserializeDha("", vocab).ok());
  EXPECT_FALSE(DeserializeDha("nha 1\n", vocab).ok());
  EXPECT_FALSE(DeserializeDha("dha 2\nstates 1 0\n", vocab).ok());
  EXPECT_FALSE(DeserializeDha("dha 1\nstates x 0\n", vocab).ok());
  // Sink out of range.
  EXPECT_FALSE(
      DeserializeDha("dha 1\nstates 1 4\nhstates 1 0\nfinal 1 0\nend\n",
                     vocab)
          .ok());
  // Assignment references a horizontal state that does not exist.
  EXPECT_FALSE(
      DeserializeDha("dha 1\nstates 1 0\nhstates 1 0\nassign a 7 0\n"
                     "final 1 0\nend\n",
                     vocab)
          .ok());
  // Every check on an assign line, the bound on new rows included, runs
  // before its symbol is interned.
  EXPECT_EQ(vocab.symbols.Find("a"), std::nullopt);
  // Transition target out of range in the lifted final DFA.
  EXPECT_FALSE(
      DeserializeDha("dha 1\nstates 1 0\nhstates 1 0\nfinal 1 0\n"
                     "accept\nd 0 0 9\nend\n",
                     vocab)
          .ok());
  // Final-DFA letters are M's states: one past them, and the largest u32,
  // which would otherwise size the DFA's dense column array.
  for (const char* letter : {"1", "4294967295"}) {
    SCOPED_TRACE(letter);
    Result<Dha> loaded = DeserializeDha(
        StrCat("dha 1\nstates 1 0\nhstates 1 0\nfinal 1 0\naccept 0\nd 0 ",
               letter, " 0\nend\n"),
        vocab);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // The same line with an in-range letter loads.
  EXPECT_TRUE(
      DeserializeDha("dha 1\nstates 1 0\nhstates 1 0\nfinal 1 0\n"
                     "accept 0\nd 0 0 0\nend\n",
                     vocab)
          .ok());
  // Header counts whose tables would outgrow the default memory budget are
  // refused before anything is allocated: the horizontal table (states x
  // hstates) and the final DFA's rows.
  for (const char* header :
       {"dha 1\nstates 4294967295 0\nhstates 4294967295 0\n",
        "dha 1\nstates 65536 0\nhstates 65536 0\n",
        "dha 1\nstates 1 0\nhstates 1 0\nfinal 4294967295 0\n"}) {
    SCOPED_TRACE(header);
    Result<Dha> loaded =
        DeserializeDha(StrCat(header, "final 1 0\naccept\nend\n"), vocab);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Accepting state out of range.
  EXPECT_FALSE(
      DeserializeDha("dha 1\nstates 1 0\nhstates 1 0\nfinal 1 0\n"
                     "accept 3\nend\n",
                     vocab)
          .ok());
  // Missing end trailer.
  EXPECT_FALSE(
      DeserializeDha("dha 1\nstates 1 0\nhstates 1 0\nfinal 1 0\n", vocab)
          .ok());

  // Sanity: a real serialization still loads after this gauntlet.
  auto e = hre::ParseHre("a<b*>", vocab);
  ASSERT_TRUE(e.ok());
  Nha nha = hre::CompileHre(*e);
  BudgetScope scope{ExecBudget{}};
  auto det = Determinize(nha, scope);
  ASSERT_TRUE(det.ok());
  EXPECT_TRUE(DeserializeDha(SerializeDha(det->dha, vocab), vocab).ok());
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  Vocabulary vocab;
  auto schema = schema::ParseSchema("start = A\nA = a<>\n", vocab);
  ASSERT_TRUE(schema.ok());
  std::string text = SerializeNha(schema->nha(), vocab);
  std::string padded = "# cached automaton\n\n" + text + "\n# trailing\n";
  auto loaded = DeserializeNha(padded, vocab);
  ASSERT_TRUE(loaded.ok());
  auto h = ParseHedge("a", vocab);
  EXPECT_TRUE(loaded->Accepts(*h));
}

}  // namespace
}  // namespace hedgeq::automata
