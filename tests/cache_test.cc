// The persistent automaton cache (src/cache/) and its one invariant:
// never trust cached bytes. Every hit is re-validated by the independent
// certificate checker; every corruption — truncation, garbage, a valid
// certificate of the wrong automaton, a seeded construction bug, any
// injected I/O fault — is rejected, quarantined with its reason, and
// transparently recomputed. The fault matrix at the bottom proves each
// failure mode degrades to the cost of a cold run, never a wrong answer.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "automata/determinize.h"
#include "automata/serialize.h"
#include "cache/cache.h"
#include "hre/ast.h"
#include "hre/compile.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "phr/phr.h"
#include "query/phr_compile.h"
#include "util/budget.h"
#include "util/failpoint.h"
#include "verify/certificate.h"

namespace hedgeq::cache {
namespace {

namespace fs = std::filesystem;
using hedge::Vocabulary;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("hedgeq_cache_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }

  void TearDown() override {
    automata::SetDeterminizeCache(nullptr);
    failpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  automata::Nha Compile(const std::string& expr) {
    auto e = hre::ParseHre(expr, vocab_);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    BudgetScope scope{ExecBudget{}};
    auto nha = hre::CompileHre(*e, scope);
    EXPECT_TRUE(nha.ok()) << nha.status().ToString();
    return std::move(nha).value();
  }

  std::unique_ptr<AutomatonCache> OpenCache() {
    auto c = AutomatonCache::Open(dir_);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    c.value()->BindVocabulary(&vocab_);
    return std::move(c).value();
  }

  std::string Dha(const automata::Dha& dha) {
    return automata::SerializeDha(dha, vocab_);
  }

  // Quarantined entries (excluding their .reason sidecars).
  std::vector<std::string> QuarantinedEntries() {
    std::vector<std::string> names;
    fs::path corrupt = fs::path(dir_) / "corrupt";
    if (!fs::exists(corrupt)) return names;
    for (const auto& entry : fs::directory_iterator(corrupt)) {
      std::string name = entry.path().filename().string();
      if (name.size() < 7 || name.substr(name.size() - 7) != ".reason") {
        names.push_back(entry.path().string());
      }
    }
    return names;
  }

  Vocabulary vocab_;
  std::string dir_;
};

// Enables obs with a zeroed registry for one test, and restores the gates.
struct ObsGuard {
  ObsGuard() {
    obs::Registry().Reset();
    obs::RegisterCatalogue();
    obs::SetEnabled(true);
  }
  ~ObsGuard() {
    obs::SetEnabled(false);
    obs::Registry().Reset();
  }
};

// How many times the span `name` closed since the registry was zeroed.
uint64_t SpanCount(const char* name) {
  for (const obs::SpanAggregate& s : obs::Registry().SpanAggregates()) {
    if (s.name == name) return s.count;
  }
  return 0;
}

// An empty placeholder a Lookup can fill (Dha has no default constructor).
automata::Determinized Placeholder() {
  return automata::Determinized{automata::Dha{1, 1, 0, 0}, {}};
}

TEST_F(CacheTest, MissThenStoreThenValidatedHit) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  automata::Nha nha = Compile("a<b*> | c");

  automata::Determinized out = Placeholder();
  automata::DeterminizeWitness w;
  EXPECT_FALSE(cache->Lookup(nha, &out, &w));
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_TRUE(cache->last_reject_reason().empty()) << "absent entry, no blame";

  BudgetScope scope{ExecBudget{}};
  automata::DeterminizeWitness witness;
  auto det = automata::Determinize(nha, scope, &witness);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  cache->Store(nha, *det, witness);
  EXPECT_EQ(cache->stats().stores, 1u);
  EXPECT_EQ(cache->stats().store_errors, 0u);
  EXPECT_TRUE(fs::exists(cache->EntryPathFor(nha)));

  automata::Determinized hit = Placeholder();
  automata::DeterminizeWitness hw;
  ASSERT_TRUE(cache->Lookup(nha, &hit, &hw));
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().quarantines, 0u);
  EXPECT_EQ(Dha(hit.dha), Dha(det->dha));
  EXPECT_EQ(hit.subsets, det->subsets);
  EXPECT_EQ(hw.h_sets, witness.h_sets);
  EXPECT_EQ(hw.final_sets, witness.final_sets);
}

TEST_F(CacheTest, KeyIsStablePerAutomatonAndDistinctAcrossAutomata) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  automata::Nha a = Compile("a<b*>");
  automata::Nha a2 = Compile("a<b*>");
  automata::Nha b = Compile("(a|b)*");
  EXPECT_EQ(cache->KeyFor(a), cache->KeyFor(a2));
  EXPECT_NE(cache->KeyFor(a), cache->KeyFor(b));
  EXPECT_EQ(cache->KeyFor(a).size(), 32u) << "128-bit hex digest";
}

TEST_F(CacheTest, InstalledCacheServesRepeatDeterminizations) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  automata::SetDeterminizeCache(cache.get());
  automata::Nha nha = Compile("(a|b)* c<$x>");

  auto cold = automata::Determinize(nha);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().stores, 1u);

  auto warm = automata::Determinize(nha);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u) << "second run must not recompute";
  EXPECT_EQ(Dha(warm->dha), Dha(cold->dha));
}

TEST_F(CacheTest, SeededBugInStoredCertificateIsRejectedWithItsHqvCode) {
  automata::Nha nha = Compile("a b*");
  auto reference = automata::Determinize(nha);
  ASSERT_TRUE(reference.ok());

  std::unique_ptr<AutomatonCache> cache = OpenCache();
#ifdef HEDGEQ_CERTIFY
  // Stand the inline-certification hook down so the seeded bug can reach
  // the cache at all; the cache's own checker must then catch it.
  automata::DeterminizeValidationHook saved =
      automata::GetDeterminizeValidationHook();
  automata::SetDeterminizeValidationHook(nullptr);
#endif
  failpoint::Arm("determinize/flip-final");
  automata::SetDeterminizeCache(cache.get());
  auto corrupted = automata::Determinize(nha);
  ASSERT_TRUE(corrupted.ok()) << "the seeded bug flips acceptance silently";
  EXPECT_EQ(cache->stats().stores, 1u) << "the bad certificate was persisted";
  failpoint::DisarmAll();
#ifdef HEDGEQ_CERTIFY
  automata::SetDeterminizeValidationHook(saved);
#endif

  // Warm run: the stored certificate deserializes fine and describes this
  // exact input — only the independent checker can tell it lies. HQV003 is
  // the final-set inconsistency the flipped bit creates.
  auto warm = automata::Determinize(nha);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(cache->stats().hits, 0u) << "a rejected entry must not hit";
  EXPECT_EQ(cache->stats().validate_rejects, 1u);
  EXPECT_EQ(cache->stats().quarantines, 1u);
  EXPECT_NE(cache->last_reject_reason().find("HQV003"), std::string::npos)
      << cache->last_reject_reason();
  EXPECT_EQ(Dha(warm->dha), Dha(reference->dha)) << "recompute heals";

  // The bad entry moved to corrupt/ with a .reason sidecar naming the code.
  std::vector<std::string> quarantined = QuarantinedEntries();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_NE(ReadFile(quarantined[0] + ".reason").find("HQV003"),
            std::string::npos);

  // The recompute re-stored a good certificate; the next run hits.
  auto healed = automata::Determinize(nha);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(Dha(healed->dha), Dha(reference->dha));
}

TEST_F(CacheTest, TamperedEntriesAreQuarantinedNotServed) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  automata::Nha a = Compile("a<b*>");
  BudgetScope scope{ExecBudget{}};
  automata::DeterminizeWitness w;
  auto det = automata::Determinize(a, scope, &w);
  ASSERT_TRUE(det.ok());
  cache->Store(a, *det, w);
  const std::string path = cache->EntryPathFor(a);
  const std::string good = ReadFile(path);
  ASSERT_FALSE(good.empty());

  automata::Determinized out = Placeholder();
  automata::DeterminizeWitness ow;

  // Truncated below the payload size the header promises.
  WriteFile(path, good.substr(0, good.size() - 7));
  EXPECT_FALSE(cache->Lookup(a, &out, &ow));
  EXPECT_NE(cache->last_reject_reason().find("truncated payload"),
            std::string::npos)
      << cache->last_reject_reason();
  EXPECT_FALSE(fs::exists(path)) << "rejected entries leave the hot path";

  // Arbitrary garbage.
  WriteFile(path, "this is not a cache entry\n");
  EXPECT_FALSE(cache->Lookup(a, &out, &ow));
  EXPECT_NE(cache->last_reject_reason().find("malformed header"),
            std::string::npos)
      << cache->last_reject_reason();

  // A *valid* certificate of a different automaton, header key rewritten
  // to collide: deserializes and re-validates clean, but certifies the
  // wrong input. Only the input byte-compare can catch this one.
  automata::Nha b = Compile("c | d");
  const std::string akey = cache->KeyFor(a);
  const std::string bkey = cache->KeyFor(b);
  std::string forged = good;
  size_t pos = forged.find(akey);
  ASSERT_NE(pos, std::string::npos);
  forged.replace(pos, akey.size(), bkey);
  WriteFile(cache->EntryPathFor(b), forged);
  EXPECT_FALSE(cache->Lookup(b, &out, &ow));
  EXPECT_NE(cache->last_reject_reason().find("input mismatch"),
            std::string::npos)
      << cache->last_reject_reason();

  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().quarantines, 3u);
  EXPECT_EQ(QuarantinedEntries().size(), 3u);
  // Structural rejections all carry the malformed-certificate HQV code.
  for (const std::string& entry : QuarantinedEntries()) {
    EXPECT_NE(ReadFile(entry + ".reason").find("HQV001"), std::string::npos)
        << entry;
  }
}

TEST_F(CacheTest, EveryInjectedFaultDegradesToRecomputeNeverWrongAnswer) {
  automata::Nha nha = Compile("(a|b)* c?");
  auto reference = automata::Determinize(nha);
  ASSERT_TRUE(reference.ok());
  const std::string want = Dha(reference->dha);

  struct Fault {
    const char* point;
    bool store_side;  // arm before the cold run (write path) or after it
  };
  const Fault kMatrix[] = {
      {"cache/enospc", true},      // temp-file write fails
      {"cache/rename", true},      // atomic publish fails
      {"cache/torn-write", true},  // half an entry lands on disk anyway
      {"cache/short-read", false},  // a good entry reads back truncated
  };
  for (const Fault& f : kMatrix) {
    SCOPED_TRACE(f.point);
    fs::remove_all(dir_);
    std::unique_ptr<AutomatonCache> cache = OpenCache();
    automata::SetDeterminizeCache(cache.get());

    if (f.store_side) failpoint::Arm(f.point);
    auto cold = automata::Determinize(nha);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(Dha(cold->dha), want);
    if (!f.store_side) failpoint::Arm(f.point);

    auto faulted = automata::Determinize(nha);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_EQ(Dha(faulted->dha), want) << "fault must never change the answer";
    EXPECT_EQ(cache->stats().hits, 0u)
        << "nothing that failed validation may count as a hit";

    const bool write_failed =
        std::string(f.point) == "cache/enospc" ||
        std::string(f.point) == "cache/rename";
    if (write_failed) {
      EXPECT_GT(cache->stats().store_errors, 0u);
      EXPECT_EQ(cache->stats().quarantines, 0u);
      EXPECT_FALSE(fs::exists(cache->EntryPathFor(nha)))
          << "a failed store must not publish an entry";
    } else {
      EXPECT_GT(cache->stats().quarantines, 0u);
      EXPECT_FALSE(QuarantinedEntries().empty());
    }

    // Clear the fault: the pipeline heals without intervention.
    failpoint::DisarmAll();
    auto healed = automata::Determinize(nha);
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(Dha(healed->dha), want);
    auto hit = automata::Determinize(nha);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(Dha(hit->dha), want);
    EXPECT_GT(cache->stats().hits, 0u) << "post-fault runs hit again";
    automata::SetDeterminizeCache(nullptr);
  }
}

TEST_F(CacheTest, InstancesWithDistinctVocabulariesShareOneDirectory) {
  // Entries are content-addressed over the *name-rendered* automaton, so a
  // second process (modelled here as a second instance with a fresh intern
  // table) hits on entries the first one wrote.
  std::unique_ptr<AutomatonCache> writer = OpenCache();
  automata::Nha a = Compile("article<section* figure>");
  BudgetScope scope{ExecBudget{}};
  automata::DeterminizeWitness w;
  auto det = automata::Determinize(a, scope, &w);
  ASSERT_TRUE(det.ok());
  writer->Store(a, *det, w);

  Vocabulary other;
  auto reader = AutomatonCache::Open(dir_);
  ASSERT_TRUE(reader.ok());
  reader.value()->BindVocabulary(&other);
  auto e = hre::ParseHre("article<section* figure>", other);
  ASSERT_TRUE(e.ok());
  BudgetScope scope2{ExecBudget{}};
  auto nha2 = hre::CompileHre(*e, scope2);
  ASSERT_TRUE(nha2.ok());

  EXPECT_EQ(reader.value()->KeyFor(*nha2), writer->KeyFor(a))
      << "content keys are vocabulary-independent";
  automata::Determinized hit = Placeholder();
  automata::DeterminizeWitness hw;
  ASSERT_TRUE(reader.value()->Lookup(*nha2, &hit, &hw));
  EXPECT_EQ(reader.value()->stats().hits, 1u);
  EXPECT_EQ(automata::SerializeDha(hit.dha, other),
            automata::SerializeDha(det->dha, vocab_));
}

TEST_F(CacheTest, ValidatedHitSkipsTheDeterminizeStageSpan) {
  ObsGuard guard;
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  automata::SetDeterminizeCache(cache.get());
  automata::Nha nha = Compile("(a|b)* c<$x>");

  auto cold = automata::Determinize(nha);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(SpanCount(obs::spans::kDeterminize), 1u);
  EXPECT_EQ(SpanCount(obs::spans::kCacheStoreSpan), 1u);

  auto warm = automata::Determinize(nha);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(SpanCount(obs::spans::kDeterminize), 1u)
      << "a validated hit must not open the determinize stage span";
  EXPECT_GE(SpanCount(obs::spans::kCacheLoad), 2u);
  EXPECT_EQ(obs::Registry().GetCounter(obs::metrics::kCacheHit)->value(), 1u);
}

TEST_F(CacheTest, ByteBoundSweepEvictsOldestButNeverJustWrittenEntry) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  cache->set_max_bytes(1);  // smaller than any single entry

  BudgetScope scope{ExecBudget{}};
  automata::Nha first = Compile("a<b*> | c");
  automata::DeterminizeWitness w1;
  auto det1 = automata::Determinize(first, scope, &w1);
  ASSERT_TRUE(det1.ok()) << det1.status().ToString();
  cache->Store(first, *det1, w1);
  // The sole entry exceeds the budget, yet must survive: a cache that
  // evicts what it just wrote can never serve its own key.
  EXPECT_TRUE(fs::exists(cache->EntryPathFor(first)));
  EXPECT_EQ(cache->stats().evictions, 0u);

  // Backdate it so LRU order is unambiguous even on filesystems with
  // coarse mtime resolution.
  fs::last_write_time(
      cache->EntryPathFor(first),
      fs::file_time_type::clock::now() - std::chrono::hours(1));

  automata::Nha second = Compile("(a|b)* c<$x>");
  automata::DeterminizeWitness w2;
  auto det2 = automata::Determinize(second, scope, &w2);
  ASSERT_TRUE(det2.ok()) << det2.status().ToString();
  cache->Store(second, *det2, w2);

  EXPECT_FALSE(fs::exists(cache->EntryPathFor(first)))
      << "over budget, the stale entry must go";
  EXPECT_TRUE(fs::exists(cache->EntryPathFor(second)))
      << "the just-written entry is never swept";
  EXPECT_GE(cache->stats().evictions, 1u);

  automata::Determinized hit = Placeholder();
  automata::DeterminizeWitness hw;
  EXPECT_TRUE(cache->Lookup(second, &hit, &hw))
      << "the survivor must still validate and serve";
  EXPECT_FALSE(cache->Lookup(first, &hit, &hw));
}

TEST_F(CacheTest, AgeBoundSweepExpiresStaleEntriesOnStore) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  cache->set_max_age_seconds(60);

  BudgetScope scope{ExecBudget{}};
  automata::Nha first = Compile("a b*");
  automata::DeterminizeWitness w1;
  auto det1 = automata::Determinize(first, scope, &w1);
  ASSERT_TRUE(det1.ok()) << det1.status().ToString();
  cache->Store(first, *det1, w1);
  fs::last_write_time(
      cache->EntryPathFor(first),
      fs::file_time_type::clock::now() - std::chrono::hours(2));

  automata::Nha second = Compile("(a|b)*");
  automata::DeterminizeWitness w2;
  auto det2 = automata::Determinize(second, scope, &w2);
  ASSERT_TRUE(det2.ok()) << det2.status().ToString();
  cache->Store(second, *det2, w2);

  EXPECT_FALSE(fs::exists(cache->EntryPathFor(first)))
      << "entries past the age bound expire on the next store";
  EXPECT_TRUE(fs::exists(cache->EntryPathFor(second)));
  EXPECT_EQ(cache->stats().evictions, 1u);
}

TEST_F(CacheTest, UnboundedDefaultNeverEvicts) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();

  BudgetScope scope{ExecBudget{}};
  automata::Nha first = Compile("a<b*> | c");
  automata::DeterminizeWitness w1;
  auto det1 = automata::Determinize(first, scope, &w1);
  ASSERT_TRUE(det1.ok()) << det1.status().ToString();
  cache->Store(first, *det1, w1);
  fs::last_write_time(
      cache->EntryPathFor(first),
      fs::file_time_type::clock::now() - std::chrono::hours(48));

  automata::Nha second = Compile("(a|b)*");
  automata::DeterminizeWitness w2;
  auto det2 = automata::Determinize(second, scope, &w2);
  ASSERT_TRUE(det2.ok()) << det2.status().ToString();
  cache->Store(second, *det2, w2);

  EXPECT_TRUE(fs::exists(cache->EntryPathFor(first)))
      << "with both knobs at 0 nothing is ever swept, however old";
  EXPECT_TRUE(fs::exists(cache->EntryPathFor(second)));
  EXPECT_EQ(cache->stats().evictions, 0u);
}

TEST_F(CacheTest, EntrySwappedToAnotherCertificateKindIsQuarantined) {
  // A well-formed minimize certificate smuggled into a determinize entry
  // (header intact, payload length honest) must still be rejected by the
  // kind check in the validation ladder, not accepted for its shape.
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  automata::Nha nha = Compile("a<b*> | c");

  BudgetScope scope{ExecBudget{}};
  automata::DeterminizeWitness witness;
  auto det = automata::Determinize(nha, scope, &witness);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  cache->Store(nha, *det, witness);

  verify::Certificate min_cert = verify::BuildMinimizeCertificate(det->dha);
  std::string payload = verify::SerializeCertificate(min_cert, vocab_);
  std::ostringstream entry;
  entry << "hqcache 2 determinize " << cache->KeyFor(nha) << " "
        << payload.size() << "\n"
        << payload;
  WriteFile(cache->EntryPathFor(nha), entry.str());

  automata::Determinized out = Placeholder();
  automata::DeterminizeWitness hw;
  EXPECT_FALSE(cache->Lookup(nha, &out, &hw));
  EXPECT_EQ(cache->stats().quarantines, 1u);
  EXPECT_NE(cache->last_reject_reason().find("not a determinize certificate"),
            std::string::npos)
      << cache->last_reject_reason();
  EXPECT_EQ(QuarantinedEntries().size(), 1u);
}

TEST_F(CacheTest, LoadRevalidationDefaultsToLightCheck) {
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  ASSERT_EQ(cache->check_mode(), CheckMode::kLight);
  automata::Nha nha = Compile("a<b*> | c");

  BudgetScope scope{ExecBudget{}};
  automata::DeterminizeWitness witness;
  auto det = automata::Determinize(nha, scope, &witness);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  cache->Store(nha, *det, witness);

  automata::Determinized hit{automata::Dha(1, 1, 0, 0), {}};
  automata::DeterminizeWitness hw;
  EXPECT_TRUE(cache->Lookup(nha, &hit, &hw));
  EXPECT_EQ(cache->stats().light_checks, 1u);

  cache->set_check_mode(CheckMode::kFull);
  EXPECT_TRUE(cache->Lookup(nha, &hit, &hw));
  EXPECT_EQ(cache->stats().light_checks, 1u)
      << "full mode must not tick the light-check counter";
}

TEST_F(CacheTest, CompilePhrHitsTheScopedEntryEndToEnd) {
  // A Theorem 4 compile reaches the cache through Determinize's own entry,
  // keyed by the union NHA: the cold compile writes that one entry, and
  // the warm compile hits it without running the determinize stage.
  ObsGuard guard;
  std::unique_ptr<AutomatonCache> cache = OpenCache();
  automata::SetDeterminizeCache(cache.get());

  auto phr = phr::ParsePhr("[a<b*>; doc; *]", vocab_);
  ASSERT_TRUE(phr.ok()) << phr.status().ToString();
  auto cert_entries = [&] {
    size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      n += entry.path().extension() == ".cert";
    }
    return n;
  };

  auto first = query::CompilePhr(*phr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(SpanCount(obs::spans::kDeterminize), 1u);
  EXPECT_EQ(cert_entries(), 1u);
  uint64_t misses_after_cold = cache->stats().misses;
  EXPECT_GE(misses_after_cold, 1u);

  auto second = query::CompilePhr(*phr);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, misses_after_cold)
      << "the warm compile must not miss again";
  EXPECT_EQ(SpanCount(obs::spans::kDeterminize), 1u)
      << "a validated hit must not open the determinize stage span";
  EXPECT_EQ(cert_entries(), 1u);
  EXPECT_EQ(second->num_classes(), first->num_classes());
}

TEST_F(CacheTest, OpenFailsCleanlyWhenDirectoryCannotBeCreated) {
  // A plain file where the cache directory should go: create_directories
  // cannot succeed, and Open must say so instead of half-working.
  WriteFile(dir_, "occupied\n");
  auto cache = AutomatonCache::Open(dir_);
  ASSERT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kFailedPrecondition);
  fs::remove(dir_);
}

}  // namespace
}  // namespace hedgeq::cache
