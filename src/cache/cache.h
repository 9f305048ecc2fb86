#ifndef HEDGEQ_CACHE_CACHE_H_
#define HEDGEQ_CACHE_CACHE_H_

// hedgeq::cache — a content-addressed, cross-process persistent cache for
// compiled automata, installed into the determinize pipeline through the
// automata::DeterminizeCache hook.
//
// The one invariant everything here serves: **never trust cached bytes**.
// A lookup only returns a hit after the stored certificate has been
// re-validated from scratch by the independent checker (verify/checker.h)
// *and* the stored input automaton byte-compares equal to the input being
// determinized. Anything else — truncated file, flipped bit, wrong version,
// hash collision, a write torn by a crash — is rejected with its HQV
// diagnostic code, moved into the `corrupt/` subdirectory for post-mortem,
// and transparently recomputed. The cache can therefore make queries
// faster but never wrong: the worst possible corruption degrades to the
// cost of a cold run plus one rename.
//
// Crash and contention safety. Entries are written to a unique temp file
// in the cache directory and published with an atomic rename, so readers
// never observe a partially written entry under POSIX rename semantics.
// Concurrent writers of the same key are benign: both produce a valid
// entry for the same content hash and the last rename wins. Concurrent
// processes sharing a directory need no locks.
//
// Fault injection. Four util/failpoint points cover the I/O failure modes
// the propagation-matrix test (tests/cache_test.cc) proves all degrade to
// a recompute, never a wrong answer:
//   cache/torn-write   Store publishes a half-written payload (simulating
//                      a filesystem without atomic-rename durability)
//   cache/short-read   Lookup sees a truncated read of a good entry
//   cache/enospc       the temp-file write fails (disk full)
//   cache/rename       the publishing rename fails

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "automata/determinize.h"
#include "automata/nha.h"
#include "hedge/hedge.h"
#include "util/status.h"

namespace hedgeq::cache {

/// Monotonic per-instance totals, mirrored into the obs `cache.*` counters.
/// `hits` counts only fully re-validated entries; every `validate_rejects`
/// is also a `quarantines` (quarantine additionally counts entries that
/// failed before the checker ran: bad header, undeserializable payload,
/// input mismatch).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t validate_rejects = 0;
  uint64_t quarantines = 0;
  uint64_t stores = 0;
  uint64_t store_errors = 0;
  uint64_t evictions = 0;
  uint64_t light_checks = 0;
};

/// How Lookup revalidates a stored certificate before serving it.
enum class CheckMode {
  /// verify::CheckCertificateLight — the per-step digest chain plus a
  /// seeded sample of full subset re-derivations and a full final-DFA
  /// walk. The default: it cuts the revalidation share of a cache hit
  /// (automata.determinize.certify_frac_pct) while corruption anywhere in
  /// the entry is still caught deterministically (HQV016).
  kLight,
  /// Full verify::CheckCertificate re-derivation on every hit
  /// (`--check=full`).
  kFull,
};

/// The persistent automaton cache. Thread-compatible: one instance must
/// not be shared across threads without external synchronization, but any
/// number of instances (in any number of processes) may share one cache
/// directory — cross-instance safety is purely filesystem-level.
class AutomatonCache final : public automata::DeterminizeCache {
 public:
  /// Opens (creating if needed) `dir` and its `corrupt/` subdirectory.
  /// Fails with kFailedPrecondition when the directories cannot be
  /// created.
  static Result<std::unique_ptr<AutomatonCache>> Open(std::string dir);

  /// Binds the vocabulary used to render automata to their canonical text
  /// form. Must be called before Lookup/Store; the returned DHA's symbol
  /// ids are only meaningful against this vocabulary, so it must be the
  /// one the querying pipeline interns into.
  void BindVocabulary(hedge::Vocabulary* vocab) { vocab_ = vocab; }

  /// automata::DeterminizeCache: returns true only for an entry that
  /// passed the full validation ladder (header, exact length,
  /// deserialize, input byte-compare, certificate check).
  bool Lookup(const automata::Nha& input, automata::Determinized* out,
              automata::DeterminizeWitness* witness) override;

  /// automata::DeterminizeCache: fire-and-forget persistence via
  /// temp-file + atomic rename. Failures are counted, never propagated.
  void Store(const automata::Nha& input, const automata::Determinized& out,
             const automata::DeterminizeWitness& witness) override;

  /// Content key of `input` under the bound vocabulary: a 128-bit hex
  /// digest of the canonical serialized automaton plus the entry-format
  /// version, so a format bump invalidates old entries by construction.
  std::string KeyFor(const automata::Nha& input) const;

  /// Where the entry for `input` lives ("<dir>/<key>.cert"); the file may
  /// not exist. Exposed for tests and the check.sh tamper gate.
  std::string EntryPathFor(const automata::Nha& input) const;

  /// Selects how Lookup revalidates entries (default CheckMode::kLight);
  /// `hedgeq_verify --check=full` and the E16 benchmark flip this.
  void set_check_mode(CheckMode mode) { check_mode_ = mode; }
  CheckMode check_mode() const { return check_mode_; }

  const CacheStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }

  /// Bounds the total size of `*.cert` entries in the directory; 0 (the
  /// default) means unbounded. When a Store pushes the directory over the
  /// bound, entries are evicted oldest-mtime-first (LRU by publish time)
  /// until it fits again — the just-published entry is never evicted, so
  /// a bound smaller than one entry still leaves the cache functional.
  void set_max_bytes(uint64_t max_bytes) { max_bytes_ = max_bytes; }
  uint64_t max_bytes() const { return max_bytes_; }

  /// Age bound on entries, in seconds since last publish; 0 (the default)
  /// means no age bound. Expired entries are swept on the next Store.
  void set_max_age_seconds(uint64_t seconds) { max_age_seconds_ = seconds; }
  uint64_t max_age_seconds() const { return max_age_seconds_; }

  /// Why the most recent Lookup rejected an entry (empty when the last
  /// lookup hit or found no entry). Carries the HQV code when the
  /// certificate checker did the rejecting.
  const std::string& last_reject_reason() const { return last_reject_; }

 private:
  explicit AutomatonCache(std::string dir) : dir_(std::move(dir)) {}

  /// Moves a bad entry to corrupt/ (unique name), writes a sidecar
  /// `.reason` file with `reason`, and counts the quarantine.
  void Quarantine(const std::string& entry_path, const std::string& reason);

  /// Eviction sweep run after every successful Store: removes entries
  /// past `max_age_seconds_`, then oldest-first until the directory fits
  /// in `max_bytes_`. Never touches `just_written`.
  void SweepAfterStore(const std::string& just_written);

  std::string dir_;
  hedge::Vocabulary* vocab_ = nullptr;
  CheckMode check_mode_ = CheckMode::kLight;
  uint64_t max_bytes_ = 0;
  uint64_t max_age_seconds_ = 0;
  CacheStats stats_;
  std::string last_reject_;
  // Distinguishes temp files of instances sharing one process.
  static std::atomic<uint64_t> temp_counter_;
};

}  // namespace hedgeq::cache

#endif  // HEDGEQ_CACHE_CACHE_H_
