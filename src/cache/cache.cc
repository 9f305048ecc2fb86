#include "cache/cache.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "automata/serialize.h"
#include "lint/diagnostics.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "obs/scope.h"
#include "util/digest.h"
#include "util/failpoint.h"
#include "util/strings.h"
#include "verify/certificate.h"
#include "verify/checker.h"

namespace hedgeq::cache {

namespace fs = std::filesystem;

namespace {

// Bump on any change to the entry layout or the serialization formats it
// embeds: the version participates in the content hash, so old entries
// become unreachable (and eventually quarantine-free garbage) instead of
// parse errors. v2: certificates carry the digestchain section.
constexpr int kFormatVersion = 2;
constexpr const char* kMagic = "hqcache";
constexpr const char* kKind = "determinize";

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return false;
  *out = buf.str();
  return true;
}

// Content key of an input automaton from its canonical serialized text.
std::string KeyOfSerialized(std::string_view serialized_input) {
  return Digest128(StrCat(kMagic, " ", kFormatVersion, " ", kKind, "\n",
                          serialized_input));
}

}  // namespace

std::atomic<uint64_t> AutomatonCache::temp_counter_{0};

Result<std::unique_ptr<AutomatonCache>> AutomatonCache::Open(std::string dir) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "corrupt", ec);
  if (ec) {
    return Status::FailedPrecondition(
        StrCat("cache: cannot create cache directory '", dir,
               "': ", ec.message()));
  }
  return std::unique_ptr<AutomatonCache>(new AutomatonCache(std::move(dir)));
}

std::string AutomatonCache::KeyFor(const automata::Nha& input) const {
  return KeyOfSerialized(automata::SerializeNha(input, *vocab_));
}

std::string AutomatonCache::EntryPathFor(const automata::Nha& input) const {
  return (fs::path(dir_) / (KeyFor(input) + ".cert")).string();
}

void AutomatonCache::Quarantine(const std::string& entry_path,
                                const std::string& reason) {
  ++stats_.quarantines;
  HEDGEQ_OBS_COUNT(obs::metrics::kCacheQuarantine, 1);
  last_reject_ = reason;
  // Attribute the rejection (with its HQV reason) to the query being
  // served, so flight records carry *why* the cache refused the entry.
  if (auto* scope = obs::QueryScope::Current(); scope != nullptr) {
    scope->Annotate("cache.reject", reason);
  }
  fs::path src(entry_path);
  fs::path dst = fs::path(dir_) / "corrupt" /
                 StrCat(src.filename().string(), ".",
                        temp_counter_.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  fs::rename(src, dst, ec);
  if (ec) {
    // Another process may have quarantined (or replaced) it first; make
    // sure the bad entry at least stops being served.
    fs::remove(src, ec);
    return;
  }
  std::ofstream sidecar(dst.string() + ".reason",
                        std::ios::binary | std::ios::trunc);
  if (sidecar) sidecar << reason << "\n";
}

bool AutomatonCache::Lookup(const automata::Nha& input,
                            automata::Determinized* out,
                            automata::DeterminizeWitness* witness) {
  if (vocab_ == nullptr) return false;
  HEDGEQ_OBS_SPAN(span, obs::spans::kCacheLoad);
  last_reject_.clear();
  // One serialization serves both the key and the input byte-compare.
  const std::string expected_input = automata::SerializeNha(input, *vocab_);
  const std::string key = KeyOfSerialized(expected_input);
  const std::string path = (fs::path(dir_) / (key + ".cert")).string();

  auto miss = [&]() {
    ++stats_.misses;
    HEDGEQ_OBS_COUNT(obs::metrics::kCacheMiss, 1);
    return false;
  };

  std::string raw;
  if (!ReadFileToString(path, &raw)) return miss();
  if (!failpoint::Check("cache/short-read").ok()) {
    // A torn read of a good entry: the validation ladder below must treat
    // the prefix exactly like any other corrupt entry.
    raw.resize(raw.size() / 2);
  }

  // Header: "hqcache <version> determinize <key> <payload-bytes>\n".
  size_t nl = raw.find('\n');
  bool header_ok = false;
  size_t payload_bytes = 0;
  if (nl != std::string::npos) {
    std::istringstream header(raw.substr(0, nl));
    std::string magic, kind, stored_key;
    int version = 0;
    if (header >> magic >> version >> kind >> stored_key >> payload_bytes &&
        magic == kMagic && version == kFormatVersion && kind == kKind &&
        stored_key == key) {
      header_ok = true;
    }
  }
  if (!header_ok) {
    Quarantine(path, StrCat(lint::DiagnosticCodeName(
                        lint::DiagnosticCode::kCertificateMalformed),
                    ": malformed header, not a readable cache entry"));
    return miss();
  }
  std::string_view payload = std::string_view(raw).substr(nl + 1);
  if (payload.size() != payload_bytes) {
    Quarantine(path, StrCat(lint::DiagnosticCodeName(
                            lint::DiagnosticCode::kCertificateMalformed),
                        ": truncated payload, header promises ",
                        payload_bytes, " bytes, found ", payload.size()));
    return miss();
  }

  Result<verify::Certificate> cert =
      verify::DeserializeCertificate(payload, *vocab_);
  if (!cert.ok()) {
    Quarantine(path, StrCat(lint::DiagnosticCodeName(
                            lint::DiagnosticCode::kCertificateMalformed),
                        ": undeserializable, ", cert.status().message()));
    return miss();
  }
  if (cert->kind != verify::CertificateKind::kDeterminize) {
    Quarantine(path, StrCat(lint::DiagnosticCodeName(
                        lint::DiagnosticCode::kCertificateMalformed),
                    ": entry is not a determinize certificate"));
    return miss();
  }
  // Guards against both hash collisions and entries tampered into a
  // *valid* certificate of some other automaton: valid is not enough, it
  // must certify exactly this input.
  if (automata::SerializeNha(cert->input, *vocab_) != expected_input) {
    Quarantine(path, StrCat(lint::DiagnosticCodeName(
                        lint::DiagnosticCode::kCertificateMalformed),
                    ": input mismatch, entry certifies a different "
                    "automaton"));
    return miss();
  }
  std::vector<lint::Diagnostic> findings;
  if (check_mode_ == CheckMode::kLight) {
    ++stats_.light_checks;
    HEDGEQ_OBS_COUNT(obs::metrics::kCacheLightChecks, 1);
    findings = verify::CheckCertificateLight(*cert);
  } else {
    findings = verify::CheckCertificate(*cert);
  }
  if (!findings.empty()) {
    ++stats_.validate_rejects;
    HEDGEQ_OBS_COUNT(obs::metrics::kCacheValidateReject, 1);
    Quarantine(path, StrCat(lint::DiagnosticCodeName(findings.front().code),
                            ": ", findings.front().message));
    return miss();
  }

  out->dha = std::move(cert->dha);
  out->subsets = std::move(cert->subsets);
  if (witness != nullptr) *witness = std::move(cert->det);
  ++stats_.hits;
  HEDGEQ_OBS_COUNT(obs::metrics::kCacheHit, 1);
  return true;
}

void AutomatonCache::Store(const automata::Nha& input,
                           const automata::Determinized& out,
                           const automata::DeterminizeWitness& witness) {
  if (vocab_ == nullptr) return;
  const std::string key = KeyFor(input);
  HEDGEQ_OBS_SPAN(span, obs::spans::kCacheStoreSpan);
  auto store_error = [&]() {
    ++stats_.store_errors;
    HEDGEQ_OBS_COUNT(obs::metrics::kCacheStoreError, 1);
  };

  verify::Certificate cert;
  cert.kind = verify::CertificateKind::kDeterminize;
  cert.input = input;
  cert.dha = out.dha;
  cert.subsets = out.subsets;
  cert.det = witness;
  const std::string payload = verify::SerializeCertificate(cert, *vocab_);
  std::string body = StrCat(kMagic, " ", kFormatVersion, " ", kKind, " ", key,
                            " ", payload.size(), "\n", payload);
  if (!failpoint::Check("cache/torn-write").ok()) {
    // Simulates a write torn by power loss on a filesystem without atomic
    // publish: half the entry lands on disk and *is* renamed into place.
    // The Lookup validation ladder must quarantine it.
    body.resize(body.size() / 2);
  }

  const std::string final_path = (fs::path(dir_) / (key + ".cert")).string();
  const std::string temp_path =
      (fs::path(dir_) /
       StrCat(".tmp.", key, ".", static_cast<uint64_t>(::getpid()), ".",
              temp_counter_.fetch_add(1, std::memory_order_relaxed)))
          .string();
  bool write_ok = failpoint::Check("cache/enospc").ok();
  if (write_ok) {
    std::ofstream temp(temp_path, std::ios::binary | std::ios::trunc);
    write_ok = static_cast<bool>(temp.write(body.data(),
                                            static_cast<std::streamsize>(
                                                body.size())));
    temp.close();
    write_ok = write_ok && !temp.fail();
  }
  if (!write_ok) {
    std::error_code ec;
    fs::remove(temp_path, ec);
    store_error();
    return;
  }
  std::error_code ec;
  if (!failpoint::Check("cache/rename").ok()) {
    ec = std::make_error_code(std::errc::io_error);
  } else {
    // Atomic publish: readers see the old entry, the new entry, or none —
    // never a prefix. Concurrent writers of one key race benignly; the
    // last rename wins and both entries were valid.
    fs::rename(temp_path, final_path, ec);
  }
  if (ec) {
    std::error_code rm;
    fs::remove(temp_path, rm);
    store_error();
    return;
  }
  ++stats_.stores;
  HEDGEQ_OBS_COUNT(obs::metrics::kCacheStore, 1);
  SweepAfterStore(final_path);
}

void AutomatonCache::SweepAfterStore(const std::string& just_written) {
  if (max_bytes_ == 0 && max_age_seconds_ == 0) return;
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    uint64_t size;
  };
  std::vector<Entry> entries;
  uint64_t total = 0;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return;
  for (const fs::directory_entry& de : it) {
    std::error_code sec;
    if (!de.is_regular_file(sec) || sec) continue;
    if (de.path().extension() != ".cert") continue;
    const uint64_t size = de.file_size(sec);
    if (sec) continue;
    const fs::file_time_type mtime = de.last_write_time(sec);
    if (sec) continue;
    total += size;
    entries.push_back(Entry{de.path(), mtime, size});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  const fs::file_time_type now = fs::file_time_type::clock::now();
  for (const Entry& e : entries) {
    const bool expired =
        max_age_seconds_ != 0 &&
        now - e.mtime > std::chrono::seconds(max_age_seconds_);
    const bool over = max_bytes_ != 0 && total > max_bytes_;
    // Entries are oldest-first, so once the front entry is fresh and the
    // directory fits, nothing behind it can need evicting either.
    if (!expired && !over) break;
    // The entry published by this very Store is sacrosanct: even a bound
    // smaller than one entry must leave the cache able to serve the key
    // it just computed.
    if (e.path.string() == just_written) continue;
    std::error_code rec;
    if (fs::remove(e.path, rec) && !rec) {
      total -= e.size;
      ++stats_.evictions;
      HEDGEQ_OBS_COUNT(obs::metrics::kCacheEvictions, 1);
    }
  }
}

}  // namespace hedgeq::cache
