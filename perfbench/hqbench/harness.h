#ifndef HEDGEQ_PERFBENCH_HARNESS_H_
#define HEDGEQ_PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark binary: run options, the metric sink
// that becomes the result line, order statistics, the allocation counter,
// and the in-memory span tracer used by traced runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hedgeq::perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // where a traced run writes its spans
};

/// Everything one run reports: metrics by name with their unit, plus the
/// attempted/failed tallies of answer checks.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records one checked operation; a false `ok` prints `what` and counts
  /// as a failure.
  void Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Prints one "metric <name> <value> <unit>" line per metric, then the
  /// result JSON object as the last line.
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// `s` as a JSON string literal.
std::string JsonString(const std::string& s);

/// Order statistics over a copy of the samples (linear interpolation
/// between closest ranks); 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(const std::vector<double>& s) { return Quantile(s, 0.5); }
/// The fastest of a run's calls to one single-threaded operation. On a
/// shared host, interference only ever adds time and comes in spells that
/// can cover most of a run, so the minimum tracks the operation's own cost
/// far more steadily across runs than the median does.
inline double Fastest(const std::vector<double>& s) { return Quantile(s, 0); }
/// Geometric mean of positive values: every operation kind of a workload
/// weighs alike in its latency_ms, however long its calls take.
double GeoMean(const std::vector<double>& values);

/// Seconds since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Builds a workload's inputs with `make` and appends the build time to
/// `seconds`. Workloads rebuild their inputs (the same seed gives the same
/// ones) throughout a run and report the fastest build as setup_s: builds
/// timed only at the start of a run all fall in the same spell of the
/// shared host's speed, and their fastest spread across runs several times
/// as widely as the other operations' fastest did.
template <typename Make>
auto TimedSetup(Make make, std::vector<double>& seconds) {
  const Clock::time_point start = Clock::now();
  auto built = make();
  seconds.push_back(SecondsSince(start));
  return built;
}

/// Peak resident set size of this process, MiB.
double PeakRssMb();

// ---- allocation counter (alloc_count.cc replaces global operator new) ---

/// Allocations made by the calling thread so far.
uint64_t ThreadAllocs();
/// Allocations made by every thread while counting was switched on with
/// CountAllThreads(true); off by default so timed runs pay no shared
/// atomic per allocation.
void CountAllThreads(bool on);
uint64_t AllThreadAllocs();

// ---- traced runs ----------------------------------------------------------

/// In-memory span recorder. Spans record name, start, end, parent span and
/// request id; they are written out once, by WriteJson, when the run ends.
/// Only the thread that runs the workload records spans.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one, in its request; returns
  /// its index.
  int Begin(const char* name);
  void End(int span);
  /// Records an already-finished span (serve requests are reconstructed
  /// from timestamps taken on the generator thread).
  int Add(const char* name, int parent, int64_t start_ns, int64_t end_ns,
          uint64_t request);

  /// Shortest duration in ns of the spans named `name` (0 when none).
  double FastestNs(const std::string& name) const;

  /// Per span name: count, total time and self time, where self time is
  /// the duration minus what child spans cover.
  struct Total {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Total> Totals() const;

  /// Writes every span plus the per-name totals.
  bool WriteJson(const std::string& path,
                 const std::map<std::string, std::string>& info) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t request;
  };
  std::vector<double> Durations(const std::string& name) const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on the global tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : span_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (span_ >= 0) Tracer::Get().End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int span_;
};

/// The modules a span name can start with ("query.", "automata.", ...): the
/// layers of the traced run.
inline constexpr const char* kLayers[] = {"automata", "query",  "xml",
                                          "schema",   "serve",  "hedge",
                                          "baseline"};

/// Reports "<layer>.self_share" for every layer of kLayers: the self time
/// of the layer's spans over the self time of all layers' spans. A layer
/// the workload never calls reads 0.
void ReportLayerShares(const Tracer& tracer, Report& report);

/// Runs `f` inside a span named `span` and returns its wall time in ns.
template <typename F>
double TimeNs(const char* span, F&& f) {
  ScopedSpan scope(span);
  const int64_t start = NowNs();
  f();
  return static_cast<double>(NowNs() - start);
}

}  // namespace hedgeq::perfbench

#endif  // HEDGEQ_PERFBENCH_HARNESS_H_
