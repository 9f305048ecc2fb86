#include "hqbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace hedgeq::perfbench {
namespace {

// Failed checks printed to stderr before the rest are only counted.
constexpr uint64_t kMaxPrintedFailures = 20;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok && ++failed_ <= kMaxPrintedFailures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Print() const {
  for (const auto& [name, v] : metrics_) {
    std::printf("metric %-44s %14.6g %s\n", name.c_str(), v.value,
                v.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(v.value) +
            ", \"unit\": " + JsonString(v.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void ReportLayerShares(const Tracer& tracer, Report& report) {
  std::map<std::string, double> self_ns;
  double all_ns = 0;
  for (const auto& [name, total] : tracer.Totals()) {
    const std::string layer = name.substr(0, name.find('.'));
    for (const char* known : kLayers) {
      if (layer == known) {
        self_ns[layer] += static_cast<double>(total.self_ns);
        all_ns += static_cast<double>(total.self_ns);
      }
    }
  }
  for (const char* layer : kLayers) {
    report.Metric(std::string(layer) + ".self_share",
                  all_ns > 0 ? self_ns[layer] / all_ns : 0, "ratio");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const uint64_t request = parent >= 0 ? spans_[parent].request : 0;
  spans_.push_back(Span{name, parent, NowNs(), 0, request});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::Add(const char* name, int parent, int64_t start_ns,
                int64_t end_ns, uint64_t request) {
  spans_.push_back(Span{name, parent, start_ns, end_ns, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::FastestNs(const std::string& name) const {
  return Fastest(Durations(name));
}

std::map<std::string, Tracer::Total> Tracer::Totals() const {
  // Self time: a span's duration minus the union of its children's
  // intervals, clipped to the parent so reconstructed spans never count
  // twice.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
  }
  std::vector<int64_t> covered(spans_.size(), 0);
  for (size_t p = 0; p < spans_.size(); ++p) {
    std::vector<std::pair<int64_t, int64_t>> intervals;
    for (size_t c : children[p]) {
      intervals.emplace_back(std::max(spans_[c].start_ns, spans_[p].start_ns),
                             std::min(spans_[c].end_ns, spans_[p].end_ns));
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t reach = INT64_MIN;
    for (auto [a, b] : intervals) {
      a = std::max(a, reach);
      if (b > a) covered[p] += b - a;
      reach = std::max(reach, b);
    }
  }
  std::map<std::string, Total> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Total& t = totals[spans_[i].name];
    const int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    ++t.count;
    t.total_ns += d;
    t.self_ns += d - covered[i];
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::map<std::string, std::string>& info) const {
  const std::map<std::string, Total> totals = Totals();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : info) {
    out << (first ? "" : ", ") << JsonString(k) << ": " << JsonString(v);
    first = false;
  }
  out << "},\n\"totals\": {";
  first = true;
  for (const auto& [name, t] : totals) {
    out << (first ? "\n" : ",\n") << JsonString(name)
        << ": {\"count\": " << t.count << ", \"total_ns\": " << t.total_ns
        << ", \"self_ns\": " << t.self_ns << "}";
    first = false;
  }
  out << "},\n\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i
        << ", \"name\": " << JsonString(s.name)
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"request\": " << s.request
        << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace hedgeq::perfbench
