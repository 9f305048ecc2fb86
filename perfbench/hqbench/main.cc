// hqbench: the hedgeq benchmark binary, one workload per process.
//
//   hqbench --workload eval_large|compile_schema|serve_mixed --seed N
//           --seconds S --trace 0|1 [--trace-out FILE] [--failpoint SPEC]
//           [--commit ID] [--source-digest HEX]
//
// Prints a provenance line, one "metric" line per metric, and the result
// JSON object as the last line of stdout. Exits 1 when any answer check
// failed, 2 on bad arguments or setup failure, 3 when the build is not fit
// to be timed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "hqbench/harness.h"
#include "hqbench/workloads.h"
#include "obs/obs.h"
#include "query/phr_compile.h"
#include "util/failpoint.h"

namespace hedgeq::perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

// Why this binary must not be timed, or nullptr when it may be.
const char* BuildRefusal() {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return "a non-Release build";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#endif
  // Inline certification re-validates every compile, which would inflate
  // compile_schema several-fold.
  if (query::GetPhrProductValidationHook() != nullptr) {
    return "a build with inline certification (HEDGEQ_CERTIFY)";
  }
  return nullptr;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hqbench: %s\nusage: hqbench --workload "
               "eval_large|compile_schema|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--failpoint SPEC] "
               "[--commit ID] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace hedgeq::perfbench

int main(int argc, char** argv) {
  using namespace hedgeq::perfbench;
  RunOptions options;
  std::string failpoint, commit = "unknown", digest = "unknown";
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--failpoint") {
      failpoint = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const RunOptions&, Report&) = nullptr;
  if (options.workload == "eval_large") run = RunEvalLarge;
  if (options.workload == "compile_schema") run = RunCompileSchema;
  if (options.workload == "serve_mixed") run = RunServeMixed;
  if (run == nullptr) Usage("unknown or missing --workload");
  if (!(options.seconds > 0)) Usage("--seconds must be positive");

  if (const char* refusal = BuildRefusal(); refusal != nullptr) {
    std::fprintf(stderr, "hqbench: refusing to time %s\n", refusal);
    return 3;
  }
  hedgeq::obs::SetEnabled(false);
  if (!failpoint.empty()) {
    hedgeq::Status armed = hedgeq::failpoint::ArmSpec(failpoint);
    if (!armed.ok()) Usage(armed.ToString().c_str());
  }

  const std::map<std::string, std::string> provenance = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", std::to_string(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", CpuModel()},
      {"compiler", PERFBENCH_COMPILER},
      {"flags", PERFBENCH_CXX_FLAGS},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", commit},
      {"source_digest", digest},
      {"failpoint", failpoint},
  };
  std::string line;
  for (const auto& [key, value] : provenance) {
    line += (line.empty() ? "{" : ", ") + JsonString(key) + ": " +
            JsonString(value);
  }
  std::printf("provenance %s}\n", line.c_str());
  std::fflush(stdout);

  Report report;
  run(options, report);

  if (options.trace && !options.trace_path.empty() &&
      !Tracer::Get().WriteJson(options.trace_path, provenance)) {
    std::fprintf(stderr, "hqbench: cannot write %s\n",
                 options.trace_path.c_str());
  }
  std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
              report.attempted() == 0
                  ? 0.0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
