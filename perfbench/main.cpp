// The repo benchmark program. perfbench/run.py builds and runs it:
//   anole_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <path>]
//   anole_perfbench --self-test
// It prints a readable report, a provenance line, and as its last line one
// JSON object with the end-to-end metrics (--trace 0) or the per-layer
// metrics of the traced run (--trace 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/harness.hpp"
#include "perfbench/serving.hpp"
#include "tensor/simd.hpp"
#include "util/parallel.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Every variable the library reads. No workload defines any of them, so
/// a set one would silently change what the workload measures.
constexpr const char* kLibraryEnv[] = {
    "ANOLE_FAULTS", "ANOLE_MEM_BUDGET_MB", "ANOLE_GOVERNOR",
    "ANOLE_DRIFT",  "ANOLE_QUANT",         "ANOLE_SIMD",
    "ANOLE_THREADS", "ANOLE_SERIAL_CUTOFF", "ANOLE_SCENARIO",
};

/// Pool threads: the host's cores, at most four.
constexpr std::size_t kMaxThreads = 4;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json(const Options& options, std::size_t threads) {
  namespace simd = anole::simd;
  std::string anole_env = "{";
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string var(*entry);
    if (var.rfind("ANOLE_", 0) != 0) continue;
    const auto eq = var.find('=');
    if (anole_env.size() > 1) anole_env += ", ";
    anole_env += json_string(var.substr(0, eq)) + ": " +
                 json_string(eq == std::string::npos ? "" : var.substr(eq + 1));
  }
  anole_env += "}";
  return "{\"workload\": " + json_string(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + json_number(options.seconds) +
         ", \"trace\": " + (options.trace ? "1" : "0") +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"flags\": " + json_string(PERFBENCH_FLAGS) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_detected\": " +
         json_string(simd::level_name(simd::detected_level())) +
         ", \"simd_active\": " +
         json_string(simd::level_name(simd::active_level())) +
         ", \"pool_threads\": " + std::to_string(threads) +
         ", \"anole_env\": " + anole_env + "}";
}

void print_report(const char* title, const Report& report) {
  std::printf("%s\n", title);
  for (const Metric& m : report.metrics()) {
    std::printf("  %-36s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), to_string(m.kind));
  }
}

bool parse_args(int argc, char** argv, Options& options) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     std::isfinite(options.seconds) && options.seconds >= 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && find_serving_spec(options.workload) != nullptr &&
         have_seed && have_seconds && have_trace;
}

int run(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    return run_self_test();
  }
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: anole_perfbench --workload "
                 "<stream_clean|stream_hostile> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n"
                 "       anole_perfbench --self-test\n");
    return 2;
  }
  for (const char* var : kLibraryEnv) {
    if (const char* value = std::getenv(var)) {
      std::fprintf(stderr,
                   "anole_perfbench: refusing to run: %s is set (\"%s\"); no "
                   "workload defines it, so it would silently change the "
                   "workload. Unset it.\n",
                   var, value);
      return 2;
    }
  }
  const std::size_t hardware = std::thread::hardware_concurrency();
  const std::size_t threads =
      std::min(kMaxThreads, hardware == 0 ? std::size_t{1} : hardware);
  anole::par::set_thread_count(threads);

  const std::string provenance = provenance_json(options, threads);
  Outcome outcome = run_serving_workload(options);
  outcome.end_to_end.add("peak_rss_mb", Usage::now().max_rss_mb, "MB",
                         Kind::kMeasured);
  for (const Report* report : {&outcome.end_to_end, &outcome.per_layer}) {
    for (const Metric& m : report->metrics()) {
      outcome.checks.expect(std::isfinite(m.value), m.name + " is finite");
    }
  }

  print_report("end-to-end (untraced run):", outcome.end_to_end);
  print_report("per-layer (traced run):", outcome.per_layer);
  for (const std::string& note : outcome.notes) {
    std::printf("  %s\n", note.c_str());
  }
  const Tally& tally = outcome.checks.tally();
  std::printf("checks: %zu operations attempted, %zu failed\n", tally.attempted,
              tally.failed);
  if (options.trace && !options.spans_path.empty() &&
      !outcome.spans.write_csv(options.spans_path)) {
    std::fprintf(stderr, "anole_perfbench: cannot write %s\n",
                 options.spans_path.c_str());
    return 1;
  }
  std::printf("provenance %s\n", provenance.c_str());

  const Report& shown = options.trace ? outcome.per_layer : outcome.end_to_end;
  std::string metrics;
  for (const Metric& m : shown.metrics()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + ", \"kind\": " +
               json_string(to_string(m.kind)) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, metrics.c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "anole_perfbench: %s\n", error.what());
    return 1;
  }
}
