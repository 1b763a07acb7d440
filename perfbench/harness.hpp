// Shared pieces of the benchmark program: the clock, the metric report,
// the correctness-check tally, the output digest, the span recorder of the
// traced run, and process resource usage.
#pragma once

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "perfbench/stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// How a figure was obtained (ROADMAP aim 1): a wall-clock measurement,
/// the device cost model, or a deterministic count of what the program did.
enum class Kind { kMeasured, kModelled, kCount };

inline const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kMeasured: return "measured";
    case Kind::kModelled: return "modelled";
    case Kind::kCount: return "count";
  }
  return "?";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kMeasured;
};

/// Metrics in the order they were added.
class Report {
 public:
  void add(std::string name, double value, std::string unit, Kind kind) {
    metrics_.push_back({std::move(name), value, std::move(unit), kind});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness checks of one run. Every check counts as one attempted
/// operation; a mismatch is a failed one and fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    tally_.record(ok);
    if (!ok) {
      std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
    }
  }
  /// Operations the workload attempted besides the checks (frames served,
  /// profiling jobs run); an operation that threw would have ended the run.
  void count_operations(std::size_t n) { tally_.attempted += n; }
  const Tally& tally() const { return tally_; }

 private:
  Tally tally_;
};

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }

  /// Served model, top-1 confidence bits and every detection of a frame.
  void mix(const anole::core::EngineResult& result) {
    mix(static_cast<std::uint64_t>(result.served_model));
    mix(result.top1_confidence);
    mix(static_cast<std::uint64_t>(result.detections.size()));
    for (const auto& d : result.detections) {
      mix(d.cx);
      mix(d.cy);
      mix(d.w);
      mix(d.h);
      mix(d.confidence);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// One timed interval of the traced run.
struct Span {
  std::size_t name = 0;      // index into the recorder's name table
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 at the root
  std::int64_t frame = -1;   // frame (or chunk) id, -1 outside the stream

  double micros() const {
    return static_cast<double>(end_ns - start_ns) * 1e-3;
  }
};

/// Spans kept in memory for the whole run and written out at the end.
/// The benchmark opens them around its own calls into each layer's public
/// functions; nothing inside the library is instrumented.
class SpanRecorder {
 public:
  std::size_t open(const char* name, std::int64_t parent = -1,
                   std::int64_t frame = -1) {
    spans_.push_back({intern(name), now_ns(), 0, parent, frame});
    return spans_.size() - 1;
  }
  /// Closes span `index` and returns its duration in microseconds.
  double close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    return spans_[index].micros();
  }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Writes one CSV line per span: name,start_ns,end_ns,parent,frame.
  bool write_csv(const std::string& path) const;

 private:
  std::size_t intern(const char* name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return names_.size() - 1;
  }

  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// A span around one scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.open(name)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t index_;
};

/// Process CPU time, context switches and peak RSS (getrusage).
struct Usage {
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;
  double max_rss_mb = 0.0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage usage;
    usage.cpu_s =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    usage.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    usage.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return usage;
  }
};

/// Keeps every pool thread busy for `seconds` before a timed phase. After
/// an idle spell a virtual machine's cores can run several times slower
/// for about a second; the first timed work should not pay for that.
void warm_up_pool(double seconds = 1.0);

/// What the command line asks for.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;  // where the traced run's spans go; empty = nowhere
};

/// A workload's outcome: both metric sets are always computed, so the
/// correctness checks run in both modes; --trace picks which one is printed.
struct Outcome {
  Report end_to_end;
  Report per_layer;
  Checks checks;
  /// Human-readable lines printed beside the metrics (counts behind rates,
  /// sample sizes).
  std::vector<std::string> notes;
  /// Every span of the run: set-up stages and the traced passes.
  SpanRecorder spans;
};

Outcome run_serving_workload(const Options& options);
int run_self_test();

}  // namespace perfbench
