// Fault-tolerance bench: the degradation ladder under a 1% model-load
// failure rate (plus injected I/O latency spikes) versus a clean run, on
// fig7-style fast-changing spliced clips. Reports cache hit rate, F1,
// mean/p95 simulated TX2 NX latency, deadline overruns at 30 FPS, and the
// ladder's health counters, and verifies the fault schedule replays
// bit-for-bit. Writes BENCH_fault.json in the working directory.
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "detect/detection.hpp"
#include "device/session.hpp"
#include "util/fault.hpp"

namespace {

constexpr const char* kFaultSpec =
    "seed=2024,model_load=0.01,load_latency_spike=0.02x25";
constexpr double kDeadlineMs = 33.3;  // 30 FPS budget

struct RunStats {
  double f1 = 0.0;
  double hit_rate = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::size_t deadline_overruns = 0;
  std::size_t load_failures = 0;
  std::size_t abandoned_loads = 0;
  std::size_t quarantine_events = 0;
  std::size_t degraded_frames = 0;
  std::size_t latency_spikes = 0;
  std::uint64_t injected_total = 0;
  std::uint64_t trace_hash = 0;
};

}  // namespace

int main() {
  using namespace anole;
  bench::print_banner("Fault tolerance",
                      "degradation ladder: 1% load failures vs clean");

  auto stack = bench::train_standard_stack();
  Rng rng(21);
  std::vector<world::Clip> spliced;
  for (int t = 0; t < 4; ++t) {
    spliced.push_back(
        world::synthesize_fast_changing_clip(stack.world, 5, 100, rng));
  }
  std::size_t total_frames = 0;
  for (const auto& clip : spliced) total_frames += clip.frames.size();
  std::fprintf(stderr, "[bench_fault] streaming %zu spliced frames\n",
               total_frames);

  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      stack.system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  const std::uint64_t decision_flops = stack.system.decision->flops_per_sample();

  // One full pass: engine + simulated device, driven by `faults`. An
  // unarmed injector gives the clean baseline (and keeps the run immune
  // to any ambient ANOLE_FAULTS).
  const auto run = [&](const std::shared_ptr<fault::FaultInjector>& faults) {
    core::EngineConfig config;
    config.cache = bench::standard_cache_config();
    config.faults = faults;
    core::AnoleEngine engine(stack.system, config);
    device::DeviceSession session(tx2, 1.0, faults.get());
    detect::MatchCounts counts;
    for (const auto& clip : spliced) {
      for (const auto& frame : clip.frames) {
        const auto result = engine.process(frame);
        counts += detect::match_detections(result.detections, frame.objects);
        const double weight_mb = memory.load_mb(
            stack.system.repository.detector(result.served_model)
                .weight_bytes());
        device::FrameCost cost;
        cost.decision_flops = decision_flops;
        cost.detector_flops = stack.system.repository
                                  .detector(result.served_model)
                                  .flops_per_frame();
        cost.loaded_weight_mb = result.model_loaded ? weight_mb : 0.0;
        // Failed attempts re-stream the same weights before succeeding
        // (or abandoning); the device pays for every attempt.
        // A pinned-fallback load can succeed with zero attempts, so guard
        // the subtraction instead of letting size_t wrap.
        const std::size_t successful = result.model_loaded ? 1 : 0;
        const std::size_t failed_attempts =
            result.health.load_attempts > successful
                ? result.health.load_attempts - successful
                : 0;
        cost.retried_weight_mb =
            static_cast<double>(failed_attempts) * weight_mb;
        cost.deadline_ms = kDeadlineMs;
        (void)session.process(cost);
      }
    }
    RunStats stats;
    stats.f1 = counts.f1();
    stats.hit_rate = 1.0 - engine.cache().miss_rate();
    stats.mean_latency_ms = session.mean_latency_ms();
    stats.p95_latency_ms = session.p95_latency_ms();
    stats.deadline_overruns = session.deadline_overruns();
    stats.load_failures = engine.cache().load_failures();
    stats.abandoned_loads = engine.cache().abandoned_loads();
    stats.quarantine_events = engine.cache().quarantine_events();
    stats.degraded_frames = engine.degraded_frames();
    stats.latency_spikes = session.latency_spikes();
    stats.injected_total = engine.faults()->injected_total();
    stats.trace_hash = engine.faults()->trace_hash();
    return stats;
  };

  const RunStats clean = run(std::make_shared<fault::FaultInjector>());
  const RunStats faulty =
      run(std::make_shared<fault::FaultInjector>(std::string(kFaultSpec)));
  // Replay: an identical spec must reproduce the schedule bit-for-bit.
  const RunStats replay =
      run(std::make_shared<fault::FaultInjector>(std::string(kFaultSpec)));
  const bool replay_identical = faulty.trace_hash == replay.trace_hash;

  TablePrinter table({"run", "F1", "hit rate", "mean ms", "p95 ms",
                      "overruns", "load fails", "degraded"});
  const auto add_row = [&table](const char* name, const RunStats& stats) {
    table.add_row({name, format_double(stats.f1, 3),
                   format_double(stats.hit_rate, 3),
                   format_double(stats.mean_latency_ms, 1),
                   format_double(stats.p95_latency_ms, 1),
                   std::to_string(stats.deadline_overruns),
                   std::to_string(stats.load_failures),
                   std::to_string(stats.degraded_frames)});
  };
  add_row("clean", clean);
  add_row("faulty", faulty);
  add_row("replay", replay);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "faulty: %llu injected events (spec \"%s\"), %zu abandoned loads, "
      "%zu quarantines, %zu latency spikes\n",
      static_cast<unsigned long long>(faulty.injected_total), kFaultSpec,
      faulty.abandoned_loads, faulty.quarantine_events,
      faulty.latency_spikes);
  std::printf("fault schedule replay identical: %s\n",
              replay_identical ? "yes" : "NO (determinism regression!)");
  std::printf("expected shape: F1 and hit rate within noise of clean; "
              "latency tail absorbs the retries and spikes.\n");

  std::FILE* out = std::fopen("BENCH_fault.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench_fault] cannot open BENCH_fault.json\n");
    return 1;
  }
  const auto emit = [out](const char* name, const RunStats& stats,
                          const char* suffix) {
    std::fprintf(out, "  \"%s\": {\n", name);
    std::fprintf(out, "    \"f1\": %.4f,\n", stats.f1);
    std::fprintf(out, "    \"hit_rate\": %.4f,\n", stats.hit_rate);
    std::fprintf(out, "    \"mean_latency_ms\": %.3f,\n",
                 stats.mean_latency_ms);
    std::fprintf(out, "    \"p95_latency_ms\": %.3f,\n",
                 stats.p95_latency_ms);
    std::fprintf(out, "    \"deadline_overruns\": %zu,\n",
                 stats.deadline_overruns);
    std::fprintf(out, "    \"load_failures\": %zu,\n", stats.load_failures);
    std::fprintf(out, "    \"abandoned_loads\": %zu,\n",
                 stats.abandoned_loads);
    std::fprintf(out, "    \"quarantine_events\": %zu,\n",
                 stats.quarantine_events);
    std::fprintf(out, "    \"degraded_frames\": %zu,\n",
                 stats.degraded_frames);
    std::fprintf(out, "    \"injected_total\": %llu,\n",
                 static_cast<unsigned long long>(stats.injected_total));
    std::fprintf(out, "    \"trace_hash\": \"%016llx\"\n",
                 static_cast<unsigned long long>(stats.trace_hash));
    std::fprintf(out, "  }%s\n", suffix);
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"frames\": %zu,\n", total_frames);
  std::fprintf(out, "  \"fault_spec\": \"%s\",\n", kFaultSpec);
  std::fprintf(out, "  \"deadline_ms\": %.1f,\n", kDeadlineMs);
  std::fprintf(out, "  \"replay_identical\": %s,\n",
               replay_identical ? "true" : "false");
  emit("clean", clean, ",");
  emit("faulty", faulty, ",");
  emit("replay", replay, "");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_fault.json\n");
  return replay_identical ? 0 : 1;
}
