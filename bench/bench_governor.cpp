// Overload-governor bench: the runtime governor under a canned overload
// (1% I/O latency spikes x8 plus memory-pressure halvings of the cache
// byte budget) on fig7-style fast-changing spliced clips. Compares
// governor-off vs governor-on at a 30 FPS deadline: deadline-overrun
// rate, dropped-frame rate, swap suppressions, ranking reuses, p95
// latency, and the F1 cost of shedding. Verifies the governor decision
// trace and the fault schedule replay bit-for-bit. Writes
// BENCH_governor.json in the working directory.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "detect/detection.hpp"
#include "core/governor.hpp"
#include "device/session.hpp"
#include "util/fault.hpp"

namespace {

constexpr const char* kOverloadSpec =
    "seed=2033,load_latency_spike=0.01x8,memory_pressure=0.003x2";
constexpr double kDeadlineMs = 33.3;  // 30 FPS budget

struct RunStats {
  double f1 = 0.0;
  double hit_rate = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::size_t frames = 0;
  std::size_t executed_frames = 0;
  std::size_t dropped_frames = 0;
  std::size_t deadline_overruns = 0;
  std::size_t swap_suppressed = 0;
  std::size_t reused_rankings = 0;
  std::size_t transitions = 0;
  std::size_t pressure_events = 0;
  std::size_t budget_evictions = 0;
  std::size_t oversized_rejections = 0;
  std::size_t latency_spikes = 0;
  std::uint64_t governor_hash = 0;
  std::uint64_t fault_hash = 0;

  double overrun_rate() const {
    return executed_frames == 0
               ? 0.0
               : static_cast<double>(deadline_overruns) /
                     static_cast<double>(executed_frames);
  }
  double drop_rate() const {
    return frames == 0 ? 0.0
                       : static_cast<double>(dropped_frames) /
                             static_cast<double>(frames);
  }
};

}  // namespace

int main() {
  using namespace anole;
  bench::print_banner("Overload governor",
                      "deadline-aware shedding + byte-budget cache under "
                      "I/O spikes and memory pressure");

  auto stack = bench::train_standard_stack();
  Rng rng(33);
  std::vector<world::Clip> spliced;
  for (int t = 0; t < 4; ++t) {
    spliced.push_back(
        world::synthesize_fast_changing_clip(stack.world, 5, 100, rng));
  }
  std::size_t total_frames = 0;
  for (const auto& clip : spliced) total_frames += clip.frames.size();
  std::fprintf(stderr, "[bench_governor] streaming %zu spliced frames\n",
               total_frames);

  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      stack.system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  const std::uint64_t decision_flops =
      stack.system.decision->flops_per_sample();
  // Byte budget: room for ~3 full compressed models (the slot capacity
  // stays at 5, so the byte budget binds first; a memory-pressure fault
  // halves it mid-run).
  std::uint64_t max_model_bytes = 0;
  for (std::size_t m = 0; m < stack.system.repository.size(); ++m) {
    max_model_bytes = std::max(
        max_model_bytes, stack.system.repository.detector(m).weight_bytes());
  }

  // One full pass under the overload spec: engine + simulated device,
  // with or without the governor closing the loop between them.
  const auto run = [&](bool governed) {
    auto faults =
        std::make_shared<fault::FaultInjector>(std::string(kOverloadSpec));
    core::RuntimeGovernor governor;
    core::EngineConfig config;
    config.cache = bench::standard_cache_config();
    config.cache.memory_budget_bytes = 3 * max_model_bytes;
    config.faults = faults;
    config.governor = governed ? &governor : nullptr;
    core::AnoleEngine engine(stack.system, config);
    device::DeviceSession session(tx2, 1.0, faults.get(),
                                  governed ? &governor : nullptr);
    detect::MatchCounts counts;
    for (const auto& clip : spliced) {
      for (const auto& frame : clip.frames) {
        const auto result = engine.process(frame);
        // A dropped frame detects nothing: its objects count as misses,
        // which is exactly the F1 price of shedding.
        counts += detect::match_detections(result.detections, frame.objects);
        if (result.health.frame_dropped) continue;
        const double weight_mb = memory.load_mb(
            stack.system.repository.detector(result.served_model)
                .weight_bytes());
        device::FrameCost cost;
        cost.decision_flops = result.ranking_reused ? 0 : decision_flops;
        cost.detector_flops = stack.system.repository
                                  .detector(result.served_model)
                                  .flops_per_frame();
        cost.loaded_weight_mb = result.model_loaded ? weight_mb : 0.0;
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
    stats.frames = total_frames;
    stats.executed_frames = session.frames();
    stats.dropped_frames = engine.dropped_frames();
    stats.deadline_overruns = session.deadline_overruns();
    stats.swap_suppressed = engine.swap_suppressed_frames();
    stats.reused_rankings = engine.reused_ranking_frames();
    stats.transitions = governed ? governor.transitions() : 0;
    stats.pressure_events = engine.cache().pressure_events();
    stats.budget_evictions = engine.cache().budget_evictions();
    stats.oversized_rejections = engine.cache().oversized_rejections();
    stats.latency_spikes = session.latency_spikes();
    stats.governor_hash = governed ? governor.trace_hash() : 0;
    stats.fault_hash = faults->trace_hash();
    return stats;
  };

  const RunStats off = run(false);
  const RunStats on = run(true);
  const RunStats replay = run(true);
  const bool replay_identical =
      on.governor_hash == replay.governor_hash &&
      on.fault_hash == replay.fault_hash &&
      on.deadline_overruns == replay.deadline_overruns &&
      on.dropped_frames == replay.dropped_frames;

  TablePrinter table({"run", "F1", "overruns", "overrun rate", "dropped",
                      "suppressed", "reused", "p95 ms"});
  const auto add_row = [&table](const char* name, const RunStats& stats) {
    table.add_row({name, format_double(stats.f1, 3),
                   std::to_string(stats.deadline_overruns),
                   format_double(stats.overrun_rate(), 4),
                   std::to_string(stats.dropped_frames),
                   std::to_string(stats.swap_suppressed),
                   std::to_string(stats.reused_rankings),
                   format_double(stats.p95_latency_ms, 1)});
  };
  add_row("governor off", off);
  add_row("governor on", on);
  add_row("replay", replay);
  std::printf("%s", table.to_string().c_str());

  const double reduction =
      on.deadline_overruns == 0
          ? static_cast<double>(off.deadline_overruns)
          : static_cast<double>(off.deadline_overruns) /
                static_cast<double>(on.deadline_overruns);
  const bool overruns_reduced =
      on.deadline_overruns * 3 <= off.deadline_overruns;
  const bool drops_bounded = on.drop_rate() <= 0.05;
  std::printf(
      "overload spec \"%s\": %zu latency spikes, %zu pressure events, "
      "%zu budget evictions (governor on)\n",
      kOverloadSpec, on.latency_spikes, on.pressure_events,
      on.budget_evictions);
  std::printf("overrun reduction: %.1fx (need >= 3x): %s\n", reduction,
              overruns_reduced ? "ok" : "FAIL");
  std::printf("dropped frames: %.2f%% (need <= 5%%): %s\n",
              100.0 * on.drop_rate(), drops_bounded ? "ok" : "FAIL");
  std::printf("F1 cost of governing: %.4f (off %.4f -> on %.4f)\n",
              off.f1 - on.f1, off.f1, on.f1);
  std::printf("governor trace + fault schedule replay identical: %s\n",
              replay_identical ? "yes" : "NO (determinism regression!)");

  std::FILE* out = std::fopen("BENCH_governor.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr,
                 "[bench_governor] cannot open BENCH_governor.json\n");
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
    std::fprintf(out, "    \"executed_frames\": %zu,\n",
                 stats.executed_frames);
    std::fprintf(out, "    \"dropped_frames\": %zu,\n",
                 stats.dropped_frames);
    std::fprintf(out, "    \"dropped_frame_rate\": %.4f,\n",
                 stats.drop_rate());
    std::fprintf(out, "    \"deadline_overruns\": %zu,\n",
                 stats.deadline_overruns);
    std::fprintf(out, "    \"overrun_rate\": %.4f,\n", stats.overrun_rate());
    std::fprintf(out, "    \"swap_suppressed\": %zu,\n",
                 stats.swap_suppressed);
    std::fprintf(out, "    \"reused_rankings\": %zu,\n",
                 stats.reused_rankings);
    std::fprintf(out, "    \"transitions\": %zu,\n", stats.transitions);
    std::fprintf(out, "    \"pressure_events\": %zu,\n",
                 stats.pressure_events);
    std::fprintf(out, "    \"budget_evictions\": %zu,\n",
                 stats.budget_evictions);
    std::fprintf(out, "    \"oversized_rejections\": %zu,\n",
                 stats.oversized_rejections);
    std::fprintf(out, "    \"latency_spikes\": %zu,\n", stats.latency_spikes);
    std::fprintf(out, "    \"governor_trace_hash\": \"%016llx\",\n",
                 static_cast<unsigned long long>(stats.governor_hash));
    std::fprintf(out, "    \"fault_trace_hash\": \"%016llx\"\n",
                 static_cast<unsigned long long>(stats.fault_hash));
    std::fprintf(out, "  }%s\n", suffix);
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"frames\": %zu,\n", total_frames);
  std::fprintf(out, "  \"overload_spec\": \"%s\",\n", kOverloadSpec);
  std::fprintf(out, "  \"deadline_ms\": %.1f,\n", kDeadlineMs);
  std::fprintf(out, "  \"memory_budget_bytes\": %llu,\n",
               static_cast<unsigned long long>(3 * max_model_bytes));
  std::fprintf(out, "  \"replay_identical\": %s,\n",
               replay_identical ? "true" : "false");
  std::fprintf(out, "  \"overrun_reduction\": %.2f,\n", reduction);
  std::fprintf(out, "  \"overruns_reduced_3x\": %s,\n",
               overruns_reduced ? "true" : "false");
  std::fprintf(out, "  \"drops_within_5pct\": %s,\n",
               drops_bounded ? "true" : "false");
  std::fprintf(out, "  \"f1_delta\": %.4f,\n", on.f1 - off.f1);
  emit("governor_off", off, ",");
  emit("governor_on", on, ",");
  emit("replay", replay, "");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_governor.json\n");
  return (replay_identical && overruns_reduced && drops_bounded) ? 0 : 1;
}
