// Hostile-world scenario bench: a clean stream and the four scenario
// packs (drift, degrade, bursts, diurnal) served under two postures — the
// paper default (per-frame MSS ranking, no confidence floor) and the
// paper default plus the overload governor. Reports an F1/latency row per
// pack and posture, then pins two contracts: scenario trace hashes replay
// bitwise across reruns and 1-vs-4 worker threads, and on every pack the
// governor cuts deadline overruns at least 3x. Writes
// BENCH_scenarios.json.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/governor.hpp"
#include "detect/detection.hpp"
#include "device/session.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "world/scenario.hpp"

namespace {

constexpr double kDeadlineMs = 33.3;  // 30 FPS budget
constexpr std::size_t kStreamLength = 900;
/// Minimum overrun reduction the governor must achieve on every pack.
constexpr std::size_t kMinOverrunCut = 3;

struct PackSpec {
  const char* name;
  const char* spec;  // ScenarioConfig grammar, parsed like ANOLE_SCENARIO
};

constexpr PackSpec kPacks[] = {
    {"clean", "seed=40"},
    {"drift", "seed=40,drift=1"},
    {"degrade", "seed=40,degrade=1x3"},
    {"bursts", "seed=40,bursts=0.35"},
    {"diurnal", "seed=40,diurnal=1"},
};

struct RunStats {
  double f1 = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::size_t deadline_overruns = 0;
  std::size_t dropped_frames = 0;
  std::size_t model_switches = 0;
  std::uint64_t timeline_hash = 0;  // FNV-1a over (served, dropped) pairs
};

}  // namespace

int main() {
  using namespace anole;
  bench::print_banner("Hostile-world scenarios",
                      "scenario packs x {paper default, paper + governor} "
                      "with replay and overrun-cut contracts");

  auto stack = bench::train_standard_stack();
  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      stack.system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  const std::uint64_t decision_flops =
      stack.system.decision->flops_per_sample();

  // The paper default: per-frame MSS ranking with no confidence floor,
  // optionally under the overload governor.
  const auto run = [&](const world::ScenarioStream& stream, bool governed) {
    core::RuntimeGovernor governor;
    core::EngineConfig config;
    config.cache = bench::standard_cache_config();
    if (governed) config.governor = &governor;
    core::AnoleEngine engine(stack.system, config);
    device::DeviceSession session(tx2, 1.0, nullptr,
                                  governed ? &governor : nullptr);
    detect::MatchCounts counts;
    Fnv1a timeline;
    for (const world::Frame& frame : stream.clip.frames) {
      const auto result = engine.process(frame);
      counts += detect::match_detections(result.detections, frame.objects);
      timeline.mix(result.served_model);
      timeline.mix(result.health.frame_dropped ? 1 : 0);
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
    RunStats stats;
    stats.f1 = counts.f1();
    stats.mean_latency_ms = session.mean_latency_ms();
    stats.p95_latency_ms = session.p95_latency_ms();
    stats.deadline_overruns = session.deadline_overruns();
    stats.dropped_frames = engine.dropped_frames();
    stats.model_switches = engine.model_switches();
    stats.timeline_hash = timeline.value();
    return stats;
  };

  // ---- Contract 1: scenario composition replays bitwise across reruns
  // and worker-thread counts.
  bool scenario_replay_identical = true;
  const std::size_t saved_threads = par::thread_count();
  std::vector<world::ScenarioStream> streams;
  std::vector<std::uint64_t> scenario_hashes;
  for (const PackSpec& pack : kPacks) {
    const auto config = world::ScenarioConfig::parse(pack.spec);
    par::set_thread_count(1);
    auto stream = world::compose_scenario(stack.world, config, kStreamLength);
    const auto rerun = world::compose_scenario(stack.world, config,
                                               kStreamLength);
    par::set_thread_count(4);
    const auto threaded = world::compose_scenario(stack.world, config,
                                                  kStreamLength);
    par::set_thread_count(saved_threads);
    const std::uint64_t hash = stream.trace_hash();
    if (hash != rerun.trace_hash() || hash != threaded.trace_hash()) {
      scenario_replay_identical = false;
      std::fprintf(stderr, "[bench_scenarios] %s trace hash diverged!\n",
                   pack.name);
    }
    scenario_hashes.push_back(hash);
    streams.push_back(std::move(stream));
  }

  // ---- The pack x posture matrix, and contract 2: the governor cuts
  // deadline overruns at least kMinOverrunCut-fold on every pack.
  struct PackRow {
    RunStats paper;
    RunStats governed;
    bool cut_ok = false;
  };
  std::vector<PackRow> rows;
  bool overrun_cut_ok = true;
  TablePrinter table({"pack", "posture", "F1", "mean ms", "p95 ms",
                      "overruns", "dropped", "switches"});
  const auto add_row = [&table](const char* pack, const char* posture,
                                const RunStats& stats) {
    table.add_row({pack, posture, format_double(stats.f1, 3),
                   format_double(stats.mean_latency_ms, 1),
                   format_double(stats.p95_latency_ms, 1),
                   std::to_string(stats.deadline_overruns),
                   std::to_string(stats.dropped_frames),
                   std::to_string(stats.model_switches)});
  };
  for (std::size_t p = 0; p < streams.size(); ++p) {
    PackRow row{run(streams[p], false), run(streams[p], true)};
    row.cut_ok = row.governed.deadline_overruns * kMinOverrunCut <=
                 row.paper.deadline_overruns;
    overrun_cut_ok = overrun_cut_ok && row.cut_ok;
    add_row(kPacks[p].name, "paper", row.paper);
    add_row(kPacks[p].name, "paper+governor", row.governed);
    rows.push_back(row);
  }
  std::printf("%s", table.to_string().c_str());
  for (std::size_t p = 0; p < rows.size(); ++p) {
    std::printf("%s: governor overruns %zu -> %zu (need >= %zux cut): %s\n",
                kPacks[p].name, rows[p].paper.deadline_overruns,
                rows[p].governed.deadline_overruns, kMinOverrunCut,
                rows[p].cut_ok ? "ok" : "FAIL");
  }
  std::printf("scenario trace hashes rerun/thread invariant: %s\n",
              scenario_replay_identical ? "yes" : "NO (determinism bug!)");

  std::FILE* out = std::fopen("BENCH_scenarios.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr,
                 "[bench_scenarios] cannot open BENCH_scenarios.json\n");
    return 1;
  }
  const auto emit = [out](const char* name, const RunStats& stats,
                          const char* suffix) {
    std::fprintf(out, "      \"%s\": {\n", name);
    std::fprintf(out, "        \"f1\": %.4f,\n", stats.f1);
    std::fprintf(out, "        \"mean_latency_ms\": %.3f,\n",
                 stats.mean_latency_ms);
    std::fprintf(out, "        \"p95_latency_ms\": %.3f,\n",
                 stats.p95_latency_ms);
    std::fprintf(out, "        \"deadline_overruns\": %zu,\n",
                 stats.deadline_overruns);
    std::fprintf(out, "        \"dropped_frames\": %zu,\n",
                 stats.dropped_frames);
    std::fprintf(out, "        \"model_switches\": %zu,\n",
                 stats.model_switches);
    std::fprintf(out, "        \"timeline_hash\": \"%016llx\"\n",
                 static_cast<unsigned long long>(stats.timeline_hash));
    std::fprintf(out, "      }%s\n", suffix);
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"frames_per_pack\": %zu,\n", kStreamLength);
  std::fprintf(out, "  \"deadline_ms\": %.1f,\n", kDeadlineMs);
  std::fprintf(out, "  \"scenario_replay_identical\": %s,\n",
               scenario_replay_identical ? "true" : "false");
  std::fprintf(out, "  \"min_overrun_cut\": %zu,\n", kMinOverrunCut);
  std::fprintf(out, "  \"overrun_cut_ok\": %s,\n",
               overrun_cut_ok ? "true" : "false");
  std::fprintf(out, "  \"packs\": {\n");
  for (std::size_t p = 0; p < streams.size(); ++p) {
    std::fprintf(out, "    \"%s\": {\n", kPacks[p].name);
    std::fprintf(out, "      \"spec\": \"%s\",\n", kPacks[p].spec);
    std::fprintf(out, "      \"scenario_trace_hash\": \"%016llx\",\n",
                 static_cast<unsigned long long>(scenario_hashes[p]));
    std::fprintf(out, "      \"overrun_cut_ok\": %s,\n",
                 rows[p].cut_ok ? "true" : "false");
    emit("paper", rows[p].paper, ",");
    emit("paper_governor", rows[p].governed, "");
    std::fprintf(out, "    }%s\n", p + 1 < streams.size() ? "," : "");
  }
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_scenarios.json\n");
  return (scenario_replay_identical && overrun_cut_ok) ? 0 : 1;
}
