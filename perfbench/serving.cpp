#include "perfbench/serving.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>

#include "bench/common.hpp"
#include "core/artifact.hpp"
#include "core/quantize.hpp"
#include "detect/detection.hpp"
#include "device/session.hpp"
#include "perfbench/reference.hpp"
#include "world/featurizer.hpp"

namespace perfbench {
namespace {

using anole::core::AnoleEngine;
using anole::core::AnoleSystem;
using anole::core::EngineResult;

/// 30 fps camera.
constexpr double kDeadlineMs = 33.3;
/// Byte budget of stream_hostile, in largest-model units: one below the
/// LFU capacity of 5, so budget evictions happen on top of slot evictions.
constexpr std::uint64_t kBudgetModels = 4;
/// Timed passes before the timed phase may end. Every timed figure is an
/// interquartile mean over passes, so one pass that a co-tenant slowed
/// does not move it.
constexpr std::size_t kMinPasses = 3;
/// Chunk size of the traced process_batch() pass.
constexpr std::size_t kChunk = 64;
/// Frames per throughput window of the frame-by-frame passes.
constexpr std::size_t kWindow = 500;

/// stream_hostile arms every pack and five of the six fault sites (the
/// artifact_section site only fires at load time, which the device-side
/// setup exercises clean). Rates are high enough that each site fires
/// dozens of times per 8000-frame pass.
constexpr ServingSpec kStreamClean{};
constexpr ServingSpec kStreamHostile{
    "drift=1,degrade=1x3,bursts=0.35,diurnal=1",
    "model_load=0.25,load_latency_spike=0.05x8,memory_pressure=0.001x5,"
    "frame_payload=0.004,decision_output=0.004",
    true};

std::string save(AnoleSystem& system, std::uint32_t version) {
  std::ostringstream out;
  anole::core::save_system(system, out, version);
  return out.str();
}

AnoleSystem load(const std::string& blob) {
  std::istringstream in(blob);
  return anole::core::load_system(in);
}

std::shared_ptr<anole::fault::FaultInjector> make_faults(
    const ServingSpec& spec, std::uint64_t seed) {
  if (spec.faults == nullptr) return nullptr;
  return std::make_shared<anole::fault::FaultInjector>(
      "seed=" + std::to_string(seed) + "," + spec.faults);
}

anole::core::EngineConfig engine_config(
    AnoleSystem& system, const ServingSpec& spec,
    std::shared_ptr<anole::fault::FaultInjector> faults) {
  anole::core::EngineConfig config;
  config.cache = anole::bench::standard_cache_config();
  if (spec.byte_budget) {
    std::uint64_t largest = 0;
    for (std::size_t m = 0; m < system.model_count(); ++m) {
      largest = std::max(largest, system.repository.detector(m).weight_bytes());
    }
    config.cache.memory_budget_bytes = kBudgetModels * largest;
  }
  config.faults = std::move(faults);
  return config;
}

/// One pass of the engine over the whole stream with a fresh engine and
/// fault schedule.
struct Pass {
  std::shared_ptr<anole::fault::FaultInjector> faults;
  std::unique_ptr<AnoleEngine> engine;
  std::vector<EngineResult> results;
  /// Per-frame process() time in microseconds.
  std::vector<double> sample_us;
  /// Throughput block times (reference.hpp) before the first frame and
  /// after every kWindow frames: window w lies between blocks w and w + 1.
  std::vector<double> throughput_us;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;

  Pass(AnoleSystem& system, const ServingSpec& spec, std::uint64_t seed)
      : faults(make_faults(spec, seed)),
        engine(std::make_unique<AnoleEngine>(
            system, engine_config(system, spec, faults))) {}
};

std::uint64_t digest_of(const std::vector<EngineResult>& results) {
  Digest digest;
  for (const EngineResult& result : results) digest.mix(result);
  return digest.value();
}

/// The closed loop of the timed phase: the next frame is submitted when
/// the previous process() call returns.
Pass timed_pass(AnoleSystem& system, const ServingSpec& spec,
                std::uint64_t seed,
                const std::vector<const anole::world::Frame*>& frames) {
  Pass pass(system, spec, seed);
  pass.results.reserve(frames.size());
  pass.sample_us.reserve(frames.size());
  const Usage before = Usage::now();
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i % kWindow == 0) pass.throughput_us.push_back(throughput_block_us());
    const std::int64_t t0 = now_ns();
    EngineResult result = pass.engine->process(*frames[i]);
    pass.sample_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    pass.results.push_back(std::move(result));
  }
  pass.throughput_us.push_back(throughput_block_us());
  pass.wall_s = seconds_since(start);
  const Usage after = Usage::now();
  pass.cpu_s = after.cpu_s - before.cpu_s;
  pass.ctx_switches = after.ctx_switches - before.ctx_switches;
  return pass;
}

/// A frame with no detector output (shed, corrupt payload) or served by
/// the pinned fallback after an abandoned load.
bool frame_failed(const EngineResult& result) {
  return result.health.frame_dropped || result.health.payload_corrupt ||
         (result.health.served_degraded && result.health.load_abandoned);
}

/// Deterministic outcome of one pass: detection quality and the modelled
/// Jetson TX2 NX timeline, with each FrameCost built from the
/// EngineResult the way bench_scenarios builds it.
struct Served {
  anole::detect::MatchCounts counts;
  std::size_t frames = 0;
  std::size_t failed_frames = 0;
  std::size_t deadline_misses = 0;
  std::size_t detector_frames = 0;
  std::size_t top1_served = 0;
  std::size_t loads = 0;
  double detector_flops = 0.0;
  double weight_bytes_loaded = 0.0;
  double load_ms = 0.0;
  double compute_ms = 0.0;
  std::vector<double> latency_ms;
  std::size_t latency_spikes = 0;
  std::size_t quantized_loads = 0;
};

Served account(Pass& pass, AnoleSystem& system, AnoleSystem& fp32,
               const std::vector<const anole::world::Frame*>& frames) {
  namespace device = anole::device;
  // Priced against the fp32 compressed model, so an int8 load streams
  // proportionally fewer paper-MB (as bench_quant prices it).
  auto& reference = fp32.repository.detector(0);
  const auto tx2 =
      device::DeviceProfile::jetson_tx2_nx(reference.flops_per_frame());
  const device::MemoryModel memory(reference.weight_bytes());
  const std::uint64_t decision_flops = system.decision->flops_per_sample();
  device::DeviceSession session(tx2, 1.0, pass.faults.get());

  Served served;
  served.frames = pass.results.size();
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    const EngineResult& result = pass.results[i];
    served.counts +=
        anole::detect::match_detections(result.detections, frames[i]->objects);
    const bool failed = frame_failed(result);
    if (failed) ++served.failed_frames;
    if (result.served_model == result.top1_model && !failed) {
      ++served.top1_served;
    }
    if (result.model_loaded) ++served.loads;
    if (result.health.frame_dropped) {
      ++served.deadline_misses;
      continue;
    }
    auto& detector = system.repository.detector(result.served_model);
    const std::uint64_t bytes = detector.weight_bytes();
    const double weight_mb = memory.load_mb(bytes);
    // A load of the pinned fallback bypasses fault injection and counts no
    // attempt, so only subtract the successful attempt when one was made.
    const std::size_t successful = result.model_loaded ? 1 : 0;
    const std::size_t failed_attempts =
        result.health.load_attempts > successful
            ? result.health.load_attempts - successful
            : 0;
    device::FrameCost cost;
    cost.decision_flops = result.ranking_reused ? 0 : decision_flops;
    cost.detector_flops = detector.flops_per_frame();
    cost.loaded_weight_mb = result.model_loaded ? weight_mb : 0.0;
    cost.retried_weight_mb = static_cast<double>(failed_attempts) * weight_mb;
    cost.deadline_ms = kDeadlineMs;
    cost.quantized = result.health.served_quantized;
    const double latency = session.process(cost);
    double compute = tx2.inference_latency_ms(cost.detector_flops);
    if (cost.decision_flops > 0) {
      compute += tx2.inference_latency_ms(cost.decision_flops);
    }
    served.compute_ms += compute;
    served.load_ms += latency - compute;
    served.weight_bytes_loaded +=
        static_cast<double>(successful + failed_attempts) *
        static_cast<double>(bytes);
    if (!result.health.payload_corrupt) {
      ++served.detector_frames;
      served.detector_flops += static_cast<double>(cost.detector_flops);
    }
    if (failed || latency > kDeadlineMs) ++served.deadline_misses;
  }
  served.latency_ms = session.frame_latencies_ms();
  std::sort(served.latency_ms.begin(), served.latency_ms.end());
  served.latency_spikes = session.latency_spikes();
  served.quantized_loads = session.quantized_loads();
  return served;
}

/// Layer times of the traced runs, in microseconds per frame (per chunk
/// for the *_batch figures).
struct LayerTimes {
  std::vector<double> process, featurize, decision, detect_int8, detect_fp32,
      plan_self;
  std::vector<double> process_batch, featurize_batch, decision_batch,
      batch_self;
  std::uint64_t frame_digest = 0;
  std::uint64_t batch_digest = 0;
  std::uint64_t resident_bytes_max = 0;
  std::unique_ptr<AnoleEngine> engine;  // the traced frame pass's, for counters
};

/// Traced frame pass: each process() call gets an engine span, and the
/// layers inside it are timed by re-issuing the same public calls on the
/// same input next to it (featurize, decision suitability, detector infer
/// at both precisions). plan_self is the residual of the engine span.
void traced_frame_pass(DeviceSide& device, const ServingSpec& spec,
                       std::uint64_t seed,
                       const std::vector<const anole::world::Frame*>& frames,
                       SpanRecorder& recorder, LayerTimes& times) {
  Pass pass(device.served, spec, seed);
  const anole::world::FrameFeaturizer featurizer;
  Digest digest;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const anole::world::Frame& frame = *frames[i];
    const auto id = static_cast<std::int64_t>(i);
    const auto root = static_cast<std::int64_t>(recorder.open("frame", -1, id));
    const auto child = [&](const char* name) {
      return recorder.open(name, root, id);
    };
    std::size_t span = child("core.process");
    const EngineResult result = pass.engine->process(frame);
    const double process_us = recorder.close(span);
    times.resident_bytes_max = std::max(times.resident_bytes_max,
                                        pass.engine->cache().resident_bytes());

    span = child("world.featurize");
    const anole::Tensor descriptor = featurizer.featurize(frame);
    const double featurize_us = recorder.close(span);
    span = child("core.decision");
    device.served.decision->suitability(descriptor);
    const double decision_us = recorder.close(span);
    double detect_us = 0.0;
    const bool detector_ran =
        !result.health.frame_dropped && !result.health.payload_corrupt;
    if (detector_ran) {
      const std::size_t model = result.served_model;
      span = child("detect.infer_int8");
      device.served.repository.detector(model).infer(frame);
      const double int8_us = recorder.close(span);
      span = child("detect.infer_fp32");
      device.fp32.repository.detector(model).infer(frame);
      const double fp32_us = recorder.close(span);
      times.detect_int8.push_back(int8_us);
      times.detect_fp32.push_back(fp32_us);
      detect_us = int8_us;
    }
    recorder.close(static_cast<std::size_t>(root));
    times.process.push_back(process_us);
    times.featurize.push_back(featurize_us);
    times.decision.push_back(decision_us);
    times.plan_self.push_back(
        std::max(0.0, process_us - featurize_us - decision_us - detect_us));
    digest.mix(result);
  }
  times.frame_digest = digest.value();
  times.engine = std::move(pass.engine);
}

/// Traced chunk pass: process_batch() spans with featurize_batch and the
/// batched decision call re-issued next to them; batch_self (plan stage
/// plus the detect fan-out) is the residual.
void traced_batch_pass(DeviceSide& device, const ServingSpec& spec,
                       std::uint64_t seed,
                       const std::vector<const anole::world::Frame*>& frames,
                       SpanRecorder& recorder, LayerTimes& times) {
  Pass pass(device.served, spec, seed);
  const anole::world::FrameFeaturizer featurizer;
  Digest digest;
  for (std::size_t begin = 0; begin < frames.size(); begin += kChunk) {
    const std::size_t end = std::min(frames.size(), begin + kChunk);
    const std::vector<const anole::world::Frame*> chunk(
        frames.begin() + static_cast<std::ptrdiff_t>(begin),
        frames.begin() + static_cast<std::ptrdiff_t>(end));
    const auto id = static_cast<std::int64_t>(begin / kChunk);
    const auto root = static_cast<std::int64_t>(recorder.open("chunk", -1, id));
    std::size_t span = recorder.open("core.process_batch", root, id);
    const std::vector<EngineResult> results = pass.engine->process_batch(chunk);
    const double batch_us = recorder.close(span);
    span = recorder.open("world.featurize_batch", root, id);
    const anole::Tensor descriptors = featurizer.featurize_batch(chunk);
    const double featurize_us = recorder.close(span);
    span = recorder.open("core.decision_batch", root, id);
    device.served.decision->suitability(descriptors);
    const double decision_us = recorder.close(span);
    recorder.close(static_cast<std::size_t>(root));
    if (chunk.size() == kChunk) {  // only full chunks are comparable
      times.process_batch.push_back(batch_us);
      times.featurize_batch.push_back(featurize_us);
      times.decision_batch.push_back(decision_us);
      times.batch_self.push_back(
          std::max(0.0, batch_us - featurize_us - decision_us));
    }
    for (const EngineResult& result : results) digest.mix(result);
  }
  times.batch_digest = digest.value();
}

std::vector<const anole::world::Frame*> frame_pointers(
    const anole::world::Clip& clip) {
  std::vector<const anole::world::Frame*> frames;
  frames.reserve(clip.frames.size());
  for (const auto& frame : clip.frames) frames.push_back(&frame);
  return frames;
}

}  // namespace

const ServingSpec* find_serving_spec(const std::string& workload) {
  if (workload == "stream_clean") return &kStreamClean;
  if (workload == "stream_hostile") return &kStreamHostile;
  return nullptr;
}

Blobs build_blobs(AnoleSystem& trained, SpanRecorder& recorder) {
  Blobs blobs;
  blobs.fp32_v2 = save(trained, 2);
  {
    ScopedSpan span(recorder, "core.quantize");
    anole::core::quantize_system(trained);
  }
  ScopedSpan span(recorder, "core.artifact.save");
  blobs.int8_v3 = save(trained, 3);
  return blobs;
}

DeviceSide device_setup(const anole::world::World& world, const Blobs& blobs,
                        const ServingSpec& spec, std::uint64_t seed,
                        SpanRecorder& recorder) {
  DeviceSide device;
  {
    ScopedSpan span(recorder, "core.artifact.load");
    device.served = load(blobs.int8_v3);
  }
  device.fp32 = load(blobs.fp32_v2);
  {
    ScopedSpan span(recorder, "world.compose");
    std::string scenario = "seed=" + std::to_string(seed);
    if (spec.packs[0] != '\0') scenario += std::string(",") + spec.packs;
    device.stream = anole::world::compose_scenario(
        world, anole::world::ScenarioConfig::parse(scenario), kStreamFrames);
  }
  // Engine construction is part of set-up; the timed passes build their
  // own engines (outside the timed loop) so every pass starts cold.
  const AnoleEngine engine(
      device.served,
      engine_config(device.served, spec, make_faults(spec, seed)));
  return device;
}

/// Figures of the timed phase. The percentiles have one entry per pass.
/// Frame times are scaled to the nominal host (reference.hpp).
struct TimedPhase {
  std::vector<double> frame_p50_us;
  std::vector<double> frame_p99_us;
  /// Time of every kWindow consecutive process() calls.
  std::vector<double> window_us;
  /// Unscaled p50 of every pass, and every throughput block.
  std::vector<double> wall_p50_us;
  std::vector<double> throughput_us;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;
  std::size_t frames = 0;

  void add_usage(const Pass& pass) {
    wall_s += pass.wall_s;
    cpu_s += pass.cpu_s;
    ctx_switches += pass.ctx_switches;
    frames += pass.results.size();
  }
};

double serve(DeviceSide& device, const ServingSpec& spec, std::uint64_t seed,
             double seconds, Outcome& outcome, SpanRecorder& recorder) {
  const auto frames = frame_pointers(device.stream.clip);
  Checks& checks = outcome.checks;

  // ---- Timed phase (no spans): whole passes, each on a fresh engine,
  // until `seconds` have passed and there are kMinPasses.
  warm_up_pool();
  const std::int64_t start = now_ns();
  TimedPhase phase;
  std::unique_ptr<Pass> first;
  while (seconds_since(start) < seconds ||
         phase.frame_p50_us.size() < kMinPasses) {
    Pass pass = timed_pass(device.served, spec, seed, frames);
    // Each frame is scaled by the mean of the throughput blocks at both
    // ends of its window, so a change of host speed within a pass is
    // followed window by window.
    std::vector<double> us = pass.sample_us;
    for (std::size_t i = 0; i < us.size(); ++i) {
      const std::size_t w = i / kWindow;
      us[i] *= nominal_scale(
          0.5 * (pass.throughput_us[w] + pass.throughput_us[w + 1]));
    }
    for (std::size_t i = 0; i + kWindow <= us.size(); i += kWindow) {
      const auto window = us.begin() + static_cast<std::ptrdiff_t>(i);
      phase.window_us.push_back(std::accumulate(
          window, window + static_cast<std::ptrdiff_t>(kWindow), 0.0));
    }
    std::sort(us.begin(), us.end());
    const auto p99 = reportable_percentile(us, 99);
    checks.expect(p99.has_value(), "frame p99 has >= 10 samples beyond it");
    phase.frame_p50_us.push_back(percentile_sorted(us, 50));
    phase.frame_p99_us.push_back(p99.value_or(us.back()));
    phase.wall_p50_us.push_back(median(pass.sample_us));
    phase.throughput_us.insert(phase.throughput_us.end(),
                               pass.throughput_us.begin(),
                               pass.throughput_us.end());
    phase.add_usage(pass);
    if (first == nullptr) {
      first = std::make_unique<Pass>(std::move(pass));
    } else {
      checks.expect(digest_of(pass.results) == digest_of(first->results),
                    "timed process() pass replays the first bitwise");
    }
  }
  checks.count_operations(phase.frames);
  const std::uint64_t frame_digest = digest_of(first->results);

  // ---- Traced phase: one frame pass and one chunk pass.
  LayerTimes times;
  traced_frame_pass(device, spec, seed, frames, recorder, times);
  traced_batch_pass(device, spec, seed, frames, recorder, times);
  checks.count_operations(2 * frames.size());
  checks.expect(times.frame_digest == frame_digest,
                "traced process() digest equals the timed run's");
  checks.expect(times.batch_digest == frame_digest,
                "traced process_batch() equals process() frame by frame");

  const Served served = account(*first, device.served, device.fp32, frames);
  const auto modelled_p99 = reportable_percentile(served.latency_ms, 99);
  checks.expect(modelled_p99.has_value(),
                "modelled p99 has >= 10 samples beyond it");
  const AnoleEngine& engine = *times.engine;
  const auto& cache = engine.cache();

  Report& e2e = outcome.end_to_end;
  e2e.add("frame_p50_us", interquartile_mean(phase.frame_p50_us), "us",
          Kind::kMeasured);
  e2e.add("frame_p99_us", interquartile_mean(phase.frame_p99_us), "us",
          Kind::kMeasured);
  // Scaling by the throughput block removes most of the host's speed
  // changes; per-pass figures are combined by their interquartile mean,
  // which ignores the passes in which the block followed them worst.
  // Throughput is that of the interquartile-mean 500-frame window.
  e2e.add("frames_per_s",
          static_cast<double>(kWindow) * 1e6 /
              interquartile_mean(phase.window_us),
          "1/s", Kind::kMeasured);
  const double fail_rate = rate(served.failed_frames, served.frames);
  e2e.add("frame_ok_rate", 1.0 - fail_rate, "fraction", Kind::kCount);

  const std::string attempted =
      " / " + std::to_string(served.frames) + " attempted frames";
  std::string passes = std::to_string(frames.size()) + " frames per pass; " +
                       std::to_string(phase.frame_p50_us.size()) +
                       " timed process() passes, p50 us (scaled/wall):";
  for (std::size_t p = 0; p < phase.frame_p50_us.size(); ++p) {
    passes += ' ' + std::to_string(std::lround(phase.frame_p50_us[p])) + '/' +
              std::to_string(std::lround(phase.wall_p50_us[p]));
  }
  outcome.notes.push_back(passes);
  outcome.notes.push_back("frame_fail_rate " + std::to_string(fail_rate) +
                          " = " + std::to_string(served.failed_frames) +
                          attempted);
  outcome.notes.push_back("deadline misses " +
                          std::to_string(served.deadline_misses) + attempted +
                          " at " + std::to_string(kDeadlineMs) + " ms");

  Report& layer = outcome.per_layer;
  const auto measured = [&](const char* name, double value, const char* unit) {
    layer.add(name, value, unit, Kind::kMeasured);
  };
  const auto modelled = [&](const char* name, double value, const char* unit) {
    layer.add(name, value, unit, Kind::kModelled);
  };
  const auto count = [&](const char* name, double value,
                         const char* unit = "count") {
    layer.add(name, value, unit, Kind::kCount);
  };
  const auto n_frames = static_cast<double>(served.frames);
  modelled("device.modelled_mean_ms",
           std::accumulate(served.latency_ms.begin(), served.latency_ms.end(),
                           0.0) / static_cast<double>(served.latency_ms.size()),
           "ms");
  modelled("device.modelled_p99_ms", modelled_p99.value_or(0.0), "ms");
  modelled("device.deadline_miss_rate",
           rate(served.deadline_misses, served.frames), "fraction");
  measured("world.featurize_us", median(times.featurize), "us");
  measured("world.featurize_batch_ms", median(times.featurize_batch) * 1e-3,
           "ms");
  measured("core.decision_us", median(times.decision), "us");
  measured("core.decision_batch_ms", median(times.decision_batch) * 1e-3, "ms");
  count("core.decision.flops_per_frame",
        static_cast<double>(device.served.decision->flops_per_sample()));
  measured("detect.infer_us", median(times.detect_int8), "us");
  measured("detect.infer_fp32_us", median(times.detect_fp32), "us");
  count("detect.flops_per_frame",
        served.detector_flops / static_cast<double>(served.detector_frames));
  count("detect.weight_bytes_loaded", served.weight_bytes_loaded, "B");
  measured("core.plan_self_us", median(times.plan_self), "us");
  measured("core.batch_self_ms", median(times.batch_self) * 1e-3, "ms");
  count("core.engine.switches", static_cast<double>(engine.model_switches()));
  count("core.engine.top1_served_ratio",
        rate(served.top1_served, served.frames), "fraction");
  count("core.engine.low_confidence_frames",
        static_cast<double>(engine.low_confidence_frames()));
  count("core.engine.nonfinite_frames",
        static_cast<double>(engine.nonfinite_frames()));
  count("core.cache.miss_rate", cache.miss_rate(), "fraction");
  count("core.cache.loads", static_cast<double>(served.loads));
  count("core.cache.load_failures", static_cast<double>(cache.load_failures()));
  count("core.cache.quarantine_events",
        static_cast<double>(cache.quarantine_events()));
  count("core.cache.budget_evictions",
        static_cast<double>(cache.budget_evictions()));
  count("core.cache.oversized_rejections",
        static_cast<double>(cache.oversized_rejections()));
  count("core.cache.resident_bytes_max",
        static_cast<double>(times.resident_bytes_max), "B");
  modelled("device.modelled_load_ms", served.load_ms / n_frames, "ms");
  modelled("device.modelled_compute_ms", served.compute_ms / n_frames, "ms");
  count("device.latency_spikes", static_cast<double>(served.latency_spikes));
  count("device.quantized_loads", static_cast<double>(served.quantized_loads));
  measured("proc.cpu_util", phase.cpu_s / phase.wall_s, "fraction");
  measured("proc.ctx_switches_per_kframe",
           static_cast<double>(phase.ctx_switches) * 1000.0 /
               static_cast<double>(phase.frames),
           "count");

  measured("host.throughput_block_us", median(phase.throughput_us), "us");

  // Tracing checks, against the untraced process() wall time.
  const double untraced = interquartile_mean(phase.wall_p50_us);
  const double traced = median(times.process);
  const double parts = median(times.featurize) + median(times.decision) +
                       median(times.detect_int8) + median(times.plan_self);
  measured("trace.overhead_frac", traced / untraced - 1.0, "fraction");
  measured("trace.closure_frac", parts / untraced, "fraction");
  return served.counts.f1();
}

void report_setup_layers(const SpanRecorder& recorder, Outcome& outcome) {
  const auto add = [&](const char* name, const char* span, double scale,
                       const char* unit) {
    outcome.per_layer.add(name, median(recorder.durations(span)) * scale, unit,
                          Kind::kMeasured);
  };
  add("world.compose_s", "world.compose", 1e-6, "s");
  add("core.artifact.load_ms", "core.artifact.load", 1e-3, "ms");
  add("core.artifact.save_ms", "core.artifact.save", 1e-3, "ms");
  add("core.quantize_s", "core.quantize", 1e-6, "s");
}

}  // namespace perfbench
