// The online (OMI) side of the benchmark: artifact production, the
// device-side setup, and the timed and traced serving passes shared by
// every workload.
#pragma once

#include <string>

#include "core/engine.hpp"
#include "perfbench/harness.hpp"
#include "world/scenario.hpp"

namespace perfbench {

/// Frames per composed stream. Long enough that every reported percentile
/// has well over kMinTailSamples beyond it in one pass, and that seeded
/// rates (cache misses, faults) average over many events.
inline constexpr std::size_t kStreamFrames = 8000;

/// How one workload serves its stream.
struct ServingSpec {
  /// Scenario packs armed on top of the stationary stream ("" = none).
  const char* packs = "";
  /// Fault sites armed through EngineConfig::faults and DeviceSession
  /// (nullptr = fault-free, the engine's default).
  const char* faults = nullptr;
  /// Caps resident weights at kBudgetModels of the largest model, below
  /// the LFU slot capacity.
  bool byte_budget = false;
};

/// The spec of a workload; nullptr for any other name.
const ServingSpec* find_serving_spec(const std::string& workload);

/// Serialized artifacts of one trained system.
struct Blobs {
  std::string fp32_v2;
  std::string int8_v3;
};

/// Saves `trained` as a v2 blob, quantizes it in place (quantize_system)
/// and saves it again as v3 — the production int8 path.
Blobs build_blobs(anole::core::AnoleSystem& trained, SpanRecorder& recorder);

/// Loads both artifacts (the served int8 one, and the fp32 one the traced
/// run's shadow calls and the device cost model use), composes the
/// stream, and constructs one engine on it.
struct DeviceSide {
  anole::core::AnoleSystem served;
  anole::core::AnoleSystem fp32;
  anole::world::ScenarioStream stream;
};
DeviceSide device_setup(const anole::world::World& world, const Blobs& blobs,
                        const ServingSpec& spec, std::uint64_t seed,
                        SpanRecorder& recorder);

/// Runs the timed serving passes for at least `seconds` (at least one
/// pass), then the traced passes, checks the outputs, and adds the serving
/// metrics to `outcome`: frame times, throughput, failure and deadline
/// rates, modelled latency, and the per-layer serving figures. Returns the
/// detection F1 over the stream.
double serve(DeviceSide& device, const ServingSpec& spec, std::uint64_t seed,
             double seconds, Outcome& outcome, SpanRecorder& recorder);

/// Adds world.compose_s, core.artifact.load_ms/save_ms and core.quantize_s
/// from the setup spans.
void report_setup_layers(const SpanRecorder& recorder, Outcome& outcome);

}  // namespace perfbench
