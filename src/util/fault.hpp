// Deterministic fault injection for the online (OMI) path.
//
// A FaultInjector owns one seeded Rng stream per named injection site
// (model loads, artifact sections, decision outputs, frame payloads, load
// latency spikes, memory pressure). Every component that can fail consults its injector at
// a fixed point in the *sequential* part of its pipeline, so for a given
// (seed, site probabilities) configuration the full fault schedule — which
// events fail, in which order — is replayable bit-for-bit across runs and
// across thread counts. The injector records every fired event in a trace
// whose hash tests compare to pin that guarantee.
//
// Configuration comes from the ANOLE_FAULTS environment variable (see
// parse grammar below) or programmatically via arm()/disarm(). With no
// injector attached (the default), every faultable path is a branch on a
// null pointer — the clean path is unchanged.
//
// Spec grammar (comma-separated tokens):
//   ANOLE_FAULTS="seed=42,model_load=0.01,load_latency_spike=0.02x25"
//     seed=<u64>            stream seed (default 0xFA017)
//     <site>=<probability>  per-check failure probability in [0, 1]
//     <site>=<p>x<mag>      probability plus a site-specific magnitude
//                           (e.g. the latency multiplier of a load spike)
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace anole::fault {

/// Named injection sites. Each site has its own Rng stream so arming or
/// firing one site never perturbs another site's schedule.
enum class Site : std::size_t {
  /// A compressed-model load into the cache fails (storage/driver error).
  kModelLoad = 0,
  /// An artifact section arrives corrupted (one bit flipped before the
  /// CRC check at load time).
  kArtifactSection,
  /// The decision model emits a non-finite suitability entry.
  kDecisionOutput,
  /// A frame arrives with a corrupt payload (sensor/transport error).
  kFramePayload,
  /// A model load stalls (I/O contention); latency multiplied by the
  /// site's magnitude.
  kLoadLatencySpike,
  /// The OS reclaims device memory: the cache's byte budget shrinks by
  /// the site's magnitude (divisor) for a pressure window of admissions.
  kMemoryPressure,
};

inline constexpr std::size_t kSiteCount = 6;

const char* to_string(Site site);
std::optional<Site> site_from_name(std::string_view name);

/// One fired injection, in firing order.
struct FaultEvent {
  Site site = Site::kModelLoad;
  /// Index of the check (per site) that fired.
  std::uint64_t check_index = 0;
  /// Site-specific detail: model id, section index, frame ordinal...
  std::uint64_t payload = 0;
};

class FaultInjector {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0xFA017ULL;

  explicit FaultInjector(std::uint64_t seed = kDefaultSeed);

  /// Parses the spec grammar documented above. Throws
  /// anole::ContractViolation on malformed input.
  explicit FaultInjector(const std::string& spec);

  /// Builds an injector from the ANOLE_FAULTS environment variable.
  /// Returns nullptr when the variable is unset or empty.
  static std::unique_ptr<FaultInjector> from_env();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Enables `site` with the given per-check failure probability (in
  /// [0, 1]) and magnitude. Does not reset streams or the trace.
  void arm(Site site, double probability, double magnitude = 1.0);

  /// Sets `site`'s probability to zero (its stream keeps its position).
  void disarm(Site site);

  /// True when any site has a non-zero probability.
  bool armed() const;

  double probability(Site site) const;
  double magnitude(Site site) const;

  /// One deterministic draw on `site`'s stream; true = inject the fault.
  /// `payload` is recorded in the trace when the check fires. Unarmed
  /// sites return false without advancing their stream.
  bool should_fail(Site site, std::uint64_t payload = 0);

  /// Extra deterministic draw on `site`'s stream (e.g. which entry to
  /// corrupt). Requires n > 0.
  std::size_t draw_index(Site site, std::size_t n);

  /// Checks made / faults injected at `site` since the last reset.
  std::uint64_t checks(Site site) const;
  std::uint64_t injected(Site site) const;
  std::uint64_t injected_total() const;

  /// Every fired event in firing order.
  std::vector<FaultEvent> trace() const;

  /// FNV-1a hash of the trace; equal hashes across two runs mean the two
  /// fault schedules were identical.
  std::uint64_t trace_hash() const;

  /// Re-seeds every stream from the configured seed and clears the trace
  /// and counters; site configurations are kept.
  void reset();

  std::uint64_t seed() const { return seed_; }

 private:
  struct SiteState {
    double probability = 0.0;
    double magnitude = 1.0;
    std::uint64_t checks = 0;
    std::uint64_t injected = 0;
    Rng rng;
  };

  void seed_streams();

  mutable std::mutex mutex_;
  std::uint64_t seed_ = kDefaultSeed;
  std::array<SiteState, kSiteCount> sites_;
  std::vector<FaultEvent> trace_;
};

}  // namespace anole::fault
