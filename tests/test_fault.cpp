// Deterministic fault injection (util/fault.hpp) and the degradation
// ladder it drives: cache retry/quarantine, engine health records, and
// bitwise-identical fault schedules across runs and thread counts.
#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/profiler.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace anole::fault {
namespace {

TEST(FaultInjector, SiteNamesRoundTrip) {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    const Site site = static_cast<Site>(i);
    const auto parsed = site_from_name(to_string(site));
    ASSERT_TRUE(parsed.has_value()) << to_string(site);
    EXPECT_EQ(*parsed, site);
  }
  EXPECT_FALSE(site_from_name("gamma_ray").has_value());
}

TEST(FaultInjector, SpecParsesSeedProbabilityMagnitude) {
  const FaultInjector injector(
      "seed=42, model_load=0.25, load_latency_spike=0.5x25");
  EXPECT_EQ(injector.seed(), 42u);
  EXPECT_DOUBLE_EQ(injector.probability(Site::kModelLoad), 0.25);
  EXPECT_DOUBLE_EQ(injector.magnitude(Site::kModelLoad), 1.0);
  EXPECT_DOUBLE_EQ(injector.probability(Site::kLoadLatencySpike), 0.5);
  EXPECT_DOUBLE_EQ(injector.magnitude(Site::kLoadLatencySpike), 25.0);
  EXPECT_DOUBLE_EQ(injector.probability(Site::kFramePayload), 0.0);
  EXPECT_TRUE(injector.armed());
}

TEST(FaultInjector, EmptySpecArmsNothing) {
  const FaultInjector injector(std::string{});
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.seed(), FaultInjector::kDefaultSeed);
}

TEST(FaultInjector, SpecRejectsMalformedTokens) {
  EXPECT_THROW(FaultInjector("gamma_ray=0.5"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=1.5"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=abc"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=0.5x0"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=0.5xfast"), ContractViolation);
  EXPECT_THROW(FaultInjector("seed=12junk"), ContractViolation);
  EXPECT_THROW(FaultInjector("=0.5"), ContractViolation);
}

TEST(FaultInjector, SpecRejectsNonFiniteAndSignedValues) {
  // The hardened parser refuses everything std::stod used to let through:
  // non-finite rates/magnitudes and signed "unsigned" seeds.
  EXPECT_THROW(FaultInjector("model_load=nan"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=inf"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=-0.25"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=0.5xnan"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=0.5xinf"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=0.5x-2"), ContractViolation);
  EXPECT_THROW(FaultInjector("seed=-1"), ContractViolation);
  EXPECT_THROW(FaultInjector("seed=+3"), ContractViolation);
  EXPECT_THROW(FaultInjector("seed=0x10"), ContractViolation);
  EXPECT_THROW(FaultInjector("model_load=0.25trailing"), ContractViolation);
}

TEST(FaultInjector, SpecErrorNamesOffendingToken) {
  // Fail-fast diagnostics must name the environment variable and the
  // offending token, not just report "bad spec".
  try {
    FaultInjector injector("model_load=0.25,gamma_ray=0.5");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("gamma_ray"), std::string::npos) << message;
    EXPECT_NE(message.find("ANOLE_FAULTS"), std::string::npos) << message;
  }
  try {
    FaultInjector injector("model_load=0.5x-3");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("model_load"), std::string::npos) << message;
  }
}

TEST(FaultInjector, FromEnvHonorsVariable) {
  const char* saved = std::getenv("ANOLE_FAULTS");
  const std::string saved_value = saved == nullptr ? "" : saved;

  ::unsetenv("ANOLE_FAULTS");
  EXPECT_EQ(FaultInjector::from_env(), nullptr);
  ::setenv("ANOLE_FAULTS", "", 1);
  EXPECT_EQ(FaultInjector::from_env(), nullptr);
  ::setenv("ANOLE_FAULTS", "seed=9,frame_payload=0.125", 1);
  const auto injector = FaultInjector::from_env();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->seed(), 9u);
  EXPECT_DOUBLE_EQ(injector->probability(Site::kFramePayload), 0.125);

  if (saved == nullptr) {
    ::unsetenv("ANOLE_FAULTS");
  } else {
    ::setenv("ANOLE_FAULTS", saved_value.c_str(), 1);
  }
}

TEST(FaultInjector, ZeroNeverFiresOneAlwaysFires) {
  FaultInjector injector;
  injector.arm(Site::kModelLoad, 1.0);
  injector.arm(Site::kFramePayload, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.should_fail(Site::kModelLoad));
    EXPECT_FALSE(injector.should_fail(Site::kFramePayload));
  }
  EXPECT_EQ(injector.injected(Site::kModelLoad), 100u);
  EXPECT_EQ(injector.checks(Site::kModelLoad), 100u);
  EXPECT_EQ(injector.checks(Site::kFramePayload), 0u);
}

TEST(FaultInjector, UnarmedSiteDoesNotAdvanceItsStream) {
  // Consulting an unarmed site must not move its stream: the schedule a
  // site produces once armed is independent of earlier clean traffic.
  FaultInjector consulted(11);
  consulted.arm(Site::kModelLoad, 0.5);
  for (int i = 0; i < 500; ++i) {
    (void)consulted.should_fail(Site::kFramePayload);  // unarmed
  }
  consulted.arm(Site::kFramePayload, 0.5);
  FaultInjector fresh(11);
  fresh.arm(Site::kFramePayload, 0.5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(consulted.should_fail(Site::kFramePayload),
              fresh.should_fail(Site::kFramePayload));
  }
}

TEST(FaultInjector, SameSeedSameScheduleDifferentSeedDiverges) {
  const std::string spec = "seed=1234,model_load=0.5,frame_payload=0.25";
  FaultInjector a(spec);
  FaultInjector b(spec);
  FaultInjector c("seed=4321,model_load=0.5,frame_payload=0.25");
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.should_fail(Site::kModelLoad, i),
              b.should_fail(Site::kModelLoad, i));
    EXPECT_EQ(a.should_fail(Site::kFramePayload, i),
              b.should_fail(Site::kFramePayload, i));
    (void)c.should_fail(Site::kModelLoad, i);
    (void)c.should_fail(Site::kFramePayload, i);
  }
  EXPECT_GT(a.injected_total(), 0u);
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  EXPECT_NE(a.trace_hash(), c.trace_hash());
}

TEST(FaultInjector, ResetReplaysTheSchedule) {
  FaultInjector injector(77);
  injector.arm(Site::kDecisionOutput, 0.3);
  std::vector<bool> first;
  for (std::uint64_t i = 0; i < 300; ++i) {
    first.push_back(injector.should_fail(Site::kDecisionOutput, i));
  }
  const std::uint64_t hash = injector.trace_hash();
  injector.reset();
  EXPECT_EQ(injector.injected_total(), 0u);
  EXPECT_EQ(injector.checks(Site::kDecisionOutput), 0u);
  for (std::uint64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(injector.should_fail(Site::kDecisionOutput, i), first[i]);
  }
  EXPECT_EQ(injector.trace_hash(), hash);
}

TEST(FaultInjector, DrawIndexDeterministicAndInRange) {
  FaultInjector a(5);
  FaultInjector b(5);
  for (int i = 0; i < 200; ++i) {
    const std::size_t index = a.draw_index(Site::kDecisionOutput, 7);
    EXPECT_LT(index, 7u);
    EXPECT_EQ(index, b.draw_index(Site::kDecisionOutput, 7));
  }
  EXPECT_THROW((void)a.draw_index(Site::kDecisionOutput, 0),
               ContractViolation);
}

TEST(FaultInjector, TraceRecordsSitePayloadAndOrder) {
  FaultInjector injector;
  injector.arm(Site::kModelLoad, 1.0);
  (void)injector.should_fail(Site::kModelLoad, 40);
  (void)injector.should_fail(Site::kModelLoad, 41);
  const auto trace = injector.trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].site, Site::kModelLoad);
  EXPECT_EQ(trace[0].check_index, 0u);
  EXPECT_EQ(trace[0].payload, 40u);
  EXPECT_EQ(trace[1].check_index, 1u);
  EXPECT_EQ(trace[1].payload, 41u);
}

}  // namespace
}  // namespace anole::fault

namespace anole::core {
namespace {

using fault::FaultInjector;
using fault::Site;

CacheConfig ladder_config() {
  CacheConfig config;
  config.capacity = 2;
  return config;
}

constexpr std::size_t kQuarantineFrames = ModelCache::kQuarantineFrames;

TEST(CacheLadder, RetrySucceedsWithinOneAdmission) {
  // Hunt a seed whose model_load stream starts fail-then-succeed, so the
  // retry (not the first attempt) lands the load. Deterministic: the same
  // seed always produces the same stream.
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 0; candidate < 200; ++candidate) {
    FaultInjector probe(candidate);
    probe.arm(Site::kModelLoad, 0.5);
    if (probe.should_fail(Site::kModelLoad) &&
        !probe.should_fail(Site::kModelLoad)) {
      seed = candidate;
      break;
    }
    ASSERT_NE(candidate, 199u) << "no fail-then-succeed seed in range";
  }
  FaultInjector injector(seed);
  injector.arm(Site::kModelLoad, 0.5);
  ModelCache cache(3, ladder_config());
  cache.set_fault_injector(&injector);
  const auto admission = cache.admit({1, 0, 2});
  EXPECT_EQ(admission.load_attempts, 2u);
  EXPECT_FALSE(admission.load_abandoned);
  EXPECT_EQ(admission.loaded, 1u);
  EXPECT_EQ(admission.served_model, 1u);
  EXPECT_EQ(cache.load_failures(), 1u);
  EXPECT_EQ(cache.abandoned_loads(), 0u);
}

TEST(CacheLadder, QuarantineAfterRepeatedAbandonmentThenDecays) {
  FaultInjector injector;
  injector.arm(Site::kModelLoad, 1.0);  // every load fails
  ModelCache cache(3, ladder_config());
  cache.set_fault_injector(&injector);
  cache.set_pinned_fallback(0);

  // Abandonments short of the quarantine threshold: cold cache, so the
  // pinned fallback serves.
  ModelCache::Admission admission;
  for (std::size_t i = 1; i < ModelCache::kQuarantineAfter; ++i) {
    admission = cache.admit({1});
    EXPECT_TRUE(admission.load_abandoned);
    EXPECT_EQ(admission.load_attempts, ModelCache::kMaxLoadAttempts);
    EXPECT_FALSE(admission.quarantined.has_value());
    EXPECT_TRUE(admission.served_pinned);
    EXPECT_EQ(admission.served_model, 0u);
    EXPECT_FALSE(cache.is_quarantined(1));
  }

  // The next consecutive abandonment trips the quarantine.
  admission = cache.admit({1});
  EXPECT_TRUE(admission.load_abandoned);
  EXPECT_EQ(admission.quarantined, 1u);
  EXPECT_TRUE(cache.is_quarantined(1));
  EXPECT_EQ(cache.quarantined_models(), std::vector<std::size_t>{1});
  EXPECT_EQ(cache.quarantine_events(), 1u);

  // While quarantined, model 1 is skipped: the ranking degrades to the
  // next admissible model with no load attempt.
  admission = cache.admit({1, 0});
  EXPECT_TRUE(admission.hit);
  EXPECT_EQ(admission.served_model, 0u);
  EXPECT_EQ(admission.load_attempts, 0u);

  // Decayed re-admission: the cooldown is kQuarantineFrames admissions
  // (one was just spent above).
  std::size_t waited = 1;
  while (cache.is_quarantined(1)) {
    (void)cache.admit({0});
    ++waited;
    ASSERT_LE(waited, 4 * kQuarantineFrames);
  }
  EXPECT_EQ(waited, kQuarantineFrames);

  // Re-offend: the second quarantine's cooldown is doubled.
  for (std::size_t i = 1; i < ModelCache::kQuarantineAfter; ++i) {
    (void)cache.admit({1, 0});
  }
  admission = cache.admit({1, 0});
  EXPECT_EQ(admission.quarantined, 1u);
  waited = 0;
  while (cache.is_quarantined(1)) {
    (void)cache.admit({0});
    ++waited;
    ASSERT_LE(waited, 4 * kQuarantineFrames);
  }
  EXPECT_EQ(waited, 2 * kQuarantineFrames);
  EXPECT_EQ(cache.quarantine_events(), 2u);
}

TEST(CacheLadder, PinnedFallbackLoadBypassesInjection) {
  FaultInjector injector;
  injector.arm(Site::kModelLoad, 1.0);
  ModelCache cache(3, ladder_config());
  cache.set_fault_injector(&injector);
  cache.set_pinned_fallback(2);
  const auto admission = cache.admit({});
  EXPECT_TRUE(admission.served_pinned);
  EXPECT_EQ(admission.served_model, 2u);
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.degraded_serves(), 1u);
}

TEST(CacheLadder, QuarantineForeverNeverReadmits) {
  ModelCache cache(3, ladder_config());
  cache.set_pinned_fallback(0);
  cache.quarantine_forever(1);
  for (int i = 0; i < 100; ++i) {
    const auto admission = cache.admit({1, 2});
    EXPECT_NE(admission.served_model, 1u);
  }
  EXPECT_TRUE(cache.is_quarantined(1));
  // The pinned fallback cannot be exiled: it is the last line of defence.
  EXPECT_THROW(cache.quarantine_forever(0), ContractViolation);
}

/// Engine-level ladder tests share one trained system (same scale as the
/// artifact tests: a small world, 6 compressed models).
class EngineFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    world::WorldConfig world_config;
    world_config.frames_per_clip = 50;
    world_config.clip_scale = 0.12;
    world_config.seed = 77;
    world_ = std::make_unique<world::World>(
        world::make_benchmark_world(world_config));
    ProfilerConfig config;
    config.encoder.train.epochs = 15;
    config.repository.target_models = 6;
    config.repository.detector_train.epochs = 6;
    config.repository.min_training_frames = 20;
    config.repository.min_validation_frames = 4;
    config.sampling.budget = 150;
    config.decision.train.epochs = 15;
    Rng rng(3);
    OfflineProfiler profiler(config);
    system_ = std::make_unique<AnoleSystem>(profiler.run(*world_, rng));
  }

  static void TearDownTestSuite() {
    system_.reset();
    world_.reset();
  }

  /// The test-split frames cycled out to `count` entries.
  static std::vector<const world::Frame*> frame_stream(std::size_t count) {
    const auto base = world_->frames_with_role(world::SplitRole::kTest);
    std::vector<const world::Frame*> frames;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      frames.push_back(base[i % base.size()]);
    }
    return frames;
  }

  static std::unique_ptr<world::World> world_;
  static std::unique_ptr<AnoleSystem> system_;
};

std::unique_ptr<world::World> EngineFaultTest::world_;
std::unique_ptr<AnoleSystem> EngineFaultTest::system_;

EngineConfig faulty_engine_config(const std::string& spec) {
  EngineConfig config;
  config.cache.capacity = 3;
  config.faults = std::make_shared<FaultInjector>(spec);
  return config;
}

TEST_F(EngineFaultTest, SurvivesSustainedFaultsAtEverySite) {
  // >= 1% at every engine-visible site over 2000 frames: the engine must
  // complete with zero uncaught exceptions and serve every frame either
  // by an admissible ranked model or by the pinned fallback.
  // model_load is consulted only on cache misses, which a settled LFU
  // cache makes rare — a tight capacity and a high probability keep the
  // retry/quarantine path exercised within the stream.
  EngineConfig config = faulty_engine_config(
      "seed=97,model_load=0.35,decision_output=0.02,frame_payload=0.02");
  config.cache.capacity = 2;
  AnoleEngine engine(*system_, config);
  const auto frames = frame_stream(2000);
  const std::size_t n = system_->repository.size();
  for (const world::Frame* frame : frames) {
    const EngineResult result = engine.process(*frame);
    ASSERT_LT(result.served_model, n);
    if (result.health.served_degraded) {
      EXPECT_EQ(result.served_model, engine.fallback_model());
    }
    if (result.health.payload_corrupt) {
      EXPECT_TRUE(result.detections.empty());
    }
  }
  EXPECT_EQ(engine.frames_processed(), 2000u);
  const FaultInjector& faults = *engine.faults();
  EXPECT_GT(faults.checks(Site::kModelLoad), 0u);
  EXPECT_GT(faults.injected(Site::kModelLoad), 0u);
  EXPECT_GT(faults.injected(Site::kDecisionOutput), 0u);
  EXPECT_GT(faults.injected(Site::kFramePayload), 0u);
  EXPECT_GT(engine.nonfinite_frames(), 0u);
  EXPECT_GT(engine.payload_corrupt_frames(), 0u);
  EXPECT_GT(engine.cache().load_failures(), 0u);
  // The ladder is accounting, not behavior change: the suitability guard
  // and retries kept the stream flowing.
  EXPECT_EQ(engine.nonfinite_frames(),
            faults.injected(Site::kDecisionOutput));
  EXPECT_EQ(engine.payload_corrupt_frames(),
            faults.injected(Site::kFramePayload));
}

TEST_F(EngineFaultTest, FaultScheduleIsThreadCountInvariant) {
  const std::string spec =
      "seed=1337,model_load=0.08,decision_output=0.03,frame_payload=0.02";
  const auto frames = frame_stream(600);
  const std::size_t saved_threads = par::thread_count();

  par::set_thread_count(1);
  AnoleEngine serial(*system_, faulty_engine_config(spec));
  std::vector<EngineResult> serial_results;
  serial_results.reserve(frames.size());
  for (const world::Frame* frame : frames) {
    serial_results.push_back(serial.process(*frame));
  }

  par::set_thread_count(4);
  AnoleEngine threaded(*system_, faulty_engine_config(spec));
  std::vector<EngineResult> threaded_results;
  for (std::size_t begin = 0; begin < frames.size(); begin += 128) {
    const std::size_t end = std::min(frames.size(), begin + 128);
    std::vector<const world::Frame*> batch(frames.begin() + begin,
                                           frames.begin() + end);
    auto results = threaded.process_batch(batch);
    threaded_results.insert(threaded_results.end(),
                            std::make_move_iterator(results.begin()),
                            std::make_move_iterator(results.end()));
  }
  par::set_thread_count(saved_threads);

  ASSERT_EQ(serial_results.size(), threaded_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(serial_results[i].served_model,
              threaded_results[i].served_model) << "frame " << i;
    EXPECT_EQ(serial_results[i].health.payload_corrupt,
              threaded_results[i].health.payload_corrupt) << "frame " << i;
    EXPECT_EQ(serial_results[i].detections.size(),
              threaded_results[i].detections.size()) << "frame " << i;
  }
  // The bitwise guarantee: identical fault schedules, event for event.
  EXPECT_EQ(serial.faults()->trace_hash(), threaded.faults()->trace_hash());
  EXPECT_GT(serial.faults()->injected_total(), 0u);
}

TEST_F(EngineFaultTest, CleanEngineWithoutEnvHasNoInjector) {
  const char* saved = std::getenv("ANOLE_FAULTS");
  const std::string saved_value = saved == nullptr ? "" : saved;
  ::unsetenv("ANOLE_FAULTS");
  {
    AnoleEngine engine(*system_, CacheConfig{});
    EXPECT_EQ(engine.faults(), nullptr);
    (void)engine.process(*frame_stream(1)[0]);
    EXPECT_EQ(engine.nonfinite_frames(), 0u);
    EXPECT_EQ(engine.degraded_frames(), 0u);
  }
  if (saved != nullptr) {
    ::setenv("ANOLE_FAULTS", saved_value.c_str(), 1);
  }
}

TEST_F(EngineFaultTest, EngineReadsAnoleFaultsEnv) {
  const char* saved = std::getenv("ANOLE_FAULTS");
  const std::string saved_value = saved == nullptr ? "" : saved;
  ::setenv("ANOLE_FAULTS", "seed=5,frame_payload=1", 1);
  {
    AnoleEngine engine(*system_, CacheConfig{});
    ASSERT_NE(engine.faults(), nullptr);
    EXPECT_DOUBLE_EQ(engine.faults()->probability(Site::kFramePayload), 1.0);
    const EngineResult result = engine.process(*frame_stream(1)[0]);
    EXPECT_TRUE(result.health.payload_corrupt);
    EXPECT_TRUE(result.detections.empty());
  }
  if (saved == nullptr) {
    ::unsetenv("ANOLE_FAULTS");
  } else {
    ::setenv("ANOLE_FAULTS", saved_value.c_str(), 1);
  }
}

}  // namespace
}  // namespace anole::core
