// Shared setup for the benchmark harness: the standard evaluation world
// (the paper's 64-clip KITTI/BDD/SHD mix, scaled to run on one core in a
// few minutes), the standard offline-profiling configuration, and trained
// baseline bundles. Every bench that needs a trained stack builds it
// through these helpers so results are comparable across benches.
#pragma once

#include <cstdio>
#include <memory>

#include "baselines/methods.hpp"
#include "core/profiler.hpp"
#include "eval/f1_series.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace anole::bench {

/// Standard evaluation world: ~2700 frames across 24 seen + 6 unseen clips
/// (the paper's dataset mix at 40% clip count; same 9:1 seen:unseen and
/// 6:2:2 frame splits).
inline world::WorldConfig standard_world_config() {
  world::WorldConfig config;
  config.frames_per_clip = 90;
  config.clip_scale = 0.4;
  config.seed = 1234;
  return config;
}

/// Standard OSP configuration: n = 19 compressed models as in the paper.
inline core::ProfilerConfig standard_profiler_config() {
  core::ProfilerConfig config;
  config.repository.target_models = 19;
  config.sampling.budget = 1200;
  return config;
}

/// Keeps the compiler from discarding a timed computation: the memory
/// behind `p` counts as read and all memory as clobbered. Emits no code.
inline void do_not_optimize(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}

inline core::CacheConfig standard_cache_config() {
  core::CacheConfig config;
  config.capacity = 5;
  config.policy = core::EvictionPolicy::kLfu;
  return config;
}

/// A fully trained Anole stack on the standard world.
struct TrainedStack {
  world::World world;
  core::AnoleSystem system;
  core::ProfilerReport report;
};

inline TrainedStack train_standard_stack(std::uint64_t seed = 7) {
  TrainedStack stack;
  std::fprintf(stderr, "[bench] generating standard world...\n");
  stack.world = world::make_benchmark_world(standard_world_config());
  std::fprintf(stderr, "[bench] running offline scene profiling (%zu frames)...\n",
               stack.world.total_frames());
  Rng rng(seed);
  core::OfflineProfiler profiler(standard_profiler_config());
  stack.system = profiler.run(stack.world, rng, &stack.report);
  std::fprintf(stderr, "[bench] profiled: %zu compressed models, %zu ASS samples\n",
               stack.report.models_trained, stack.report.decision_samples);
  return stack;
}

/// All candidate methods of the paper's section VI-A3, trained on the
/// stack's world. The Anole adapter shares the stack's system.
struct MethodBundle {
  std::unique_ptr<baselines::AnoleMethod> anole;
  std::unique_ptr<baselines::SingleModelMethod> sdm;
  std::unique_ptr<baselines::SingleModelMethod> ssm;
  std::unique_ptr<baselines::CdgMethod> cdg;
  std::unique_ptr<baselines::DmmMethod> dmm;

  std::vector<baselines::InferenceMethod*> all() const {
    return {sdm.get(), ssm.get(), cdg.get(), dmm.get(), anole.get()};
  }
};

inline MethodBundle train_all_methods(TrainedStack& stack,
                                      std::uint64_t seed = 11) {
  MethodBundle bundle;
  Rng rng(seed);
  baselines::BaselineConfig config;
  std::fprintf(stderr, "[bench] training SDM baseline...\n");
  bundle.sdm = baselines::train_sdm(stack.world, config, rng);
  std::fprintf(stderr, "[bench] training SSM baseline...\n");
  bundle.ssm = baselines::train_ssm(stack.world, config, rng);
  std::fprintf(stderr, "[bench] training CDG baseline...\n");
  bundle.cdg = baselines::train_cdg(stack.world, config, rng);
  std::fprintf(stderr, "[bench] training DMM baseline...\n");
  bundle.dmm = baselines::train_dmm(stack.world, config, rng);
  bundle.anole = std::make_unique<baselines::AnoleMethod>(
      stack.system, standard_cache_config());
  return bundle;
}

/// Bound InferFn for the shared evaluation helpers.
inline eval::InferFn infer_fn(baselines::InferenceMethod& method) {
  return [&method](const world::Frame& frame) { return method.infer(frame); };
}

/// Prints a section banner so the combined bench output reads like the
/// paper's evaluation section.
inline void print_banner(const char* experiment, const char* description) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("==============================================================\n");
}

}  // namespace anole::bench
