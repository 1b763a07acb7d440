// The offline (OSP) side of the benchmark: the standard OSP fixture and a
// stage-by-stage replica of OfflineProfiler::run for the traced run.
#pragma once

#include "core/profiler.hpp"
#include "perfbench/harness.hpp"

namespace perfbench {

/// OfflineProfiler::run rebuilt from its public stage functions, in the
/// same order and with the same Rng draws, with a span around each stage
/// (osp.scene_index, osp.featurize, osp.encoder_train, osp.repository,
/// osp.ass, osp.decision_train). Its artifact must equal run()'s.
anole::core::AnoleSystem profile_by_stages(
    const anole::world::World& world,
    const anole::core::ProfilerConfig& config, anole::Rng& rng,
    SpanRecorder& recorder, anole::core::ProfilerReport* report);

/// Trains the standard stack at `seed`: OfflineProfiler::run, or the
/// traced stage replica when `staged`. Either way the job is one "osp" span.
anole::core::AnoleSystem train_standard(const anole::world::World& world,
                                        std::uint64_t seed, bool staged,
                                        SpanRecorder& recorder,
                                        anole::core::ProfilerReport* report);

/// Adds the osp.* per-layer metrics from the replica's spans.
void report_osp_stages(const SpanRecorder& recorder,
                       const anole::core::ProfilerReport& report,
                       Outcome& outcome);

}  // namespace perfbench
