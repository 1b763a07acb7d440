// Tests of the deterministic parallel execution layer: the primitives
// themselves (parallel_for / parallel_reduce semantics), and the
// determinism contract end to end — matmul kernels, k-means, the full
// offline profiler, and the batch engine path must produce bitwise
// identical results at 1 and 4 threads and at every SIMD level.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include "cluster/kmeans.hpp"
#include "core/engine.hpp"
#include "core/profiler.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace anole {
namespace {

/// Restores the default pool size when a test returns.
struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_thread_count(0); }
};

/// Pins the SIMD dispatch level for a scope.
struct SimdLevelGuard {
  explicit SimdLevelGuard(simd::Level level) { simd::set_level(level); }
  ~SimdLevelGuard() { simd::reset_level(); }
};

/// Every dispatch level this host can actually run.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::detected_level() >= simd::Level::kSSE2) {
    levels.push_back(simd::Level::kSSE2);
  }
  if (simd::detected_level() >= simd::Level::kAVX2) {
    levels.push_back(simd::Level::kAVX2);
  }
  return levels;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t = Tensor::matrix(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Reference ikj matmul with the same per-element accumulation order (kk
/// ascending) and the same zero-skip as the blocked kernel.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::matrix(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t kk = 0; kk < a.cols(); ++kk) {
      const float aik = a.at(i, kk);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(kk, j);
      }
    }
  }
  return c;
}

Tensor naive_matmul_transpose_a(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::matrix(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t kk = 0; kk < a.rows(); ++kk) {
      const float aik = a.at(kk, i);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(kk, j);
      }
    }
  }
  return c;
}

/// Same accumulate-and-zero-skip form as the other references: since the
/// unified kernel, matmul_transpose_b materializes transpose(b) and runs
/// the shared blocked loop, so its float contract is identical to
/// matmul's (kk ascending, aik == 0 terms skipped), not the dot form.
Tensor naive_matmul_transpose_b(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::matrix(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t kk = 0; kk < a.cols(); ++kk) {
      const float aik = a.at(i, kk);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < b.rows(); ++j) {
        c.at(i, j) += aik * b.at(j, kk);
      }
    }
  }
  return c;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  par::parallel_for(0, kN, 7, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, EmptyAndReversedRangesRunNothing) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  std::atomic<int> calls{0};
  par::parallel_for(5, 5, 1, [&](std::size_t) { ++calls; });
  par::parallel_for(9, 3, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, NestedCallsRunInlineAndStillCover) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<int> hits(kOuter * kInner, 0);
  std::atomic<int> nested_parallel{0};
  par::parallel_for(0, kOuter, 1, [&](std::size_t o) {
    if (par::in_parallel_region()) {
      // The nested call below must take the inline path.
      par::parallel_for(0, kInner, 4, [&](std::size_t i) {
        if (par::in_parallel_region()) ++hits[o * kInner + i];
      });
    } else {
      // The caller thread also participates; it is marked as in-region
      // for the duration of its chunks too.
      ++nested_parallel;
    }
  });
  // Every outer index ran with in_parallel_region() true.
  EXPECT_EQ(nested_parallel.load(), 0);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, PropagatesExceptionsAndStaysUsable) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  EXPECT_THROW(par::parallel_for(0, 100, 1,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a failed job.
  std::vector<int> hits(50, 0);
  par::parallel_for(0, 50, 3, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

TEST(ParallelFor, ChunkBoundariesMatchGrain) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  par::parallel_for_chunks(3, 25, 10, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{3, 13}));
  EXPECT_EQ(chunks[1], (std::pair<std::size_t, std::size_t>{13, 23}));
  EXPECT_EQ(chunks[2], (std::pair<std::size_t, std::size_t>{23, 25}));
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(42);
  std::vector<float> values(100'000);
  for (float& v : values) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const auto chunked_sum = [&]() {
    return par::parallel_reduce(
        std::size_t{0}, values.size(), std::size_t{4096}, 0.0f,
        [&](std::size_t lo, std::size_t hi) {
          float partial = 0.0f;
          for (std::size_t i = lo; i < hi; ++i) partial += values[i];
          return partial;
        },
        [](float acc, float partial) { return acc + partial; });
  };

  par::set_thread_count(1);
  const float serial = chunked_sum();
  par::set_thread_count(4);
  const float parallel = chunked_sum();
  // Bitwise, not approximate: the combine order is fixed by the chunking.
  EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(float)), 0);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  const int result = par::parallel_reduce(
      std::size_t{10}, std::size_t{10}, std::size_t{1}, -5,
      [](std::size_t, std::size_t) { return 1; },
      [](int acc, int partial) { return acc + partial; });
  EXPECT_EQ(result, -5);
}

TEST(ThreadCount, SetAndRestore) {
  ThreadCountGuard guard;
  par::set_thread_count(3);
  EXPECT_EQ(par::thread_count(), 3u);
  par::set_thread_count(1);
  EXPECT_EQ(par::thread_count(), 1u);
  par::set_thread_count(0);
  EXPECT_GE(par::thread_count(), 1u);
}

TEST(ThreadCount, MalformedEnvFailsLoudly) {
  ThreadCountGuard guard;
  // Declared after the guard so the environment is restored before the
  // guard re-reads it.
  struct EnvRestore {
    const char* saved = std::getenv("ANOLE_THREADS");
    std::string value = saved != nullptr ? saved : "";
    ~EnvRestore() {
      if (saved != nullptr) {
        setenv("ANOLE_THREADS", value.c_str(), 1);
      } else {
        unsetenv("ANOLE_THREADS");
      }
    }
  } restore;
  for (const char* bad : {"4x", "0", "-2", "1e2"}) {
    setenv("ANOLE_THREADS", bad, 1);
    EXPECT_THROW(par::set_thread_count(0), std::invalid_argument) << bad;
  }
  setenv("ANOLE_THREADS", "2", 1);
  par::set_thread_count(0);
  EXPECT_EQ(par::thread_count(), 2u);
}

TEST(TensorUninitialized, HasShapeAndAcceptsWrites) {
  Tensor t = Tensor::uninitialized(Shape{17, 5});
  EXPECT_EQ(t.rows(), 17u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.size(), 85u);
  t.fill(2.5f);
  EXPECT_EQ(t.at(16, 4), 2.5f);
}

/// The fp32 dispatch contract (tensor/simd.hpp): every level matches the
/// mul+add reference bitwise, at every thread count.
TEST(TensorParallel, MatmulMatchesNaiveBitwiseAtAnyThreadCount) {
  ThreadCountGuard guard;
  Rng rng(7);
  // Odd sizes so the j/k blocks and the row grain all have ragged tails.
  const Tensor a = random_matrix(37, 111, rng);
  const Tensor b = random_matrix(111, 70, rng);
  const Tensor reference = naive_matmul(a, b);

  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    par::set_thread_count(1);
    const Tensor serial = matmul(a, b);
    par::set_thread_count(4);
    const Tensor parallel = matmul(a, b);

    EXPECT_TRUE(bitwise_equal(serial, reference)) << simd::level_name(level);
    EXPECT_TRUE(bitwise_equal(parallel, reference))
        << simd::level_name(level);
  }
}

TEST(TensorParallel, MatmulTransposeAMatchesNaiveBitwise) {
  ThreadCountGuard guard;
  Rng rng(8);
  const Tensor a = random_matrix(90, 33, rng);
  const Tensor b = random_matrix(90, 41, rng);
  const Tensor reference = naive_matmul_transpose_a(a, b);

  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    par::set_thread_count(1);
    const Tensor serial = matmul_transpose_a(a, b);
    par::set_thread_count(4);
    const Tensor parallel = matmul_transpose_a(a, b);

    EXPECT_TRUE(bitwise_equal(serial, reference)) << simd::level_name(level);
    EXPECT_TRUE(bitwise_equal(parallel, reference))
        << simd::level_name(level);
  }
}

TEST(TensorParallel, MatmulTransposeBMatchesNaiveBitwise) {
  ThreadCountGuard guard;
  Rng rng(9);
  const Tensor a = random_matrix(45, 65, rng);
  const Tensor b = random_matrix(52, 65, rng);
  const Tensor reference = naive_matmul_transpose_b(a, b);

  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    par::set_thread_count(1);
    const Tensor serial = matmul_transpose_b(a, b);
    par::set_thread_count(4);
    const Tensor parallel = matmul_transpose_b(a, b);

    EXPECT_TRUE(bitwise_equal(serial, reference)) << simd::level_name(level);
    EXPECT_TRUE(bitwise_equal(parallel, reference))
        << simd::level_name(level);
  }
}

TEST(TensorParallel, ReductionsAreThreadCountInvariant) {
  ThreadCountGuard guard;
  Rng rng(10);
  const Tensor t = random_matrix(300, 200, rng);

  par::set_thread_count(1);
  const float sum1 = t.sum();
  const float norm1 = t.l2_norm();
  const float max1 = t.abs_max();
  par::set_thread_count(4);
  const float sum4 = t.sum();
  const float norm4 = t.l2_norm();
  const float max4 = t.abs_max();

  EXPECT_EQ(std::memcmp(&sum1, &sum4, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&norm1, &norm4, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&max1, &max4, sizeof(float)), 0);
}

TEST(KMeansParallel, IdenticalAtOneAndFourThreads) {
  ThreadCountGuard guard;
  Rng data_rng(11);
  const Tensor points = random_matrix(200, 16, data_rng);
  cluster::KMeansConfig config;
  config.clusters = 7;

  par::set_thread_count(1);
  Rng rng_a(123);
  const auto serial = cluster::kmeans(points, config, rng_a);
  par::set_thread_count(4);
  Rng rng_b(123);
  const auto parallel = cluster::kmeans(points, config, rng_b);

  EXPECT_EQ(serial.assignments, parallel.assignments);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_TRUE(bitwise_equal(serial.centroids, parallel.centroids));
  EXPECT_EQ(std::memcmp(&serial.inertia, &parallel.inertia, sizeof(double)),
            0);
}

TEST(KMeansParallel, IdenticalAtEveryDispatchLevel) {
  // The distance kernel accumulates each centroid lane in ascending
  // dimension order with separate mul+add at every level, so the whole
  // clustering is bitwise level-invariant (tensor/simd.hpp).
  ThreadCountGuard guard;
  par::set_thread_count(4);
  Rng data_rng(21);
  const Tensor points = random_matrix(300, 24, data_rng);
  cluster::KMeansConfig config;
  config.clusters = 6;

  cluster::KMeansResult reference;
  bool have_reference = false;
  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    Rng rng(321);
    const auto result = cluster::kmeans(points, config, rng);
    if (!have_reference) {
      reference = result;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(result.assignments, reference.assignments)
        << simd::level_name(level);
    EXPECT_EQ(result.iterations, reference.iterations)
        << simd::level_name(level);
    EXPECT_TRUE(bitwise_equal(result.centroids, reference.centroids))
        << simd::level_name(level);
    EXPECT_EQ(std::memcmp(&result.inertia, &reference.inertia,
                          sizeof(double)),
              0)
        << simd::level_name(level);
  }
}

// --- SIMD dispatch plumbing ----------------------------------------------

TEST(SimdDispatch, ActiveLevelNeverExceedsDetected) {
  EXPECT_LE(simd::active_level(), simd::detected_level());
  SimdLevelGuard guard(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
}

TEST(SimdDispatch, SetLevelClampsToDetected) {
  SimdLevelGuard guard(simd::Level::kAVX2);
  EXPECT_LE(simd::active_level(), simd::detected_level());
  EXPECT_EQ(simd::active_level(),
            std::min(simd::Level::kAVX2, simd::detected_level()));
}

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kSSE2), "sse2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAVX2), "avx2");
}

TEST(SimdDispatch, SigmoidTermsMatchLibm) {
  // Inputs cover both signs, the origin, sigmoid saturation and the
  // overflow range of exp, plus a pseudo-random spread. sigmoid_terms is
  // the libm expressions bit for bit, with or without the log term.
  std::vector<float> z = {0.0f,  -0.0f, 1e-6f, -1e-6f, 0.5f,  -0.5f,
                          4.0f,  -4.0f, 17.0f, -17.0f, 30.0f, -30.0f,
                          88.0f, -88.0f, 95.0f, -95.0f};
  Rng rng(77);
  for (int i = 0; i < 240; ++i) {
    z.push_back(static_cast<float>(rng.normal(0.0, 6.0)));
  }
  const std::size_t n = z.size();
  std::vector<float> p(n);
  std::vector<float> l(n);
  simd::sigmoid_terms(z.data(), n, p.data(), l.data());
  for (std::size_t i = 0; i < n; ++i) {
    const float want_p = 1.0f / (1.0f + std::exp(-z[i]));
    const float want_l = std::log1p(std::exp(-std::abs(z[i])));
    EXPECT_EQ(std::memcmp(&p[i], &want_p, sizeof(float)), 0) << z[i];
    EXPECT_EQ(std::memcmp(&l[i], &want_l, sizeof(float)), 0) << z[i];
  }
  std::vector<float> p_only(n);
  simd::sigmoid_terms(z.data(), n, p_only.data(), nullptr);
  EXPECT_EQ(std::memcmp(p_only.data(), p.data(), n * sizeof(float)), 0);
}

TEST(SimdDispatch, SigmoidTermsSupportInPlace) {
  std::vector<float> z = {-3.0f, -1.0f, 0.0f, 0.25f, 2.0f, 5.0f, -9.0f};
  std::vector<float> expected(z.size());
  simd::sigmoid_terms(z.data(), z.size(), expected.data(), nullptr);
  simd::sigmoid_terms(z.data(), z.size(), z.data(), nullptr);
  EXPECT_EQ(
      std::memcmp(z.data(), expected.data(), z.size() * sizeof(float)), 0);
}

// --- serial cutoff --------------------------------------------------------

TEST(SerialCutoff, BoundarySemanticsAreExact) {
  const std::size_t cutoff = par::kSerialCutoff;
  ASSERT_GT(cutoff, 1u);
  // Strictly-below comparison: n * wpi == cutoff stays parallel.
  EXPECT_TRUE(par::detail::below_serial_cutoff(cutoff - 1, 1));
  EXPECT_FALSE(par::detail::below_serial_cutoff(cutoff, 1));
  EXPECT_FALSE(par::detail::below_serial_cutoff(1, cutoff));
  EXPECT_TRUE(par::detail::below_serial_cutoff(1, cutoff - 1));
  // Zero-length ranges are trivially below; zero hints count as 1 op.
  EXPECT_TRUE(par::detail::below_serial_cutoff(0, 0));
  EXPECT_EQ(par::detail::below_serial_cutoff(cutoff - 1, 0),
            par::detail::below_serial_cutoff(cutoff - 1, 1));
  // Products that would overflow size_t must land on the parallel side.
  EXPECT_FALSE(par::detail::below_serial_cutoff(
      std::numeric_limits<std::size_t>::max() / 2, 3));
  // The sentinel used by unhinted overloads is never below the cutoff.
  EXPECT_FALSE(par::detail::below_serial_cutoff(1, par::detail::kNoWorkHint));
}

TEST(SerialCutoff, WorkGrainDerivesFromPerIndexCost) {
  const std::size_t cutoff = par::kSerialCutoff;
  EXPECT_EQ(par::work_grain(16, 1), std::max<std::size_t>(16, cutoff));
  EXPECT_EQ(par::work_grain(16, cutoff), 16u);
  EXPECT_EQ(par::work_grain(16, 0), par::work_grain(16, 1));
  EXPECT_GE(par::work_grain(1, cutoff / 8), 8u);
}

TEST(SerialCutoff, HintedLoopBelowCutoffRunsOnCallingThread) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  const auto caller = std::this_thread::get_id();
  const std::size_t n = 64;
  ASSERT_TRUE(par::detail::below_serial_cutoff(n, 1));
  std::vector<std::remove_const_t<decltype(caller)>> ran_on(n);
  par::parallel_for(0, n, 4, 1, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ran_on[i], caller) << i;
}

TEST(SerialCutoff, HintedAndUnhintedChunkingMatchBitwise) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  Rng rng(33);
  std::vector<float> values(5000);
  for (float& v : values) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto sum_with_hint = [&](std::size_t work_per_index) {
    return par::parallel_reduce(
        std::size_t{0}, values.size(), std::size_t{256}, work_per_index,
        0.0f,
        [&](std::size_t lo, std::size_t hi) {
          float partial = 0.0f;
          for (std::size_t i = lo; i < hi; ++i) partial += values[i];
          return partial;
        },
        [](float acc, float partial) { return acc + partial; });
  };
  // 5000 * 1 ops is below the cutoff (inline), 5000 * big is above
  // (pool); the chunking is identical, so the sums are bitwise equal.
  const float inline_sum = sum_with_hint(1);
  const float pooled_sum = sum_with_hint(par::kSerialCutoff);
  const float unhinted_sum = par::parallel_reduce(
      std::size_t{0}, values.size(), std::size_t{256}, 0.0f,
      [&](std::size_t lo, std::size_t hi) {
        float partial = 0.0f;
        for (std::size_t i = lo; i < hi; ++i) partial += values[i];
        return partial;
      },
      [](float acc, float partial) { return acc + partial; });
  EXPECT_EQ(std::memcmp(&inline_sum, &pooled_sum, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&inline_sum, &unhinted_sum, sizeof(float)), 0);
}

// --- Full-pipeline determinism -------------------------------------------

world::WorldConfig micro_world_config() {
  world::WorldConfig config;
  config.frames_per_clip = 40;
  config.clip_scale = 0.12;
  config.seed = 99;
  return config;
}

core::ProfilerConfig micro_profiler_config() {
  core::ProfilerConfig config;
  config.encoder.train.epochs = 10;
  config.repository.target_models = 5;
  config.repository.detector_train.epochs = 4;
  config.repository.min_training_frames = 20;
  config.repository.min_validation_frames = 4;
  config.sampling.budget = 120;
  config.decision.train.epochs = 10;
  return config;
}

/// Everything observable about a profiler run that determinism must pin:
/// repository structure, validation scores, decision-model outputs, the
/// engine's frame-by-frame behaviour (sequential and batch paths), and a
/// fault-injected engine's replay hash.
struct RunSnapshot {
  std::vector<std::string> model_names;
  std::vector<double> validation_f1;
  std::vector<std::size_t> cluster_k;
  std::vector<std::vector<std::size_t>> scene_classes;
  double encoder_accuracy = 0.0;
  std::size_t decision_samples = 0;
  std::vector<float> suitability;
  std::vector<std::size_t> served_sequence;
  std::vector<std::size_t> batch_served_sequence;
  std::vector<double> confidence_sequence;
  std::vector<double> batch_confidence_sequence;
  std::size_t detection_count = 0;
  std::size_t batch_detection_count = 0;
  std::uint64_t fault_hash = 0;
};

RunSnapshot run_profiler_snapshot(std::size_t threads, simd::Level level) {
  par::set_thread_count(threads);
  const SimdLevelGuard simd_guard(level);
  world::World world = world::make_benchmark_world(micro_world_config());
  Rng rng(7);
  core::ProfilerReport report;
  core::OfflineProfiler profiler(micro_profiler_config());
  core::AnoleSystem system = profiler.run(world, rng, &report);

  RunSnapshot snap;
  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    const core::SceneModel& model = system.repository.model(m);
    snap.model_names.push_back(model.name);
    snap.validation_f1.push_back(model.validation_f1);
    snap.cluster_k.push_back(model.cluster_k);
    snap.scene_classes.push_back(model.scene_classes);
  }
  snap.encoder_accuracy = report.encoder_train_accuracy;
  snap.decision_samples = report.decision_samples;

  const auto frames = world.frames_with_role(world::SplitRole::kTest);
  const std::size_t n_frames = std::min<std::size_t>(frames.size(), 30);
  const std::vector<const world::Frame*> sample(frames.begin(),
                                                frames.begin() + n_frames);

  const world::FrameFeaturizer featurizer;
  const Tensor probs =
      system.decision->suitability(featurizer.featurize_batch(sample));
  snap.suitability.assign(probs.data().begin(), probs.data().end());

  core::EngineConfig engine_config;
  engine_config.cache.capacity = 3;
  core::AnoleEngine sequential_engine(system, engine_config);
  for (const world::Frame* frame : sample) {
    const auto result = sequential_engine.process(*frame);
    snap.served_sequence.push_back(result.served_model);
    snap.confidence_sequence.push_back(result.top1_confidence);
    snap.detection_count += result.detections.size();
  }
  core::AnoleEngine batch_engine(system, engine_config);
  for (const auto& result : batch_engine.process_batch(sample)) {
    snap.batch_served_sequence.push_back(result.served_model);
    snap.batch_confidence_sequence.push_back(result.top1_confidence);
    snap.batch_detection_count += result.detections.size();
  }
  core::EngineConfig faulty_config = engine_config;
  faulty_config.faults = std::make_shared<fault::FaultInjector>(
      "seed=5,model_load=0.3,decision_output=0.1,frame_payload=0.1");
  core::AnoleEngine faulty_engine(system, faulty_config);
  for (const world::Frame* frame : sample) (void)faulty_engine.process(*frame);
  snap.fault_hash = faulty_engine.faults()->trace_hash();
  return snap;
}

void expect_same_run(const RunSnapshot& want, const RunSnapshot& got,
                     const std::string& where) {
  EXPECT_EQ(want.model_names, got.model_names) << where;
  EXPECT_EQ(want.validation_f1, got.validation_f1) << where;
  EXPECT_EQ(want.cluster_k, got.cluster_k) << where;
  EXPECT_EQ(want.scene_classes, got.scene_classes) << where;
  EXPECT_EQ(want.encoder_accuracy, got.encoder_accuracy) << where;
  EXPECT_EQ(want.decision_samples, got.decision_samples) << where;
  EXPECT_EQ(want.suitability, got.suitability) << where;
  EXPECT_EQ(want.served_sequence, got.served_sequence) << where;
  EXPECT_EQ(want.confidence_sequence, got.confidence_sequence) << where;
  EXPECT_EQ(want.detection_count, got.detection_count) << where;
  EXPECT_EQ(want.fault_hash, got.fault_hash) << where;
  // Batch processing must match sequential processing exactly.
  EXPECT_EQ(got.served_sequence, got.batch_served_sequence) << where;
  EXPECT_EQ(got.confidence_sequence, got.batch_confidence_sequence) << where;
  EXPECT_EQ(got.detection_count, got.batch_detection_count) << where;
}

TEST(PipelineDeterminism, ProfilerAndEngineIdenticalAtOneAndFourThreads) {
  // The scalar single-thread run is the reference; every dispatch level
  // at 4 threads must reproduce it bit for bit, fault replay hash
  // included.
  ThreadCountGuard guard;
  set_log_level(LogLevel::kError);
  const RunSnapshot serial = run_profiler_snapshot(1, simd::Level::kScalar);
  ASSERT_FALSE(serial.model_names.empty());
  expect_same_run(serial, serial, "scalar 1T");
  for (const simd::Level level : available_levels()) {
    expect_same_run(serial, run_profiler_snapshot(4, level),
                    std::string(simd::level_name(level)) + " 4T");
  }
}

}  // namespace
}  // namespace anole
