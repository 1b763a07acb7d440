#include "detect/detector_trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "tensor/simd.hpp"
#include "util/check.hpp"
#include "world/featurizer.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace anole::detect {
namespace {

/// Pins the SIMD dispatch level for a scope.
struct SimdLevelGuard {
  explicit SimdLevelGuard(simd::Level level) { simd::set_level(level); }
  ~SimdLevelGuard() { simd::reset_level(); }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise equality of two detection lists, field by field.
bool same_detections(const std::vector<Detection>& a,
                     const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].cx, b[i].cx) || !same_bits(a[i].cy, b[i].cy) ||
        !same_bits(a[i].w, b[i].w) || !same_bits(a[i].h, b[i].h) ||
        !same_bits(a[i].confidence, b[i].confidence)) {
      return false;
    }
  }
  return true;
}

/// The decode confidence of one float objectness logit, exactly as
/// GridDetector::infer evaluates it (float exp, double sigmoid).
double unfiltered_confidence(float logit) {
  return 1.0 / (1.0 + std::exp(-logit));
}

/// GridDetector::infer without the decode filter: every cell's sigmoid
/// is evaluated and compared with the threshold.
std::vector<Detection> unfiltered_infer(const GridDetector& detector,
                                        const world::Frame& frame) {
  const Tensor outputs =
      detector.network().infer(GridDetector::build_inputs(frame));
  const std::size_t g = frame.grid_size;
  const GridDetectorConfig& config = detector.config();
  std::vector<Detection> detections;
  for (std::size_t y = 0; y < g; ++y) {
    for (std::size_t x = 0; x < g; ++x) {
      const auto row = outputs.row(y * g + x);
      const double confidence = unfiltered_confidence(row[0]);
      if (confidence < config.confidence_threshold) continue;
      Detection det;
      det.confidence = confidence;
      det.cx = (static_cast<double>(x) +
                std::clamp(static_cast<double>(row[1]), 0.0, 1.0)) /
               static_cast<double>(g);
      det.cy = (static_cast<double>(y) +
                std::clamp(static_cast<double>(row[2]), 0.0, 1.0)) /
               static_cast<double>(g);
      det.w = std::clamp(static_cast<double>(row[3]), 0.02, 0.5);
      det.h = std::clamp(static_cast<double>(row[4]), 0.02, 0.5);
      detections.push_back(det);
    }
  }
  return non_maximum_suppression(std::move(detections), config.nms_threshold,
                                 config.nms_center_distance);
}

/// Frames with and without objects over a few scenes.
std::vector<world::Frame> sample_frames(std::size_t count, Rng& rng) {
  const world::FrameGenerator generator;
  std::vector<world::Frame> frames;
  for (std::size_t i = 0; i < count; ++i) {
    const world::SceneAttributes attrs{
        static_cast<world::Weather>(i % 3),
        i % 2 == 0 ? world::Location::kUrban : world::Location::kHighway,
        i % 4 == 3 ? world::TimeOfDay::kNight : world::TimeOfDay::kDaytime};
    const auto style = world::SceneStyle::from_attributes(attrs);
    std::vector<world::ObjectInstance> objects;
    for (std::size_t o = 0; o < i % 4; ++o) {
      objects.push_back(generator.sample_object(style, rng));
    }
    frames.push_back(generator.render(style, attrs, objects, rng));
  }
  return frames;
}

TEST(Iou, IdenticalBoxesGiveOne) {
  EXPECT_NEAR(iou(0.5, 0.5, 0.2, 0.2, 0.5, 0.5, 0.2, 0.2), 1.0, 1e-9);
}

TEST(Iou, DisjointBoxesGiveZero) {
  EXPECT_DOUBLE_EQ(iou(0.2, 0.2, 0.1, 0.1, 0.8, 0.8, 0.1, 0.1), 0.0);
}

TEST(Iou, HalfOverlap) {
  // Two unit-width boxes offset by half a width: intersection 0.5, union 1.5.
  EXPECT_NEAR(iou(0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 1.0, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(Iou, ZeroAreaIsZero) {
  EXPECT_DOUBLE_EQ(iou(0.5, 0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0), 0.0);
}

TEST(Nms, SuppressesOverlaps) {
  std::vector<Detection> dets = {
      {0.5, 0.5, 0.2, 0.2, 0.9},
      {0.51, 0.5, 0.2, 0.2, 0.8},  // heavy overlap with first
      {0.1, 0.1, 0.1, 0.1, 0.7},
  };
  const auto kept = non_maximum_suppression(dets, 0.3);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].confidence, 0.9);
  EXPECT_DOUBLE_EQ(kept[1].confidence, 0.7);
}

TEST(Nms, CenterDistanceSuppression) {
  std::vector<Detection> dets = {
      {0.50, 0.50, 0.05, 0.30, 0.9},
      {0.50, 0.56, 0.30, 0.05, 0.8},  // low IoU but nearly same center
  };
  EXPECT_EQ(non_maximum_suppression(dets, 0.3, 0.0).size(), 2u);
  EXPECT_EQ(non_maximum_suppression(dets, 0.3, 0.10).size(), 1u);
}

TEST(Nms, KeepsConfidenceOrder) {
  std::vector<Detection> dets = {
      {0.1, 0.1, 0.05, 0.05, 0.2},
      {0.9, 0.9, 0.05, 0.05, 0.95},
  };
  const auto kept = non_maximum_suppression(dets, 0.3);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].confidence, 0.95);
}

TEST(MatchCounts, PrecisionRecallF1) {
  MatchCounts counts;
  counts.true_positives = 6;
  counts.false_positives = 2;
  counts.false_negatives = 4;
  EXPECT_DOUBLE_EQ(counts.precision(), 0.75);
  EXPECT_DOUBLE_EQ(counts.recall(), 0.6);
  EXPECT_NEAR(counts.f1(), 2 * 0.75 * 0.6 / 1.35, 1e-12);
}

TEST(MatchCounts, EmptyIsZero) {
  MatchCounts counts;
  EXPECT_DOUBLE_EQ(counts.precision(), 0.0);
  EXPECT_DOUBLE_EQ(counts.recall(), 0.0);
  EXPECT_DOUBLE_EQ(counts.f1(), 0.0);
}

TEST(MatchCounts, Accumulate) {
  MatchCounts a;
  a.true_positives = 1;
  MatchCounts b;
  b.false_negatives = 2;
  a += b;
  EXPECT_EQ(a.true_positives, 1u);
  EXPECT_EQ(a.false_negatives, 2u);
}

TEST(Matching, PerfectDetection) {
  const std::vector<world::ObjectInstance> truth = {{0.5, 0.5, 0.2, 0.2, 1.0}};
  const std::vector<Detection> dets = {{0.5, 0.5, 0.2, 0.2, 0.9}};
  const auto counts = match_detections(dets, truth, 0.5);
  EXPECT_EQ(counts.true_positives, 1u);
  EXPECT_EQ(counts.false_positives, 0u);
  EXPECT_EQ(counts.false_negatives, 0u);
}

TEST(Matching, GreedyPrefersConfident) {
  const std::vector<world::ObjectInstance> truth = {{0.5, 0.5, 0.2, 0.2, 1.0}};
  // Both detections overlap the single truth; only one may match.
  const std::vector<Detection> dets = {{0.5, 0.5, 0.2, 0.2, 0.6},
                                       {0.52, 0.5, 0.2, 0.2, 0.9}};
  const auto counts = match_detections(dets, truth, 0.3);
  EXPECT_EQ(counts.true_positives, 1u);
  EXPECT_EQ(counts.false_positives, 1u);
}

TEST(Matching, MissedObjectsAreFalseNegatives) {
  const std::vector<world::ObjectInstance> truth = {
      {0.2, 0.2, 0.1, 0.1, 1.0}, {0.8, 0.8, 0.1, 0.1, 1.0}};
  const auto counts = match_detections({}, truth);
  EXPECT_EQ(counts.false_negatives, 2u);
}

TEST(GridDetector, PresetCapacityOrdering) {
  Rng rng(1);
  GridDetector tiny(GridDetectorConfig::compressed(), rng);
  GridDetector deep(GridDetectorConfig::large(), rng);
  EXPECT_GT(deep.flops_per_frame(), 8 * tiny.flops_per_frame());
  EXPECT_LT(deep.flops_per_frame(), 30 * tiny.flops_per_frame());
  EXPECT_GT(deep.weight_bytes(), tiny.weight_bytes());
}

TEST(GridDetector, BuildInputsShape) {
  Rng rng(2);
  world::FrameGenerator generator;
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto style = world::SceneStyle::from_attributes(attrs);
  const auto frame = generator.render(style, attrs, {}, rng);
  const Tensor inputs = GridDetector::build_inputs(frame);
  EXPECT_EQ(inputs.rows(), frame.cell_count());
  EXPECT_EQ(inputs.cols(), GridDetector::input_features());
}

TEST(GridDetector, ContextColumnsAreTheChannelMoments) {
  // Every cell row carries the frame's channel moments, bit for bit the
  // featurizer's shared helper, at the default grid and at grids 1 and 5.
  Rng rng(3);
  for (const std::size_t grid :
       {world::kDefaultGridSize, std::size_t{1}, std::size_t{5}}) {
    const world::FrameGenerator generator(grid);
    const world::SceneAttributes attrs{world::Weather::kRainy,
                                       world::Location::kHighway,
                                       world::TimeOfDay::kNight};
    const auto style = world::SceneStyle::from_attributes(attrs);
    const auto frame = generator.render(
        style, attrs, {generator.sample_object(style, rng)}, rng);
    std::vector<float> moments(world::kChannelMomentCount);
    world::write_channel_moments(frame, moments);
    const Tensor inputs = GridDetector::build_inputs(frame);
    for (std::size_t i = 0; i < frame.cell_count(); ++i) {
      EXPECT_EQ(std::memcmp(inputs.row(i).data() + world::kCellChannels,
                            moments.data(), moments.size() * sizeof(float)),
                0)
          << "grid " << grid << " cell " << i;
    }
  }
}

TEST(GridDetector, MomentsOverloadMatchesInferBitwise) {
  // The engine hands the head of the frame descriptor to
  // infer(frame, moments); with the frame's own moments it must give
  // exactly what infer(frame) gives, in fp32 and in int8, and a moments
  // span of the wrong size is a contract violation.
  Rng rng(8);
  GridDetectorConfig config = GridDetectorConfig::compressed();
  config.confidence_threshold = 0.3;
  GridDetector fp32(config, rng);
  GridDetector int8(config, rng);
  nn::quantize_linear_layers(int8.network());
  const world::FrameFeaturizer featurizer;
  std::size_t detections = 0;
  for (const world::Frame& frame : sample_frames(12, rng)) {
    const Tensor descriptor = featurizer.featurize(frame);
    const auto moments = descriptor.row(0).first(world::kChannelMomentCount);
    const Tensor a = GridDetector::build_inputs(frame);
    const Tensor b = GridDetector::build_inputs(frame, moments);
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.size() * sizeof(float)),
              0);
    for (const GridDetector* detector : {&fp32, &int8}) {
      const std::vector<Detection> want = detector->infer(frame);
      EXPECT_TRUE(same_detections(detector->infer(frame, moments), want));
      detections += want.size();
    }
  }
  EXPECT_GT(detections, 0u);
  const auto frame = sample_frames(1, rng).front();
  const std::vector<float> moments(world::kChannelMomentCount + 1, 0.0f);
  for (const std::size_t size :
       {std::size_t{0}, world::kChannelMomentCount - 1,
        world::kChannelMomentCount + 1}) {
    const std::span<const float> wrong(moments.data(), size);
    EXPECT_THROW(fp32.infer(frame, wrong), ContractViolation) << size;
    EXPECT_THROW(GridDetector::build_inputs(frame, wrong), ContractViolation)
        << size;
  }
}

TEST(GridDetector, DecodeFilterSkipsOnlyCellsBelowTheThreshold) {
  // The decode filter skips a cell whose logit is below
  // decode_logit_floor(threshold). Around the floor and around the exact
  // logit of the threshold, at +-Inf and at NaN, a cell must be kept
  // exactly when the unfiltered sigmoid keeps it.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const double threshold : {0.0, 0.25, 0.5, 0.9, 1.0, 1.5}) {
    const float floor = GridDetector::decode_logit_floor(threshold);
    const bool filters = threshold > 0.0 && threshold < 1.0;
    EXPECT_EQ(std::isfinite(floor), filters) << threshold;
    std::vector<float> logits = {inf, -inf, nan, 0.0f, -0.0f, 30.0f, -30.0f,
                                 100.0f, -100.0f};
    const auto around = [&](float center) {
      float below = center;
      float above = center;
      logits.push_back(center);
      for (int step = 0; step < 4; ++step) {
        below = std::nextafter(below, -inf);
        above = std::nextafter(above, inf);
        logits.push_back(below);
        logits.push_back(above);
      }
    };
    if (filters) {
      const double logit = std::log(threshold / (1.0 - threshold));
      // Conservative, yet within 2^-9 of the exact logit.
      EXPECT_LT(static_cast<double>(floor), logit) << threshold;
      EXPECT_GT(static_cast<double>(floor), logit - 1.0 / 512.0) << threshold;
      around(floor);
      around(static_cast<float>(logit));
      for (int k = -64; k <= 64; ++k) {
        logits.push_back(static_cast<float>(logit) +
                         static_cast<float>(k) / 8192.0f);
      }
    }
    for (const float logit : logits) {
      const bool keep = !(unfiltered_confidence(logit) < threshold);
      const bool skipped = logit < floor;
      EXPECT_FALSE(skipped && keep)
          << "threshold " << threshold << " logit " << logit;
    }
  }
  // The detector caches the floor and keeps it in step with its threshold:
  // infer equals the unfiltered decode at every threshold.
  Rng rng(9);
  GridDetector detector(GridDetectorConfig::compressed(), rng);
  nn::quantize_linear_layers(detector.network());
  const std::vector<world::Frame> frames = sample_frames(8, rng);
  for (const double threshold : {0.0, 0.25, 0.5, 0.9, 1.0, 1.5}) {
    detector.set_confidence_threshold(threshold);
    for (const world::Frame& frame : frames) {
      EXPECT_TRUE(same_detections(detector.infer(frame),
                                  unfiltered_infer(detector, frame)))
          << "threshold " << threshold;
    }
  }
}

TEST(GridDetector, Int8InferIdenticalAtEveryDispatchLevel) {
  // The whole detector (input assembly, fp32 GEMM or int8 row quantizer
  // and qgemm, decode filter, NMS), fp32 and int8, on a composed stream
  // with the degrade and bursts packs: detections at sse2 and avx2 equal
  // the scalar level's bit for bit, frame by frame.
  world::WorldConfig world_config;
  world_config.frames_per_clip = 10;
  world_config.clip_scale = 0.2;
  const world::World world = world::make_benchmark_world(world_config);
  const world::ScenarioStream stream = world::compose_scenario(
      world, world::ScenarioConfig::parse("seed=5,degrade=0.8x2,bursts=0.05x6"),
      160);
  Rng rng(10);
  std::vector<const world::Frame*> train =
      world.frames_with_role(world::SplitRole::kTrain);
  train.resize(std::min<std::size_t>(train.size(), 120));
  GridDetector detector(GridDetectorConfig::compressed(), rng);
  DetectorTrainConfig train_config;
  train_config.epochs = 16;
  train_detector(detector, train, train_config, rng);

  const auto expect_level_invariant = [&](const char* precision) {
    std::vector<std::vector<Detection>> want;
    {
      const SimdLevelGuard guard(simd::Level::kScalar);
      for (const world::Frame& frame : stream.clip.frames) {
        want.push_back(detector.infer(frame));
      }
    }
    std::size_t detections = 0;
    for (const auto& frame_detections : want) {
      detections += frame_detections.size();
    }
    EXPECT_GT(detections, 0u) << precision;
    for (const simd::Level level : {simd::Level::kSSE2, simd::Level::kAVX2}) {
      if (level > simd::detected_level()) continue;
      const SimdLevelGuard guard(level);
      for (std::size_t i = 0; i < stream.clip.frames.size(); ++i) {
        EXPECT_TRUE(
            same_detections(detector.infer(stream.clip.frames[i]), want[i]))
            << precision << " " << simd::level_name(level) << " frame " << i;
      }
    }
  };
  expect_level_invariant("fp32");
  nn::quantize_linear_layers(detector.network());
  ASSERT_TRUE(nn::is_quantized(detector.network()));
  expect_level_invariant("int8");
}

TEST(GridDetector, TargetsMarkCenterCell) {
  Rng rng(3);
  world::FrameGenerator generator(10);
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto style = world::SceneStyle::from_attributes(attrs);
  world::ObjectInstance obj;
  obj.cx = 0.55;
  obj.cy = 0.35;
  obj.w = 0.1;
  obj.h = 0.12;
  const auto frame = generator.render(style, attrs, {obj}, rng);
  const auto targets = GridDetector::build_targets(frame);
  // Center cell (x=5, y=3) on a 10-grid.
  const std::size_t cell = 3 * 10 + 5;
  EXPECT_EQ(targets.objectness.at(cell, 0), 1.0f);
  EXPECT_NEAR(targets.boxes.at(cell, 0), 0.5f, 1e-5f);  // dx within cell
  EXPECT_NEAR(targets.boxes.at(cell, 2), 0.1f, 1e-5f);  // width
  EXPECT_EQ(targets.box_mask.at(cell, 3), 1.0f);
  // All other cells negative.
  float total = targets.objectness.sum();
  EXPECT_EQ(total, 1.0f);
}

TEST(GridDetector, ConfidenceThresholdControlsOutput) {
  Rng rng(4);
  GridDetectorConfig config = GridDetectorConfig::compressed();
  config.confidence_threshold = 1.1;  // impossible
  GridDetector detector(config, rng);
  world::FrameGenerator generator;
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto frame =
      generator.render(world::SceneStyle::from_attributes(attrs), attrs, {},
                       rng);
  EXPECT_TRUE(detector.infer(frame).empty());
}

TEST(GridDetector, FlopsDoNotDependOnCallHistory) {
  // Activation cost comes from the architecture, so a fresh detector, the
  // same detector after a training forward(), and a copy loaded from the
  // wire format all report the trained network's figure.
  Rng rng(6);
  const GridDetectorConfig config = GridDetectorConfig::compressed();
  GridDetector detector(config, rng);
  const std::uint64_t fresh = detector.flops_per_frame();
  (void)detector.network().forward(
      Tensor::matrix(3, GridDetector::input_features()));
  EXPECT_EQ(detector.flops_per_frame(), fresh);
  std::stringstream wire;
  nn::save_network(detector.network(), wire);
  Rng other(7);
  GridDetector loaded(config, other);
  nn::load_network(loaded.network(), wire);
  EXPECT_EQ(loaded.flops_per_frame(), fresh);
  // Linear + ReLU(hidden) + Linear per cell.
  const std::uint64_t in = GridDetector::input_features();
  const std::uint64_t hidden = config.hidden.front();
  const std::uint64_t out = GridDetector::kOutputsPerCell;
  const std::uint64_t cells = world::kDefaultGridSize * world::kDefaultGridSize;
  const std::uint64_t per_cell =
      (2 * in * hidden + hidden) + hidden + (2 * hidden * out + out);
  EXPECT_EQ(fresh, cells * per_cell);
}

TEST(DetectorTrainConfig, EffectiveEpochsScaling) {
  DetectorTrainConfig config;
  config.epochs = 10;
  config.reference_frames = 0;
  EXPECT_EQ(config.effective_epochs(50), 10u);
  config.reference_frames = 1000;
  EXPECT_EQ(config.effective_epochs(1000), 10u);
  EXPECT_EQ(config.effective_epochs(500), 20u);
  EXPECT_EQ(config.effective_epochs(10), 60u);  // capped at 6x
  EXPECT_EQ(config.effective_epochs(0), 10u);
}

TEST(DetectorTraining, LearnsASingleScene) {
  Rng rng(5);
  world::ClipGenerator generator;
  world::ClipSpec spec;
  spec.attributes = {world::Weather::kClear, world::Location::kUrban,
                     world::TimeOfDay::kDaytime};
  spec.length = 120;
  const auto clip = generator.generate(spec, rng);
  std::vector<const world::Frame*> train;
  std::vector<const world::Frame*> test;
  for (std::size_t i = 0; i < 100; ++i) train.push_back(&clip.frames[i]);
  for (std::size_t i = 100; i < 120; ++i) test.push_back(&clip.frames[i]);

  GridDetector detector(GridDetectorConfig::compressed(), rng);
  const double before = evaluate_f1(detector, test);
  DetectorTrainConfig config;
  config.epochs = 16;
  const auto result = train_detector(detector, train, config, rng);
  const double after = evaluate_f1(detector, test);
  EXPECT_EQ(result.frames_seen, 100u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.35);
}

TEST(DetectorTraining, EmptyFrameListIsNoop) {
  Rng rng(6);
  GridDetector detector(GridDetectorConfig::compressed(), rng);
  DetectorTrainConfig config;
  const auto result = train_detector(detector, {}, config, rng);
  EXPECT_EQ(result.frames_seen, 0u);
  EXPECT_TRUE(result.epoch_losses.empty());
}

}  // namespace
}  // namespace anole::detect
