// GridDetector: the trainable object detector over cell-grid frames.
//
// This is the repo's stand-in for YOLOv3 (large preset) and YOLOv3-tiny
// (compressed preset): a per-cell prediction head shared across all grid
// cells — the 1x1-conv view of a one-stage detector. Each cell's input is
// its own features plus a global context descriptor (per-channel mean and
// spread of the whole frame), so a sufficiently large head can *adapt* its
// decision rule to the scene, while a small head lacks the capacity to do
// so across many scenes — the exact asymmetry Anole exploits.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "detect/detection.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"
#include "world/frame.hpp"

namespace anole::detect {

struct GridDetectorConfig {
  /// Hidden layer widths of the shared per-cell head.
  std::vector<std::size_t> hidden = {24};
  /// Confidence threshold for emitting a detection.
  double confidence_threshold = 0.5;
  /// NMS IoU threshold (low: duplicate firings on adjacent cells of one
  /// object overlap only partially).
  double nms_threshold = 0.30;
  /// NMS center-distance suppression radius (~1.2 cells at grid 12).
  double nms_center_distance = 0.10;
  std::string name = "grid-detector";

  /// Compressed preset — the YOLOv3-tiny stand-in.
  static GridDetectorConfig compressed(std::string name = "tiny");
  /// Large preset — the YOLOv3 stand-in (roughly 10x the FLOPs).
  static GridDetectorConfig large(std::string name = "deep");
};

/// The detector Anole routes between.
class GridDetector {
 public:
  /// Outputs per cell: objectness logit + (dx, dy, w, h).
  static constexpr std::size_t kOutputsPerCell = 5;

  GridDetector(const GridDetectorConfig& config, Rng& rng,
               std::size_t grid_size = world::kDefaultGridSize);

  /// Runs detection on one frame (post NMS). Writes no state (the
  /// network runs through nn::Module::infer), so concurrent infer() calls
  /// on one detector are safe as long as no thread mutates it. Computes
  /// the frame's channel moments and calls the overload below.
  std::vector<Detection> infer(const world::Frame& frame) const;

  /// Runs detection on one frame whose channel moments
  /// (world::write_channel_moments, kChannelMomentCount values) the
  /// caller already has: the engine hands over the head of the frame
  /// descriptor, so a served frame sweeps its cells once. Bitwise equal
  /// to infer(frame) when `moments` are that frame's moments; throws
  /// ContractViolation on a span of the wrong size.
  std::vector<Detection> infer(const world::Frame& frame,
                               std::span<const float> moments) const;
  std::string name() const { return config_.name; }

  /// Per-frame multiply-accumulate cost (drives the device simulator).
  std::uint64_t flops_per_frame() const;

  /// Streamed weight size in bytes (drives load latency and memory).
  std::uint64_t weight_bytes() const;

  /// Width of one per-cell input row.
  static std::size_t input_features();

  /// Builds the [cells, input_features] matrix for one frame.
  static Tensor build_inputs(const world::Frame& frame);

  /// Same, with the frame's channel moments supplied (see the infer
  /// overload above).
  static Tensor build_inputs(const world::Frame& frame,
                             std::span<const float> moments);

  /// Decode filter bound (DESIGN.md §10): a cell whose float objectness
  /// logit is below this cannot reach `confidence_threshold`, so decode
  /// skips it without evaluating the sigmoid. It is the largest float at
  /// or below logit(threshold) - 2^-10; -inf (no filter) when the
  /// threshold is not strictly between 0 and 1.
  static float decode_logit_floor(double confidence_threshold);

  /// Per-cell training targets for one frame: objectness [cells, 1],
  /// box regression [cells, 4], and the positive-cell mask [cells, 4].
  struct Targets {
    Tensor objectness;
    Tensor boxes;
    Tensor box_mask;
  };
  static Targets build_targets(const world::Frame& frame);

  nn::Sequential& network() { return *network_; }
  const nn::Sequential& network() const { return *network_; }
  const GridDetectorConfig& config() const { return config_; }
  std::size_t grid_size() const { return grid_size_; }

  void set_confidence_threshold(double threshold) {
    config_.confidence_threshold = threshold;
    logit_floor_ = decode_logit_floor(threshold);
  }

 private:
  GridDetectorConfig config_;
  /// decode_logit_floor(config_.confidence_threshold), kept in step.
  float logit_floor_;
  std::size_t grid_size_;
  std::unique_ptr<nn::Sequential> network_;
};

}  // namespace anole::detect
