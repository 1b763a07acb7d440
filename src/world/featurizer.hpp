// Global frame descriptor used as input to the scene encoder (M_scene) and
// the decision model (M_decision): per-channel means and spreads plus a
// luminance histogram. In the paper this role is played by raw pixels fed
// to a ResNet18; here the descriptor is the fixed "stem" and the learned
// encoder sits on top.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.hpp"
#include "world/frame.hpp"
#include "world/scene_style.hpp"

namespace anole::world {

/// Width of the per-channel moments block: mean, then population stddev,
/// of each cell channel over the frame.
inline constexpr std::size_t kChannelMomentCount = 2 * kCellChannels;

/// The moments block of one frame (kChannelMomentCount values): mean[c]
/// to out[c] and population stddev[c] to out[kCellChannels + c]. It is
/// the first half of the frame descriptor and GridDetector's global
/// context. Each channel accumulates in double in ascending cell order,
/// so one row-major sweep gives exactly the sums of a per-channel column
/// walk. Throws when the cell tensor does not match the frame's grid.
void write_channel_moments(const Frame& frame, std::span<float> out);

class FrameFeaturizer {
 public:
  /// Number of luminance histogram bins in the descriptor.
  static constexpr std::size_t kHistogramBins = 8;

  /// Descriptor width: mean + stddev per channel, plus the histogram.
  static constexpr std::size_t feature_count() {
    return kChannelMomentCount + kHistogramBins;
  }

  /// Descriptor of one frame as a [1, feature_count] matrix row.
  Tensor featurize(const Frame& frame) const;

  /// Descriptors of many frames stacked into [n, feature_count].
  Tensor featurize_batch(const std::vector<const Frame*>& frames) const;
};

}  // namespace anole::world
