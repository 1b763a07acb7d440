#include "world/featurizer.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace anole::world {
namespace {

/// Row-major cell pointer of a frame, after checking the cell tensor
/// matches its grid.
const float* cell_data(const Frame& frame) {
  ANOLE_CHECK(frame.cells.rank() == 2 &&
                  frame.cells.rows() == frame.cell_count() &&
                  frame.cells.cols() == kCellChannels,
              "frame cell tensor shape ", shape_to_string(frame.cells.shape()),
              " does not match grid ", frame.grid_size, "x",
              frame.grid_size);
  return frame.cells.data().data();
}

/// One row-major sweep over the cells: writes the moments block (see
/// write_channel_moments) and hands each cell to `visit` on the way. The
/// sums live in local arrays rather than in an accumulator object: GCC
/// keeps local arrays in vector registers across the sweep but not
/// member arrays.
template <typename Visit>
void sweep_channel_moments(const Frame& frame, std::span<float> out,
                           Visit&& visit) {
  const std::size_t cells = frame.cell_count();
  const float* cp = cell_data(frame);
  double sum[kCellChannels] = {};
  double sum_sq[kCellChannels] = {};
  for (std::size_t i = 0; i < cells; ++i) {
    const float* cell = cp + i * kCellChannels;
    for (std::size_t c = 0; c < kCellChannels; ++c) {
      const float v = cell[c];
      sum[c] += v;
      sum_sq[c] += static_cast<double>(v) * v;
    }
    visit(cell);
  }
  for (std::size_t c = 0; c < kCellChannels; ++c) {
    const double mean = sum[c] / static_cast<double>(cells);
    const double var =
        std::max(0.0, sum_sq[c] / static_cast<double>(cells) - mean * mean);
    out[c] = static_cast<float>(mean);
    out[kCellChannels + c] = static_cast<float>(std::sqrt(var));
  }
}

/// The channel moments and, from the same sweep, the luminance histogram
/// over each cell's mean of the luminance block, range [-0.25, 1.25].
void write_descriptor(const Frame& frame, std::span<float> out) {
  constexpr double kLo = -0.25;
  constexpr double kHi = 1.25;
  constexpr std::size_t kBins = FrameFeaturizer::kHistogramBins;
  std::size_t counts[kBins] = {};
  sweep_channel_moments(frame, out, [&](const float* cell) {
    double lum = 0.0;
    for (std::size_t c = 0; c < kBlockChannels; ++c) lum += cell[c];
    lum /= static_cast<double>(kBlockChannels);
    const double clamped = std::clamp(lum, kLo, kHi - 1e-9);
    const auto bin = static_cast<std::size_t>((clamped - kLo) / (kHi - kLo) *
                                              static_cast<double>(kBins));
    ++counts[bin];
  });
  const auto cells = static_cast<double>(frame.cell_count());
  for (std::size_t b = 0; b < kBins; ++b) {
    out[kChannelMomentCount + b] =
        static_cast<float>(static_cast<double>(counts[b]) / cells);
  }
}

}  // namespace

void write_channel_moments(const Frame& frame, std::span<float> out) {
  sweep_channel_moments(frame, out, [](const float*) {});
}

Tensor FrameFeaturizer::featurize(const Frame& frame) const {
  Tensor out = Tensor::matrix(1, feature_count());
  write_descriptor(frame, out.row(0));
  return out;
}

Tensor FrameFeaturizer::featurize_batch(
    const std::vector<const Frame*>& frames) const {
  Tensor out = Tensor::uninitialized(Shape{frames.size(), feature_count()});
  if (frames.empty()) return out;
  // Disjoint output rows: safe and deterministic at any thread count.
  // The work hint (one descriptor scans every cell channel once) keeps
  // small batches inline instead of waking the pool.
  const std::size_t work_per_frame =
      frames.front()->cell_count() * kCellChannels;
  par::parallel_for(0, frames.size(), 8, work_per_frame, [&](std::size_t i) {
    write_descriptor(*frames[i], out.row(i));
  });
  return out;
}

}  // namespace anole::world
