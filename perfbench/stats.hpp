// Statistics helpers of the benchmark: nearest-rank percentiles, the rule
// that a percentile is reported only when enough samples lie beyond it,
// and failure rates counted against attempts. selftest.cpp covers them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the tail is a handful of outliers.
inline constexpr std::size_t kMinTailSamples = 10;

/// 1-based nearest rank of the `percent`-th percentile of n samples:
/// ceil(percent * n / 100), clamped into [1, n]. Requires n >= 1 and
/// percent in [1, 100].
inline std::size_t nearest_rank(std::size_t n, std::size_t percent) {
  if (n == 0 || percent == 0 || percent > 100) {
    throw std::invalid_argument(
        "nearest_rank: need n >= 1 and percent in [1, 100]");
  }
  return std::clamp<std::size_t>((n * percent + 99) / 100, 1, n);
}

/// Samples that lie beyond the nearest-rank percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, std::size_t percent) {
  return n - nearest_rank(n, percent);
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted,
                                std::size_t percent) {
  return sorted[nearest_rank(sorted.size(), percent) - 1];
}

/// The percentile, or nullopt when fewer than kMinTailSamples lie beyond
/// it. `sorted` must be ascending.
inline std::optional<double> reportable_percentile(
    const std::vector<double>& sorted, std::size_t percent) {
  if (sorted.empty() ||
      samples_beyond(sorted.size(), percent) < kMinTailSamples) {
    return std::nullopt;
  }
  return percentile_sorted(sorted, percent);
}

/// Nearest-rank median (the lower middle element for even n).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50);
}

/// Mean of the middle half of a sample: the lowest and highest
/// floor(n/4) values are dropped. Unlike the median it moves smoothly when
/// the sample is a mixture of two modes (a host that runs this process at
/// two speeds), and unlike the mean it ignores a few outliers.
inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("interquartile_mean: empty sample");
  }
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Operations attempted and failed; a failed operation is also attempted.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// events / attempts. An attempt count of zero has no rate.
inline double rate(std::size_t events, std::size_t attempts) {
  if (attempts == 0) throw std::invalid_argument("rate: no attempts");
  if (events > attempts) throw std::invalid_argument("rate: events > attempts");
  return static_cast<double>(events) / static_cast<double>(attempts);
}

}  // namespace perfbench
