// Runtime-dispatched SIMD kernel layer (DESIGN.md §13).
//
// Every vector instruction in the repo lives behind this module: callers
// pick a `Level` once (normally `active_level()`) and hand it to the
// kernels below. Three levels exist — a genuinely scalar reference
// (autovectorization suppressed, the baseline every speedup is measured
// against), the baseline-x86-64 SSE2 path, and an AVX2 path — probed
// from CPUID at first use and overridable with the ANOLE_SIMD environment
// variable or `set_level()` (tests, benches).
//
// Determinism contract: every kernel, at every level, is bitwise
// identical to the scalar level, at any thread count and chunking. The
// vector kernels keep the scalar loop's per-element operation order and
// round every multiply and add apart (no FMA: contraction is switched
// off on them); integer accumulation is exact. The level is therefore a
// speed choice only: a run under any ANOLE_SIMD is the same execution.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace anole::simd {

/// Dispatch levels, ordered by capability.
enum class Level : std::uint8_t { kScalar = 0, kSSE2 = 1, kAVX2 = 2 };

/// Best level the CPU supports (CPUID probe, cached).
Level detected_level();

/// Level the kernels run at: `set_level()` override if set, else the
/// ANOLE_SIMD environment variable (values: scalar, sse2, avx2), else
/// `detected_level()`. Requests above the detected level clamp down
/// instead of executing illegal instructions.
Level active_level();

/// Runtime override (wins over ANOLE_SIMD; clamped to the detected
/// level). Used by tests and benches to pin a dispatch path.
void set_level(Level level);

/// Drops the `set_level()` override, restoring env/detected resolution.
void reset_level();

/// Stable lowercase name ("scalar", "sse2", "avx2").
const char* level_name(Level level);

/// --- fp32 GEMM row kernel -------------------------------------------
/// Computes rows [ilo, ihi) of C = A'·B over the full [0, n) column and
/// [0, k) depth extent, with A read as pa[i*a_row_stride +
/// kk*a_col_stride] (serves matmul and both transposed entry points).
/// Cache blocking and the zero-skip on A elements are identical at every
/// level; each output element accumulates in ascending kk order.
void gemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t k,
               std::size_t n, const float* pa, std::size_t a_row_stride,
               std::size_t a_col_stride, const float* pb, float* pc);

/// --- int8 GEMM kernels ----------------------------------------------

/// Activation rows are quantized into int16 rows padded to a multiple of
/// this, so the widest (AVX2) quantizer stores whole 16-code blocks.
inline constexpr std::size_t kQgemmDepthMultiple = 16;

/// The pair-interleaved weight layout pads output channels to a multiple
/// of this: one AVX2 register of int32 accumulators (two SSE2 ones).
inline constexpr std::size_t kQgemmChannelMultiple = 8;

/// The one int8 rounding rule, shared by every quantizer (weights in
/// tensor/qgemm.cpp, activation rows at every level in tensor/simd.cpp):
/// the symmetric code for `value / scale`, round-to-nearest-even (the
/// default FP environment, matching cvtps2dq in the vector paths),
/// clamped to [-127, 127]. Non-finite elements follow one rule at every
/// level: +-Inf saturates to +-127 and NaN saturates low like -Inf, to
/// -127 (the vector clamp's max takes its second operand, -127, when the
/// first is NaN); `row_scale_for` callers leave NaN out of the absolute
/// maximum.
inline std::int32_t quantize_code(float value, float inv_scale) {
  const float scaled = value * inv_scale;
  if (std::isnan(scaled)) return -127;
  return static_cast<std::int32_t>(
      std::clamp(std::nearbyint(scaled), -127.0f, 127.0f));
}

/// Symmetric scale for a row with the given absolute maximum (taken over
/// the row's non-NaN elements). A maximum below ~3.7e-37 (zero included),
/// whose scale's inverse would overflow and saturate every code, or an
/// infinite maximum gives scale 1.
inline float row_scale_for(float abs_max) {
  // A zero quotient fails the second test: 1/0 is infinite.
  const float scale = abs_max / 127.0f;
  return std::isfinite(scale) && std::isfinite(1.0f / scale) ? scale : 1.0f;
}

/// Quantizes `rows` fp32 rows of `depth` elements, row r read at
/// x + r*x_stride, into int8 codes stored as int16 (the pmaddwd idiom's
/// input) at dst + r*padded, zero-filling [depth, padded) of each, and
/// writes row r's symmetric scale to scales[r]. `padded` must cover the
/// depth and be a multiple of kQgemmDepthMultiple; `x_stride` must cover
/// the depth. The vector levels work on blocks of rows (8 at AVX2, 4 at
/// SSE2), so a block shares one reduction and one division for its
/// scales; maximum and IEEE division do not depend on that grouping, so
/// codes and scales are identical at every level.
void quantize_rows_int16(Level level, const float* x, std::size_t rows,
                         std::size_t depth, std::size_t x_stride,
                         std::int16_t* dst, std::size_t padded,
                         float* scales);

/// Computes rows [ilo, ihi) of the int8 GEMM with fused dequant + bias:
/// py[i*n + j] = float(dot(x row i, channel j)) * (xscale[i] * pscale[j])
/// + pbias[j], for j in [0, n). Activation row i is read as int16 codes
/// at xq + i*x_stride (zero beyond the depth); the weights are in the
/// pair-interleaved layout pw[(p*channel_stride + j)*2 + h] = W[j][2p+h]
/// for depth pair p in [0, pairs) (tensor/qgemm.hpp), with channel_stride
/// a multiple of kQgemmChannelMultiple and zero pad entries. pbias may be
/// null. Exact int32 accumulation and an uncontracted dequant: bitwise
/// identical at every level, chunking, and thread count.
void qgemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t n,
                std::size_t pairs, std::size_t channel_stride,
                const std::int16_t* xq, std::size_t x_stride,
                const float* xscale, const std::int16_t* pw,
                const float* pscale, const float* pbias, float* py);

/// --- k-means distance kernel ----------------------------------------

/// Centroid count is padded to a multiple of this in the transposed
/// layout below (one vector lane per centroid).
inline constexpr std::size_t kKmeansLaneMultiple = 4;

/// --- sigmoid / BCE transcendental loop ------------------------------

/// p[i] = 1 / (1 + exp(-z[i])) and, when `log_term` is non-null,
/// log_term[i] = log1p(exp(-|z[i]|)) — the transcendental core of the
/// logistic sigmoid and of the numerically stable binary cross-entropy,
/// evaluated with libm element by element (not dispatched: there is no
/// vector form that matches libm bit for bit). `p` may alias `z`
/// (in-place sigmoid).
void sigmoid_terms(const float* z, std::size_t n, float* p, float* log_term);

/// dist[j] = squared L2 distance (double) between `point` and centroid j,
/// for all j in [0, k). Centroids are given transposed and widened:
/// centroids_t[d * k_stride + j] = double(centroid_j[d]), with k_stride a
/// multiple of kKmeansLaneMultiple (>= k; the pad lanes are read but
/// their outputs ignored — dist must have k_stride slots). Each lane
/// accumulates (double(point[d]) - c)² in ascending d order with separate
/// multiply and add, so results are bitwise identical at every level and
/// to the classic per-centroid scalar loop.
void kmeans_distances(Level level, const float* point, std::size_t dims,
                      const double* centroids_t, std::size_t k_stride,
                      double* dist);

}  // namespace anole::simd
