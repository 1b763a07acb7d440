// Runtime-dispatched SIMD kernel layer (DESIGN.md §13).
//
// Every vector instruction in the repo lives behind this module: callers
// pick a `Level` once (normally `active_level()`) and hand it to the
// kernels below. Three levels exist — a genuinely scalar reference
// (autovectorization suppressed, the baseline every speedup is measured
// against), the baseline-x86-64 SSE2 path, and an AVX2+FMA path — probed
// from CPUID at first use and overridable with the ANOLE_SIMD environment
// variable or `set_level()` (tests, replay).
//
// Determinism contract (per dispatch level):
//   - int8 qgemm accumulates exact int32 sums and dequantizes with a
//     separate multiply and add (contraction into FMA is switched off on
//     its kernels) at every level, so all levels produce bitwise
//     identical outputs.
//   - fp32 GEMM: kScalar and kSSE2 are bitwise identical (both evaluate
//     c[j] += a*b[j] with one rounding per multiply and add); kAVX2 fuses
//     the multiply-add (FMA, one rounding), so its outputs differ from
//     scalar by the FMA rounding only — bounded by a few ULP per
//     accumulation step — and are bitwise stable at that level.
//   - k-means distances are bitwise identical at every level (lanes map
//     to centroids; each lane's accumulation order matches the scalar
//     loop and no FMA is used).
//   - sigmoid/BCE transcendentals: kScalar and kSSE2 call libm and are
//     bitwise identical to each other; kAVX2 uses a documented
//     polynomial exp/log1p pair accurate to a few ULP (see
//     sigmoid_terms below).
//   At any fixed level, every kernel is bitwise identical across thread
//   counts and chunkings. The active level is mixed into fault and
//   governor trace hashes, so replay logs pin it; replay under a
//   different ANOLE_SIMD is detected as a trace mismatch.
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
/// `detected_level()`. Requests above the detected level clamp down so a
/// pinned replay degrades loudly (trace-hash mismatch) instead of
/// executing illegal instructions.
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
/// the row's non-NaN elements). A zero, denormal-underflowing or infinite
/// maximum gives scale 1.
inline float row_scale_for(float abs_max) {
  float scale = abs_max > 0.0f ? abs_max / 127.0f : 1.0f;
  if (!(scale > 0.0f) || !std::isfinite(scale)) scale = 1.0f;
  return scale;
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

/// --- sigmoid / BCE transcendental kernel ----------------------------

/// p[i] = 1 / (1 + exp(-z[i])) and, when `log_term` is non-null,
/// log_term[i] = log1p(exp(-|z[i]|)) — the transcendental core of the
/// logistic sigmoid and of the numerically stable binary cross-entropy.
/// `p` may alias `z` (in-place sigmoid). kScalar and kSSE2 evaluate
/// exactly the libm expressions above, so those levels stay bitwise
/// identical to each other and to the historical scalar loss loop. kAVX2
/// evaluates a Cephes-style polynomial exp and an atanh-series log1p:
/// like the FMA contraction in gemm_rows, the AVX2 level trades bitwise
/// agreement with libm for throughput — outputs agree to a few ULP
/// relative (the exp argument is clamped to [-87.33, 88.0], so inputs
/// past sigmoid saturation differ from libm by < 1.1e-38 absolute) and
/// are bitwise stable at that level across calls and thread counts.
void sigmoid_terms(Level level, const float* z, std::size_t n, float* p,
                   float* log_term);

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
