#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/check.hpp"

// GCC honors per-function optimize attributes; the scalar kernels use
// them to suppress autovectorization so the "scalar" level is a genuine
// one-lane reference (Release -O3 would otherwise re-vectorize it), and
// to keep every multiply and add separately rounded even in a build for
// an FMA-capable target. One attribute carries all options: GCC does not
// reliably merge two optimize attributes on one function.
//
// ANOLE_NO_CONTRACT marks every vector kernel that multiplies and adds.
// GCC contracts a separate multiply and add into one FMA by default
// (-ffp-contract=fast) wherever the target has FMA, intrinsics included.
// The AVX2 kernels target avx2 alone, but a whole build for an FMA host
// (-march=native) would still fuse them; a fused `c + a*b` skips the
// product's rounding and stops matching the scalar level bit for bit.
#if defined(__GNUC__) && !defined(__clang__)
#define ANOLE_NO_AUTOVEC                                             \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize", \
                          "fp-contract=off")))
#define ANOLE_NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define ANOLE_NO_AUTOVEC
#define ANOLE_NO_CONTRACT
#endif

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define ANOLE_HAVE_AVX2_TARGET 1
#define ANOLE_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ANOLE_HAVE_AVX2_TARGET 0
#define ANOLE_TARGET_AVX2
#endif

namespace anole::simd {
namespace {

/// Cache blocking shared by every fp32 GEMM level: a kJBlock-float
/// segment of the B and C rows (1 KiB) stays in L1 while a kKBlock-row
/// panel of B is reused across every row of a chunk. Accumulation over kk
/// stays ascending for every output element, so blocking never changes
/// results within a level.
constexpr std::size_t kJBlock = 256;
constexpr std::size_t kKBlock = 64;

/// Output channels per block of the scalar qgemm kernel: one int32
/// accumulator per channel on the stack while a row's depth pairs stream
/// through.
constexpr std::size_t kChannelBlock = 64;

/// --- level resolution -----------------------------------------------

Level probe_cpu() {
#if ANOLE_HAVE_AVX2_TARGET
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
#endif
#if defined(__SSE2__)
  return Level::kSSE2;
#else
  return Level::kScalar;
#endif
}

Level clamp_to_detected(Level level) {
  return std::min(level, detected_level());
}

Level parse_env_level() {
  const char* env = std::getenv("ANOLE_SIMD");
  if (env == nullptr || *env == '\0') return detected_level();
  const std::string_view name(env);
  Level requested = Level::kScalar;
  if (name == "scalar") {
    requested = Level::kScalar;
  } else if (name == "sse2") {
    requested = Level::kSSE2;
  } else if (name == "avx2") {
    requested = Level::kAVX2;
  } else {
    // A typo here would silently break replay pinning, so fail loudly.
    ANOLE_CHECK(false, "ANOLE_SIMD: unknown level '", name,
                "' (expected scalar, sse2, or avx2)");
  }
  return clamp_to_detected(requested);
}

/// set_level override; kSentinelNoOverride (>= any valid level) = unset.
constexpr int kNoOverride = -1;
std::atomic<int> g_override{kNoOverride};

Level env_level() {
  static const Level level = parse_env_level();
  return level;
}

/// --- fp32 GEMM kernels ----------------------------------------------

ANOLE_NO_AUTOVEC
void gemm_rows_scalar(std::size_t ilo, std::size_t ihi, std::size_t k,
                      std::size_t n, const float* pa, std::size_t ars,
                      std::size_t acs, const float* pb, float* pc) {
  for (std::size_t jb = 0; jb < n; jb += kJBlock) {
    const std::size_t jhi = std::min(n, jb + kJBlock);
    for (std::size_t kb = 0; kb < k; kb += kKBlock) {
      const std::size_t khi = std::min(k, kb + kKBlock);
      for (std::size_t i = ilo; i < ihi; ++i) {
        float* crow = pc + i * n;
        if (kb == 0) std::fill(crow + jb, crow + jhi, 0.0f);
        for (std::size_t kk = kb; kk < khi; ++kk) {
          const float aik = pa[i * ars + kk * acs];
          if (aik == 0.0f) continue;
          const float* brow = pb + kk * n;
          for (std::size_t j = jb; j < jhi; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

#if defined(__SSE2__)
ANOLE_NO_CONTRACT
void gemm_rows_sse2(std::size_t ilo, std::size_t ihi, std::size_t k,
                    std::size_t n, const float* pa, std::size_t ars,
                    std::size_t acs, const float* pb, float* pc) {
  for (std::size_t jb = 0; jb < n; jb += kJBlock) {
    const std::size_t jhi = std::min(n, jb + kJBlock);
    for (std::size_t kb = 0; kb < k; kb += kKBlock) {
      const std::size_t khi = std::min(k, kb + kKBlock);
      for (std::size_t i = ilo; i < ihi; ++i) {
        float* crow = pc + i * n;
        if (kb == 0) std::fill(crow + jb, crow + jhi, 0.0f);
        for (std::size_t kk = kb; kk < khi; ++kk) {
          const float aik = pa[i * ars + kk * acs];
          if (aik == 0.0f) continue;
          const float* brow = pb + kk * n;
          // Separate mul + add per lane: one rounding each, exactly the
          // scalar expression c[j] += a*b[j] — bitwise equal to kScalar.
          const __m128 va = _mm_set1_ps(aik);
          std::size_t j = jb;
          for (; j + 4 <= jhi; j += 4) {
            const __m128 prod = _mm_mul_ps(va, _mm_loadu_ps(brow + j));
            _mm_storeu_ps(crow + j,
                          _mm_add_ps(_mm_loadu_ps(crow + j), prod));
          }
          for (; j < jhi; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}
#endif  // __SSE2__

#if ANOLE_HAVE_AVX2_TARGET
/// Lane-enable masks for `_mm256_maskload_ps`/`_mm256_maskstore_ps`:
/// `kTailMask + (8 - t)` enables the first `t` lanes. Inactive lanes are
/// neither read nor written, so a masked tail computes exactly the
/// scalar loop's elements.
alignas(32) constexpr std::int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1,
                                                   -1, -1, 0,  0,  0,  0,
                                                   0,  0,  0,  0};

/// The mask enabling the first `lanes` (0..8) lanes.
ANOLE_TARGET_AVX2 inline __m256i lane_mask(std::size_t lanes) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + (8 - lanes)));
}

/// Narrow-output kernel: the whole C row lives in `kVecs` register
/// accumulators across the k loop instead of a load/store round trip per
/// k (the blocked path below is store-forwarding-bound at the skinny
/// widths the NN layers run: 5, 16, 24, 42). `kRows` C rows advance
/// together so one set of B-row loads feeds several accumulator rows —
/// and in the transpose-A layouts (`acs > 1`) the per-row A scalars for
/// a k step sit in the same cache line. The last vector is masked to its
/// first `last_lanes` (1..8) lanes so any n in ((kVecs-1)*8, kVecs*8]
/// fits. The lane count, not the mask, crosses the call: a function that
/// takes a ymm argument gets no `vzeroupper` from GCC, and returning with
/// dirty upper state makes the SSE code after it pay AVX/SSE transition
/// penalties. Per output element the accumulation is still c += a*b
/// with the multiply and the add rounded apart, kk ascending, independent
/// of row grouping and chunk boundaries, so results are bitwise identical
/// to the scalar level at any thread count.
template <int kVecs, int kRows>
ANOLE_TARGET_AVX2 ANOLE_NO_CONTRACT void gemm_rows_avx2_narrow(
    std::size_t ilo, std::size_t ihi, std::size_t k, std::size_t n,
    const float* pa, std::size_t ars, std::size_t acs, const float* pb,
    float* pc, std::size_t last_lanes) {
  const __m256i last_mask = lane_mask(last_lanes);
  std::size_t i = ilo;
  for (; i + kRows <= ihi; i += kRows) {
    __m256 acc[kRows][kVecs];
    for (int r = 0; r < kRows; ++r) {
      for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm256_setzero_ps();
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n;
      __m256 b[kVecs];
      for (int v = 0; v + 1 < kVecs; ++v) b[v] = _mm256_loadu_ps(brow + 8 * v);
      b[kVecs - 1] = _mm256_maskload_ps(brow + 8 * (kVecs - 1), last_mask);
      for (int r = 0; r < kRows; ++r) {
        const float aik = pa[(i + r) * ars + kk * acs];
        // Matches the scalar kernel's zero skip: a zero coefficient must
        // contribute nothing, even against non-finite B entries.
        if (aik == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(aik);
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, b[v]));
        }
      }
    }
    for (int r = 0; r < kRows; ++r) {
      float* crow = pc + (i + r) * n;
      for (int v = 0; v + 1 < kVecs; ++v) {
        _mm256_storeu_ps(crow + 8 * v, acc[r][v]);
      }
      _mm256_maskstore_ps(crow + 8 * (kVecs - 1), last_mask, acc[r][kVecs - 1]);
    }
  }
  if constexpr (kRows > 1) {
    gemm_rows_avx2_narrow<kVecs, 1>(i, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
  }
}

ANOLE_TARGET_AVX2 ANOLE_NO_CONTRACT
void gemm_rows_avx2(std::size_t ilo, std::size_t ihi, std::size_t k,
                    std::size_t n, const float* pa, std::size_t ars,
                    std::size_t acs, const float* pb, float* pc) {
  if (n > 0 && n <= 64) {
    const std::size_t tail = n % 8;
    const std::size_t last_lanes = tail == 0 ? 8 : tail;
    // Row-group widths keep every live accumulator (kRows * kVecs), the
    // shared B vectors, and the broadcast register inside the 16 ymm
    // registers; wider outputs drop to fewer rows per group.
    switch ((n + 7) / 8) {
      case 1:
        gemm_rows_avx2_narrow<1, 8>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
      case 2:
        gemm_rows_avx2_narrow<2, 6>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
      case 3:
        gemm_rows_avx2_narrow<3, 3>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
      case 4:
        gemm_rows_avx2_narrow<4, 2>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
      case 5:
        gemm_rows_avx2_narrow<5, 1>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
      case 6:
        gemm_rows_avx2_narrow<6, 1>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
      case 7:
        gemm_rows_avx2_narrow<7, 1>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
      default:
        gemm_rows_avx2_narrow<8, 1>(ilo, ihi, k, n, pa, ars, acs, pb, pc,
                                    last_lanes);
        return;
    }
  }
  for (std::size_t jb = 0; jb < n; jb += kJBlock) {
    const std::size_t jhi = std::min(n, jb + kJBlock);
    const std::size_t tail = (jhi - jb) % 8;
    const std::size_t jvec = jhi - tail;
    const __m256i tail_mask = lane_mask(tail);
    for (std::size_t kb = 0; kb < k; kb += kKBlock) {
      const std::size_t khi = std::min(k, kb + kKBlock);
      for (std::size_t i = ilo; i < ihi; ++i) {
        float* crow = pc + i * n;
        if (kb == 0) std::fill(crow + jb, crow + jhi, 0.0f);
        for (std::size_t kk = kb; kk < khi; ++kk) {
          const float aik = pa[i * ars + kk * acs];
          if (aik == 0.0f) continue;
          const float* brow = pb + kk * n;
          // Separate mul + add per lane, in the full vector body and the
          // masked tail alike: the scalar expression c[j] += a*b[j].
          const __m256 va = _mm256_set1_ps(aik);
          for (std::size_t j = jb; j + 8 <= jhi; j += 8) {
            const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(brow + j));
            _mm256_storeu_ps(crow + j,
                             _mm256_add_ps(_mm256_loadu_ps(crow + j), prod));
          }
          if (tail != 0) {
            const __m256 prod =
                _mm256_mul_ps(va, _mm256_maskload_ps(brow + jvec, tail_mask));
            _mm256_maskstore_ps(
                crow + jvec, tail_mask,
                _mm256_add_ps(_mm256_maskload_ps(crow + jvec, tail_mask),
                              prod));
          }
        }
      }
    }
  }
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- activation quantization ----------------------------------------
//
// Every level computes the same codes and scales (quantize_code and
// row_scale_for in simd.hpp). Vector max/min return their second operand
// when either is NaN, and the operand order carries the NaN rule: the
// running maximum goes second, so NaN elements are left out of it, and
// the clamp's max(x, -127) sends NaN to -127; +-Inf saturate.
//
// The vector levels quantize a block of rows at once (8 at AVX2, 4 at
// SSE2): one abs-max chain per row, interleaved so their latencies
// overlap, one transposed reduction that leaves row r's maximum in lane
// r, then one division for the block's scales and one for their
// inverses. The running maxima never hold NaN, so the order in which a
// reduction combines them cannot change the result, and a lane-wise
// IEEE division is the scalar division. A block that runs past the last
// row repeats that row in its spare lanes and stores only its live rows.

ANOLE_NO_AUTOVEC
void quantize_rows_int16_scalar(const float* x, std::size_t rows,
                                std::size_t depth, std::size_t x_stride,
                                std::int16_t* dst, std::size_t padded,
                                float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* src = x + r * x_stride;
    std::int16_t* out = dst + r * padded;
    float abs_max = 0.0f;
    for (std::size_t i = 0; i < depth; ++i) {
      // std::max keeps its first argument when the second is NaN.
      abs_max = std::max(abs_max, std::fabs(src[i]));
    }
    const float scale = row_scale_for(abs_max);
    const float inv_scale = 1.0f / scale;
    for (std::size_t i = 0; i < depth; ++i) {
      out[i] = static_cast<std::int16_t>(quantize_code(src[i], inv_scale));
    }
    std::fill(out + depth, out + padded, std::int16_t{0});
    scales[r] = scale;
  }
}

#if defined(__SSE2__)
/// Codes of 8 floats at `src` as 8 int16 lanes: scale, clamp (NaN to
/// -127), and cvtps2dq (round-to-nearest-even under the default
/// MXCSR, matching quantize_code); the saturating pack cannot clip after
/// the clamp.
inline __m128i quantize8_sse2(const float* src, __m128 vinv) {
  const __m128 vlo = _mm_set1_ps(-127.0f);
  const __m128 vhi = _mm_set1_ps(127.0f);
  const __m128 a =
      _mm_min_ps(_mm_max_ps(_mm_mul_ps(_mm_loadu_ps(src), vinv), vlo), vhi);
  const __m128 b = _mm_min_ps(
      _mm_max_ps(_mm_mul_ps(_mm_loadu_ps(src + 4), vinv), vlo), vhi);
  return _mm_packs_epi32(_mm_cvtps_epi32(a), _mm_cvtps_epi32(b));
}

/// Rows [0, live) of the 4-row block at `x` (1 <= live <= 4).
void quantize_block4_sse2(const float* x, std::size_t live, std::size_t depth,
                          std::size_t x_stride, std::int16_t* dst,
                          std::size_t padded, float* scales) {
  const float* src[4];
  for (std::size_t r = 0; r < 4; ++r) {
    src[r] = x + std::min(r, live - 1) * x_stride;
  }
  const std::size_t body = depth - depth % 8;
  // Row tails run through the same 8-wide code on zero-padded stack
  // copies: zeros leave the maximum alone and quantize to the pad code 0
  // (the inverse scale is always finite).
  alignas(16) float tail[4][8] = {};
  for (std::size_t r = 0; r < 4; ++r) {
    std::copy(src[r] + body, src[r] + depth, tail[r]);
  }
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF));
  __m128 vmax[4];
  for (std::size_t r = 0; r < 4; ++r) vmax[r] = _mm_setzero_ps();
  for (std::size_t i = 0; i < body; i += 4) {
    for (std::size_t r = 0; r < 4; ++r) {
      vmax[r] = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(src[r] + i), abs_mask),
                           vmax[r]);
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < 8; i += 4) {
      vmax[r] = _mm_max_ps(_mm_and_ps(_mm_load_ps(tail[r] + i), abs_mask),
                           vmax[r]);
    }
  }
  // Transposed reduction: lane r of abs_max is row r's maximum.
  const __m128 t0 = _mm_max_ps(_mm_unpacklo_ps(vmax[0], vmax[1]),
                               _mm_unpackhi_ps(vmax[0], vmax[1]));
  const __m128 t1 = _mm_max_ps(_mm_unpacklo_ps(vmax[2], vmax[3]),
                               _mm_unpackhi_ps(vmax[2], vmax[3]));
  const __m128 abs_max =
      _mm_max_ps(_mm_movelh_ps(t0, t1), _mm_movehl_ps(t1, t0));
  // row_scale_for per lane: a quotient or inverse that is not finite
  // (a zero quotient has an infinite inverse) gives scale 1 and
  // inverse 1 = 1/1.
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 quotient = _mm_div_ps(abs_max, _mm_set1_ps(127.0f));
  const __m128 inverse = _mm_div_ps(one, quotient);
  const __m128 inf = _mm_set1_ps(std::numeric_limits<float>::infinity());
  const __m128 usable =
      _mm_and_ps(_mm_cmplt_ps(quotient, inf), _mm_cmplt_ps(inverse, inf));
  alignas(16) float block_scale[4];
  alignas(16) float block_inv[4];
  _mm_store_ps(block_scale, _mm_or_ps(_mm_and_ps(usable, quotient),
                                      _mm_andnot_ps(usable, one)));
  _mm_store_ps(block_inv, _mm_or_ps(_mm_and_ps(usable, inverse),
                                    _mm_andnot_ps(usable, one)));
  for (std::size_t r = 0; r < live; ++r) {
    scales[r] = block_scale[r];
    const __m128 vinv = _mm_set1_ps(block_inv[r]);
    std::int16_t* out = dst + r * padded;
    for (std::size_t i = 0; i < body; i += 8) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       quantize8_sse2(src[r] + i, vinv));
    }
    std::size_t written = body;
    if (body < depth) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + body),
                       quantize8_sse2(tail[r], vinv));
      written += 8;
    }
    std::fill(out + written, out + padded, std::int16_t{0});
  }
}

void quantize_rows_int16_sse2(const float* x, std::size_t rows,
                              std::size_t depth, std::size_t x_stride,
                              std::int16_t* dst, std::size_t padded,
                              float* scales) {
  for (std::size_t r = 0; r < rows; r += 4) {
    quantize_block4_sse2(x + r * x_stride, std::min<std::size_t>(rows - r, 4),
                         depth, x_stride, dst + r * padded, padded,
                         scales + r);
  }
}
#endif  // __SSE2__

#if ANOLE_HAVE_AVX2_TARGET
/// Codes of two 8-float vectors as 16 int16 lanes in order (see
/// quantize8_sse2 for the per-lane rule).
ANOLE_TARGET_AVX2 inline __m256i quantize16_avx2(__m256 a, __m256 b,
                                                 __m256 vinv) {
  const __m256 vlo = _mm256_set1_ps(-127.0f);
  const __m256 vhi = _mm256_set1_ps(127.0f);
  a = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(a, vinv), vlo), vhi);
  b = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(b, vinv), vlo), vhi);
  // packs works within 128-bit lanes; the permute restores order.
  return _mm256_permute4x64_epi64(
      _mm256_packs_epi32(_mm256_cvtps_epi32(a), _mm256_cvtps_epi32(b)), 0xD8);
}

/// Rows [0, live) of the 8-row block at `x` (1 <= live <= 8). Masked
/// loads read each row's tail without touching memory past it; disabled
/// lanes read as 0, which leaves the maximum alone and quantizes to the
/// pad code 0.
ANOLE_TARGET_AVX2
void quantize_block8_avx2(const float* x, std::size_t live, std::size_t depth,
                          std::size_t x_stride, std::int16_t* dst,
                          std::size_t padded, float* scales) {
  const float* src[8];
  for (std::size_t r = 0; r < 8; ++r) {
    src[r] = x + std::min(r, live - 1) * x_stride;
  }
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 vmax[8];
  for (std::size_t r = 0; r < 8; ++r) vmax[r] = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= depth; i += 8) {
    for (std::size_t r = 0; r < 8; ++r) {
      vmax[r] = _mm256_max_ps(
          _mm256_and_ps(_mm256_loadu_ps(src[r] + i), abs_mask), vmax[r]);
    }
  }
  if (i < depth) {
    const __m256i mask = lane_mask(depth - i);
    for (std::size_t r = 0; r < 8; ++r) {
      vmax[r] = _mm256_max_ps(
          _mm256_and_ps(_mm256_maskload_ps(src[r] + i, mask), abs_mask),
          vmax[r]);
    }
  }
  // Transposed reduction: pairs of rows, then quads within each 128-bit
  // half, then the two halves; lane r of abs_max is row r's maximum.
  __m256 pairs[4];
  for (std::size_t p = 0; p < 4; ++p) {
    pairs[p] = _mm256_max_ps(_mm256_unpacklo_ps(vmax[2 * p], vmax[2 * p + 1]),
                             _mm256_unpackhi_ps(vmax[2 * p], vmax[2 * p + 1]));
  }
  const __m256 quad_lo =
      _mm256_max_ps(_mm256_shuffle_ps(pairs[0], pairs[1], 0x44),
                    _mm256_shuffle_ps(pairs[0], pairs[1], 0xEE));
  const __m256 quad_hi =
      _mm256_max_ps(_mm256_shuffle_ps(pairs[2], pairs[3], 0x44),
                    _mm256_shuffle_ps(pairs[2], pairs[3], 0xEE));
  const __m256 abs_max =
      _mm256_max_ps(_mm256_permute2f128_ps(quad_lo, quad_hi, 0x20),
                    _mm256_permute2f128_ps(quad_lo, quad_hi, 0x31));
  // row_scale_for per lane (see the SSE2 block).
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 quotient = _mm256_div_ps(abs_max, _mm256_set1_ps(127.0f));
  const __m256 inverse = _mm256_div_ps(one, quotient);
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m256 usable = _mm256_and_ps(_mm256_cmp_ps(quotient, inf, _CMP_LT_OQ),
                                      _mm256_cmp_ps(inverse, inf, _CMP_LT_OQ));
  alignas(32) float block_scale[8];
  alignas(32) float block_inv[8];
  _mm256_store_ps(block_scale, _mm256_blendv_ps(one, quotient, usable));
  _mm256_store_ps(block_inv, _mm256_blendv_ps(one, inverse, usable));
  for (std::size_t r = 0; r < live; ++r) {
    scales[r] = block_scale[r];
    const __m256 vinv = _mm256_set1_ps(block_inv[r]);
    const float* s = src[r];
    std::int16_t* out = dst + r * padded;
    i = 0;
    for (; i + 16 <= depth; i += 16) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + i),
          quantize16_avx2(_mm256_loadu_ps(s + i), _mm256_loadu_ps(s + i + 8),
                          vinv));
    }
    if (i < depth) {
      // padded is a multiple of 16 above i, so the whole block fits.
      const std::size_t rest = depth - i;
      const __m256 a = _mm256_maskload_ps(
          s + i, lane_mask(std::min<std::size_t>(rest, 8)));
      const __m256 b = _mm256_maskload_ps(
          s + i + 8, lane_mask(rest > 8 ? rest - 8 : 0));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                          quantize16_avx2(a, b, vinv));
      i += 16;
    }
    std::fill(out + i, out + padded, std::int16_t{0});
  }
}

ANOLE_TARGET_AVX2
void quantize_rows_int16_avx2(const float* x, std::size_t rows,
                              std::size_t depth, std::size_t x_stride,
                              std::int16_t* dst, std::size_t padded,
                              float* scales) {
  for (std::size_t r = 0; r < rows; r += 8) {
    quantize_block8_avx2(x + r * x_stride, std::min<std::size_t>(rows - r, 8),
                         depth, x_stride, dst + r * padded, padded,
                         scales + r);
  }
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- int8 GEMM kernels ----------------------------------------------
//
// The weights arrive pair-interleaved (tensor/qgemm.hpp): for depth pair
// p, the int16 pairs (W[j][2p], W[j][2p+1]) of consecutive channels j sit
// side by side. Broadcasting the activation pair (x[2p], x[2p+1]) as one
// int32 and multiplying with pmaddwd yields x[2p]*W[j][2p] +
// x[2p+1]*W[j][2p+1] in int32 lane j, so a register of accumulators holds
// whole channels: no horizontal reduction and no scalar channel tail (the
// layout pads channels with zero weights). A block of rows shares every
// weight load. The int32 sums are exact, so block shapes never change a
// result; the dequant float(acc) * (row_scale * pscale[j]) + pbias[j] is
// one multiply, one multiply and one add per lane at every level.

/// Everything a qgemm_rows call shares across its row blocks.
struct QgemmArgs {
  std::size_t n;
  std::size_t pairs;
  std::size_t channel_stride;
  const std::int16_t* xq;
  std::size_t x_stride;
  const float* xscale;
  const std::int16_t* pw;
  const float* pscale;
  const float* pbias;
  float* py;
};

/// The activation pair (x[2p], x[2p+1]) of a row as one int32.
inline std::int32_t activation_pair(const std::int16_t* xrow, std::size_t p) {
  std::int32_t pair;
  std::memcpy(&pair, xrow + 2 * p, sizeof(pair));
  return pair;
}

ANOLE_NO_AUTOVEC
void qgemm_rows_scalar(const QgemmArgs& q, std::size_t ilo, std::size_t ihi) {
  for (std::size_t jb = 0; jb < q.n; jb += kChannelBlock) {
    const std::size_t width = std::min(q.n - jb, kChannelBlock);
    for (std::size_t i = ilo; i < ihi; ++i) {
      const std::int16_t* xrow = q.xq + i * q.x_stride;
      std::int32_t acc[kChannelBlock] = {};
      for (std::size_t p = 0; p < q.pairs; ++p) {
        const std::int32_t x0 = xrow[2 * p];
        const std::int32_t x1 = xrow[2 * p + 1];
        const std::int16_t* w = q.pw + (p * q.channel_stride + jb) * 2;
        for (std::size_t j = 0; j < width; ++j) {
          acc[j] += x0 * w[2 * j] + x1 * w[2 * j + 1];
        }
      }
      const float row_scale = q.xscale[i];
      float* yrow = q.py + i * q.n + jb;
      for (std::size_t j = 0; j < width; ++j) {
        const float value =
            static_cast<float>(acc[j]) * (row_scale * q.pscale[jb + j]);
        yrow[j] = q.pbias == nullptr ? value : value + q.pbias[jb + j];
      }
    }
  }
}

#if defined(__SSE2__)
/// Rows [ilo, ihi) of channels [jb, jb + 8): kRows rows at a time, two
/// 4-lane accumulators per row.
template <std::size_t kRows>
ANOLE_NO_CONTRACT void qgemm_block_sse2(const QgemmArgs& q, std::size_t ilo,
                                        std::size_t ihi, std::size_t jb) {
  const std::int16_t* wbase = q.pw + jb * 2;
  const std::size_t wstep = q.channel_stride * 2;
  std::size_t i = ilo;
  for (; i + kRows <= ihi; i += kRows) {
    __m128i acc[kRows][2];
    for (std::size_t r = 0; r < kRows; ++r) {
      acc[r][0] = _mm_setzero_si128();
      acc[r][1] = _mm_setzero_si128();
    }
    const std::int16_t* w = wbase;
    for (std::size_t p = 0; p < q.pairs; ++p, w += wstep) {
      const __m128i w0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
      const __m128i w1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 8));
      for (std::size_t r = 0; r < kRows; ++r) {
        const __m128i xb = _mm_set1_epi32(
            activation_pair(q.xq + (i + r) * q.x_stride, p));
        acc[r][0] = _mm_add_epi32(acc[r][0], _mm_madd_epi16(xb, w0));
        acc[r][1] = _mm_add_epi32(acc[r][1], _mm_madd_epi16(xb, w1));
      }
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      const float row_scale = q.xscale[i + r];
      float* yrow = q.py + (i + r) * q.n;
      for (std::size_t v = 0; v < 2; ++v) {
        const std::size_t j = jb + 4 * v;
        if (j >= q.n) break;
        if (j + 4 <= q.n) {
          const __m128 scaled = _mm_mul_ps(
              _mm_cvtepi32_ps(acc[r][v]),
              _mm_mul_ps(_mm_set1_ps(row_scale), _mm_loadu_ps(q.pscale + j)));
          _mm_storeu_ps(yrow + j,
                        q.pbias == nullptr
                            ? scaled
                            : _mm_add_ps(scaled, _mm_loadu_ps(q.pbias + j)));
        } else {
          // Partial vector: the same three operations per live lane.
          alignas(16) std::int32_t sums[4];
          _mm_store_si128(reinterpret_cast<__m128i*>(sums), acc[r][v]);
          for (std::size_t t = 0; j + t < q.n; ++t) {
            const float value = static_cast<float>(sums[t]) *
                                (row_scale * q.pscale[j + t]);
            yrow[j + t] =
                q.pbias == nullptr ? value : value + q.pbias[j + t];
          }
        }
      }
    }
  }
  if constexpr (kRows > 1) qgemm_block_sse2<1>(q, i, ihi, jb);
}

void qgemm_rows_sse2(const QgemmArgs& q, std::size_t ilo, std::size_t ihi) {
  for (std::size_t jb = 0; jb < q.n; jb += 8) {
    qgemm_block_sse2<4>(q, ilo, ihi, jb);
  }
}
#endif  // __SSE2__

#if ANOLE_HAVE_AVX2_TARGET
/// Rows [ilo, ihi) of channels [jb, jb + 8 * kVecs): kRows rows at a
/// time, kVecs 8-lane accumulators per row (kRows * kVecs + kVecs + 1
/// live registers). Every lane past channel n is masked off in the
/// epilogue.
template <std::size_t kVecs, std::size_t kRows>
ANOLE_TARGET_AVX2 ANOLE_NO_CONTRACT void qgemm_block_avx2(
    const QgemmArgs& q, std::size_t ilo, std::size_t ihi, std::size_t jb) {
  __m256i mask[kVecs];
  for (std::size_t v = 0; v < kVecs; ++v) {
    mask[v] = lane_mask(std::min<std::size_t>(q.n - (jb + 8 * v), 8));
  }
  const std::int16_t* wbase = q.pw + jb * 2;
  const std::size_t wstep = q.channel_stride * 2;
  std::size_t i = ilo;
  for (; i + kRows <= ihi; i += kRows) {
    __m256i acc[kRows][kVecs];
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_setzero_si256();
      }
    }
    const std::int16_t* w = wbase;
    for (std::size_t p = 0; p < q.pairs; ++p, w += wstep) {
      __m256i wv[kVecs];
      for (std::size_t v = 0; v < kVecs; ++v) {
        wv[v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(w + 16 * v));
      }
      for (std::size_t r = 0; r < kRows; ++r) {
        const __m256i xb = _mm256_set1_epi32(
            activation_pair(q.xq + (i + r) * q.x_stride, p));
        for (std::size_t v = 0; v < kVecs; ++v) {
          acc[r][v] =
              _mm256_add_epi32(acc[r][v], _mm256_madd_epi16(xb, wv[v]));
        }
      }
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256 vrs = _mm256_set1_ps(q.xscale[i + r]);
      float* yrow = q.py + (i + r) * q.n;
      for (std::size_t v = 0; v < kVecs; ++v) {
        const std::size_t j = jb + 8 * v;
        __m256 out = _mm256_mul_ps(
            _mm256_cvtepi32_ps(acc[r][v]),
            _mm256_mul_ps(vrs, _mm256_maskload_ps(q.pscale + j, mask[v])));
        if (q.pbias != nullptr) {
          out = _mm256_add_ps(out, _mm256_maskload_ps(q.pbias + j, mask[v]));
        }
        _mm256_maskstore_ps(yrow + j, mask[v], out);
      }
    }
  }
  if constexpr (kRows > 1) qgemm_block_avx2<kVecs, 1>(q, i, ihi, jb);
}

ANOLE_TARGET_AVX2
void qgemm_rows_avx2(const QgemmArgs& q, std::size_t ilo, std::size_t ihi) {
  std::size_t jb = 0;
  // 16-channel blocks of four rows (8 accumulators), and an 8-channel
  // block of eight rows for a remainder of at most 8 channels.
  for (; jb + 8 < q.n; jb += 16) qgemm_block_avx2<2, 4>(q, ilo, ihi, jb);
  if (jb < q.n) qgemm_block_avx2<1, 8>(q, ilo, ihi, jb);
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- k-means distance kernels ---------------------------------------
/// Lanes map to centroids; each lane accumulates in ascending dimension
/// order with separate multiply and add, so every level produces bitwise
/// identical distances (and identical assignments downstream).

ANOLE_NO_AUTOVEC
void kmeans_distances_scalar(const float* point, std::size_t dims,
                             const double* ct, std::size_t k_stride,
                             double* dist) {
  for (std::size_t j = 0; j < k_stride; ++j) dist[j] = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double pv = static_cast<double>(point[d]);
    const double* crow = ct + d * k_stride;
    for (std::size_t j = 0; j < k_stride; ++j) {
      const double diff = pv - crow[j];
      dist[j] += diff * diff;
    }
  }
}

#if defined(__SSE2__)
void kmeans_distances_sse2(const float* point, std::size_t dims,
                           const double* ct, std::size_t k_stride,
                           double* dist) {
  for (std::size_t j = 0; j + 2 <= k_stride; j += 2) {
    __m128d acc = _mm_setzero_pd();
    for (std::size_t d = 0; d < dims; ++d) {
      const __m128d pv = _mm_set1_pd(static_cast<double>(point[d]));
      const __m128d diff = _mm_sub_pd(pv, _mm_loadu_pd(ct + d * k_stride + j));
      acc = _mm_add_pd(acc, _mm_mul_pd(diff, diff));
    }
    _mm_storeu_pd(dist + j, acc);
  }
}
#endif  // __SSE2__

#if ANOLE_HAVE_AVX2_TARGET
ANOLE_TARGET_AVX2 ANOLE_NO_CONTRACT
void kmeans_distances_avx2(const float* point, std::size_t dims,
                           const double* ct, std::size_t k_stride,
                           double* dist) {
  for (std::size_t j = 0; j + 4 <= k_stride; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dims; ++d) {
      const __m256d pv = _mm256_set1_pd(static_cast<double>(point[d]));
      const __m256d diff =
          _mm256_sub_pd(pv, _mm256_loadu_pd(ct + d * k_stride + j));
      // mul + add (no FMA, contraction off): each lane rounds exactly
      // like the scalar loop, keeping distances bitwise identical across
      // levels.
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    _mm256_storeu_pd(dist + j, acc);
  }
}
#endif  // ANOLE_HAVE_AVX2_TARGET

}  // namespace

Level detected_level() {
  static const Level level = probe_cpu();
  return level;
}

Level active_level() {
  const int override_level = g_override.load(std::memory_order_relaxed);
  if (override_level != kNoOverride) {
    return static_cast<Level>(override_level);
  }
  return env_level();
}

void set_level(Level level) {
  const Level clamped = clamp_to_detected(level);
  g_override.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

void reset_level() {
  g_override.store(kNoOverride, std::memory_order_relaxed);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSSE2:
      return "sse2";
    case Level::kAVX2:
      return "avx2";
  }
  return "unknown";
}

void gemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t k,
               std::size_t n, const float* pa, std::size_t a_row_stride,
               std::size_t a_col_stride, const float* pb, float* pc) {
  ANOLE_DCHECK(ilo <= ihi, "gemm_rows: ilo ", ilo, " > ihi ", ihi);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      gemm_rows_avx2(ilo, ihi, k, n, pa, a_row_stride, a_col_stride, pb, pc);
      return;
#endif
#if defined(__SSE2__)
    case Level::kSSE2:
      gemm_rows_sse2(ilo, ihi, k, n, pa, a_row_stride, a_col_stride, pb, pc);
      return;
#endif
    default:
      gemm_rows_scalar(ilo, ihi, k, n, pa, a_row_stride, a_col_stride, pb,
                       pc);
      return;
  }
}

void quantize_rows_int16(Level level, const float* x, std::size_t rows,
                         std::size_t depth, std::size_t x_stride,
                         std::int16_t* dst, std::size_t padded,
                         float* scales) {
  ANOLE_DCHECK(padded >= depth && padded % kQgemmDepthMultiple == 0 &&
                   (rows <= 1 || x_stride >= depth),
               "quantize_rows_int16: padded depth ", padded, " and row stride ",
               x_stride, " must cover depth ", depth,
               ", and padded must be a multiple of ", kQgemmDepthMultiple);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      quantize_rows_int16_avx2(x, rows, depth, x_stride, dst, padded, scales);
      return;
#endif
#if defined(__SSE2__)
    case Level::kSSE2:
      quantize_rows_int16_sse2(x, rows, depth, x_stride, dst, padded, scales);
      return;
#endif
    default:
      quantize_rows_int16_scalar(x, rows, depth, x_stride, dst, padded,
                                 scales);
      return;
  }
}

void qgemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t n,
                std::size_t pairs, std::size_t channel_stride,
                const std::int16_t* xq, std::size_t x_stride,
                const float* xscale, const std::int16_t* pw,
                const float* pscale, const float* pbias, float* py) {
  ANOLE_DCHECK(channel_stride >= n &&
                   channel_stride % kQgemmChannelMultiple == 0 &&
                   x_stride >= 2 * pairs,
               "qgemm_rows: channel stride ", channel_stride, " for ", n,
               " channels, activation stride ", x_stride, " for ", pairs,
               " depth pairs");
  const QgemmArgs args{n,      pairs,  channel_stride, xq,    x_stride,
                       xscale, pw,     pscale,         pbias, py};
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      qgemm_rows_avx2(args, ilo, ihi);
      return;
#endif
#if defined(__SSE2__)
    case Level::kSSE2:
      qgemm_rows_sse2(args, ilo, ihi);
      return;
#endif
    default:
      qgemm_rows_scalar(args, ilo, ihi);
      return;
  }
}

ANOLE_NO_AUTOVEC
void sigmoid_terms(const float* z, std::size_t n, float* p, float* log_term) {
  ANOLE_DCHECK(n == 0 || (z != nullptr && p != nullptr),
               "sigmoid_terms: null input/output for n ", n);
  for (std::size_t i = 0; i < n; ++i) {
    const float zi = z[i];
    const float e = std::exp(-zi);
    p[i] = 1.0f / (1.0f + e);
    if (log_term != nullptr) {
      // exp(-|z|) is the exp(-z) above unless z is negative (or NaN).
      log_term[i] = std::log1p(zi >= 0.0f ? e : std::exp(-std::abs(zi)));
    }
  }
}

void kmeans_distances(Level level, const float* point, std::size_t dims,
                      const double* centroids_t, std::size_t k_stride,
                      double* dist) {
  ANOLE_DCHECK(k_stride % kKmeansLaneMultiple == 0,
               "kmeans_distances: k_stride not a multiple of ",
               kKmeansLaneMultiple);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      kmeans_distances_avx2(point, dims, centroids_t, k_stride, dist);
      return;
#endif
#if defined(__SSE2__)
    case Level::kSSE2:
      kmeans_distances_sse2(point, dims, centroids_t, k_stride, dist);
      return;
#endif
    default:
      kmeans_distances_scalar(point, dims, centroids_t, k_stride, dist);
      return;
  }
}

}  // namespace anole::simd
