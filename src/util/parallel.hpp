// Deterministic parallel execution primitives shared by every hot loop.
//
// A single lazily-initialized persistent thread pool backs `parallel_for`
// and `parallel_reduce`. The pool size comes from the ANOLE_THREADS
// environment variable (first use), `std::thread::hardware_concurrency()`
// otherwise, and can be overridden at runtime with `set_thread_count`.
//
// Determinism contract: work is split into chunks whose boundaries depend
// only on (begin, end, grain) — never on the thread count — and
// `parallel_reduce` combines per-chunk partial results in ascending chunk
// order on the calling thread. Any computation whose chunks write disjoint
// outputs (parallel_for) or that is expressed as an ordered reduction
// (parallel_reduce) therefore produces bitwise-identical results whether
// the pool has 1 thread or 64. Nested calls from inside a pool worker run
// inline (serially) with the same chunk boundaries, so nesting cannot
// change results either — it only limits extra parallelism.
//
// Serial cutoff: waking the pool costs a few microseconds of cross-thread
// signalling — more than an entire small GEMM at this codebase's layer
// shapes. Call sites that can estimate their per-index cost pass a
// `work_per_index` hint (approximate scalar operations per index); when
// (end - begin) * work_per_index falls below `kSerialCutoff` (128k work
// units) the loop runs inline on the calling thread with the exact same
// chunk boundaries, so the cutoff can never change results — it only
// skips the pool. Overloads without a hint always use the pool (the
// caller signalled nothing about cost, and a coarse loop of 5 heavy items
// must not be serialized by an element-count heuristic).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace anole::par {

/// Number of threads the pool will use (>= 1). Never spawns the pool.
std::size_t thread_count();

/// Overrides the pool size; 1 means fully serial execution. Passing 0
/// restores the default (ANOLE_THREADS, else hardware concurrency).
/// Joins any existing workers; must not be called from inside a task.
void set_thread_count(std::size_t count);

/// True when the calling thread is a pool worker executing a task.
bool in_parallel_region();

/// Work units (approximate scalar ops) below which the hinted overloads
/// run inline. Pool wake/steal costs a few microseconds; a loop this size
/// finishes in roughly that time on one core, so below it the pool can
/// only lose.
inline constexpr std::size_t kSerialCutoff = std::size_t{1} << 17;

namespace detail {

/// Sentinel hint for the unhinted overloads: never below the cutoff.
inline constexpr std::size_t kNoWorkHint = ~std::size_t{0};

/// True when n indexes at `work_per_index` ops each fall below the serial
/// cutoff (exact n * work_per_index < cutoff, overflow-safe).
inline bool below_serial_cutoff(std::size_t n, std::size_t work_per_index) {
  if (n == 0) return true;
  const std::size_t wpi = work_per_index == 0 ? 1 : work_per_index;
  if (wpi > kSerialCutoff / n) return false;
  return n * wpi < kSerialCutoff;
}

}  // namespace detail

/// Grain giving each chunk at least `kSerialCutoff` work units (never
/// below `base`). A function of the per-index cost only — independent of
/// range size and thread count — so chunk boundaries stay deterministic.
inline std::size_t work_grain(std::size_t base, std::size_t work_per_index) {
  const std::size_t wpi = work_per_index == 0 ? 1 : work_per_index;
  return std::max(base, kSerialCutoff / wpi);
}

namespace detail {

/// Runs fn(chunk) for every chunk in [0, chunks) on the pool (the caller
/// participates) and blocks until all chunks finished. Rethrows the first
/// exception thrown by a chunk. Must not be called from a pool worker.
void run_chunks(std::size_t chunks,
                const std::function<void(std::size_t)>& fn);

inline std::size_t chunk_count(std::size_t begin, std::size_t end,
                               std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (end - begin + g - 1) / g;
}

/// Grain used by the convenience overloads. A function of the range size
/// only (never the thread count), so chunk boundaries stay deterministic.
inline std::size_t default_grain(std::size_t begin, std::size_t end) {
  const std::size_t n = end > begin ? end - begin : 0;
  return std::max<std::size_t>(1, n / 64);
}

}  // namespace detail

/// Calls fn(i) for every i in [begin, end), split into grain-sized chunks
/// executed across the pool. fn must write only per-index (disjoint)
/// state. `work_per_index` is the serial-cutoff hint (approximate scalar
/// ops per index); small totals run inline with identical chunking.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  std::size_t work_per_index, Fn&& fn) {
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = detail::chunk_count(begin, end, g);
  if (chunks == 0) return;
  if (chunks == 1 || thread_count() == 1 || in_parallel_region() ||
      (work_per_index != detail::kNoWorkHint &&
       detail::below_serial_cutoff(end - begin, work_per_index))) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = std::min(end, lo + g);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

/// parallel_for without a work hint: always eligible for the pool.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  parallel_for(begin, end, grain, detail::kNoWorkHint,
               std::forward<Fn>(fn));
}

/// parallel_for with an automatic (range-size-derived) grain.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  parallel_for(begin, end, detail::default_grain(begin, end),
               std::forward<Fn>(fn));
}

/// Calls fn(lo, hi) once per chunk; chunk boundaries are the same as
/// parallel_for's. Useful when per-chunk setup is expensive.
/// `work_per_index` is the serial-cutoff hint.
template <typename Fn>
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t grain, std::size_t work_per_index,
                         Fn&& fn) {
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = detail::chunk_count(begin, end, g);
  if (chunks == 0) return;
  if (chunks == 1 || thread_count() == 1 || in_parallel_region() ||
      (work_per_index != detail::kNoWorkHint &&
       detail::below_serial_cutoff(end - begin, work_per_index))) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * g;
      fn(lo, std::min(end, lo + g));
    }
    return;
  }
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * g;
    fn(lo, std::min(end, lo + g));
  });
}

/// parallel_for_chunks without a work hint: always eligible for the pool.
template <typename Fn>
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t grain, Fn&& fn) {
  parallel_for_chunks(begin, end, grain, detail::kNoWorkHint,
                      std::forward<Fn>(fn));
}

/// Deterministic reduction: map_chunk(lo, hi) produces one partial result
/// per chunk (in parallel); partials are combined with
/// acc = combine(acc, partial) in ascending chunk order on the calling
/// thread. Because chunk boundaries depend only on (begin, end, grain) and
/// the combine order is fixed, the result is bitwise identical at any
/// thread count — including the serial path (and the serial-cutoff path),
/// which uses the same chunking.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  std::size_t work_per_index, T identity, MapFn&& map_chunk,
                  CombineFn&& combine) {
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = detail::chunk_count(begin, end, g);
  if (chunks == 0) return identity;
  if (chunks == 1 || thread_count() == 1 || in_parallel_region() ||
      (work_per_index != detail::kNoWorkHint &&
       detail::below_serial_cutoff(end - begin, work_per_index))) {
    T acc = std::move(identity);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * g;
      acc = combine(std::move(acc), map_chunk(lo, std::min(end, lo + g)));
    }
    return acc;
  }
  std::vector<T> partials(chunks, identity);
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * g;
    partials[c] = map_chunk(lo, std::min(end, lo + g));
  });
  T acc = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

/// parallel_reduce without a work hint: always eligible for the pool.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, MapFn&& map_chunk, CombineFn&& combine) {
  return parallel_reduce(begin, end, grain, detail::kNoWorkHint,
                         std::move(identity),
                         std::forward<MapFn>(map_chunk),
                         std::forward<CombineFn>(combine));
}

}  // namespace anole::par
