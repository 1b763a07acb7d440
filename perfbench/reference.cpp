#include "perfbench/reference.hpp"

#include <cstdint>
#include <vector>

#include "perfbench/harness.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

// The throughput block mirrors the frame path's kind of work: a dense fp32
// layer and an int8 layer with int32 accumulation, both resident in the
// core's L2.
constexpr int kInputs = 256;
constexpr int kFloatOutputs = 64;
constexpr int kInt8Outputs = 256;
constexpr int kLayersPerBlock = 50;
/// Multiply-adds of the clock chain, each waiting for the previous one.
constexpr int kChainSteps = 200000;
/// Rounds of clock_us_all_threads(); their median drops a round that an
/// interrupt or a co-tenant's burst hit.
constexpr std::size_t kClockRounds = 5;

struct ReferenceData {
  std::vector<float> weights, input, output;
  std::vector<std::int8_t> qweights, qinput;
  std::vector<std::int32_t> qoutput;

  ReferenceData()
      : weights(kInputs * kFloatOutputs),
        input(kInputs),
        output(kFloatOutputs),
        qweights(kInputs * kInt8Outputs),
        qinput(kInputs),
        qoutput(kInt8Outputs) {
    std::uint32_t state = 12345;
    const auto next = [&state] {
      state = state * 1664525u + 1013904223u;
      return static_cast<int>(state >> 8);
    };
    const auto unit = [&] {
      return static_cast<float>(next() % 2001) * 1e-3f - 1.0f;
    };
    const auto int8 = [&] {
      return static_cast<std::int8_t>(next() % 255 - 127);
    };
    for (float& v : weights) v = unit();
    for (float& v : input) v = unit();
    for (std::int8_t& v : qweights) v = int8();
    for (std::int8_t& v : qinput) v = int8();
  }
};

__attribute__((noinline)) float float_layer(ReferenceData& d) {
  for (int o = 0; o < kFloatOutputs; ++o) d.output[o] = 0.0f;
  for (int i = 0; i < kInputs; ++i) {
    const float x = d.input[i];
    const float* w = &d.weights[i * kFloatOutputs];
    for (int o = 0; o < kFloatOutputs; ++o) d.output[o] += w[o] * x;
  }
  float sum = 0.0f;
  for (int o = 0; o < kFloatOutputs; ++o) {
    sum += d.output[o] > 0.0f ? d.output[o] : 0.0f;
  }
  return sum;
}

__attribute__((noinline)) std::int32_t int8_layer(ReferenceData& d) {
  for (int o = 0; o < kInt8Outputs; ++o) d.qoutput[o] = 0;
  for (int i = 0; i < kInputs; ++i) {
    const std::int32_t x = d.qinput[i];
    const std::int8_t* w = &d.qweights[i * kInt8Outputs];
    for (int o = 0; o < kInt8Outputs; ++o) {
      d.qoutput[o] += static_cast<std::int32_t>(w[o]) * x;
    }
  }
  std::int32_t mix = 0;
  for (int o = 0; o < kInt8Outputs; ++o) mix ^= d.qoutput[o];
  return mix;
}

double clock_chain_us() {
  volatile double sink = 0.0;
  double x = 0.0;
  const std::int64_t start = now_ns();
  for (int step = 0; step < kChainSteps; ++step) {
    x += static_cast<double>(step) * 1e-9;
    x *= 0.9999999;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - start) * 1e-3;
}

}  // namespace

double throughput_block_us() {
  thread_local ReferenceData data;
  volatile float float_sink = 0.0f;
  volatile std::int32_t int_sink = 0;
  const std::int64_t start = now_ns();
  for (int layer = 0; layer < kLayersPerBlock; ++layer) {
    float_sink = float_sink + float_layer(data);
    int_sink = int_sink ^ int8_layer(data);
    data.input[layer % kInputs] += 1e-6f;  // no two layers are the same
  }
  return static_cast<double>(now_ns() - start) * 1e-3;
}

double clock_us_all_threads() {
  const std::size_t threads = anole::par::thread_count();
  std::vector<double> round_means;
  for (std::size_t round = 0; round < kClockRounds; ++round) {
    std::vector<double> us(threads, 0.0);
    anole::par::parallel_for(0, threads, 1,
                             [&](std::size_t t) { us[t] = clock_chain_us(); });
    double sum = 0.0;
    for (const double v : us) sum += v;
    round_means.push_back(sum / static_cast<double>(threads));
  }
  return median(round_means);
}

}  // namespace perfbench
