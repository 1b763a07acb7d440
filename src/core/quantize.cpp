#include "core/quantize.hpp"

#include <cmath>
#include <cstdint>
#include <utility>

#include "detect/detector_trainer.hpp"
#include "nn/quantize.hpp"
#include "util/rng.hpp"

namespace anole::core {
namespace {

/// A detector below the acceptance bar at int8 stays quantized as long as
/// its F1 dropped by at most this much from fp32.
constexpr double kMaxF1Drop = 0.02;
/// Probe guard bound: mean |fp32 - int8| over probe outputs for networks
/// with no validation pool (decision head, artifact loads).
constexpr double kMaxOutputDelta = 0.02;
/// Probe batch size and seed of the synthetic probe inputs (fixed: the
/// guard itself must be deterministic).
constexpr std::size_t kProbes = 128;
constexpr std::uint64_t kProbeSeed = 0x51AB17;

/// Input width of the first Linear layer, or 0 when the network has none
/// (nothing to quantize, nothing to probe).
std::size_t first_linear_width(nn::Sequential& net) {
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (auto* linear = dynamic_cast<nn::Linear*>(&net.at(i))) {
      return linear->in_features();
    }
  }
  return 0;
}

/// Deterministic synthetic probe batch: standard-normal activations are
/// the distribution the guard cares about — symmetric quantization is
/// worst around dense small-magnitude inputs, not outliers.
Tensor probe_inputs(std::size_t count, std::size_t width,
                    std::uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::uninitialized({count, width});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  return x;
}

double mean_abs_delta(const Tensor& a, const Tensor& b) {
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum / static_cast<double>(a.size());
}

void restore(nn::Sequential& net,
             std::vector<std::pair<std::size_t, nn::ModulePtr>> displaced) {
  for (auto& [index, original] : displaced) {
    net.replace(index, std::move(original));
  }
}

/// Quantizes one network under the probe guard. Returns the measured
/// delta; on failure the network is already restored.
bool quantize_with_probe_guard(nn::Sequential& net, double& delta_out) {
  const std::size_t width = first_linear_width(net);
  delta_out = 0.0;
  if (width == 0) return false;
  const Tensor probes = probe_inputs(kProbes, width, kProbeSeed);
  const Tensor fp32_out = net.infer(probes);
  auto displaced = nn::quantize_linear_layers(net);
  if (displaced.empty()) return false;
  const Tensor int8_out = net.infer(probes);
  delta_out = mean_abs_delta(fp32_out, int8_out);
  if (delta_out > kMaxOutputDelta) {
    restore(net, std::move(displaced));
    return false;
  }
  return true;
}

bool is_damaged(const AnoleSystem& system, std::size_t model_id) {
  for (std::size_t damaged : system.damaged_models) {
    if (damaged == model_id) return true;
  }
  return false;
}

}  // namespace

QuantizeReport quantize_system(AnoleSystem& system) {
  // The int8 detector must clear Algorithm 1's default acceptance bar.
  const double min_validation_f1 = RepositoryConfig{}.acceptance_threshold;
  QuantizeReport report;
  report.detector_f1.assign(system.repository.size(), 0.0);
  report.detector_delta.assign(system.repository.size(), 0.0);

  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    if (is_damaged(system, m)) continue;
    SceneModel& model = system.repository.model(m);
    nn::Sequential& net = model.detector->network();
    if (nn::is_quantized(net)) continue;

    if (model.validation_frames.empty()) {
      // Artifact-loaded systems carry no frame pools: probe guard.
      if (quantize_with_probe_guard(net, report.detector_delta[m])) {
        ++report.quantized_detectors;
      } else if (report.detector_delta[m] > 0.0) {
        ++report.rejected_detectors;
      }
      continue;
    }

    // The repository accepted this model under the delta bar; the int8
    // model must clear the same bar — or, when the model was below delta
    // even at fp32 (backfill specialists bypass Algorithm 1's check),
    // must not fall further than kMaxF1Drop behind its fp32 self.
    const double fp32_f1 =
        detect::evaluate_f1(*model.detector, model.validation_frames);
    auto displaced = nn::quantize_linear_layers(net);
    if (displaced.empty()) continue;
    const double f1 =
        detect::evaluate_f1(*model.detector, model.validation_frames);
    report.detector_f1[m] = f1;
    if (f1 >= min_validation_f1 || f1 + kMaxF1Drop >= fp32_f1) {
      ++report.quantized_detectors;
    } else {
      restore(net, std::move(displaced));
      ++report.rejected_detectors;
    }
  }

  if (system.decision) {
    report.decision_quantized = quantize_with_probe_guard(
        system.decision->head(), report.decision_delta);
  }
  return report;
}

std::size_t dequantize_system(AnoleSystem& system) {
  std::size_t converted = 0;
  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    converted = converted + nn::dequantize_linear_layers(
        system.repository.model(m).detector->network());
  }
  if (system.decision) {
    converted += nn::dequantize_linear_layers(system.decision->head());
  }
  return converted;
}

bool system_is_quantized(AnoleSystem& system) {
  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    if (nn::is_quantized(system.repository.model(m).detector->network())) {
      return true;
    }
  }
  return system.decision && nn::is_quantized(system.decision->head());
}

}  // namespace anole::core
