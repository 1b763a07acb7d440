// Post-training int8 quantization of a trained AnoleSystem (the
// deployment-side compression step on top of the paper's already
// compressed models: per-channel symmetric int8 for every Linear layer
// of the detectors and the M_decision head; the shared encoder trunk
// stays fp32 because its embeddings feed both the scene index and the
// decision head).
//
// Every conversion is guarded: a model that loses too much accuracy in
// int8 is restored to fp32 on the spot, so quantize_system() can never
// make a system worse than the repository's own acceptance bar.
//  - Detectors with validation pools re-run detect::evaluate_f1: the
//    int8 model must still clear the same delta threshold Algorithm 1
//    used to accept the model (RepositoryConfig::acceptance_threshold) —
//    or, for models below delta at fp32 (backfill specialists bypass the
//    bar), lose at most 0.02 relative to their fp32 F1.
//  - Detectors without pools (systems loaded from a deployment artifact
//    carry no frames) and the decision head use a probe guard instead:
//    deterministic synthetic inputs through the fp32 and int8 networks,
//    mean absolute output delta bounded by 0.02.
#pragma once

#include <cstddef>
#include <vector>

#include "core/engine.hpp"

namespace anole::core {

/// What quantize_system did, for logging and benches.
struct QuantizeReport {
  /// Detectors now serving int8.
  std::size_t quantized_detectors = 0;
  /// Detectors that failed their guard and were restored to fp32.
  std::size_t rejected_detectors = 0;
  /// True when the M_decision head is now int8.
  bool decision_quantized = false;
  /// Int8 validation F1 per guarded detector (index-aligned with the
  /// repository; NaN-free: models without pools record their probe delta
  /// in `detector_delta` instead and keep 0 here).
  std::vector<double> detector_f1;
  /// Probe-guard mean output delta per detector (0 when the F1 guard ran).
  std::vector<double> detector_delta;
  /// Probe-guard mean output delta of the decision head.
  double decision_delta = 0.0;
};

/// Quantizes every Linear layer of the repository's detectors and the
/// decision head in place, subject to the per-model guards above.
/// Damaged (placeholder) models are skipped. Idempotent: already
/// quantized networks are left alone.
QuantizeReport quantize_system(AnoleSystem& system);

/// Restores every quantized layer in the system to fp32 (the weights are
/// the dequantized ones — quantization is lossy, so this recovers the
/// served precision, not the original training result). Returns the
/// number of layers converted back.
std::size_t dequantize_system(AnoleSystem& system);

/// True when any network in the system carries a quantized layer.
bool system_is_quantized(AnoleSystem& system);

}  // namespace anole::core
