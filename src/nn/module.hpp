// Minimal reverse-mode neural-network layer abstraction.
//
// This plays the role of PyTorch in the paper's stack: the scene encoder
// (M_scene), the decision model (M_decision), and every detector are built
// from these modules and trained with real gradient descent.
//
// Each layer has exactly one implementation of its arithmetic: infer(),
// which is const and writes no state. forward() is the training entry:
// it records what backward() needs (an input or output copy) and then
// returns infer(input), so training and serving can never disagree.
// Layers with nothing to record inherit the default forward(). backward()
// consumes the upstream gradient and returns the gradient with respect to
// the layer input, accumulating parameter gradients into Parameter::grad.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace anole::nn {

/// A learnable tensor and its accumulated gradient.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Tensor initial)
      : value(std::move(initial)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Base class for all layers. Inputs and outputs are [batch, features]
/// matrices; layers that need other shapes document their convention.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// The layer's arithmetic. Const: no caches or statistics are written,
  /// so concurrent infer() calls on one module from multiple threads are
  /// safe as long as no thread mutates the module concurrently.
  virtual Tensor infer(const Tensor& input) const = 0;

  /// Training entry: records what backward() needs, then returns
  /// infer(input). The default records nothing.
  virtual Tensor forward(const Tensor& input) { return infer(input); }

  /// Propagates `grad_output` (same shape as the last forward output),
  /// accumulates parameter gradients, and returns the input gradient.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a module whose input is data, not another layer's
  /// output: accumulates the same parameter gradients and skips the input
  /// gradient no caller reads. The default runs backward().
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// All learnable parameters of this module (possibly empty).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Human-readable layer name for debugging and summaries.
  virtual std::string name() const = 0;

  /// Multiply-accumulate-style FLOPs for one input sample, used by the
  /// device simulator to derive latency/energy (Table II / Table IV).
  /// Elementwise layers report 0 here and charge flops_per_element()
  /// instead, which Sequential multiplies by the width flowing in.
  virtual std::uint64_t flops_per_sample() const { return 0; }

  /// FLOPs per element of an elementwise layer's input.
  virtual std::uint64_t flops_per_element() const { return 0; }

  /// Width of one output sample for layers that set it (Linear,
  /// QuantizedLinear); 0 for layers that keep their input width.
  virtual std::size_t out_features() const { return 0; }

  /// Number of scalar learnable parameters.
  std::uint64_t parameter_count();

  /// Clears all parameter gradients.
  void zero_grad();
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace anole::nn
