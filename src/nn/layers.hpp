// Concrete layers: Linear and the elementwise activations.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace anole::nn {

/// Fully connected layer: y = x W + b, x is [batch, in], W is [in, out].
class Linear : public Module {
 public:
  /// He-style fan-in initialization with the given RNG.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Linear"; }
  std::uint64_t flops_per_sample() const override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const override { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

/// Rectified linear unit.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }
  std::uint64_t flops_per_element() const override { return 1; }

 private:
  Tensor cached_input_;
};

/// Logistic sigmoid.
class Sigmoid : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }
  std::uint64_t flops_per_element() const override { return 4; }

 private:
  Tensor cached_output_;
};

}  // namespace anole::nn
