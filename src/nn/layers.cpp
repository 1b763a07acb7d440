#include "nn/layers.hpp"

#include <cmath>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace anole::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor::matrix(in_features, out_features)),
      bias_(Tensor(Shape{out_features})) {
  ANOLE_CHECK_GT(in_features, 0u, "Linear: in_features == 0");
  ANOLE_CHECK_GT(out_features, 0u, "Linear: out_features == 0");
  // He initialization: suited to the ReLU-family activations used here.
  const double scale = std::sqrt(2.0 / static_cast<double>(in_features));
  for (auto& w : weight_.value.data()) {
    w = static_cast<float>(rng.normal(0.0, scale));
  }
}

Tensor Linear::forward(const Tensor& input) {
  cached_input_ = input;
  return infer(input);
}

Tensor Linear::infer(const Tensor& input) const {
  ANOLE_CHECK(input.rank() == 2 && input.cols() == in_features_,
              "Linear::infer: expected [batch, ", in_features_, "], got ",
              shape_to_string(input.shape()));
  Tensor out = matmul(input, weight_.value);
  add_row_broadcast(out, bias_.value);
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  return matmul_transpose_b(grad_output, weight_.value);
}

void Linear::backward_params(const Tensor& grad_output) {
  ANOLE_CHECK(!cached_input_.empty(),
              "Linear::backward before forward");
  ANOLE_CHECK(grad_output.rank() == 2 && grad_output.cols() == out_features_,
              "Linear::backward: expected [batch, ", out_features_,
              "], got ", shape_to_string(grad_output.shape()));
  weight_.grad += matmul_transpose_a(cached_input_, grad_output);
  bias_.grad += sum_rows(grad_output);
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

std::uint64_t Linear::flops_per_sample() const {
  // One multiply + one add per weight, plus the bias add.
  return 2ull * in_features_ * out_features_ + out_features_;
}

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  return infer(input);
}

Tensor ReLU::infer(const Tensor& input) const {
  // Single pass into an uninitialized output instead of copy-then-clamp:
  // same values, one fewer sweep over the activation buffer.
  Tensor out = Tensor::uninitialized(input.shape());
  auto in = input.data();
  auto o = out.data();
  for (std::size_t i = 0; i < o.size(); ++i) {
    o[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  ANOLE_CHECK(grad_output.shape() == cached_input_.shape(),
              "ReLU::backward: grad shape ",
              shape_to_string(grad_output.shape()),
              " does not match the last forward input ",
              shape_to_string(cached_input_.shape()));
  Tensor grad = Tensor::uninitialized(grad_output.shape());
  auto in = cached_input_.data();
  auto go = grad_output.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = in[i] <= 0.0f ? 0.0f : go[i];
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input) {
  cached_output_ = infer(input);
  return cached_output_;
}

Tensor Sigmoid::infer(const Tensor& input) const {
  // σ through the shared libm loop (tensor/simd.hpp), written straight
  // into an uninitialized output.
  Tensor out = Tensor::uninitialized(input.shape());
  simd::sigmoid_terms(input.data().data(), input.size(), out.data().data(),
                      nullptr);
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  ANOLE_CHECK(grad_output.shape() == cached_output_.shape(),
              "Sigmoid::backward: grad shape ",
              shape_to_string(grad_output.shape()),
              " does not match the last forward output ",
              shape_to_string(cached_output_.shape()));
  Tensor grad = grad_output;
  auto y = cached_output_.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= y[i] * (1.0f - y[i]);
  return grad;
}

}  // namespace anole::nn
