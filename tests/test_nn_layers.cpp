#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/loss.hpp"
#include "nn/sequential.hpp"

namespace anole::nn {
namespace {

/// Scalar objective: 0.5 * sum(output^2). Its gradient wrt the output is
/// the output itself, making finite-difference checks straightforward.
float objective(Module& module, const Tensor& input) {
  const Tensor out = module.forward(input);
  float sum = 0.0f;
  for (float v : out.data()) sum += 0.5f * v * v;
  return sum;
}

/// Checks the analytic input gradient of `module` at `input` against
/// central finite differences.
void check_input_gradient(Module& module, Tensor input, float tol = 2e-2f) {
  const Tensor out = module.forward(input);
  module.zero_grad();
  const Tensor grad_input = module.backward(out);  // dL/dout = out

  const float epsilon = 1e-3f;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float saved = input[i];
    input[i] = saved + epsilon;
    const float up = objective(module, input);
    input[i] = saved - epsilon;
    const float down = objective(module, input);
    input[i] = saved;
    const float numeric = (up - down) / (2.0f * epsilon);
    EXPECT_NEAR(grad_input[i], numeric, tol) << "input index " << i;
  }
}

/// Checks analytic parameter gradients against finite differences, and
/// that backward_params() accumulates them bit for bit as backward() does.
void check_parameter_gradients(Module& module, const Tensor& input,
                               float tol = 2e-2f) {
  const Tensor out = module.forward(input);
  module.zero_grad();
  (void)module.backward(out);
  std::vector<Tensor> grads;
  for (Parameter* param : module.parameters()) grads.push_back(param->grad);
  module.zero_grad();
  module.backward_params(out);
  for (std::size_t p = 0; p < grads.size(); ++p) {
    const Tensor& grad = module.parameters()[p]->grad;
    ASSERT_EQ(grad.size(), grads[p].size());
    EXPECT_EQ(std::memcmp(grad.data().data(), grads[p].data().data(),
                          grad.size() * sizeof(float)),
              0)
        << "parameter " << p;
  }
  const float epsilon = 1e-3f;
  for (Parameter* param : module.parameters()) {
    for (std::size_t i = 0; i < param->value.size(); ++i) {
      const float saved = param->value[i];
      param->value[i] = saved + epsilon;
      const float up = objective(module, input);
      param->value[i] = saved - epsilon;
      const float down = objective(module, input);
      param->value[i] = saved;
      const float numeric = (up - down) / (2.0f * epsilon);
      EXPECT_NEAR(param->grad[i], numeric, tol) << "param index " << i;
    }
  }
}

Tensor random_input(std::size_t batch, std::size_t features, Rng& rng) {
  Tensor t = Tensor::matrix(batch, features);
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  layer.bias().value[0] = 1.0f;
  layer.bias().value[1] = -1.0f;
  const Tensor zero = Tensor::matrix(2, 3);
  const Tensor out = layer.forward(zero);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_EQ(out.at(0, 0), 1.0f);
  EXPECT_EQ(out.at(1, 1), -1.0f);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  EXPECT_THROW((void)layer.forward(Tensor::matrix(1, 4)),
               std::invalid_argument);
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear layer(4, 3, rng);
  check_input_gradient(layer, random_input(2, 4, rng));
  check_parameter_gradients(layer, random_input(2, 4, rng));
}

TEST(Linear, FlopsAndParameterCount) {
  Rng rng(3);
  Linear layer(10, 5, rng);
  EXPECT_EQ(layer.parameter_count(), 55u);
  EXPECT_EQ(layer.flops_per_sample(), 2u * 10 * 5 + 5);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor in(Shape{1, 4}, std::vector<float>{-1, 0, 2, -3});
  const Tensor out = relu.forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(ReLU, BackwardMasksNegatives) {
  ReLU relu;
  const Tensor in(Shape{1, 3}, std::vector<float>{-1, 1, 2});
  (void)relu.forward(in);
  const Tensor grad(Shape{1, 3}, std::vector<float>{5, 5, 5});
  const Tensor gin = relu.backward(grad);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 5.0f);
  EXPECT_EQ(gin[2], 5.0f);
}

TEST(ReLU, BackwardRejectsGradOfAnotherShape) {
  ReLU relu;
  EXPECT_THROW((void)relu.backward(Tensor::matrix(1, 3)),
               std::invalid_argument);  // backward before forward
  (void)relu.forward(Tensor::matrix(2, 3));
  EXPECT_THROW((void)relu.backward(Tensor::matrix(2, 4)),
               std::invalid_argument);
}

TEST(Sigmoid, ValuesAndGradient) {
  Sigmoid sigmoid;
  const Tensor in(Shape{1, 1}, std::vector<float>{0.0f});
  EXPECT_FLOAT_EQ(sigmoid.forward(in)[0], 0.5f);
  Rng rng(5);
  check_input_gradient(sigmoid, random_input(2, 3, rng));
}

TEST(Sequential, ChainsLayers) {
  Rng rng(9);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(4, 2, rng);
  const Tensor out = net.forward(random_input(5, 3, rng));
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.parameters().size(), 4u);
}

TEST(Sequential, GradientsMatchFiniteDifferences) {
  Rng rng(10);
  Sequential net;
  net.emplace<Linear>(3, 6, rng);
  net.emplace<Sigmoid>();
  net.emplace<Linear>(6, 2, rng);
  check_input_gradient(net, random_input(2, 3, rng));
  check_parameter_gradients(net, random_input(2, 3, rng));
}

TEST(Sequential, FlopsAccumulate) {
  Rng rng(11);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.flops_per_sample(), (2u * 4 * 8 + 8) + (2u * 8 * 2 + 2));
}

TEST(Sequential, ActivationFlopsFollowTheArchitecture) {
  // Elementwise layers cost per element of the width flowing into them,
  // known from the architecture alone: running forward() changes nothing.
  Rng rng(15);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 3, rng);
  net.emplace<Sigmoid>();
  const std::uint64_t expected =
      (2u * 4 * 8 + 8) + 8 + (2u * 8 * 3 + 3) + 4 * 3;
  EXPECT_EQ(net.flops_per_sample(), expected);
  (void)net.forward(random_input(2, 4, rng));
  EXPECT_EQ(net.flops_per_sample(), expected);
}

TEST(Sequential, ForwardReturnsInferBitwise) {
  // infer() is every layer's only arithmetic; forward() adds caches.
  Rng rng(16);
  Sequential net;
  net.emplace<Linear>(5, 7, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(7, 4, rng);
  net.emplace<Sigmoid>();
  const Tensor in = random_input(3, 5, rng);
  const Tensor inferred = net.infer(in);
  const Tensor trained = net.forward(in);
  ASSERT_EQ(inferred.shape(), trained.shape());
  for (std::size_t i = 0; i < inferred.size(); ++i) {
    EXPECT_EQ(inferred[i], trained[i]) << "element " << i;
  }
}

TEST(MakeMlp, BuildsExpectedArchitecture) {
  Rng rng(13);
  auto net = make_mlp({5, 8, 3}, rng);
  // Linear, ReLU, Linear.
  EXPECT_EQ(net->size(), 3u);
  const Tensor out = net->forward(Tensor::matrix(1, 5));
  EXPECT_EQ(out.cols(), 3u);
  EXPECT_THROW((void)make_mlp({4}, rng), std::invalid_argument);
}

}  // namespace
}  // namespace anole::nn
