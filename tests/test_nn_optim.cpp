#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.hpp"
#include "nn/sequential.hpp"

namespace anole::nn {
namespace {

/// A single scalar parameter module for hand-checkable updates.
struct ScalarParam : Module {
  Parameter p{Tensor(Shape{1}, 1.0f)};
  Tensor forward(const Tensor& input) override { return input; }
  Tensor infer(const Tensor& input) const override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  std::vector<Parameter*> parameters() override { return {&p}; }
  std::string name() const override { return "scalar"; }
};

TEST(Sgd, PlainStep) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1, /*momentum=*/0.0);
  m.p.grad[0] = 2.0f;
  sgd.step();
  EXPECT_NEAR(m.p.value[0], 1.0f - 0.1f * 2.0f, 1e-6f);
  // step() clears the gradient.
  EXPECT_EQ(m.p.grad[0], 0.0f);
}

TEST(Sgd, MomentumAccumulates) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1, /*momentum=*/0.5);
  m.p.grad[0] = 1.0f;
  sgd.step();  // v = 1, value = 1 - 0.1
  EXPECT_NEAR(m.p.value[0], 0.9f, 1e-6f);
  m.p.grad[0] = 1.0f;
  sgd.step();  // v = 0.5 + 1 = 1.5, value = 0.9 - 0.15
  EXPECT_NEAR(m.p.value[0], 0.75f, 1e-6f);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1, 0.0, /*weight_decay=*/1.0);
  m.p.grad[0] = 0.0f;
  sgd.step();
  EXPECT_NEAR(m.p.value[0], 1.0f - 0.1f * 1.0f, 1e-6f);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  ScalarParam m;
  Adam adam(m.parameters(), 0.01);
  m.p.grad[0] = 3.7f;  // any gradient: bias-corrected first step = lr
  adam.step();
  EXPECT_NEAR(m.p.value[0], 1.0f - 0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  ScalarParam m;
  Adam adam(m.parameters(), 0.05);
  // Minimize (x - 3)^2 by feeding grad = 2 (x - 3).
  for (int i = 0; i < 500; ++i) {
    m.p.grad[0] = 2.0f * (m.p.value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(m.p.value[0], 3.0f, 0.05f);
}

TEST(Optimizer, ZeroGradClears) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1);
  m.p.grad[0] = 5.0f;
  sgd.zero_grad();
  EXPECT_EQ(m.p.grad[0], 0.0f);
}

TEST(Optimizer, LearningRateMutable) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1);
  sgd.set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.5);
}

/// End-to-end sanity: both optimizers fit a small nonlinear classifier.
class OptimizerFitTest : public ::testing::TestWithParam<bool> {};

TEST_P(OptimizerFitTest, FitsXorLikeProblem) {
  const bool use_adam = GetParam();
  Rng rng(71);
  Sequential net;
  net.emplace<Linear>(2, 16, rng);
  net.emplace<Sigmoid>();
  net.emplace<Linear>(16, 2, rng);

  // XOR-ish dataset.
  Tensor inputs = Tensor::matrix(4, 2);
  inputs.at(1, 1) = 1.0f;
  inputs.at(2, 0) = 1.0f;
  inputs.at(3, 0) = 1.0f;
  inputs.at(3, 1) = 1.0f;
  const std::vector<std::size_t> labels = {0, 1, 1, 0};

  std::unique_ptr<Optimizer> optimizer;
  if (use_adam) {
    optimizer = std::make_unique<Adam>(net.parameters(), 0.02);
  } else {
    optimizer = std::make_unique<Sgd>(net.parameters(), 0.2, 0.9);
  }
  for (int epoch = 0; epoch < 400; ++epoch) {
    Tensor grad;
    const Tensor logits = net.forward(inputs);
    (void)softmax_cross_entropy(logits, labels, grad);
    net.backward(grad);
    optimizer->step();
  }
  EXPECT_EQ(accuracy(net.forward(inputs), labels), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Both, OptimizerFitTest, ::testing::Bool());

}  // namespace
}  // namespace anole::nn
