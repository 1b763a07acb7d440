#include "nn/sequential.hpp"

#include "util/check.hpp"

namespace anole::nn {

Sequential& Sequential::add(ModulePtr module) {
  ANOLE_CHECK_NOTNULL(module, "Sequential::add: null module");
  modules_.push_back(std::move(module));
  return *this;
}

ModulePtr Sequential::replace(std::size_t i, ModulePtr module) {
  ANOLE_CHECK_LT(i, modules_.size(), "Sequential::replace: index out of range");
  ANOLE_CHECK_NOTNULL(module, "Sequential::replace: null module");
  std::swap(modules_[i], module);
  return module;
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor current = input;
  for (auto& module : modules_) current = module->forward(current);
  return current;
}

Tensor Sequential::infer(const Tensor& input) const {
  // The first layer reads the caller's tensor directly: no input copy.
  if (modules_.empty()) return input;
  Tensor current = modules_.front()->infer(input);
  for (std::size_t i = 1; i < modules_.size(); ++i) {
    current = modules_[i]->infer(current);
  }
  return current;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor current = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    current = (*it)->backward(current);
  }
  return current;
}

void Sequential::backward_params(const Tensor& grad_output) {
  if (modules_.empty()) return;
  Tensor current = grad_output;
  for (std::size_t i = modules_.size() - 1; i > 0; --i) {
    current = modules_[i]->backward(current);
  }
  modules_.front()->backward_params(current);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& module : modules_) {
    for (Parameter* p : module->parameters()) params.push_back(p);
  }
  return params;
}

std::uint64_t Sequential::flops_per_sample() const {
  // Elementwise layers are charged per element of the width flowing into
  // them: the output width of the nearest preceding layer that sets one.
  std::uint64_t total = 0;
  std::uint64_t width = 0;
  for (const auto& module : modules_) {
    total += module->flops_per_sample() + module->flops_per_element() * width;
    if (module->out_features() != 0) width = module->out_features();
  }
  return total;
}

std::unique_ptr<Sequential> make_mlp(const std::vector<std::size_t>& widths,
                                     Rng& rng) {
  ANOLE_CHECK_GE(widths.size(), 2u,
                 "make_mlp: need at least input and output widths");
  for (std::size_t width : widths) {
    ANOLE_CHECK_GT(width, 0u, "make_mlp: zero layer width");
  }
  auto net = std::make_unique<Sequential>();
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    net->emplace<Linear>(widths[i], widths[i + 1], rng);
    if (i + 2 < widths.size()) net->emplace<ReLU>();
  }
  return net;
}

}  // namespace anole::nn
