#include "pnm/nn/activation.hpp"

#include <cmath>
#include <stdexcept>

namespace pnm {

void apply_activation(Activation act, std::vector<double>& v) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (auto& x : v) x = x > 0.0 ? x : 0.0;
      return;
    case Activation::kSigmoid:
      for (auto& x : v) x = 1.0 / (1.0 + std::exp(-x));
      return;
    case Activation::kTanh:
      for (auto& x : v) x = std::tanh(x);
      return;
  }
  throw std::logic_error("apply_activation: unknown activation");
}

void apply_activation_grad(Activation act, const std::vector<double>& post,
                           std::vector<double>& grad) {
  if (post.size() != grad.size()) {
    throw std::invalid_argument("apply_activation_grad: size mismatch");
  }
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      // An unconditional select store (not `if (...) grad[i] = 0`) lets the
      // loop vectorize instead of branching on every element's sign.
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] = post[i] <= 0.0 ? 0.0 : grad[i];
      }
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= post[i] * (1.0 - post[i]);
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= 1.0 - post[i] * post[i];
      return;
  }
  throw std::logic_error("apply_activation_grad: unknown activation");
}

std::string activation_name(Activation act) {
  switch (act) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
  }
  throw std::logic_error("activation_name: unknown activation");
}

Activation activation_from_name(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  throw std::invalid_argument("activation_from_name: unknown activation '" + name + "'");
}

bool hardware_lowerable(Activation act) {
  return act == Activation::kIdentity || act == Activation::kRelu;
}

}  // namespace pnm
