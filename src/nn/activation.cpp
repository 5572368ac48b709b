#include "nn/activation.hpp"

#include <cmath>

namespace hdczsc::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  Tensor out(x.shape());
  const float* in = x.data();
  float* o = out.data();
  // A select rather than a conditional store, so the loop vectorizes. Only
  // values that compare below zero clamp: -0.0, +inf and NaN pass through.
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] = in[i] < 0.0f ? 0.0f : in[i];
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::logic_error("ReLU::backward before forward(train)");
  Tensor dx = grad_out.clone();
  float* d = dx.data();
  const float* x = cached_input_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (x[i] <= 0.0f) d[i] = 0.0f;
  return dx;
}

Tensor LeakyReLU::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  Tensor out = x.clone();
  float* o = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i)
    if (o[i] < 0.0f) o[i] *= slope_;
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::logic_error("LeakyReLU::backward before forward(train)");
  Tensor dx = grad_out.clone();
  float* d = dx.data();
  const float* x = cached_input_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (x[i] <= 0.0f) d[i] *= slope_;
  return dx;
}

Tensor Tanh::forward(const Tensor& x, bool train) {
  Tensor out = x.clone();
  float* o = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] = std::tanh(o[i]);
  if (train) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  if (cached_output_.empty()) throw std::logic_error("Tanh::backward before forward(train)");
  Tensor dx = grad_out.clone();
  float* d = dx.data();
  const float* y = cached_output_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) d[i] *= 1.0f - y[i] * y[i];
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x, bool train) {
  Tensor out = x.clone();
  float* o = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] = 1.0f / (1.0f + std::exp(-o[i]));
  if (train) cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  if (cached_output_.empty()) throw std::logic_error("Sigmoid::backward before forward(train)");
  Tensor dx = grad_out.clone();
  float* d = dx.data();
  const float* y = cached_output_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) d[i] *= y[i] * (1.0f - y[i]);
  return dx;
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train || p_ <= 0.0f) {
    mask_ = Tensor();
    return x;
  }
  mask_ = Tensor(x.shape());
  Tensor out = x.clone();
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  float* m = mask_.data();
  float* o = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) {
    m[i] = rng_->bernoulli(keep) ? scale : 0.0f;
    o[i] *= m[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;  // forward ran in eval mode
  Tensor dx = grad_out.clone();
  float* d = dx.data();
  const float* m = mask_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) d[i] *= m[i];
  return dx;
}

}  // namespace hdczsc::nn
