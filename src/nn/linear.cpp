#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "tensor/ops.hpp"

namespace hdczsc::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  Tensor w({out_, in_});
  xavier_uniform(w, in_, out_, rng);
  w_ = Parameter(std::move(w), "linear.weight");
  b_ = Parameter(Tensor({out_}), "linear.bias");
}

Tensor Linear::forward(const Tensor& x, bool train) {
  if (x.dim() != 2 || x.size(1) != in_)
    throw std::invalid_argument("Linear::forward: input " + tensor::shape_str(x.shape()) +
                                " incompatible with in_features=" + std::to_string(in_));
  if (train) {
    if (frozen_for_serving_)
      throw std::logic_error(
          "Linear::forward: train-mode forward on a layer frozen for serving (its weight is "
          "packed for a ModelSnapshot); train a separate copy of the model");
    cached_input_ = x;
  }
  const std::size_t batch = x.size(0);
  Tensor y;
  if (pack_) {
    std::call_once(pack_->once, [this] {
      pack_->weight.emplace(tensor::Trans::T, in_, out_, w_.value.data(), in_);
    });
    y = Tensor({batch, out_});
    tensor::gemm_packed(batch, x.data(), in_, *pack_->weight, y.data(), out_);
  } else {
    y = tensor::matmul_nt(x, w_.value);  // [B, out]
  }
  if (has_bias_) {
    float* Y = y.data();
    const float* B = b_.value.data();
    for (std::size_t i = 0; i < batch; ++i)
      for (std::size_t j = 0; j < out_; ++j) Y[i * out_ + j] += B[j];
  }
  return y;
}

void Linear::freeze_for_serving() {
  if (frozen_for_serving_) return;  // idempotent: a second snapshot of one model writes nothing
  frozen_for_serving_ = true;
  cached_input_ = Tensor();  // no backward from a pre-freeze forward either
  if (!pack_) pack_ = std::make_shared<ServingPack>();
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (cached_input_.empty())
    throw std::logic_error("Linear::backward called before forward(train=true)");
  // dW = grad_out^T x, db = sum_rows(grad_out), dx = grad_out W.
  Tensor dw = tensor::matmul_tn(grad_out, cached_input_);  // [out, in]
  w_.grad.add_scaled(dw, 1.0f);
  if (has_bias_) {
    Tensor db = tensor::sum_rows(grad_out);
    b_.grad.add_scaled(db, 1.0f);
  }
  return tensor::matmul(grad_out, w_.value);  // [B, in]
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

}  // namespace hdczsc::nn
