// Batch normalization over NCHW feature maps (per-channel statistics) and
// over 2-D feature matrices (per-feature statistics, "BatchNorm1d").
#pragma once

#include "nn/layer.hpp"

namespace hdczsc::nn {

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<BufferRef> buffers() override {
    return {{"bn.running_mean", &running_mean_}, {"bn.running_var", &running_var_}};
  }
  std::string name() const override { return "BatchNorm2d"; }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  /// Affine parameters + epsilon — the eval-mode BN is the exact per-channel
  /// affine y = γ(x-μ)/√(σ²+ε) + β, which the quantizer folds into the
  /// preceding conv's weights and bias (nn/quant.hpp).
  const Tensor& gamma() const { return gamma_.value; }
  const Tensor& beta() const { return beta_.value; }
  float eps() const { return eps_; }
  /// Per-channel 1/√(σ²+ε) of the running variance, computed exactly as
  /// the eval forward computes it (a fused conv epilogue applies it; see
  /// Conv2d::forward_fused).
  Tensor eval_inv_std() const;

 private:
  std::size_t channels_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;

  // Caches for backward.
  Tensor cached_xhat_;     // normalized input
  Tensor cached_inv_std_;  // [C]
  Shape cached_shape_;
};

}  // namespace hdczsc::nn
