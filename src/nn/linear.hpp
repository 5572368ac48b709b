// Fully connected layer: y = x W^T + b, x [B, in], W [out, in], b [out].
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "nn/layer.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace hdczsc::nn {

class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  bool has_bias() const { return has_bias_; }

  /// Freeze the weights for serving (serve::ModelSnapshot's constructors
  /// call this on the image encoder's projection). From then on a
  /// train-mode forward throws std::logic_error, and eval forwards run
  /// against W^T packed once, on the first of them (concurrent first calls
  /// build it once) — bitwise the unpacked forward, at every batch size.
  /// Unlike Layer::set_frozen, which only hides the parameters from
  /// optimizers, this is permanent: train a separate copy of the model
  /// instead.
  void freeze_for_serving();
  bool frozen_for_serving() const { return frozen_for_serving_; }

 private:
  std::size_t in_, out_;
  bool has_bias_;
  Parameter w_, b_;
  Tensor cached_input_;

  struct ServingPack {
    std::once_flag once;
    std::optional<tensor::PackedB> weight;
  };
  bool frozen_for_serving_ = false;
  std::shared_ptr<ServingPack> pack_;  // set by freeze_for_serving()
};

}  // namespace hdczsc::nn
