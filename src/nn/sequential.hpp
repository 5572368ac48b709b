// Sequential container: owns a list of layers, forwards/backwards through
// them in order, and aggregates their parameters. The eval forward runs
// each Conv2d together with the BatchNorm2d and ReLU right after it as one
// fused conv (Conv2d::forward_fused), bitwise the layer-by-layer result.
#pragma once

#include "nn/layer.hpp"

namespace hdczsc::nn {

class BatchNorm2d;
class Conv2d;

/// A Conv2d with the BatchNorm2d and the ReLU that directly follow it in a
/// Sequential, each optional: one fused conv in the eval forward, one
/// BN-folded op in the INT8 quantizer (nn/quant.hpp).
struct ConvRun {
  Conv2d* conv = nullptr;  ///< null when the layer is not a Conv2d
  BatchNorm2d* bn = nullptr;
  bool relu = false;
  std::size_t end = 0;  ///< index one past the run's last layer
};

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Append a layer (takes ownership); returns a typed handle to it.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void push_back(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<BufferRef> buffers() override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Layer& operator[](std::size_t i) { return *layers_.at(i); }
  /// The ConvRun starting at layer i (conv == nullptr unless it is a Conv2d).
  ConvRun conv_run(std::size_t i);

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace hdczsc::nn
