// ResNet-v1 family (He et al. 2016) built from the layer library, exactly as
// the paper uses for its image-encoder backbone (ResNet50 / ResNet101), plus
// CPU-scale variants (resnet_mini / resnet_micro) used for the experiment
// runs on this machine (see DESIGN.md §1 and §4).
//
// The backbone output is the post-GlobalAvgPool feature vector of dimension
// `feature_dim()` (2048 for ResNet50/101, matching the paper's d' = 2048).
#pragma once

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace hdczsc::nn {

/// Two 3x3 convs with identity / projection shortcut (ResNet18/34 and the
/// mini variants).
class BasicBlock : public Layer {
 public:
  BasicBlock(std::size_t in_c, std::size_t out_c, std::size_t stride, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<BufferRef> buffers() override;
  std::string name() const override { return "BasicBlock"; }

  static constexpr std::size_t kExpansion = 1;

  /// Structural accessors for the post-training quantizer (nn/quant.hpp):
  /// it replicates this block's forward graph with BN folded into each conv
  /// and needs the internals in walk order. nullptr = identity shortcut.
  Conv2d& conv1() { return conv1_; }
  BatchNorm2d& bn1() { return bn1_; }
  Conv2d& conv2() { return conv2_; }
  BatchNorm2d& bn2() { return bn2_; }
  Conv2d* down_conv() { return down_conv_.get(); }
  BatchNorm2d* down_bn() { return down_bn_.get(); }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  ReLU relu_out_;
  std::unique_ptr<Conv2d> down_conv_;
  std::unique_ptr<BatchNorm2d> down_bn_;
};

/// 1x1 -> 3x3 -> 1x1 bottleneck with 4x expansion (ResNet50/101/152).
class Bottleneck : public Layer {
 public:
  Bottleneck(std::size_t in_c, std::size_t mid_c, std::size_t stride, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<BufferRef> buffers() override;
  std::string name() const override { return "Bottleneck"; }

  static constexpr std::size_t kExpansion = 4;

  /// Structural accessors for the post-training quantizer (see BasicBlock).
  Conv2d& conv1() { return conv1_; }
  BatchNorm2d& bn1() { return bn1_; }
  Conv2d& conv2() { return conv2_; }
  BatchNorm2d& bn2() { return bn2_; }
  Conv2d& conv3() { return conv3_; }
  BatchNorm2d& bn3() { return bn3_; }
  Conv2d* down_conv() { return down_conv_.get(); }
  BatchNorm2d* down_bn() { return down_bn_.get(); }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  ReLU relu2_;
  Conv2d conv3_;
  BatchNorm2d bn3_;
  ReLU relu_out_;
  std::unique_ptr<Conv2d> down_conv_;
  std::unique_ptr<BatchNorm2d> down_bn_;
};

/// Backbone descriptor: a Sequential ending in GlobalAvgPool (or Flatten)
/// producing [B, feature_dim] embeddings from [B, in_channels, S, S] images.
struct Backbone {
  std::unique_ptr<Sequential> net;
  std::size_t feature_dim = 0;
  std::string arch;
  std::size_t in_channels = 3;
  /// The one S a flat tail was built for (feature_dim depends on it); 0 for
  /// GlobalAvgPool tails, which embed any S.
  std::size_t input_size = 0;
};

/// ImageNet-style stems (7x7/2 conv + 3x3/2 maxpool).
Backbone resnet18(util::Rng& rng, std::size_t in_channels = 3);
Backbone resnet34(util::Rng& rng, std::size_t in_channels = 3);
Backbone resnet50(util::Rng& rng, std::size_t in_channels = 3);
Backbone resnet101(util::Rng& rng, std::size_t in_channels = 3);

/// CIFAR-style stem (3x3/1 conv) for 32x32 synthetic images.
/// mini: 3 stages x 2 BasicBlocks, widths {16,32,64} -> feature_dim 64.
Backbone resnet_mini(util::Rng& rng, std::size_t in_channels = 3, std::size_t width = 16);
/// micro: 3 stages x 1 BasicBlock, widths {8,16,32} -> feature_dim 32.
Backbone resnet_micro(util::Rng& rng, std::size_t in_channels = 3);

/// Flatten-tailed CPU-scale variants: identical residual trunk but the
/// final GlobalAvgPool is replaced by Flatten, preserving the spatial
/// layout of the last feature map. On the synthetic substrate the
/// attribute evidence is location-coded (each attribute group owns an
/// image cell, DESIGN.md §1), so a GAP tail at tiny channel counts is an
/// information bottleneck the paper-scale ResNet50 (2048 channels) does
/// not suffer from; the flat tail restores the paper's effective capacity
/// shape. feature_dim is width*4 * (input_size/4)^2 — fixed `input_size`
/// (default 32) is part of the architecture.
Backbone resnet_micro_flat(util::Rng& rng, std::size_t in_channels = 3,
                           std::size_t input_size = 32);
Backbone resnet_mini_flat(util::Rng& rng, std::size_t in_channels = 3,
                          std::size_t input_size = 32);

/// Build a backbone by name:
/// "resnet18|34|50|101|mini|micro|micro_flat|mini_flat".
Backbone make_backbone(const std::string& arch, util::Rng& rng, std::size_t in_channels = 3);

}  // namespace hdczsc::nn
