#include "nn/resnet.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace hdczsc::nn {

// ---------------------------------------------------------------------------
// BasicBlock
// ---------------------------------------------------------------------------

BasicBlock::BasicBlock(std::size_t in_c, std::size_t out_c, std::size_t stride, util::Rng& rng)
    : conv1_(in_c, out_c, 3, stride, 1, rng),
      bn1_(out_c),
      conv2_(out_c, out_c, 3, 1, 1, rng),
      bn2_(out_c) {
  if (stride != 1 || in_c != out_c) {
    down_conv_ = std::make_unique<Conv2d>(in_c, out_c, 1, stride, 0, rng);
    down_bn_ = std::make_unique<BatchNorm2d>(out_c);
  }
}

Tensor BasicBlock::forward(const Tensor& x, bool train) {
  if (!train) {
    // Each conv applies its BN, the residual add and the ReLUs in its
    // write-back: bitwise the layer-by-layer walk below, in eval.
    const Tensor identity =
        down_conv_ ? down_conv_->forward_fused(x, down_bn_.get(), nullptr, false) : x;
    const Tensor h = conv1_.forward_fused(x, &bn1_, nullptr, true);
    return conv2_.forward_fused(h, &bn2_, &identity, true);
  }
  Tensor identity = x;
  if (down_conv_) {
    identity = down_conv_->forward(x, train);
    identity = down_bn_->forward(identity, train);
  }

  Tensor h = conv1_.forward(x, train);
  h = bn1_.forward(h, train);
  h = relu1_.forward(h, train);
  h = conv2_.forward(h, train);
  h = bn2_.forward(h, train);
  h.add_scaled(identity, 1.0f);
  return relu_out_.forward(h, train);
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  Tensor g = relu_out_.backward(grad_out);
  // g splits into the residual branch and the identity branch.
  Tensor g_main = bn2_.backward(g);
  g_main = conv2_.backward(g_main);
  g_main = relu1_.backward(g_main);
  g_main = bn1_.backward(g_main);
  g_main = conv1_.backward(g_main);

  Tensor g_skip = g;
  if (down_conv_) {
    g_skip = down_bn_->backward(g_skip);
    g_skip = down_conv_->backward(g_skip);
  }
  g_main.add_scaled(g_skip, 1.0f);
  return g_main;
}

std::vector<Parameter*> BasicBlock::parameters() {
  std::vector<Parameter*> out;
  for (Layer* l : std::initializer_list<Layer*>{&conv1_, &bn1_, &conv2_, &bn2_}) {
    auto ps = l->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  if (down_conv_) {
    auto ps = down_conv_->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
    ps = down_bn_->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<BufferRef> BasicBlock::buffers() {
  std::vector<BufferRef> out;
  for (Layer* l : std::initializer_list<Layer*>{&bn1_, &bn2_}) {
    auto bs = l->buffers();
    out.insert(out.end(), bs.begin(), bs.end());
  }
  if (down_bn_) {
    auto bs = down_bn_->buffers();
    out.insert(out.end(), bs.begin(), bs.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bottleneck
// ---------------------------------------------------------------------------

Bottleneck::Bottleneck(std::size_t in_c, std::size_t mid_c, std::size_t stride, util::Rng& rng)
    : conv1_(in_c, mid_c, 1, 1, 0, rng),
      bn1_(mid_c),
      conv2_(mid_c, mid_c, 3, stride, 1, rng),
      bn2_(mid_c),
      conv3_(mid_c, mid_c * kExpansion, 1, 1, 0, rng),
      bn3_(mid_c * kExpansion) {
  const std::size_t out_c = mid_c * kExpansion;
  if (stride != 1 || in_c != out_c) {
    down_conv_ = std::make_unique<Conv2d>(in_c, out_c, 1, stride, 0, rng);
    down_bn_ = std::make_unique<BatchNorm2d>(out_c);
  }
}

Tensor Bottleneck::forward(const Tensor& x, bool train) {
  if (!train) {
    // Fused as in BasicBlock::forward.
    const Tensor identity =
        down_conv_ ? down_conv_->forward_fused(x, down_bn_.get(), nullptr, false) : x;
    Tensor h = conv1_.forward_fused(x, &bn1_, nullptr, true);
    h = conv2_.forward_fused(h, &bn2_, nullptr, true);
    return conv3_.forward_fused(h, &bn3_, &identity, true);
  }
  Tensor identity = x;
  if (down_conv_) {
    identity = down_conv_->forward(x, train);
    identity = down_bn_->forward(identity, train);
  }

  Tensor h = conv1_.forward(x, train);
  h = bn1_.forward(h, train);
  h = relu1_.forward(h, train);
  h = conv2_.forward(h, train);
  h = bn2_.forward(h, train);
  h = relu2_.forward(h, train);
  h = conv3_.forward(h, train);
  h = bn3_.forward(h, train);
  h.add_scaled(identity, 1.0f);
  return relu_out_.forward(h, train);
}

Tensor Bottleneck::backward(const Tensor& grad_out) {
  Tensor g = relu_out_.backward(grad_out);
  Tensor g_main = bn3_.backward(g);
  g_main = conv3_.backward(g_main);
  g_main = relu2_.backward(g_main);
  g_main = bn2_.backward(g_main);
  g_main = conv2_.backward(g_main);
  g_main = relu1_.backward(g_main);
  g_main = bn1_.backward(g_main);
  g_main = conv1_.backward(g_main);

  Tensor g_skip = g;
  if (down_conv_) {
    g_skip = down_bn_->backward(g_skip);
    g_skip = down_conv_->backward(g_skip);
  }
  g_main.add_scaled(g_skip, 1.0f);
  return g_main;
}

std::vector<Parameter*> Bottleneck::parameters() {
  std::vector<Parameter*> out;
  for (Layer* l :
       std::initializer_list<Layer*>{&conv1_, &bn1_, &conv2_, &bn2_, &conv3_, &bn3_}) {
    auto ps = l->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  if (down_conv_) {
    auto ps = down_conv_->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
    ps = down_bn_->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<BufferRef> Bottleneck::buffers() {
  std::vector<BufferRef> out;
  for (Layer* l : std::initializer_list<Layer*>{&bn1_, &bn2_, &bn3_}) {
    auto bs = l->buffers();
    out.insert(out.end(), bs.begin(), bs.end());
  }
  if (down_bn_) {
    auto bs = down_bn_->buffers();
    out.insert(out.end(), bs.begin(), bs.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

namespace {

/// ImageNet-style ResNet with Bottleneck blocks.
Backbone build_bottleneck_resnet(const std::string& arch, const std::size_t (&depths)[4],
                                 util::Rng& rng, std::size_t in_channels) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(in_channels, 64, 7, 2, 3, rng);
  net->emplace<BatchNorm2d>(64);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(3, 2);

  const std::size_t widths[4] = {64, 128, 256, 512};
  std::size_t in_c = 64;
  for (int stage = 0; stage < 4; ++stage) {
    const std::size_t mid = widths[stage];
    const std::size_t stride = stage == 0 ? 1 : 2;
    for (std::size_t blk = 0; blk < depths[stage]; ++blk) {
      net->emplace<Bottleneck>(in_c, mid, blk == 0 ? stride : 1, rng);
      in_c = mid * Bottleneck::kExpansion;
    }
  }
  net->emplace<GlobalAvgPool>();
  return Backbone{std::move(net), in_c, arch, in_channels};
}

/// ImageNet-style ResNet with BasicBlocks.
Backbone build_basic_resnet(const std::string& arch, const std::size_t (&depths)[4],
                            util::Rng& rng, std::size_t in_channels) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(in_channels, 64, 7, 2, 3, rng);
  net->emplace<BatchNorm2d>(64);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(3, 2);

  const std::size_t widths[4] = {64, 128, 256, 512};
  std::size_t in_c = 64;
  for (int stage = 0; stage < 4; ++stage) {
    const std::size_t out_c = widths[stage];
    const std::size_t stride = stage == 0 ? 1 : 2;
    for (std::size_t blk = 0; blk < depths[stage]; ++blk) {
      net->emplace<BasicBlock>(in_c, out_c, blk == 0 ? stride : 1, rng);
      in_c = out_c;
    }
  }
  net->emplace<GlobalAvgPool>();
  return Backbone{std::move(net), in_c, arch, in_channels};
}

}  // namespace

Backbone resnet18(util::Rng& rng, std::size_t in_channels) {
  return build_basic_resnet("resnet18", {2, 2, 2, 2}, rng, in_channels);
}

Backbone resnet34(util::Rng& rng, std::size_t in_channels) {
  return build_basic_resnet("resnet34", {3, 4, 6, 3}, rng, in_channels);
}

Backbone resnet50(util::Rng& rng, std::size_t in_channels) {
  return build_bottleneck_resnet("resnet50", {3, 4, 6, 3}, rng, in_channels);
}

Backbone resnet101(util::Rng& rng, std::size_t in_channels) {
  return build_bottleneck_resnet("resnet101", {3, 4, 23, 3}, rng, in_channels);
}

Backbone resnet_mini(util::Rng& rng, std::size_t in_channels, std::size_t width) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(in_channels, width, 3, 1, 1, rng);
  net->emplace<BatchNorm2d>(width);
  net->emplace<ReLU>();
  std::size_t in_c = width;
  for (int stage = 0; stage < 3; ++stage) {
    const std::size_t out_c = width << stage;
    const std::size_t stride = stage == 0 ? 1 : 2;
    for (std::size_t blk = 0; blk < 2; ++blk) {
      net->emplace<BasicBlock>(in_c, out_c, blk == 0 ? stride : 1, rng);
      in_c = out_c;
    }
  }
  net->emplace<GlobalAvgPool>();
  return Backbone{std::move(net), in_c, "resnet_mini", in_channels};
}

Backbone resnet_micro(util::Rng& rng, std::size_t in_channels) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(in_channels, 8, 3, 1, 1, rng);
  net->emplace<BatchNorm2d>(8);
  net->emplace<ReLU>();
  std::size_t in_c = 8;
  for (int stage = 0; stage < 3; ++stage) {
    const std::size_t out_c = std::size_t{8} << stage;
    const std::size_t stride = stage == 0 ? 1 : 2;
    net->emplace<BasicBlock>(in_c, out_c, stride, rng);
    in_c = out_c;
  }
  net->emplace<GlobalAvgPool>();
  return Backbone{std::move(net), in_c, "resnet_micro", in_channels};
}

namespace {

/// Shared trunk of the flat variants: stem + 3 stages (1 block each),
/// widths {w, 2w, 4w}, strides {1, 2, 2} -> [4w, S/4, S/4], then Flatten.
Backbone build_flat(const std::string& arch, std::size_t width, std::size_t in_channels,
                    std::size_t input_size, util::Rng& rng) {
  if (input_size % 4 != 0)
    throw std::invalid_argument("flat backbone: input_size must be a multiple of 4");
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(in_channels, width, 3, 1, 1, rng);
  net->emplace<BatchNorm2d>(width);
  net->emplace<ReLU>();
  std::size_t in_c = width;
  for (int stage = 0; stage < 3; ++stage) {
    const std::size_t out_c = width << stage;
    const std::size_t stride = stage == 0 ? 1 : 2;
    net->emplace<BasicBlock>(in_c, out_c, stride, rng);
    in_c = out_c;
  }
  net->emplace<Flatten>();
  const std::size_t grid = input_size / 4;
  return Backbone{std::move(net), in_c * grid * grid, arch, in_channels, input_size};
}

}  // namespace

Backbone resnet_micro_flat(util::Rng& rng, std::size_t in_channels, std::size_t input_size) {
  return build_flat("resnet_micro_flat", 8, in_channels, input_size, rng);
}

Backbone resnet_mini_flat(util::Rng& rng, std::size_t in_channels, std::size_t input_size) {
  return build_flat("resnet_mini_flat", 16, in_channels, input_size, rng);
}

Backbone make_backbone(const std::string& arch, util::Rng& rng, std::size_t in_channels) {
  if (arch == "resnet18") return resnet18(rng, in_channels);
  if (arch == "resnet34") return resnet34(rng, in_channels);
  if (arch == "resnet50") return resnet50(rng, in_channels);
  if (arch == "resnet101") return resnet101(rng, in_channels);
  if (arch == "resnet_mini" || arch == "mini") return resnet_mini(rng, in_channels);
  if (arch == "resnet_mini_wide") return resnet_mini(rng, in_channels, 24);
  if (arch == "resnet_micro" || arch == "micro") return resnet_micro(rng, in_channels);
  if (arch == "resnet_micro_flat" || arch == "micro_flat")
    return resnet_micro_flat(rng, in_channels);
  if (arch == "resnet_mini_flat" || arch == "mini_flat")
    return resnet_mini_flat(rng, in_channels);
  throw std::invalid_argument("make_backbone: unknown architecture '" + arch + "'");
}

}  // namespace hdczsc::nn
