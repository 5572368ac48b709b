// Image encoder γ(·): R^{3×S×S} → R^d — a ResNet backbone followed by an
// optional FC projection layer to the ZSC embedding dimension d (Fig. 2).
// Without the projection, γ outputs the raw backbone features (the
// "ResNet50, d=2048" rows of Table II, which also skip phase II).
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "nn/resnet.hpp"

namespace hdczsc::core {

using nn::Parameter;
using nn::Tensor;

struct ImageEncoderConfig {
  /// Default is the CPU-scale flat-tail variant (32x32 inputs); the paper's
  /// "resnet50"/"resnet101" are also buildable (see DESIGN.md §1/§4).
  std::string arch = "resnet_micro_flat";
  /// Projection dimension d; ignored when use_projection == false (then
  /// d == backbone feature dim).
  std::size_t proj_dim = 256;
  bool use_projection = true;
};

class ImageEncoder {
 public:
  ImageEncoder(const ImageEncoderConfig& cfg, util::Rng& rng);

  /// Embeddings [B, d] from images [B, 3, S, S].
  Tensor forward(const Tensor& images, bool train);
  /// Backward from dL/d(embeddings); returns dL/d(images). When
  /// `through_backbone` is false only the projection FC receives gradients
  /// (phase III with a stationary backbone, Fig. 2c) and the return value
  /// is the gradient at the backbone output instead.
  Tensor backward(const Tensor& grad_emb, bool through_backbone = true);

  std::size_t dim() const;
  std::size_t backbone_feature_dim() const { return backbone_.feature_dim; }
  const std::string& arch() const { return backbone_.arch; }
  /// The images the backbone embeds: [image_channels(), S, S], with S ==
  /// image_size() for flat tails and any S when image_size() is 0.
  std::size_t image_channels() const { return backbone_.in_channels; }
  std::size_t image_size() const { return backbone_.input_size; }
  bool has_projection() const { return fc_ != nullptr; }

  /// All parameters (backbone + projection).
  std::vector<Parameter*> parameters();
  /// Non-trainable state (BatchNorm running statistics) — must be persisted
  /// with the parameters for checkpointed eval forwards to be bit-identical.
  std::vector<nn::BufferRef> buffers() { return backbone_.net->buffers(); }
  std::vector<Parameter*> backbone_parameters() { return backbone_.net->parameters(); }
  std::vector<Parameter*> projection_parameters();

  /// Freeze/unfreeze the backbone (phase III keeps it stationary).
  void set_backbone_frozen(bool frozen) { backbone_.net->set_frozen(frozen); }
  void set_projection_frozen(bool frozen);

  nn::Sequential& backbone() { return *backbone_.net; }
  /// Projection FC layer, or nullptr when use_projection == false (the
  /// quantizer walks backbone + projection as one embed graph).
  nn::Linear* projection() { return fc_.get(); }

 private:
  nn::Backbone backbone_;
  std::unique_ptr<nn::Linear> fc_;
};

}  // namespace hdczsc::core
