// HDC-ZSC model (Fig. 1): image encoder γ, attribute encoder ϕ, and the
// bi-similarity kernel, wired for the two task heads:
//
//  * attribute logits  q = cossim(γ(x), B)          (phase II, Fig. 2b)
//  * class logits      p = cossim(γ(x), ϕ(A))       (phase III, Fig. 2c / 3)
//
// Each head has its own learnable temperature. Backward helpers route
// gradients to the image branch, the attribute branch (for the trainable
// MLP encoder) and the temperature.
#pragma once

#include "core/attribute_encoder.hpp"
#include "core/image_encoder.hpp"
#include "core/similarity.hpp"

namespace hdczsc::core {

class ZscModel {
 public:
  ZscModel(std::unique_ptr<ImageEncoder> image_encoder,
           std::unique_ptr<AttributeEncoder> attribute_encoder, float temp_scale);

  ImageEncoder& image_encoder() { return *image_encoder_; }
  const ImageEncoder& image_encoder() const { return *image_encoder_; }
  AttributeEncoder& attribute_encoder() { return *attribute_encoder_; }
  SimilarityKernel& class_kernel() { return class_kernel_; }
  SimilarityKernel& attribute_kernel() { return attribute_kernel_; }
  std::size_t dim() const { return image_encoder_->dim(); }

  // -- phase II: attribute extraction -------------------------------------
  /// q [B, α]: similarities between image embeddings and the stationary
  /// attribute dictionary B. Only valid with the HDC encoder (the MLP
  /// variant has no dictionary; phase II is then skipped, as in Table II).
  Tensor attribute_logits(const Tensor& images, bool train);
  /// Backprop dL/dq into the image encoder and attribute temperature.
  void attribute_backward(const Tensor& grad_q);

  // -- phase III / inference: zero-shot classification --------------------
  /// p [B, C]: class logits against class-attribute rows A [C, α].
  Tensor class_logits(const Tensor& images, const Tensor& class_attributes, bool train);
  /// Backprop dL/dp into image encoder, attribute encoder (if trainable)
  /// and class temperature.
  void class_backward(const Tensor& grad_p);

  /// Parameters trainable in phase III: projection FC (+ backbone when not
  /// frozen), attribute-encoder parameters (MLP variant), temperature.
  std::vector<Parameter*> parameters();

  /// Non-trainable state tensors (the image backbone's BatchNorm running
  /// statistics); serialized alongside parameters() by serve::snapshot_io.
  std::vector<nn::BufferRef> buffers() { return image_encoder_->buffers(); }

  /// When disabled, backward passes stop at the projection FC (stationary
  /// backbone of Fig. 2c) — a large compute saving in phase III.
  void set_backbone_grad(bool enabled) { backbone_grad_ = enabled; }
  bool backbone_grad() const { return backbone_grad_; }

  /// Analytic total parameter count (trainable only).
  std::size_t parameter_count();

 private:
  std::unique_ptr<ImageEncoder> image_encoder_;
  std::unique_ptr<AttributeEncoder> attribute_encoder_;
  SimilarityKernel class_kernel_;
  SimilarityKernel attribute_kernel_;
  Tensor cached_class_attributes_;  // A rows used in the last class forward
  bool backbone_grad_ = true;
};

/// Convenience factory assembling the model from configs.
struct ZscModelConfig {
  ImageEncoderConfig image;
  std::string attribute_encoder = "hdc";  ///< "hdc" | "mlp"
  std::size_t mlp_hidden = 128;
  /// Initial 1/K. The paper's best CUB-scale value is 0.03 (Fig. 5); at the
  /// CPU scale of this reproduction (small batches, d=256) the useful
  /// operating point is higher — 4.0 by default, swept in bench_fig5.
  float temp_scale = 4.0f;
};

std::unique_ptr<ZscModel> make_zsc_model(const ZscModelConfig& cfg,
                                         const data::AttributeSpace& space, util::Rng& rng);

}  // namespace hdczsc::core
