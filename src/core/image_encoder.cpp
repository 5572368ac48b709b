#include "core/image_encoder.hpp"

namespace hdczsc::core {

ImageEncoder::ImageEncoder(const ImageEncoderConfig& cfg, util::Rng& rng)
    : backbone_(nn::make_backbone(cfg.arch, rng)) {
  if (cfg.use_projection)
    fc_ = std::make_unique<nn::Linear>(backbone_.feature_dim, cfg.proj_dim, rng);
}

Tensor ImageEncoder::forward(const Tensor& images, bool train) {
  // Refuse before the backbone's train forward moves BatchNorm statistics
  // a snapshot serves with.
  if (train && fc_ && fc_->frozen_for_serving())
    throw std::logic_error(
        "ImageEncoder::forward: train-mode forward through a projection frozen for serving (a "
        "ModelSnapshot was built from this model); train a separate copy of the model");
  Tensor h = backbone_.net->forward(images, train);
  if (fc_) h = fc_->forward(h, train);
  return h;
}

Tensor ImageEncoder::backward(const Tensor& grad_emb, bool through_backbone) {
  Tensor g = grad_emb;
  if (fc_) g = fc_->backward(g);
  if (!through_backbone) return g;
  return backbone_.net->backward(g);
}

std::size_t ImageEncoder::dim() const {
  return fc_ ? fc_->out_features() : backbone_.feature_dim;
}

std::vector<Parameter*> ImageEncoder::parameters() {
  auto out = backbone_.net->parameters();
  if (fc_) {
    auto ps = fc_->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<Parameter*> ImageEncoder::projection_parameters() {
  return fc_ ? fc_->parameters() : std::vector<Parameter*>{};
}

void ImageEncoder::set_projection_frozen(bool frozen) {
  if (fc_) fc_->set_frozen(frozen);
}

}  // namespace hdczsc::core
