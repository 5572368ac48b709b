#include "serve/snapshot.hpp"

#include <algorithm>
#include <stdexcept>

#include "serve/ann_store.hpp"
#include "serve/store_version.hpp"
#include "tensor/ops.hpp"

namespace hdczsc::serve {

namespace {
/// The documented freeze point: a snapshot serves the weights it was built
/// from, so its image-encoder projection is frozen (and packed for eval on
/// its first embed; endpoints fed embeddings never build the pack).
void freeze_projection(core::ZscModel& model) {
  if (nn::Linear* fc = model.image_encoder().projection()) fc->freeze_for_serving();
}

std::shared_ptr<const PrototypeStore> build_store(
    const std::shared_ptr<core::ZscModel>& model, const tensor::Tensor& class_attributes,
    std::size_t binary_expansion) {
  if (!model) throw std::invalid_argument("ModelSnapshot: null model");
  if (class_attributes.dim() != 2)
    throw std::invalid_argument("ModelSnapshot: class_attributes must be [C, alpha]");
  tensor::Tensor phi = model->attribute_encoder().encode(class_attributes, /*train=*/false);
  return std::make_shared<const PrototypeStore>(phi, model->class_kernel().scale(),
                                                binary_expansion);
}
}  // namespace

ModelSnapshot::ModelSnapshot(std::shared_ptr<core::ZscModel> model,
                             const tensor::Tensor& class_attributes,
                             std::size_t binary_expansion, std::size_t preferred_shards,
                             std::vector<std::uint8_t> seen_mask)
    : model_(std::move(model)),
      class_attributes_(class_attributes),
      store_(build_store(model_, class_attributes, binary_expansion)),
      preferred_shards_(preferred_shards == 0 ? 1 : preferred_shards) {
  adopt_seen_mask(std::move(seen_mask));
  content_checksum_ = serve::content_checksum(*store_, seen_mask_);
  freeze_projection(*model_);
}

ModelSnapshot::ModelSnapshot(std::shared_ptr<core::ZscModel> model,
                             tensor::Tensor class_attributes, PrototypeStore store,
                             std::size_t preferred_shards, std::vector<std::uint8_t> seen_mask,
                             std::uint64_t content_checksum)
    : model_(std::move(model)),
      class_attributes_(std::move(class_attributes)),
      store_(std::make_shared<const PrototypeStore>(std::move(store))),
      preferred_shards_(preferred_shards == 0 ? 1 : preferred_shards),
      content_checksum_(content_checksum) {
  if (!model_) throw std::invalid_argument("ModelSnapshot: null model");
  if (model_->dim() != store_->dim())
    throw std::invalid_argument("ModelSnapshot: model dim " + std::to_string(model_->dim()) +
                                " != prototype store dim " + std::to_string(store_->dim()));
  adopt_seen_mask(std::move(seen_mask));
  freeze_projection(*model_);
}

void ModelSnapshot::adopt_seen_mask(std::vector<std::uint8_t> seen_mask) {
  if (seen_mask.empty()) return;  // no partition: every class counts as seen
  if (seen_mask.size() != store_->n_classes())
    throw std::invalid_argument("ModelSnapshot: seen mask has " +
                                std::to_string(seen_mask.size()) + " entries for " +
                                std::to_string(store_->n_classes()) + " classes");
  std::size_t seen = 0;
  for (std::uint8_t m : seen_mask) seen += m != 0;
  if (seen == seen_mask.size()) return;  // all-seen mask ≡ no partition
  seen_mask_ = std::move(seen_mask);
  n_seen_ = seen;
}

tensor::Tensor ModelSnapshot::embed(const tensor::Tensor& images) const {
  return model_->image_encoder().forward(images, /*train=*/false);
}

tensor::Tensor ModelSnapshot::embed_int8(const tensor::Tensor& images) const {
  if (!quant_)
    throw std::logic_error(
        "ModelSnapshot::embed_int8: no quantized artifact attached (quantize the snapshot or "
        "load a v4 .hdcsnap with quantization records)");
  return quant_->forward(images);
}

std::shared_ptr<const IvfIndex> ModelSnapshot::build_ivf(std::size_t n_centroids) {
  ivf_ = std::make_shared<const IvfIndex>(*store_, n_centroids);
  return ivf_;
}

tensor::Tensor ModelSnapshot::encode_attributes(const tensor::Tensor& attributes) const {
  if (attributes.dim() != 2 || attributes.size(0) == 0 ||
      attributes.size(1) != class_attributes_.size(1))
    throw std::invalid_argument(
        "ModelSnapshot::encode_attributes: need non-empty [n, " +
        std::to_string(class_attributes_.size(1)) + "] attribute rows, got " +
        tensor::shape_str(attributes.shape()));
  return model_->attribute_encoder().encode(attributes, /*train=*/false);
}

std::shared_ptr<const nn::QuantizedEmbed> ModelSnapshot::quantize(
    const tensor::Tensor& calibration_images, nn::CalibMethod method, std::size_t batch) {
  core::ImageEncoder& enc = model_->image_encoder();
  const nn::CalibrationTable table =
      nn::QuantizedEmbed::calibrate(enc.backbone(), enc.projection(), calibration_images,
                                    method, batch);
  quant_ = nn::QuantizedEmbed::build(enc.backbone(), enc.projection(), table);
  return quant_;
}

std::shared_ptr<ModelSnapshot> make_gzsl_snapshot(std::shared_ptr<core::ZscModel> model,
                                                  const tensor::Tensor& seen_attributes,
                                                  const tensor::Tensor& unseen_attributes,
                                                  std::size_t binary_expansion,
                                                  std::size_t preferred_shards) {
  if (seen_attributes.dim() != 2 || unseen_attributes.dim() != 2 ||
      seen_attributes.size(1) != unseen_attributes.size(1))
    throw std::invalid_argument(
        "make_gzsl_snapshot: seen/unseen attribute matrices must both be [C, alpha] with "
        "matching alpha");
  const std::size_t n_seen = seen_attributes.size(0);
  std::vector<std::uint8_t> mask(n_seen + unseen_attributes.size(0), 0);
  std::fill(mask.begin(), mask.begin() + static_cast<std::ptrdiff_t>(n_seen), 1);
  return std::make_shared<ModelSnapshot>(std::move(model),
                                         tensor::concat_rows(seen_attributes, unseen_attributes),
                                         binary_expansion, preferred_shards, std::move(mask));
}

}  // namespace hdczsc::serve
