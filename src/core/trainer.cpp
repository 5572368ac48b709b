#include "core/trainer.hpp"

#include <numeric>

#include "nn/loss.hpp"
#include "optim/optimizer.hpp"
#include "optim/scheduler.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"

namespace hdczsc::core {

namespace {

/// Gather a batch of ShapesSynthetic samples into tensors.
struct ShapesBatch {
  Tensor images;
  std::vector<std::size_t> labels;
};

ShapesBatch gather_shapes(const data::ShapesSynthetic& ds,
                          const std::vector<std::pair<std::size_t, std::size_t>>& index,
                          const std::vector<std::size_t>& rows) {
  const std::size_t s = ds.image_size();
  const std::size_t elems = 3 * s * s;
  ShapesBatch b;
  b.images = Tensor({rows.size(), 3, s, s});
  b.labels.resize(rows.size());
  float* out = b.images.data();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto [cls, inst] = index[rows[k]];
    data::ShapesSample sample = ds.sample(cls, inst);
    const float* src = sample.image.data();
    for (std::size_t p = 0; p < elems; ++p) out[k * elems + p] = src[p];
    b.labels[k] = sample.label;
  }
  return b;
}

}  // namespace

double Trainer::phase1_pretrain(ImageEncoder& encoder, const data::ShapesSynthetic& dataset,
                                const TrainConfig& cfg) {
  // Temporary FC' head on the raw backbone features (Fig. 2a); the
  // projection FC is not part of phase I.
  util::Rng head_rng = rng_.split();
  nn::Linear head(encoder.backbone_feature_dim(), dataset.n_classes(), head_rng);

  auto params = encoder.backbone_parameters();
  for (auto* p : head.parameters()) params.push_back(p);
  optim::AdamW opt(params, cfg.lr, cfg.weight_decay);
  optim::CosineAnnealingLR sched(opt, static_cast<long>(cfg.epochs));

  std::vector<std::pair<std::size_t, std::size_t>> index;
  for (std::size_t c = 0; c < dataset.n_classes(); ++c)
    for (std::size_t i = 0; i < dataset.images_per_class(); ++i) index.emplace_back(c, i);
  std::vector<std::size_t> order(index.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double final_acc = 0.0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng_.shuffle(order);
    std::size_t hits = 0, seen = 0;
    for (std::size_t start = 0; start < order.size(); start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      std::vector<std::size_t> rows(order.begin() + static_cast<long>(start),
                                    order.begin() + static_cast<long>(end));
      ShapesBatch batch = gather_shapes(dataset, index, rows);

      Tensor feats = encoder.backbone().forward(batch.images, /*train=*/true);
      Tensor logits = head.forward(feats, /*train=*/true);
      auto loss = nn::cross_entropy(logits, batch.labels);

      opt.zero_grad();
      Tensor g = head.backward(loss.grad_logits);
      encoder.backbone().backward(g);
      opt.clip_grad_norm(cfg.clip_norm);
      opt.step();

      auto preds = tensor::argmax_rows(logits);
      for (std::size_t i = 0; i < preds.size(); ++i)
        if (preds[i] == batch.labels[i]) ++hits;
      seen += preds.size();
    }
    sched.step();
    final_acc = seen == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(seen);
    if (cfg.verbose)
      util::log_info("phase I epoch ", epoch + 1, "/", cfg.epochs, " train acc ", final_acc);
  }
  return final_acc;
}

double Trainer::phase2_attribute_extraction(ZscModel& model, data::DataLoader& train,
                                            const TrainConfig& cfg) {
  // Positive weights from the train split's instance attributes (§III-A:
  // weighted BCE compensating inactive-attribute dominance).
  data::Batch stats = train.all_eval();
  Tensor pos_weight = nn::bce_pos_weights_from_targets(stats.instance_attributes);

  auto params = model.image_encoder().parameters();
  params.push_back(&model.attribute_kernel().log_scale());
  optim::AdamW opt(params, cfg.lr, cfg.weight_decay);
  optim::CosineAnnealingLR sched(opt, static_cast<long>(cfg.epochs));

  model.set_backbone_grad(true);
  double mean_loss = 0.0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    train.reset_epoch();
    double loss_sum = 0.0;
    std::size_t batches = 0;
    while (auto batch = train.next()) {
      Tensor q = model.attribute_logits(batch->images, /*train=*/true);
      auto loss = nn::weighted_bce_with_logits(q, batch->instance_attributes, pos_weight);
      opt.zero_grad();
      model.attribute_backward(loss.grad_logits);
      opt.clip_grad_norm(cfg.clip_norm);
      opt.step();
      loss_sum += loss.value;
      ++batches;
    }
    sched.step();
    mean_loss = batches == 0 ? 0.0 : loss_sum / static_cast<double>(batches);
    if (cfg.verbose)
      util::log_info("phase II epoch ", epoch + 1, "/", cfg.epochs, " loss ", mean_loss);
  }
  return mean_loss;
}

double Trainer::phase3_zsc(ZscModel& model, data::DataLoader& train, const TrainConfig& cfg,
                           bool freeze_backbone) {
  model.image_encoder().set_backbone_frozen(freeze_backbone);
  model.set_backbone_grad(!freeze_backbone);

  std::vector<nn::Parameter*> params;
  if (freeze_backbone) {
    params = model.image_encoder().projection_parameters();
    // Without a projection FC there is nothing left on the image side:
    // fall back to training the backbone (Table II "ResNet50, I,III" rows).
    if (params.empty()) {
      model.image_encoder().set_backbone_frozen(false);
      model.set_backbone_grad(true);
      params = model.image_encoder().parameters();
    }
  } else {
    params = model.image_encoder().parameters();
  }
  for (auto* p : model.attribute_encoder().parameters()) params.push_back(p);
  params.push_back(&model.class_kernel().log_scale());
  optim::AdamW opt(params, cfg.lr, cfg.weight_decay);
  optim::CosineAnnealingLR sched(opt, static_cast<long>(cfg.epochs));

  const Tensor class_attrs = train.class_attribute_rows();

  double mean_loss = 0.0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    train.reset_epoch();
    double loss_sum = 0.0;
    std::size_t batches = 0;
    while (auto batch = train.next()) {
      Tensor p = model.class_logits(batch->images, class_attrs, /*train=*/true);
      auto loss = nn::cross_entropy(p, batch->labels);
      opt.zero_grad();
      model.class_backward(loss.grad_logits);
      opt.clip_grad_norm(cfg.clip_norm);
      opt.step();
      loss_sum += loss.value;
      ++batches;
    }
    sched.step();
    mean_loss = batches == 0 ? 0.0 : loss_sum / static_cast<double>(batches);
    if (cfg.verbose)
      util::log_info("phase III epoch ", epoch + 1, "/", cfg.epochs, " loss ", mean_loss);
  }
  return mean_loss;
}

Tensor Trainer::encode_in_chunks(ImageEncoder& enc, const Tensor& images, std::size_t chunk) {
  const std::size_t n = images.size(0);
  const std::size_t c = images.size(1), h = images.size(2), w = images.size(3);
  const std::size_t elems = c * h * w;
  Tensor out({n, enc.dim()});
  const float* src = images.data();
  float* dst = out.data();
  for (std::size_t start = 0; start < n; start += chunk) {
    const std::size_t len = std::min(chunk, n - start);
    Tensor part({len, c, h, w});
    std::copy(src + start * elems, src + (start + len) * elems, part.data());
    Tensor emb = enc.forward(part, /*train=*/false);
    std::copy(emb.data(), emb.data() + len * enc.dim(), dst + start * enc.dim());
  }
  return out;
}

AttributeEvalResult Trainer::evaluate_attributes(ZscModel& model,
                                                 const data::DataLoader& test) {
  data::Batch batch = test.all_eval();
  Tensor e = encode_in_chunks(model.image_encoder(), batch.images);
  auto* hdc_enc = dynamic_cast<HdcAttributeEncoder*>(&model.attribute_encoder());
  if (!hdc_enc)
    throw std::logic_error("evaluate_attributes requires the HDC attribute encoder");
  Tensor q = model.attribute_kernel().forward(e, hdc_enc->dictionary_tensor(), false);

  AttributeEvalResult res;
  const data::AttributeSpace& sp = test.space();
  res.per_group_top1 = metrics::per_group_top1(q, batch.instance_attributes, sp);
  res.per_group_wmap = metrics::per_group_wmap(q, batch.instance_attributes, sp);
  res.mean_top1 = metrics::mean_of(res.per_group_top1);
  res.mean_wmap = metrics::mean_of(res.per_group_wmap);
  return res;
}

GzslEvalResult Trainer::evaluate_gzsl(ZscModel& model, const data::DataLoader& seen_test,
                                      const data::DataLoader& unseen_test,
                                      float seen_penalty) {
  // Joint descriptor matrix: seen rows then unseen rows.
  Tensor seen_a = seen_test.class_attribute_rows();
  Tensor unseen_a = unseen_test.class_attribute_rows();
  const std::size_t n_seen = seen_a.size(0);
  Tensor phi =
      model.attribute_encoder().encode(tensor::concat_rows(seen_a, unseen_a), false);

  auto domain_acc = [&](const data::DataLoader& loader, std::size_t label_offset) {
    data::Batch batch = loader.all_eval();
    Tensor e = encode_in_chunks(model.image_encoder(), batch.images);
    Tensor p = model.class_kernel().forward(e, phi, false);
    if (seen_penalty != 0.0f) {
      // Calibrated stacking: handicap the seen-class columns.
      float* P = p.data();
      const std::size_t rows = p.size(0), cols = p.size(1);
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < n_seen && j < cols; ++j)
          P[i * cols + j] -= seen_penalty;
    }
    std::vector<std::size_t> labels = batch.labels;
    for (auto& l : labels) l += label_offset;
    return metrics::top1_accuracy(p, labels);
  };

  GzslEvalResult res;
  res.seen_acc = domain_acc(seen_test, 0);
  res.unseen_acc = domain_acc(unseen_test, n_seen);
  const double denom = res.seen_acc + res.unseen_acc;
  res.harmonic_mean = denom > 0.0 ? 2.0 * res.seen_acc * res.unseen_acc / denom : 0.0;
  return res;
}

ZscEvalResult Trainer::evaluate_zsc(ZscModel& model, const data::DataLoader& test) {
  data::Batch batch = test.all_eval();
  Tensor e = encode_in_chunks(model.image_encoder(), batch.images);
  Tensor phi = model.attribute_encoder().encode(test.class_attribute_rows(), false);
  Tensor p = model.class_kernel().forward(e, phi, false);

  ZscEvalResult res;
  res.top1 = metrics::top1_accuracy(p, batch.labels);
  res.top5 = metrics::topk_accuracy(p, batch.labels, 5);
  res.n_examples = batch.labels.size();
  return res;
}

}  // namespace hdczsc::core
