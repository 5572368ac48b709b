#include "core/pipeline.hpp"

#include <algorithm>

#include "serve/snapshot_io.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hdczsc::core {

namespace {
/// Shared pipeline body; the serving artifacts (rendered eval set,
/// attribute rows) are only materialized when a caller keeps them.
TrainedPipeline run_impl(const PipelineConfig& cfg, std::uint64_t seed_offset,
                         bool serving_artifacts);
}  // namespace

PipelineResult run_pipeline(const PipelineConfig& cfg, std::uint64_t seed_offset) {
  return run_impl(cfg, seed_offset, /*serving_artifacts=*/false).result;
}

TrainedPipeline run_pipeline_trained(const PipelineConfig& cfg, std::uint64_t seed_offset) {
  return run_impl(cfg, seed_offset, /*serving_artifacts=*/true);
}

namespace {
TrainedPipeline run_impl(const PipelineConfig& cfg, std::uint64_t seed_offset,
                         bool serving_artifacts) {
  const std::uint64_t seed = cfg.seed + seed_offset * 0x10001ULL;
  util::Timer timer;

  // Dataset.
  data::AttributeSpace space = data::AttributeSpace::cub();
  data::CubSyntheticConfig dcfg;
  dcfg.n_classes = cfg.n_classes;
  dcfg.images_per_class = cfg.images_per_class;
  dcfg.image_size = cfg.image_size;
  dcfg.seed = seed;
  data::CubSynthetic dataset(space, dcfg);

  // Split.
  data::ClassSplit split;
  if (cfg.split == "zs") {
    split = data::make_zs_split(cfg.n_classes, cfg.zs_train_classes, seed);
  } else if (cfg.split == "nozs") {
    split = data::make_nozs_split(cfg.n_classes, cfg.nozs_classes, seed);
  } else if (cfg.split == "val") {
    auto zs = data::make_zs_split(cfg.n_classes, cfg.zs_train_classes, seed);
    split = data::make_validation_split(zs, cfg.val_classes, seed);
  } else {
    throw std::invalid_argument("run_pipeline: unknown split '" + cfg.split + "'");
  }

  // Loaders. For image-level (noZS) splits both loaders cover the same
  // classes with disjoint instance ranges; for class-level splits the test
  // loader uses held-out classes with the full instance range.
  const std::size_t ipc = cfg.images_per_class;
  const std::size_t train_hi = std::min(cfg.train_instances, ipc);
  data::DataLoader train(dataset, split.train_classes, 0, train_hi,
                         cfg.phase3.batch_size, /*shuffle=*/true, cfg.augment, seed + 11);
  data::AugmentConfig no_aug;
  no_aug.enabled = false;
  data::DataLoader test(dataset, split.test_classes,
                        split.image_level ? train_hi : 0,
                        ipc,
                        cfg.phase3.batch_size, /*shuffle=*/false, no_aug, seed + 13);

  // Model.
  util::Rng model_rng(seed ^ 0xA0DE1ULL);
  std::shared_ptr<ZscModel> model = make_zsc_model(cfg.model, space, model_rng);

  Trainer trainer(seed);
  PipelineResult res;

  if (cfg.run_phase1) {
    data::ShapesSyntheticConfig scfg;
    scfg.n_classes = cfg.pretrain_classes;
    scfg.images_per_class = cfg.pretrain_images_per_class;
    scfg.image_size = cfg.image_size;
    scfg.seed = seed + 101;
    data::ShapesSynthetic pretrain(scfg);
    TrainConfig p1 = cfg.phase1;
    p1.verbose = cfg.verbose;
    res.phase1_train_acc = trainer.phase1_pretrain(model->image_encoder(), pretrain, p1);
  }

  const bool can_phase2 = cfg.model.attribute_encoder == "hdc" &&
                          model->image_encoder().has_projection();
  if (cfg.run_phase2 && can_phase2) {
    data::DataLoader p2_train(dataset, split.train_classes, 0, train_hi,
                              cfg.phase2.batch_size, true, cfg.augment, seed + 17);
    TrainConfig p2 = cfg.phase2;
    p2.verbose = cfg.verbose;
    res.phase2_final_loss = trainer.phase2_attribute_extraction(*model, p2_train, p2);
    res.attributes = trainer.evaluate_attributes(*model, test);
    res.has_attribute_metrics = true;
  }

  TrainConfig p3 = cfg.phase3;
  p3.verbose = cfg.verbose;
  res.phase3_final_loss =
      trainer.phase3_zsc(*model, train, p3, cfg.freeze_backbone_phase3);

  res.zsc = trainer.evaluate_zsc(*model, test);
  res.trainable_parameters = model->parameter_count();
  res.train_seconds = timer.seconds();
  if (cfg.verbose)
    util::log_info("pipeline done: top1=", res.zsc.top1, " top5=", res.zsc.top5,
                   " in ", res.train_seconds, " s");

  TrainedPipeline out;
  out.result = res;
  out.model = std::move(model);
  if (serving_artifacts) {
    out.test_class_attributes = test.class_attribute_rows();
    out.test_set = test.all_eval();
    out.test_classes = test.classes();
    if (cfg.snapshot_gzsl) {
      // Joint seen+unseen serving: the seen domain is evaluated on the
      // training classes' *held-out* instances — images the model never
      // saw, of classes it trained on (the GZSL protocol's seen side).
      if (split.image_level)
        throw std::invalid_argument(
            "run_pipeline: snapshot_gzsl needs a class-level split (zs/val); an "
            "image-level split has no unseen classes to partition against");
      if (train_hi >= ipc)
        throw std::invalid_argument(
            "run_pipeline: snapshot_gzsl needs held-out instances for the seen-domain "
            "eval set — train_instances must be < images_per_class");
      data::DataLoader seen_eval(dataset, split.train_classes, train_hi, ipc,
                                 cfg.phase3.batch_size, /*shuffle=*/false, no_aug, seed + 19);
      out.seen_class_attributes = seen_eval.class_attribute_rows();
      out.seen_set = seen_eval.all_eval();
      out.seen_classes = seen_eval.classes();
    }
    if (!cfg.snapshot_path.empty()) {
      if (cfg.snapshot_gzsl) {
        auto snap = serve::make_gzsl_snapshot(out.model, out.seen_class_attributes,
                                              out.test_class_attributes,
                                              cfg.snapshot_expansion, cfg.snapshot_shards);
        serve::save_snapshot_file(cfg.snapshot_path, *snap);
      } else {
        serve::ModelSnapshot snap(out.model, out.test_class_attributes,
                                  cfg.snapshot_expansion, cfg.snapshot_shards);
        serve::save_snapshot_file(cfg.snapshot_path, snap);
      }
      if (cfg.verbose)
        util::log_info("pipeline: wrote snapshot artifact ", cfg.snapshot_path);
    }
  }
  return out;
}
}  // namespace

data::Batch joint_gzsl_eval_set(const TrainedPipeline& tp) {
  if (tp.seen_class_attributes.dim() != 2 || tp.seen_set.images.dim() != 4)
    throw std::logic_error(
        "joint_gzsl_eval_set: pipeline was not run with snapshot_gzsl (no seen-domain "
        "artifacts)");
  const std::size_t n_seen_classes = tp.seen_class_attributes.size(0);
  data::Batch joint;
  joint.images = tensor::concat_rows(tp.seen_set.images, tp.test_set.images);
  joint.labels = tp.seen_set.labels;
  for (std::size_t l : tp.test_set.labels) joint.labels.push_back(l + n_seen_classes);
  return joint;
}

MultiSeedResult run_pipeline_seeds(const PipelineConfig& cfg, std::size_t n_seeds) {
  MultiSeedResult out;
  std::vector<double> top1s, top5s;
  for (std::size_t s = 0; s < n_seeds; ++s) {
    out.runs.push_back(run_pipeline(cfg, s));
    top1s.push_back(out.runs.back().zsc.top1);
    top5s.push_back(out.runs.back().zsc.top5);
  }
  const auto m1 = tensor::mean_std(top1s);
  const auto m5 = tensor::mean_std(top5s);
  out.top1_mean = m1.mean;
  out.top1_std = m1.stddev;
  out.top5_mean = m5.mean;
  out.top5_std = m5.stddev;
  return out;
}

}  // namespace hdczsc::core
