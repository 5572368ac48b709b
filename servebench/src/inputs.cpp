#include "inputs.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "data/attribute_space.hpp"
#include "harness.hpp"
#include "serve/ann_store.hpp"
#include "serve/snapshot_io.hpp"
#include "serve/store_version.hpp"
#include "tensor/serialize.hpp"
#include "util/timer.hpp"

namespace servebench {

namespace fs = std::filesystem;
using hdczsc::tensor::Tensor;
namespace core = hdczsc::core;
namespace serve = hdczsc::serve;
namespace util = hdczsc::util;

namespace {

/// Bumped whenever the artifacts change, so a cache built by an older
/// recipe is rebuilt instead of served.
constexpr int kRecipe = 2;
/// Seeds everything served: the trained model and the catalog. It is fixed
/// so that every run serves the same model (training from another seed
/// moved top-1 by up to 15%); --seed varies what is sent.
constexpr std::uint64_t kArtifactSeed = 1;

constexpr std::size_t kCubClasses = 200;
constexpr std::size_t kCubSeen = 150;
constexpr std::size_t kCubImagesPerClass = 16;
constexpr std::size_t kCubTrainInstances = 8;
constexpr std::size_t kCubDim = 256;
constexpr std::size_t kEdgeExpansion = 8;
constexpr std::size_t kCatalogCenters = 512;

/// `<cache>/<kind>-r<recipe>`.
fs::path input_dir(const std::string& cache_dir, const std::string& kind) {
  return fs::path(cache_dir) / (kind + "-r" + std::to_string(kRecipe));
}

bool is_built(const fs::path& dir) { return fs::exists(dir / "done"); }

void start_build(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

void finish_build(const fs::path& dir) { std::ofstream(dir / "done") << "ok\n"; }

Tensor labels_tensor(const std::vector<std::size_t>& labels) {
  Tensor t({labels.size()});
  for (std::size_t i = 0; i < labels.size(); ++i) t.data()[i] = static_cast<float>(labels[i]);
  return t;
}

std::vector<std::size_t> labels_vector(const Tensor& t) {
  std::vector<std::size_t> out(t.numel());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::size_t>(t.data()[i]);
  return out;
}

Tensor catalog_centers(std::size_t alpha) {
  util::Rng rng(kArtifactSeed ^ 0xCA7A10C0ULL);
  return Tensor::randn({kCatalogCenters, alpha}, rng);
}

/// Rows around the catalog's cluster centers: each row picks a center
/// uniformly and adds N(0, 0.5²) per attribute.
Tensor clustered_rows(const Tensor& centers, std::size_t n, util::Rng& rng) {
  const std::size_t alpha = centers.size(1);
  Tensor rows({n, alpha});
  for (std::size_t i = 0; i < n; ++i) {
    const float* mu = centers.data() + (rng.next_below(kCatalogCenters)) * alpha;
    float* row = rows.data() + i * alpha;
    for (std::size_t j = 0; j < alpha; ++j)
      row[j] = mu[j] + 0.5f * static_cast<float>(rng.normal());
  }
  return rows;
}

}  // namespace

CubInputs ensure_cub_inputs(const std::string& cache_dir) {
  const fs::path dir = input_dir(cache_dir, "cub");
  CubInputs in;
  in.joint_path = (dir / "joint.hdcsnap").string();
  in.unseen_path = (dir / "unseen.hdcsnap").string();
  const auto load = [&] {
    in.joint_queries = hdczsc::tensor::load_tensor_file((dir / "joint_queries.bin").string());
    in.joint_labels =
        labels_vector(hdczsc::tensor::load_tensor_file((dir / "joint_labels.bin").string()));
    in.unseen_images = hdczsc::tensor::load_tensor_file((dir / "unseen_images.bin").string());
    in.unseen_labels =
        labels_vector(hdczsc::tensor::load_tensor_file((dir / "unseen_labels.bin").string()));
  };
  if (is_built(dir)) {
    load();
    return in;
  }

  util::Timer timer;
  start_build(dir);
  core::PipelineConfig cfg;
  cfg.n_classes = kCubClasses;
  cfg.images_per_class = kCubImagesPerClass;
  cfg.train_instances = kCubTrainInstances;
  cfg.split = "zs";
  cfg.zs_train_classes = kCubSeen;
  cfg.model.image.proj_dim = kCubDim;
  cfg.run_phase1 = false;
  cfg.phase2 = {1, 16, 1e-2f, 1e-4f, 5.0f, true, false};
  cfg.phase3 = {2, 16, 1e-2f, 1e-4f, 5.0f, true, false};
  cfg.augment.enabled = false;
  cfg.snapshot_gzsl = true;
  cfg.seed = kArtifactSeed;
  core::TrainedPipeline tp = core::run_pipeline_trained(cfg);

  // Joint GZSL label space for edge-hd. The held-out images of both
  // domains are split by parity: even rows calibrate the seen penalty
  // (persisted in the artifact), odd rows are the query pool.
  auto joint = serve::make_gzsl_snapshot(tp.model, tp.seen_class_attributes,
                                         tp.test_class_attributes, kEdgeExpansion, 1);
  const hdczsc::data::Batch eval = core::joint_gzsl_eval_set(tp);
  const Tensor emb = joint->embed(eval.images);
  std::vector<std::size_t> calib_rows, query_rows;
  for (std::size_t i = 0; i < eval.labels.size(); ++i) (i % 2 ? query_rows : calib_rows).push_back(i);
  serve::GzslCalibration calib;
  calib.embeddings = take_rows(emb, calib_rows);
  for (std::size_t i : calib_rows) calib.labels.push_back(eval.labels[i]);
  joint->set_calibrated_penalty(
      serve::calibrate_seen_penalty(joint->prototypes(), joint->seen_mask(), calib, true));
  serve::save_snapshot_file(in.joint_path, *joint);
  in.joint_queries = take_rows(emb, query_rows);
  for (std::size_t i : query_rows) in.joint_labels.push_back(eval.labels[i]);

  // Unseen-only label space for image-cub: the paper's ZSC protocol, frozen
  // at the artifact default expansion.
  const serve::ModelSnapshot unseen(tp.model, tp.test_class_attributes, kEdgeExpansion, 1);
  serve::save_snapshot_file(in.unseen_path, unseen);
  in.unseen_images = tp.test_set.images;
  in.unseen_labels = tp.test_set.labels;

  hdczsc::tensor::save_tensor_file((dir / "joint_queries.bin").string(), in.joint_queries);
  hdczsc::tensor::save_tensor_file((dir / "joint_labels.bin").string(),
                                   labels_tensor(in.joint_labels));
  hdczsc::tensor::save_tensor_file((dir / "unseen_images.bin").string(), in.unseen_images);
  hdczsc::tensor::save_tensor_file((dir / "unseen_labels.bin").string(),
                                   labels_tensor(in.unseen_labels));
  finish_build(dir);
  std::printf("inputs: trained synthetic-CUB model in %.1f s (ZSC top-1 %.3f, "
              "calibrated seen penalty %.4f)\n",
              timer.seconds(), tp.result.zsc.top1, joint->calibrated_penalty());
  return in;
}

std::string ensure_catalog_inputs(const std::string& cache_dir, const CatalogSpec& spec) {
  const fs::path dir = input_dir(cache_dir, "catalog");
  const std::string path = (dir / "catalog.hdcsnap").string();
  if (is_built(dir)) return path;

  util::Timer timer;
  start_build(dir);
  util::Rng rng(kArtifactSeed ^ 0xC0DEB00CULL);
  core::ImageEncoderConfig icfg;
  icfg.proj_dim = spec.dim;
  auto image = std::make_unique<core::ImageEncoder>(icfg, rng);
  const auto space = hdczsc::data::AttributeSpace::toy(spec.alpha, 1, 1);
  auto attr = std::make_unique<core::HdcAttributeEncoder>(space, spec.dim, rng);
  auto model = std::make_shared<core::ZscModel>(std::move(image), std::move(attr), 4.0f);

  util::Rng row_rng(kArtifactSeed ^ 0x5EED0CA7ULL);
  const Tensor rows = clustered_rows(catalog_centers(spec.alpha), spec.classes, row_rng);
  serve::ModelSnapshot snap(model, rows, spec.expansion, spec.shards);
  snap.build_ivf();
  serve::save_snapshot_file(path, snap);
  finish_build(dir);
  std::printf("inputs: built %zu-class catalog in %.1f s (%.1f MB)\n", spec.classes,
              timer.seconds(), static_cast<double>(fs::file_size(path)) / 1e6);
  return path;
}

Tensor catalog_attribute_rows(std::size_t n, std::size_t alpha, std::uint64_t stream) {
  util::Rng rng((kArtifactSeed ^ 0xA99E0DULL) + 0x9E3779B97F4A7C15ULL * (stream + 1));
  return clustered_rows(catalog_centers(alpha), n, rng);
}

}  // namespace servebench
