// What the serving CLIs share.
//
// The training recipe: serve_demo (in-process training mode) and
// snapshot_tool (--save) must train the *same* model for the CI smoke's
// cross-process equivalence claim to mean anything, so both build their
// PipelineConfig here.
//
// The serving flags: serve_demo and netserve parse --mode, --precision,
// --calib-method and --retrieval, check an int8 request against the loaded
// artifact, and fill a ServerConfig from --workers, --batch, --delay-ms,
// --nprobe and --rerank through the helpers below; snapshot_tool --quantize
// takes its --calib-method from the same parser. Flags only one CLI
// accepts (--shards, --seen-penalty, --queue-depth) stay in that CLI.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/pipeline.hpp"
#include "serve/server.hpp"
#include "serve/snapshot_io.hpp"
#include "util/config.hpp"

namespace hdczsc::examples {

/// Small, phase-1-free ZS recipe driven by the common demo flags
/// (--classes, --seed, --epochs, --image-size).
inline core::PipelineConfig demo_pipeline_config(const util::ArgMap& args) {
  const std::size_t n_classes = static_cast<std::size_t>(args.get_int("classes", 24));
  core::PipelineConfig cfg;
  cfg.n_classes = n_classes;
  cfg.images_per_class = 8;
  cfg.train_instances = 6;
  cfg.image_size = static_cast<std::size_t>(args.get_int("image-size", 32));
  cfg.split = "zs";
  cfg.zs_train_classes = n_classes * 3 / 4;
  cfg.model.image.proj_dim = 256;
  cfg.run_phase1 = false;
  cfg.phase2 = {8, 16, 1e-2f, 1e-4f, 5.0f, true, false};
  cfg.phase3 = {static_cast<std::size_t>(args.get_int("epochs", 10)), 16, 1e-2f, 1e-4f,
                5.0f, true, false};
  cfg.augment.enabled = false;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return cfg;
}

/// The serving modes both serving CLIs take by name.
struct ServingFlags {
  serve::ScoringMode mode{};
  serve::Precision precision{};
  nn::CalibMethod calib{};
  serve::RetrievalMode retrieval{};
};

/// Parse --mode (default binary), --precision (float32), --calib-method
/// (minmax) and --retrieval (exact). A bad spelling prints "<tool>: <the
/// parser's message>" on stderr and returns nullopt; the CLI then exits 2.
inline std::optional<ServingFlags> parse_serving_flags(const util::ArgMap& args,
                                                       const char* tool) {
  try {
    ServingFlags f;
    f.mode = serve::scoring_mode_from_name(args.get_str("mode", "binary"));
    f.precision = serve::precision_from_name(args.get_str("precision", "float32"));
    f.calib = nn::calib_method_from_name(args.get_str("calib-method", "minmax"));
    f.retrieval = serve::retrieval_mode_from_name(args.get_str("retrieval", "exact"));
    return f;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return std::nullopt;
  }
}

/// Load the .hdcsnap at `path` to serve at `precision`. An int8 request
/// against an artifact without quantization records prints why on stderr
/// and returns null; the CLI then exits 2. Load failures throw.
inline std::shared_ptr<const serve::ModelSnapshot> load_serving_snapshot(
    const std::string& path, serve::Precision precision, const char* tool) {
  auto snapshot = serve::load_snapshot_file(path);
  if (precision == serve::Precision::kInt8 && !snapshot->has_quantized()) {
    std::fprintf(stderr,
                 "%s: --precision=int8 but %s carries no quantization records "
                 "(produce a v4 artifact with snapshot_tool --quantize)\n",
                 tool, path.c_str());
    return nullptr;
  }
  return snapshot;
}

/// A ServerConfig from --workers (1), --batch (8), --delay-ms (2),
/// --nprobe (0) and --rerank (4), serving at the parsed precision and
/// retrieval tier.
inline serve::ServerConfig serving_config(const util::ArgMap& args, const ServingFlags& flags) {
  serve::ServerConfig scfg;
  scfg.n_workers = static_cast<std::size_t>(args.get_int("workers", 1));
  scfg.batch.max_batch = static_cast<std::size_t>(args.get_int("batch", 8));
  scfg.batch.max_delay_ms = args.get_double("delay-ms", 2.0);
  scfg.backbone_precision = flags.precision;
  scfg.retrieval = flags.retrieval;
  scfg.nprobe = static_cast<std::size_t>(args.get_int("nprobe", 0));
  scfg.rerank = static_cast<std::size_t>(args.get_int("rerank", 4));
  return scfg;
}

}  // namespace hdczsc::examples
