// Save / load / inspect .hdcsnap snapshot artifacts.
//
//   ./snapshot_tool --save=model.hdcsnap [--classes=24] [--seed=1]
//                   [--expansion=8] [--epochs=10] [--shards=1] [--gzsl]
//       train a pipeline, write the artifact, verify the round trip
//       in-process, and print the float-path probe checksum. --gzsl
//       freezes the *joint* seen+unseen label space with the v3
//       partition record instead of the unseen-only space.
//   ./snapshot_tool --load=model.hdcsnap
//       load the artifact in *this* process and print the same probe
//       checksum — equal output across processes proves the persistence
//       path is bit-identical end-to-end (model rebuild + BN buffers +
//       frozen prototype rows).
//   ./snapshot_tool --inspect=model.hdcsnap
//       read the artifact through the loader --load uses and print its
//       header / size table; a file the loader rejects fails here with
//       the loader's named error.
//   ./snapshot_tool --quantize=model.hdcsnap --out=model.int8.hdcsnap
//                   [--calib-method=minmax|entropy] [--calib-images=64]
//       load a float artifact, post-training-quantize its embed path
//       against a deterministic synthetic calibration batch, and write a
//       v4 artifact carrying the calibration table + int8 weights — the
//       input a server needs to cold-start with --precision=int8. Prints
//       the int8-vs-float probe agreement so drift is visible up front.
//   ./snapshot_tool --build-ivf=model.hdcsnap --out=model.ivf.hdcsnap
//                   [--centroids=0]
//       load an artifact, cluster its prototype store into an IVF coarse
//       index (0 centroids = ~sqrt(C) auto), and write a v5 artifact
//       carrying the centroid + assignment records — servers configured
//       for --retrieval=ivf|cascade then skip the load-time clustering.
//       Building is deterministic, so the persisted index always matches
//       what a server would have built; persisting just moves the k-means
//       cost from every cold start to this one-time step.
//   ./snapshot_tool --append=model.hdcsnap --out=new.hdcdelta
//                   [--classes=N] [--seen=K] [--seed=S]
//       grow the artifact by N synthetic classes (first K marked seen) and
//       write the .hdcdelta append record — the file a running server
//       applies live via ModelRegistry::load_file without a restart.
//   ./snapshot_tool --compact=model.hdcsnap --deltas=D1[,D2...] --out=full.hdcsnap
//       apply a delta chain offline and write the equivalent full v6
//       artifact (bitwise the chain's end state, version counter advanced).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "demo_pipeline_config.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot_io.hpp"
#include "tensor/ops.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using namespace hdczsc;

namespace {

/// Deterministic probe batch shared by --save and --load (fixed seed).
nn::Tensor probe_images(std::size_t n, std::size_t image_size) {
  util::Rng rng(0x9507BEULL);
  return nn::Tensor::randn({n, 3, image_size, image_size}, rng);
}

/// FNV-1a over the raw float bytes of a tensor — a cross-process
/// bit-identity fingerprint.
std::uint64_t fingerprint(const nn::Tensor& t) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void print_info(const std::string& path) {
  const serve::SnapshotInfo info = serve::inspect_snapshot_file(path);
  util::Table t("snapshot " + path);
  t.set_header({"field", "value"});
  t.add_row({"format version", std::to_string(info.version)});
  t.add_row({"image encoder", info.arch + (info.use_projection
                                               ? " -> d=" + std::to_string(info.proj_dim)
                                               : " (no projection)")});
  t.add_row({"attribute encoder", info.attribute_encoder +
                                      (info.mlp_hidden
                                           ? " (hidden " + std::to_string(info.mlp_hidden) + ")"
                                           : "")});
  t.add_row({"attributes (alpha)", std::to_string(info.n_attributes)});
  t.add_row({"served classes", std::to_string(info.n_classes)});
  t.add_row({"temperature", util::Table::num(info.scale, 4)});
  t.add_row({"parameters", std::to_string(info.param_elements) + " elements in " +
                               std::to_string(info.param_records) + " records"});
  t.add_row({"binary expansion", std::to_string(info.expansion) + " (" +
                                     std::to_string(info.code_bits) + " bits)"});
  t.add_row({"float store bytes", std::to_string(info.float_bytes)});
  t.add_row({"binary store bytes", std::to_string(info.binary_bytes)});
  t.add_row({"preferred shards", std::to_string(info.preferred_shards) +
                                     (info.version < 2 ? " (v1: flat store)" : "")});
  t.add_row({"gzsl partition",
             info.has_partition
                 ? std::to_string(info.n_seen) + " seen + " +
                       std::to_string(info.n_classes - info.n_seen) + " unseen"
                 : (info.version < 3 ? "none (pre-v3: all seen)" : "none (all seen)")});
  t.add_row({"int8 quantization",
             info.has_quant
                 ? info.quant_method + " calibrated: " + std::to_string(info.quant_conv) +
                       " conv + " + std::to_string(info.quant_linear) + " linear, " +
                       std::to_string(info.quant_weight_bytes) + " weight bytes"
                 : (info.version < 4 ? "none (pre-v4: float only)" : "none (float only)")});
  t.add_row({"ivf coarse index",
             info.has_ivf
                 ? std::to_string(info.n_centroids) + " centroids (persisted assignments)"
                 : (info.version < 5 ? "none (pre-v5: built at load)" : "none (built at load)")});
  if (info.has_partition) {
    t.add_row({"gzsl penalty", info.version < 6
                                   ? "none persisted (pre-v6)"
                                   : util::Table::num(info.calibrated_penalty, 4) +
                                         " (calibrated, " + std::to_string(info.n_seen) +
                                         " seen / " +
                                         std::to_string(info.n_classes - info.n_seen) +
                                         " unseen)"});
  }
  if (info.version >= 6) {
    t.add_row({"store version", std::to_string(info.store_version)});
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(info.content_checksum));
    t.add_row({"content checksum", hex});
  }
  if (info.has_ivf && !info.ivf_list_sizes.empty()) {
    // Coarse-list balance at a glance: min / median / max plus a coarse
    // occupancy histogram (how many lists fall in each size band).
    std::vector<std::size_t> sizes = info.ivf_list_sizes;
    std::sort(sizes.begin(), sizes.end());
    const std::size_t lo = sizes.front(), hi = sizes.back();
    const std::size_t med = sizes[sizes.size() / 2];
    t.add_row({"ivf list sizes", "min " + std::to_string(lo) + ", median " +
                                     std::to_string(med) + ", max " + std::to_string(hi)});
    const std::size_t n_bands = std::min<std::size_t>(5, hi - lo + 1);
    const std::size_t band = (hi - lo) / n_bands + 1;
    for (std::size_t b = 0; b < n_bands; ++b) {
      const std::size_t b_lo = lo + b * band;
      const std::size_t b_hi = std::min(hi, b_lo + band - 1);
      if (b_lo > hi) break;
      const std::size_t count = static_cast<std::size_t>(
          std::count_if(sizes.begin(), sizes.end(),
                        [&](std::size_t s) { return s >= b_lo && s <= b_hi; }));
      t.add_row({"  lists of " + std::to_string(b_lo) + ".." + std::to_string(b_hi),
                 std::to_string(count) + " " + std::string(count, '#')});
    }
  }
  t.print();
}

void print_checksums(const serve::ModelSnapshot& snap, std::size_t n_probe,
                     std::size_t image_size) {
  const nn::Tensor probe = probe_images(n_probe, image_size);
  const nn::Tensor emb = snap.embed(probe);
  std::printf("probe checksum (float): %016llx\n",
              static_cast<unsigned long long>(
                  fingerprint(snap.prototypes().score_float(emb))));
  std::printf("probe checksum (binary): %016llx\n",
              static_cast<unsigned long long>(
                  fingerprint(snap.prototypes().score_binary(emb))));
}

int run(int argc, char** argv) {
  util::ArgMap args(argc, argv);
  const std::size_t n_probe = static_cast<std::size_t>(args.get_int("probe", 8));
  const std::size_t image_size = static_cast<std::size_t>(args.get_int("image-size", 32));

  if (args.has("inspect")) {
    print_info(args.get_str("inspect", ""));
    return 0;
  }

  if (args.has("quantize")) {
    const std::string in = args.get_str("quantize", "");
    const std::string out = args.get_str("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "snapshot_tool: --quantize needs --out=PATH for the v4 artifact\n");
      return 2;
    }
    const auto flags = examples::parse_serving_flags(args, "snapshot_tool");
    if (!flags) return 2;
    const std::size_t n_calib = static_cast<std::size_t>(args.get_int("calib-images", 64));

    auto snap = serve::load_snapshot_file(in);
    // Deterministic synthetic calibration batch (seed differs from the
    // probe batch so calibration never sees the agreement-check inputs).
    util::Rng rng(0xCA11B0ULL);
    const nn::Tensor calib_images =
        nn::Tensor::randn({n_calib, 3, image_size, image_size}, rng);
    const auto qi = snap->quantize(calib_images, flags->calib)->info();
    serve::save_snapshot_file(out, *snap);
    std::printf("quantized %s -> %s: %s calibrated, %zu conv + %zu linear, %zu weight "
                "bytes\n",
                in.c_str(), out.c_str(), nn::calib_method_name(qi.method), qi.n_conv,
                qi.n_linear, qi.weight_bytes);

    // Drift report on the held-out probe batch: top-1 agreement between the
    // float and int8 score paths, plus the worst embedding deviation.
    const nn::Tensor probe = probe_images(n_probe, image_size);
    const nn::Tensor ef = snap->embed(probe);
    const nn::Tensor eq = snap->embed_int8(probe);
    const nn::Tensor sf = snap->prototypes().score_float(ef);
    const nn::Tensor sq = snap->prototypes().score_float(eq);
    const std::size_t n_classes = snap->n_classes();
    std::size_t agree = 0;
    for (std::size_t b = 0; b < n_probe; ++b) {
      const float* rf = sf.data() + b * n_classes;
      const float* rq = sq.data() + b * n_classes;
      const std::size_t af = std::max_element(rf, rf + n_classes) - rf;
      const std::size_t aq = std::max_element(rq, rq + n_classes) - rq;
      agree += af == aq;
    }
    std::printf("int8 vs float: top-1 agreement %zu/%zu on the probe batch, "
                "embedding max |diff| = %g\n",
                agree, n_probe, static_cast<double>(tensor::max_abs_diff(ef, eq)));
    print_info(out);
    return 0;
  }

  if (args.has("build-ivf")) {
    const std::string in = args.get_str("build-ivf", "");
    const std::string out = args.get_str("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "snapshot_tool: --build-ivf needs --out=PATH for the v5 artifact\n");
      return 2;
    }
    const std::size_t n_centroids = static_cast<std::size_t>(args.get_int("centroids", 0));
    auto snap = serve::load_snapshot_file(in);
    const auto ivf = snap->build_ivf(n_centroids);
    serve::save_snapshot_file(out, *snap);
    std::printf("clustered %s -> %s: %zu classes into %zu coarse lists "
                "(default nprobe %zu)\n",
                in.c_str(), out.c_str(), snap->n_classes(), ivf->n_centroids(),
                ivf->default_nprobe());
    print_info(out);
    return 0;
  }

  if (args.has("append")) {
    const std::string in = args.get_str("append", "");
    const std::string out = args.get_str("out", "");
    if (out.empty()) {
      std::fprintf(stderr,
                   "snapshot_tool: --append needs --out=PATH for the .hdcdelta artifact\n");
      return 2;
    }
    const std::size_t n_new = static_cast<std::size_t>(args.get_int("classes", 4));
    const std::size_t n_seen_new = static_cast<std::size_t>(args.get_int("seen", 0));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

    auto snap = serve::load_snapshot_file(in);
    const std::size_t alpha = snap->class_attributes().size(1);
    // The engine's version 0 *is* the base artifact's state; appending in
    // process and diffing the two pinned versions yields a delta that any
    // server holding the same artifact can apply bit-identically.
    const serve::InferenceEngine engine(snap);
    const auto base = engine.pin();
    util::Rng rng(seed ^ 0xADDC1A55ULL);
    const nn::Tensor attrs = nn::Tensor::randn({n_new, alpha}, rng);
    std::vector<std::uint8_t> flags;
    if (n_seen_new > 0) {
      flags.assign(n_new, 0);
      for (std::size_t i = 0; i < std::min(n_seen_new, n_new); ++i) flags[i] = 1;
    }
    const auto next = engine.append_classes(attrs, flags);
    const serve::SnapshotDelta delta = serve::make_delta(*base, *next);
    serve::save_delta_file(out, delta);
    std::printf("appended %zu classes (%zu seen) to %s -> %s: base version %llu "
                "(%llu classes, checksum %016llx) -> version %llu (checksum %016llx)\n",
                n_new, std::min(n_seen_new, n_new), in.c_str(), out.c_str(),
                static_cast<unsigned long long>(delta.base_version),
                static_cast<unsigned long long>(delta.base_rows),
                static_cast<unsigned long long>(delta.base_checksum),
                static_cast<unsigned long long>(next->version),
                static_cast<unsigned long long>(delta.new_checksum));
    return 0;
  }

  if (args.has("compact")) {
    const std::string in = args.get_str("compact", "");
    const std::string out = args.get_str("out", "");
    const std::string chain_arg = args.get_str("deltas", "");
    if (out.empty() || chain_arg.empty()) {
      std::fprintf(stderr, "snapshot_tool: --compact needs --deltas=D1[,D2...] and "
                           "--out=PATH for the compacted v6 artifact\n");
      return 2;
    }
    auto base = serve::load_snapshot_file(in);
    std::vector<serve::SnapshotDelta> chain;
    std::size_t start = 0;
    while (start <= chain_arg.size()) {
      const std::size_t comma = chain_arg.find(',', start);
      const std::string piece =
          chain_arg.substr(start, comma == std::string::npos ? std::string::npos
                                                             : comma - start);
      if (!piece.empty()) chain.push_back(serve::load_delta_file(piece));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    auto full = serve::compact_snapshot(*base, chain);
    serve::save_snapshot_file(out, *full);
    std::printf("compacted %s + %zu delta(s) -> %s: %zu classes at store version %llu\n",
                in.c_str(), chain.size(), out.c_str(), full->n_classes(),
                static_cast<unsigned long long>(full->store_version()));
    print_info(out);
    return 0;
  }

  if (args.has("load")) {
    const std::string path = args.get_str("load", "");
    print_info(path);
    auto snap = serve::load_snapshot_file(path);
    print_checksums(*snap, n_probe, image_size);
    std::printf("loaded: %zu classes, d=%zu, expansion x%zu\n", snap->n_classes(),
                snap->dim(), snap->prototypes().expansion());
    return 0;
  }

  if (args.has("save")) {
    const std::string path = args.get_str("save", "");
    core::PipelineConfig cfg = examples::demo_pipeline_config(args);
    cfg.snapshot_path = path;
    cfg.snapshot_expansion = static_cast<std::size_t>(args.get_int("expansion", 8));
    cfg.snapshot_shards = static_cast<std::size_t>(args.get_int("shards", 1));
    cfg.snapshot_gzsl = args.has("gzsl");

    std::printf("training %zu classes (artifact -> %s%s)...\n", cfg.n_classes, path.c_str(),
                cfg.snapshot_gzsl ? ", joint seen+unseen space" : "");
    auto tp = core::run_pipeline_trained(cfg);
    std::printf("trained: zero-shot top-1 %.1f %% on the %zu held-out classes\n",
                100.0 * tp.result.zsc.top1, tp.test_class_attributes.size(0));

    // In-process round-trip check: the artifact must reproduce the
    // in-memory snapshot bit-for-bit on the float path.
    serve::ModelSnapshot in_memory =
        cfg.snapshot_gzsl
            ? *serve::make_gzsl_snapshot(tp.model, tp.seen_class_attributes,
                                         tp.test_class_attributes, cfg.snapshot_expansion)
            : serve::ModelSnapshot(tp.model, tp.test_class_attributes,
                                   cfg.snapshot_expansion);
    auto reloaded = serve::load_snapshot_file(path);
    const nn::Tensor probe = probe_images(n_probe, image_size);
    const float diff = tensor::max_abs_diff(
        in_memory.prototypes().score_float(in_memory.embed(probe)),
        reloaded->prototypes().score_float(reloaded->embed(probe)));
    const bool packed_equal =
        in_memory.prototypes().packed_copy() == reloaded->prototypes().packed_copy();
    std::printf("round-trip: float max |diff| = %g, packed binary rows %s -> %s\n",
                static_cast<double>(diff), packed_equal ? "identical" : "DIVERGED",
                diff == 0.0f && packed_equal ? "OK" : "FAIL");

    print_info(path);
    print_checksums(in_memory, n_probe, image_size);
    return diff == 0.0f && packed_equal ? 0 : 1;
  }

  std::fprintf(stderr,
               "usage: snapshot_tool --save=PATH [--classes=N --seed=S --expansion=K "
               "--epochs=E --shards=S --gzsl] | --load=PATH | --inspect=PATH | "
               "--quantize=PATH --out=PATH [--calib-method=minmax|entropy "
               "--calib-images=N] | --build-ivf=PATH --out=PATH [--centroids=N] | "
               "--append=PATH --out=DELTA [--classes=N --seen=K --seed=S] | "
               "--compact=PATH --deltas=D1[,D2...] --out=PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Any failure (a missing or corrupt artifact, a rejected delta) ends with
  // the library's named error and exit 1; a bad flag spelling still exits 2.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snapshot_tool: %s\n", e.what());
    return 1;
  }
}
