// Backbone compute-core benchmark: blocked GEMM vs. the seed naive matmul,
// whole-batch conv vs. the seed per-image loop, the fused eval block vs.
// its layer-by-layer walk, and the end-to-end effect on
// serve::InferenceEngine::classify_batch.
//
// Four sections:
//  * gemm     — square GEMMs, single thread: gemm_accumulate (packed panels,
//               register-tiled, runtime-ISA-dispatched) vs. gemm_naive (the
//               seed i-k-j matmul loop). The 256^3 speedup is the PR's
//               headline acceptance number (target >= 3x).
//  * conv     — Conv2d::forward (tensor::gemm_conv: B panels packed straight
//               from the image) vs. a faithful copy of the seed per-image
//               axpy conv.
//  * fused eval block — resnet_micro_flat's nine convs at batch 1, 2 and 16:
//               each conv with the BN, residual add and ReLU after it, run
//               layer by layer vs. as one Conv2d::forward_fused. The two
//               outputs must be bitwise equal; the binary exits nonzero if
//               any is not.
//  * serving  — classify_batch images/s at batch 1 vs. batch 8 on a trained
//               engine: with the batched backbone, coalesced batches are now
//               cheaper per image through the embed itself.
//
// --json=PATH writes every measured number (the BENCH_backbone.json CI
// artifact, uploaded next to BENCH_serving.json).
//
//   ./bench_backbone_gemm [--classes=60] [--reps=5] [--json=BENCH_backbone.json]
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/pipeline.hpp"
#include "nn/conv2d.hpp"
#include "nn/resnet.hpp"
#include "serve/engine.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hdczsc;

namespace {

/// Best-of-N wall seconds for fn().
template <typename Fn>
double best_seconds(Fn&& fn, std::size_t reps) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

struct GemmPoint {
  std::size_t size = 0;
  double naive_ms = 0.0, blocked_ms = 0.0, speedup = 0.0, blocked_gflops = 0.0;
};

GemmPoint bench_gemm_square(std::size_t s, std::size_t reps, util::Rng& rng) {
  tensor::Tensor a = tensor::Tensor::randn({s, s}, rng);
  tensor::Tensor b = tensor::Tensor::randn({s, s}, rng);
  std::vector<float> c(s * s);
  auto zero = [&] { std::memset(c.data(), 0, c.size() * sizeof(float)); };

  GemmPoint p;
  p.size = s;
  p.naive_ms = 1e3 * best_seconds(
                         [&] {
                           zero();
                           tensor::gemm_naive(tensor::Trans::N, tensor::Trans::N, s, s, s,
                                              a.data(), s, b.data(), s, c.data(), s);
                         },
                         reps);
  p.blocked_ms = 1e3 * best_seconds(
                           [&] {
                             zero();
                             tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::N, s, s, s,
                                                     a.data(), s, b.data(), s, c.data(), s);
                           },
                           reps);
  p.speedup = p.naive_ms / p.blocked_ms;
  p.blocked_gflops = 2.0 * static_cast<double>(s) * s * s / (p.blocked_ms * 1e6);
  return p;
}

/// Faithful copy of the seed Conv2d::forward: per-image im2col + axpy loops.
tensor::Tensor conv_forward_seed(const tensor::Tensor& x, const tensor::Tensor& w,
                                 std::size_t out_c, std::size_t kk, std::size_t stride,
                                 std::size_t pad) {
  const std::size_t batch = x.size(0), in_c = x.size(1), h = x.size(2), ww = x.size(3);
  const std::size_t oh = (h + 2 * pad - kk) / stride + 1, ow = (ww + 2 * pad - kk) / stride + 1;
  const std::size_t krows = in_c * kk * kk, ncols = oh * ow;
  tensor::Tensor y({batch, out_c, oh, ow});
  const float* W = w.data();
  const float* X = x.data();
  float* Y = y.data();
  util::parallel_for(0, batch, [&](std::size_t b) {
    std::vector<float> cols(krows * ncols);
    nn::im2col(X + b * in_c * h * ww, in_c, h, ww, kk, kk, stride, pad, cols.data());
    float* yb = Y + b * out_c * ncols;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      float* yrow = yb + oc * ncols;
      const float* wrow = W + oc * krows;
      std::memset(yrow, 0, ncols * sizeof(float));
      for (std::size_t r = 0; r < krows; ++r) {
        const float wv = wrow[r];
        if (wv == 0.0f) continue;
        const float* crow = cols.data() + r * ncols;
        for (std::size_t c = 0; c < ncols; ++c) yrow[c] += wv * crow[c];
      }
    }
  }, 1);
  return y;
}

/// One conv of the fused-eval section with the layers its fused form
/// absorbs, and its timings at one batch size.
struct FusedConv {
  std::string name;
  double layer_us = 0.0, fused_us = 0.0;
  bool bitwise = false;
};

struct FusedBatch {
  std::size_t batch = 0;
  std::vector<FusedConv> convs;
  double layer_us = 0.0, fused_us = 0.0;
};

/// resnet_micro_flat's convs at `batch`: conv → BN (eval) → (+identity) →
/// (ReLU) layer by layer vs. Conv2d::forward_fused, best of `reps` rounds.
FusedBatch bench_fused_block(nn::Sequential& net, std::size_t batch, std::size_t reps,
                             util::Rng& rng) {
  FusedBatch fb;
  fb.batch = batch;
  nn::ReLU relu;
  auto run = [&](const std::string& name, nn::Conv2d& conv, nn::BatchNorm2d& bn,
                 const tensor::Tensor& x, const tensor::Tensor* residual, bool with_relu) {
    auto layer_by_layer = [&] {
      tensor::Tensor h = bn.forward(conv.forward(x, false), false);
      if (residual) h.add_scaled(*residual, 1.0f);
      return with_relu ? relu.forward(h, false) : h;
    };
    auto fused = [&] { return conv.forward_fused(x, &bn, residual, with_relu); };
    FusedConv fc;
    fc.name = name;
    const tensor::Tensor want = layer_by_layer(), got = fused();
    fc.bitwise = want.shape() == got.shape() &&
                 std::memcmp(want.data(), got.data(), want.numel() * sizeof(float)) == 0;
    fc.layer_us = 1e6 * best_seconds(layer_by_layer, reps);
    fc.fused_us = 1e6 * best_seconds(fused, reps);
    fb.layer_us += fc.layer_us;
    fb.fused_us += fc.fused_us;
    fb.convs.push_back(fc);
    return got;
  };
  tensor::Tensor x = tensor::Tensor::randn({batch, 3, 32, 32}, rng);
  x = run("stem", dynamic_cast<nn::Conv2d&>(net[0]), dynamic_cast<nn::BatchNorm2d&>(net[1]), x,
          nullptr, true);
  for (std::size_t b = 0; b < 3; ++b) {
    auto& block = dynamic_cast<nn::BasicBlock&>(net[3 + b]);
    const std::string prefix = "block" + std::to_string(b + 1) + ".";
    tensor::Tensor identity = x;
    if (block.down_conv())
      identity = run(prefix + "down", *block.down_conv(), *block.down_bn(), x, nullptr, false);
    const tensor::Tensor h = run(prefix + "conv1", block.conv1(), block.bn1(), x, nullptr, true);
    x = run(prefix + "conv2", block.conv2(), block.bn2(), h, &identity, true);
  }
  return fb;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgMap args(argc, argv);
  const std::size_t reps = static_cast<std::size_t>(args.get_int("reps", 5));
  const std::size_t n_classes = static_cast<std::size_t>(args.get_int("classes", 60));
  util::Timer wall;
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));

  // -- GEMM: blocked vs. seed naive, single thread ---------------------------
  util::set_worker_count(1);
  util::Table gemm_table(std::string("blocked GEMM vs seed naive matmul — single thread, "
                                     "kernel: ") +
                         tensor::gemm_kernel_name());
  gemm_table.set_header({"m=n=k", "naive ms", "blocked ms", "blocked GFLOP/s", "speedup"});
  std::vector<GemmPoint> gemm_points;
  double speedup_256 = 0.0;
  for (std::size_t s : {std::size_t{128}, std::size_t{256}, std::size_t{512}}) {
    GemmPoint p = bench_gemm_square(s, reps, rng);
    gemm_points.push_back(p);
    if (s == 256) speedup_256 = p.speedup;
    gemm_table.add_row({std::to_string(s), util::Table::num(p.naive_ms, 3),
                        util::Table::num(p.blocked_ms, 3),
                        util::Table::num(p.blocked_gflops, 1),
                        util::Table::num(p.speedup, 2) + "x"});
  }
  gemm_table.print();
  util::set_worker_count(0);  // restore default threading for the conv/serving sections

  // -- conv: whole-batch im2col + GEMM vs. seed per-image loop ----------------
  const std::size_t conv_batch = static_cast<std::size_t>(args.get_int("conv-batch", 8));
  nn::Conv2d conv(32, 64, 3, 1, 1, rng, /*bias=*/false);
  tensor::Tensor cx = tensor::Tensor::randn({conv_batch, 32, 32, 32}, rng);
  const tensor::Tensor& cw = conv.parameters()[0]->value;
  conv.forward(cx, false);  // warm scratch
  const double conv_new_ms =
      1e3 * best_seconds([&] { conv.forward(cx, false); }, reps);
  const double conv_seed_ms =
      1e3 * best_seconds([&] { conv_forward_seed(cx, cw, 64, 3, 1, 1); }, reps);
  const double conv_speedup = conv_seed_ms / conv_new_ms;
  {
    tensor::Tensor ref = conv_forward_seed(cx, cw, 64, 3, 1, 1);
    tensor::Tensor got = conv.forward(cx, false);
    std::printf("conv equivalence max |diff| = %g\n", tensor::max_abs_diff(ref, got));
  }
  util::Table conv_table("Conv2d forward (32->64ch, 3x3, 32x32, batch " +
                         std::to_string(conv_batch) + ")");
  conv_table.set_header({"path", "ms/batch", "ms/image", "speedup"});
  conv_table.add_row({"seed per-image axpy", util::Table::num(conv_seed_ms, 3),
                      util::Table::num(conv_seed_ms / conv_batch, 3), "1.00x"});
  conv_table.add_row({"whole-batch GEMM", util::Table::num(conv_new_ms, 3),
                      util::Table::num(conv_new_ms / conv_batch, 3),
                      util::Table::num(conv_speedup, 2) + "x"});
  conv_table.print();

  // -- fused eval block: layer by layer vs. one fused conv --------------------
  // Non-trivial BN statistics and affines, so that every BN step shows.
  nn::Backbone flat = nn::resnet_micro_flat(rng);
  for (nn::BufferRef b : flat.net->buffers())
    for (std::size_t i = 0; i < b.tensor->numel(); ++i)
      (*b.tensor)[i] = b.name == "bn.running_var" ? static_cast<float>(rng.uniform(0.5, 1.5))
                                                  : static_cast<float>(rng.normal(0.0, 0.1));
  for (nn::Parameter* p : flat.net->parameters())
    if (p->name == "bn.gamma" || p->name == "bn.beta")
      for (std::size_t i = 0; i < p->value.numel(); ++i)
        p->value[i] = static_cast<float>(rng.normal(p->name == "bn.gamma" ? 1.0 : 0.0, 0.2));
  std::vector<FusedBatch> fused_batches;
  bool fused_bitwise = true;
  for (std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    const FusedBatch fb = bench_fused_block(*flat.net, batch, 20 * reps, rng);
    util::Table t("fused eval block — resnet_micro_flat convs with BN/residual/ReLU, batch " +
                  std::to_string(batch));
    t.set_header({"conv", "layer-by-layer us", "fused us", "speedup", "bitwise"});
    for (const FusedConv& c : fb.convs) {
      fused_bitwise &= c.bitwise;
      t.add_row({c.name, util::Table::num(c.layer_us, 1), util::Table::num(c.fused_us, 1),
                 util::Table::num(c.layer_us / c.fused_us, 2) + "x", c.bitwise ? "yes" : "NO"});
    }
    t.add_row({"total", util::Table::num(fb.layer_us, 1), util::Table::num(fb.fused_us, 1),
               util::Table::num(fb.layer_us / fb.fused_us, 2) + "x", ""});
    t.print();
    fused_batches.push_back(fb);
  }

  // -- serving: classify_batch images/s, batch 1 vs. batch 8 ------------------
  core::PipelineConfig cfg;
  cfg.n_classes = n_classes;
  cfg.images_per_class = 4;
  cfg.train_instances = 3;
  cfg.image_size = 32;
  cfg.split = "zs";
  cfg.zs_train_classes = n_classes / 3;
  cfg.model.image.proj_dim = 256;
  cfg.run_phase1 = false;
  cfg.run_phase2 = false;
  cfg.phase3 = {2, 16, 1e-2f, 1e-4f, 5.0f, true, false};
  cfg.augment.enabled = false;
  cfg.seed = 1;
  std::printf("training a small model for the serving section...\n");
  auto tp = core::run_pipeline_trained(cfg);
  auto snapshot =
      std::make_shared<const serve::ModelSnapshot>(tp.model, tp.test_class_attributes);
  serve::InferenceEngine engine(snapshot, serve::ScoringMode::kFloatCosine);

  const tensor::Tensor& images = tp.test_set.images;
  const std::size_t n_images = images.size(0);
  const std::size_t chw = images.numel() / n_images;
  auto batch_of = [&](std::size_t b) {
    tensor::Tensor batch({b, images.size(1), images.size(2), images.size(3)});
    for (std::size_t i = 0; i < b; ++i)
      std::memcpy(batch.data() + i * chw, images.data() + (i % n_images) * chw,
                  chw * sizeof(float));
    return batch;
  };
  auto images_per_sec = [&](std::size_t bsz, std::size_t n_batches) {
    tensor::Tensor batch = batch_of(bsz);
    engine.classify_batch(batch);  // warm scratch
    const double secs =
        best_seconds([&] { for (std::size_t i = 0; i < n_batches; ++i)
                             engine.classify_batch(batch); }, reps);
    return static_cast<double>(bsz * n_batches) / secs;
  };
  const double ips_b1 = images_per_sec(1, 32);
  const double ips_b8 = images_per_sec(8, 4);
  const double batch8_vs_single = ips_b8 / ips_b1;

  util::Table serve_table("classify_batch — batched backbone, " +
                          std::to_string(tp.test_class_attributes.size(0)) + " classes");
  serve_table.set_header({"batch", "images/s", "vs batch 1"});
  serve_table.add_row({"1", util::Table::num(ips_b1, 1), "1.00x"});
  serve_table.add_row({"8", util::Table::num(ips_b8, 1),
                       util::Table::num(batch8_vs_single, 2) + "x"});
  serve_table.print();

  // -- machine-readable artifact ----------------------------------------------
  if (args.has("json")) {
    const std::string json_path = args.get_str("json", "BENCH_backbone.json");
    FILE* j = std::fopen(json_path.c_str(), "w");
    if (!j) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(j, "{\n");
    std::fprintf(j, "  \"bench\": \"backbone_gemm\",\n");
    std::fprintf(j, "  \"kernel\": \"%s\",\n", tensor::gemm_kernel_name());
    std::fprintf(j, "  \"gemm_single_thread\": [\n");
    for (std::size_t i = 0; i < gemm_points.size(); ++i) {
      const GemmPoint& p = gemm_points[i];
      std::fprintf(j,
                   "    {\"size\": %zu, \"naive_ms\": %.4f, \"blocked_ms\": %.4f, "
                   "\"blocked_gflops\": %.2f, \"speedup\": %.3f}%s\n",
                   p.size, p.naive_ms, p.blocked_ms, p.blocked_gflops, p.speedup,
                   i + 1 < gemm_points.size() ? "," : "");
    }
    std::fprintf(j, "  ],\n");
    std::fprintf(j, "  \"gemm_256_speedup\": %.3f,\n", speedup_256);
    std::fprintf(j,
                 "  \"conv_forward\": {\"batch\": %zu, \"seed_ms\": %.4f, \"batched_ms\": "
                 "%.4f, \"speedup\": %.3f},\n",
                 conv_batch, conv_seed_ms, conv_new_ms, conv_speedup);
    std::fprintf(j, "  \"fused_eval_block\": [\n");
    for (std::size_t i = 0; i < fused_batches.size(); ++i) {
      const FusedBatch& fb = fused_batches[i];
      std::fprintf(j, "    {\"batch\": %zu, \"layer_by_layer_us\": %.2f, \"fused_us\": %.2f, "
                      "\"convs\": [\n", fb.batch, fb.layer_us, fb.fused_us);
      for (std::size_t c = 0; c < fb.convs.size(); ++c)
        std::fprintf(j,
                     "      {\"name\": \"%s\", \"layer_by_layer_us\": %.2f, \"fused_us\": "
                     "%.2f, \"bitwise\": %s}%s\n",
                     fb.convs[c].name.c_str(), fb.convs[c].layer_us, fb.convs[c].fused_us,
                     fb.convs[c].bitwise ? "true" : "false", c + 1 < fb.convs.size() ? "," : "");
      std::fprintf(j, "    ]}%s\n", i + 1 < fused_batches.size() ? "," : "");
    }
    std::fprintf(j, "  ],\n");
    std::fprintf(j, "  \"fused_eval_bitwise\": %s,\n", fused_bitwise ? "true" : "false");
    std::fprintf(j,
                 "  \"classify_batch\": {\"images_per_s_b1\": %.2f, \"images_per_s_b8\": "
                 "%.2f, \"batch8_vs_single\": %.3f}\n",
                 ips_b1, ips_b8, batch8_vs_single);
    std::fprintf(j, "}\n");
    std::fclose(j);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // -- acceptance summary -----------------------------------------------------
  // --min-gemm-speedup turns the headline number into a hard gate (CI Release
  // jobs pass 3); the default 0 keeps local / sanitizer runs informational —
  // instrumented builds can't vectorize and would fail any floor.
  const double min_speedup = args.get_double("min-gemm-speedup", 0.0);
  if (min_speedup > 0.0) {
    std::printf("\n256^3 GEMM: blocked %.2fx over seed naive, single thread "
                "(gate >= %.1fx: %s)\n",
                speedup_256, min_speedup, speedup_256 >= min_speedup ? "PASS" : "FAIL");
  } else {
    std::printf("\n256^3 GEMM: blocked %.2fx over seed naive, single thread "
                "(3x reference %s; informational — no gate set)\n",
                speedup_256, speedup_256 >= 3.0 ? "met" : "not met");
  }
  std::printf("conv forward: whole-batch GEMM %.2fx over seed per-image loop\n", conv_speedup);
  for (const FusedBatch& fb : fused_batches)
    std::printf("fused eval block, batch %zu: %.1f -> %.1f us (%.2fx)\n", fb.batch, fb.layer_us,
                fb.fused_us, fb.layer_us / fb.fused_us);
  std::printf("fused eval block output bitwise equal to layer by layer: %s\n",
              fused_bitwise ? "PASS" : "FAIL");
  std::printf("classify_batch: batch 8 serves %.2fx the images/s of batch 1 "
              "(improvement: %s)\n",
              batch8_vs_single, batch8_vs_single > 1.0 ? "PASS" : "FAIL");
  std::printf("wall time: %.1f s\n", wall.seconds());
  if (min_speedup > 0.0 && speedup_256 < min_speedup) {
    std::fprintf(stderr, "FAIL: 256^3 GEMM speedup %.2fx below required %.2fx\n", speedup_256,
                 min_speedup);
    return 1;
  }
  if (!fused_bitwise) {
    std::fprintf(stderr, "FAIL: a fused eval conv differs from its layer-by-layer walk\n");
    return 1;
  }
  return 0;
}
