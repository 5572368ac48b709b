// Post-training quantization (nn/quant.hpp): calibration, qparams,
// quantized-vs-float backbone agreement, serialization, steady-state
// allocation, thread-safety of a shared artifact, and the serving engine's
// precision contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/image_encoder.hpp"
#include "core/zsc_model.hpp"
#include "nn/quant.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdczsc {
namespace {

using tensor::Tensor;

/// Mean per-row cosine similarity between two [B, d] embeddings.
double mean_cosine(const Tensor& a, const Tensor& b) {
  const std::size_t rows = a.size(0), d = a.size(1);
  double acc = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double x = a.data()[r * d + j], y = b.data()[r * d + j];
      dot += x * y;
      na += x * x;
      nb += y * y;
    }
    acc += dot / (std::sqrt(na * nb) + 1e-12);
  }
  return acc / static_cast<double>(rows);
}

core::ImageEncoder make_encoder(const std::string& arch, bool proj, std::uint64_t seed) {
  core::ImageEncoderConfig cfg;
  cfg.arch = arch;
  cfg.proj_dim = 64;
  cfg.use_projection = proj;
  util::Rng rng(seed);
  return core::ImageEncoder(cfg, rng);
}

// -- qparams and observers ----------------------------------------------------

TEST(QuantParams, RangeAlwaysCoversZeroSoPaddingIsExact) {
  // Zero must quantize exactly to the zero point: im2col pads with zp and
  // a lossy zero would smear phantom signal into every padded border.
  for (auto [lo, hi] : {std::pair<float, float>{0.5f, 4.0f},
                        {-3.0f, -0.25f},
                        {-1.0f, 2.0f}}) {
    const nn::QuantParams p = nn::choose_qparams(lo, hi);
    ASSERT_GT(p.scale, 0.0f);
    ASSERT_GE(p.zero_point, 0);
    ASSERT_LE(p.zero_point, 255);
    const float dequant_zero = p.scale * (static_cast<float>(p.zero_point) - p.zero_point);
    EXPECT_EQ(dequant_zero, 0.0f);
    // The widened range reaches both endpoints.
    EXPECT_LE(p.scale * (0.0f - static_cast<float>(p.zero_point)), std::min(lo, 0.0f) + 1e-4f);
    EXPECT_GE(p.scale * (255.0f - static_cast<float>(p.zero_point)),
              std::max(hi, 0.0f) - 1e-4f);
  }
}

TEST(QuantParams, DegenerateRangeFallsBackToIdentityScale) {
  const nn::QuantParams p = nn::choose_qparams(0.0f, 0.0f);
  EXPECT_EQ(p.scale, 1.0f);
  EXPECT_EQ(p.zero_point, 0);
}

TEST(QuantObserver, MinMaxTracksAnEmaOfBatchExtremes) {
  nn::RangeObserver ob;
  const float batch1[] = {-1.0f, 2.0f};
  const float batch2[] = {-3.0f, 1.0f};
  ob.observe(batch1, 2);  // init: [-1, 2]
  ob.observe(batch2, 2);  // EMA pulls lo toward -3
  const nn::QuantParams p = ob.finalize(nn::CalibMethod::kMinMax);
  EXPECT_GT(p.scale, 0.0f);
  // lo moved past the first batch's -1 but not all the way to -3.
  const float lo = p.scale * (0.0f - static_cast<float>(p.zero_point));
  EXPECT_LT(lo, -1.0f);
  EXPECT_GT(lo, -3.0f);
}

TEST(QuantObserver, EntropyClipsHeavyTailedActivations) {
  // 10k small values plus a handful of huge outliers: the KL threshold
  // must land far below the raw max (minmax would burn almost the whole
  // u8 range on the empty tail).
  util::Rng rng(5);
  std::vector<float> x(10000);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  x[17] = 120.0f;
  x[4000] = -150.0f;

  nn::RangeObserver ob;
  ob.observe(x.data(), x.size());
  ob.begin_hist();
  ob.observe_hist(x.data(), x.size());
  const nn::QuantParams entropy = ob.finalize(nn::CalibMethod::kEntropy);

  nn::RangeObserver ob2;
  ob2.observe(x.data(), x.size());
  const nn::QuantParams minmax = ob2.finalize(nn::CalibMethod::kMinMax);

  EXPECT_LT(entropy.scale, minmax.scale * 0.25f)
      << "entropy calibration failed to clip the outlier tail";
}

TEST(QuantCalibration, TableRoundTripsThroughStreams) {
  nn::CalibrationTable table;
  table.method = nn::CalibMethod::kEntropy;
  table.activations = {{0.5f, 3}, {0.0123f, 255}, {7.25f, 0}};
  std::stringstream ss;
  nn::save_calibration(ss, table);
  const nn::CalibrationTable back = nn::load_calibration(ss);
  ASSERT_EQ(back.method, table.method);
  ASSERT_EQ(back.activations.size(), table.activations.size());
  for (std::size_t i = 0; i < table.activations.size(); ++i) {
    EXPECT_EQ(back.activations[i].scale, table.activations[i].scale);
    EXPECT_EQ(back.activations[i].zero_point, table.activations[i].zero_point);
  }
}

// -- quantized embed vs the float backbone ------------------------------------

TEST(QuantizedEmbed, TracksFloatEncoderOnEveryArchAndMethod) {
  // The acceptance bar for PTQ: int8 embeddings stay directionally faithful
  // to float (cosine ≥ 0.99 per row on calibration-distribution inputs) —
  // scoring is cosine/Hamming over these rows, so direction is what serving
  // consumes. Covers the plain stem, the maxpool stem + downsample blocks,
  // and both calibration methods.
  struct Case {
    const char* arch;
    bool proj;
    std::size_t image;
  };
  for (const Case& c : {Case{"resnet_micro_flat", true, 32}, Case{"resnet_micro", false, 32},
                        Case{"resnet18", true, 32}}) {
    core::ImageEncoder enc = make_encoder(c.arch, c.proj, 21);
    util::Rng rng(22);
    const Tensor calib = Tensor::randn({32, 3, c.image, c.image}, rng);
    const Tensor probe = Tensor::randn({6, 3, c.image, c.image}, rng);
    const Tensor f = enc.forward(probe, /*train=*/false);
    for (auto method : {nn::CalibMethod::kMinMax, nn::CalibMethod::kEntropy}) {
      const auto table =
          nn::QuantizedEmbed::calibrate(enc.backbone(), enc.projection(), calib, method, 16);
      const auto q = nn::QuantizedEmbed::build(enc.backbone(), enc.projection(), table);
      const double cos = mean_cosine(f, q->forward(probe));
      EXPECT_GT(cos, 0.99) << c.arch << " / " << nn::calib_method_name(method);
    }
  }
}

// -- the int8 forward against a reference walk --------------------------------

/// One quantized op as the reference walk needs it: out = dequant(W · im2col(
/// quantize(x))) for a square kernel over NCHW x.
struct RefOp {
  nn::QuantParams in_q;
  const std::vector<std::int8_t>& weight;
  const std::vector<float>& w_scale;
  const std::vector<float>& bias;
  const std::vector<std::int32_t>& wsum;
  std::size_t out_c, k, stride, pad;
  bool relu;
};

/// The op from public primitives, in the int8 path's arithmetic: each input
/// quantized as q = clamp(trunc(x/s ± 0.5) + zp), a zero-point-padded im2col
/// per image, gemm_s32_naive, then per element
///   v = (s_in·s_w[oc])·float(acc − zp·Σw[oc]) + b[oc], ReLU (v > 0 ? v : 0),
///   and with a residual v + identity, then ReLU again.
Tensor ref_quant_op(const RefOp& op, const Tensor& x, const Tensor* residual) {
  const std::size_t batch = x.size(0), in_c = x.size(1), h = x.size(2), w = x.size(3);
  const std::size_t oh = (h + 2 * op.pad - op.k) / op.stride + 1;
  const std::size_t ow = (w + 2 * op.pad - op.k) / op.stride + 1;
  const std::size_t krows = in_c * op.k * op.k, ncols = oh * ow;
  const float inv_scale = 1.0f / op.in_q.scale;
  const std::int32_t zp = op.in_q.zero_point;
  auto quantize = [&](float v) {
    const float r = v * inv_scale;
    const int q = static_cast<int>(r >= 0.0f ? r + 0.5f : r - 0.5f) + zp;
    return static_cast<std::uint8_t>(std::clamp(q, 0, 255));
  };
  Tensor y({batch, op.out_c, oh, ow});
  std::vector<std::uint8_t> cols(krows * ncols);
  std::vector<std::int32_t> acc(op.out_c * ncols);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x.data() + b * in_c * h * w;
    for (std::size_t c = 0; c < in_c; ++c)
      for (std::size_t ki = 0; ki < op.k; ++ki)
        for (std::size_t kj = 0; kj < op.k; ++kj)
          for (std::size_t oy = 0; oy < oh; ++oy)
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const long iy = static_cast<long>(oy * op.stride + ki) - static_cast<long>(op.pad);
              const long ix = static_cast<long>(ox * op.stride + kj) - static_cast<long>(op.pad);
              const bool inside = iy >= 0 && iy < static_cast<long>(h) && ix >= 0 &&
                                  ix < static_cast<long>(w);
              cols[((c * op.k + ki) * op.k + kj) * ncols + oy * ow + ox] =
                  inside ? quantize(xb[(c * h + iy) * w + ix]) : static_cast<std::uint8_t>(zp);
            }
    std::fill(acc.begin(), acc.end(), 0);
    tensor::gemm_s32_naive(op.out_c, ncols, krows, op.weight.data(), krows, cols.data(), ncols,
                           acc.data(), ncols);
    for (std::size_t oc = 0; oc < op.out_c; ++oc) {
      const float sc = op.in_q.scale * op.w_scale[oc];
      for (std::size_t j = 0; j < ncols; ++j) {
        const std::size_t at = (b * op.out_c + oc) * ncols + j;
        float v = sc * static_cast<float>(acc[oc * ncols + j] - zp * op.wsum[oc]) + op.bias[oc];
        if (op.relu) v = v > 0.0f ? v : 0.0f;
        if (residual) {
          v = v + residual->data()[at];
          v = v > 0.0f ? v : 0.0f;
        }
        y.data()[at] = v;
      }
    }
  }
  return y;
}

Tensor ref_conv(const nn::QuantizedConv2d& q, const Tensor& x, const Tensor* residual = nullptr) {
  return ref_quant_op({q.in_q, q.weight, q.w_scale, q.bias, q.wsum, q.out_c, q.k, q.stride,
                       q.pad, q.fuse_relu},
                      x, residual);
}

/// QuantizedEmbed::forward rebuilt from nodes(): every quantized op through
/// ref_quant_op (the projection FC as a 1×1 conv over [B, in, 1, 1]), and
/// the float glue between them — max-pool, GAP as a float sum × 1/HW,
/// flatten — written out.
Tensor reference_int8_forward(const nn::QuantizedEmbed& q, const Tensor& images) {
  using Kind = nn::QuantizedEmbed::Node::Kind;
  Tensor x = images;
  for (const nn::QuantizedEmbed::Node& n : q.nodes()) {
    switch (n.kind) {
      case Kind::kConv:
        x = ref_conv(n.conv, x);
        break;
      case Kind::kBlock: {
        const Tensor identity = n.block.down ? ref_conv(*n.block.down, x) : x;
        Tensor h = ref_conv(n.block.conv1, x);
        if (n.block.conv3) {
          h = ref_conv(n.block.conv2, h);
          x = ref_conv(*n.block.conv3, h, &identity);
        } else {
          x = ref_conv(n.block.conv2, h, &identity);
        }
        break;
      }
      case Kind::kMaxPool: {
        const std::size_t b = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
        const std::size_t k = n.pool_k, s = n.pool_stride;
        const std::size_t oh = (h - k) / s + 1, ow = (w - k) / s + 1;
        Tensor y({b, c, oh, ow});
        for (std::size_t bc = 0; bc < b * c; ++bc)
          for (std::size_t oy = 0; oy < oh; ++oy)
            for (std::size_t ox = 0; ox < ow; ++ox) {
              float best = -std::numeric_limits<float>::infinity();
              for (std::size_t ki = 0; ki < k; ++ki)
                for (std::size_t kj = 0; kj < k; ++kj)
                  best = std::max(best, x.data()[(bc * h + oy * s + ki) * w + ox * s + kj]);
              y.data()[(bc * oh + oy) * ow + ox] = best;
            }
        x = std::move(y);
        break;
      }
      case Kind::kGap: {
        const std::size_t bc = x.size(0) * x.size(1), hw = x.size(2) * x.size(3);
        Tensor y({x.size(0), x.size(1)});
        const float inv = 1.0f / static_cast<float>(hw);
        for (std::size_t i = 0; i < bc; ++i) {
          float acc = 0.0f;
          for (std::size_t p = 0; p < hw; ++p) acc += x.data()[i * hw + p];
          y.data()[i] = acc * inv;
        }
        x = std::move(y);
        break;
      }
      case Kind::kFlatten:
        x = x.reshape({x.size(0), x.numel() / x.size(0)});
        break;
      case Kind::kLinear: {
        const auto& fc = n.conv;
        const std::size_t batch = x.size(0);
        x = ref_quant_op({fc.in_q, fc.weight, fc.w_scale, fc.bias, fc.wsum, fc.out_c, 1, 1, 0,
                          false},
                         x.reshape({batch, x.size(1), 1, 1}), nullptr);
        x = x.reshape({batch, x.size(1)});
        break;
      }
    }
  }
  return x;
}

TEST(QuantizedEmbed, ForwardEqualsAReferenceWalkBitwise) {
  // Pins the int8 embedding's bits: integer sums are exact and the
  // dequantize, ReLU and residual steps are fixed float expressions, so
  // every kernel variant at every batch and worker count must reproduce the
  // reference walk exactly. Covers the projection FC (resnet_micro_flat), no
  // projection (resnet_micro), the max-pool stem, 1×1 stride-2 downsamples
  // and GAP (resnet18), and bottleneck blocks (resnet50).
  struct Case {
    const char* arch;
    bool proj;
    std::vector<std::size_t> batches;
  };
  const Case cases[] = {{"resnet_micro_flat", true, {1, 3, 17}},
                        {"resnet_micro", false, {1, 3, 17}},
                        {"resnet18", true, {1, 3, 17}},
                        {"resnet50", true, {1}}};
  for (const Case& c : cases) {
    core::ImageEncoder enc = make_encoder(c.arch, c.proj, 81);
    util::Rng rng(82);
    const Tensor calib = Tensor::randn({4, 3, 32, 32}, rng);
    const auto table = nn::QuantizedEmbed::calibrate(enc.backbone(), enc.projection(), calib,
                                                     nn::CalibMethod::kMinMax);
    const auto q = nn::QuantizedEmbed::build(enc.backbone(), enc.projection(), table);
    for (std::size_t batch : c.batches) {
      const Tensor images = Tensor::randn({batch, 3, 32, 32}, rng);
      const Tensor want = reference_int8_forward(*q, images);
      for (const char* kernel : {"portable", "avx2", "avx512vnni"}) {
        if (!tensor::gemm_int8_force_kernel(kernel)) continue;  // CPU can't run it
        for (std::size_t workers : {1u, 4u}) {
          util::set_worker_count(workers);
          const Tensor got = q->forward(images);
          ASSERT_EQ(got.shape(), want.shape()) << c.arch;
          EXPECT_EQ(std::memcmp(got.data(), want.data(), want.numel() * sizeof(float)), 0)
              << c.arch << " batch " << batch << " kernel " << kernel << " workers " << workers;
        }
      }
    }
  }
  ASSERT_TRUE(tensor::gemm_int8_force_kernel("auto"));
  util::set_worker_count(0);
}

TEST(QuantizedEmbed, SaveLoadRoundTripForwardIsBitExact) {
  core::ImageEncoder enc = make_encoder("resnet_micro_flat", true, 31);
  util::Rng rng(32);
  const Tensor calib = Tensor::randn({24, 3, 32, 32}, rng);
  const auto table = nn::QuantizedEmbed::calibrate(enc.backbone(), enc.projection(), calib,
                                                   nn::CalibMethod::kMinMax);
  const auto q = nn::QuantizedEmbed::build(enc.backbone(), enc.projection(), table);

  std::stringstream ss;
  q->save(ss);
  const auto back = nn::QuantizedEmbed::load(ss);

  const Tensor probe = Tensor::randn({5, 3, 32, 32}, rng);
  EXPECT_EQ(tensor::max_abs_diff(q->forward(probe), back->forward(probe)), 0.0f)
      << "integer weights and qparams must travel exactly";
  const auto qi = q->info();
  const auto bi = back->info();
  EXPECT_EQ(qi.n_conv, bi.n_conv);
  EXPECT_EQ(qi.n_linear, bi.n_linear);
  EXPECT_EQ(qi.weight_bytes, bi.weight_bytes);
}

TEST(QuantizedEmbed, BuildRejectsTableFromDifferentArchitecture) {
  core::ImageEncoder small = make_encoder("resnet_micro_flat", true, 41);
  core::ImageEncoder big = make_encoder("resnet18", true, 42);
  util::Rng rng(43);
  const Tensor calib = Tensor::randn({16, 3, 32, 32}, rng);
  const auto table = nn::QuantizedEmbed::calibrate(small.backbone(), small.projection(), calib,
                                                   nn::CalibMethod::kMinMax);
  EXPECT_THROW(nn::QuantizedEmbed::build(big.backbone(), big.projection(), table),
               std::invalid_argument);
}

TEST(QuantizedEmbed, SteadyStateForwardDoesNotAllocateScratch) {
  // Same contract as the float conv path: after one warm-up forward the
  // typed scratch pools are at working size — the serving loop must not
  // allocate per request. Pinned to one worker (see test_gemm.cpp).
  util::set_worker_count(1);
  core::ImageEncoder enc = make_encoder("resnet_micro_flat", true, 51);
  util::Rng rng(52);
  const Tensor calib = Tensor::randn({16, 3, 32, 32}, rng);
  const auto table = nn::QuantizedEmbed::calibrate(enc.backbone(), enc.projection(), calib,
                                                   nn::CalibMethod::kMinMax);
  const auto q = nn::QuantizedEmbed::build(enc.backbone(), enc.projection(), table);

  const Tensor probe = Tensor::randn({4, 3, 32, 32}, rng);
  q->forward(probe);  // warm-up
  const std::size_t grown = tensor::scratch_grow_count();
  for (int i = 0; i < 5; ++i) q->forward(probe);
  EXPECT_EQ(tensor::scratch_grow_count(), grown)
      << "steady-state int8 forward must reuse thread-local scratch";
  util::set_worker_count(0);
}

TEST(QuantizedEmbed, ConcurrentForwardsThroughOneSharedArtifactAgree) {
  // The serving engine shares one const QuantizedEmbed across worker
  // threads; concurrent forwards must race nothing (TSan gates this) and
  // return exactly the serial results.
  core::ImageEncoder enc = make_encoder("resnet_micro_flat", true, 61);
  util::Rng rng(62);
  const Tensor calib = Tensor::randn({16, 3, 32, 32}, rng);
  const auto table = nn::QuantizedEmbed::calibrate(enc.backbone(), enc.projection(), calib,
                                                   nn::CalibMethod::kMinMax);
  const std::shared_ptr<const nn::QuantizedEmbed> q =
      nn::QuantizedEmbed::build(enc.backbone(), enc.projection(), table);

  std::vector<Tensor> probes;
  for (int i = 0; i < 4; ++i) probes.push_back(Tensor::randn({3, 3, 32, 32}, rng));
  std::vector<Tensor> want;
  for (const Tensor& p : probes) want.push_back(q->forward(p));

  std::vector<std::thread> threads;
  std::vector<float> diffs(4, -1.0f);
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      for (int rep = 0; rep < 3; ++rep)
        diffs[c] = std::max(diffs[c], tensor::max_abs_diff(q->forward(probes[c]), want[c]));
    });
  }
  for (auto& th : threads) th.join();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(diffs[c], 0.0f) << "thread " << c;
}

// -- serving precision contract ----------------------------------------------

TEST(ServingPrecision, NamesRoundTripAndRejectUnknown) {
  EXPECT_EQ(serve::precision_name(serve::Precision::kFloat32), "float32");
  EXPECT_EQ(serve::precision_name(serve::Precision::kInt8), "int8");
  EXPECT_EQ(serve::precision_from_name("int8"), serve::Precision::kInt8);
  EXPECT_EQ(serve::precision_from_name("fp32"), serve::Precision::kFloat32);
  EXPECT_THROW(serve::precision_from_name("int4"), std::invalid_argument);
  // The other serving-config spellings the CLIs parse reject typos alike.
  for (nn::CalibMethod m : {nn::CalibMethod::kMinMax, nn::CalibMethod::kEntropy})
    EXPECT_EQ(nn::calib_method_from_name(nn::calib_method_name(m)), m);
  EXPECT_THROW(nn::calib_method_from_name("entrpy"), std::invalid_argument);
  EXPECT_EQ(serve::scoring_mode_from_name("float"), serve::ScoringMode::kFloatCosine);
  EXPECT_EQ(serve::scoring_mode_from_name("binary"), serve::ScoringMode::kBinaryHamming);
  EXPECT_THROW(serve::scoring_mode_from_name("hamming"), std::invalid_argument);
}

TEST(ServingPrecision, Int8EngineRequiresAQuantizedSnapshotAtConstruction) {
  auto space = data::AttributeSpace::toy(6, 3, 9);
  core::ZscModelConfig mcfg;
  mcfg.image.arch = "resnet_micro_flat";
  mcfg.image.proj_dim = 64;
  util::Rng rng(71);
  std::shared_ptr<core::ZscModel> model = core::make_zsc_model(mcfg, space, rng);
  const Tensor attrs = Tensor::rand_uniform({5, space.n_attributes()}, rng);
  auto snap = std::make_shared<serve::ModelSnapshot>(model, attrs, /*binary_expansion=*/1);

  // Fail at load, not first request: a server must not come up healthy
  // and then 500 every image.
  EXPECT_THROW(serve::InferenceEngine(snap, serve::ScoringMode::kFloatCosine, 0, 0.0f,
                                      serve::Precision::kInt8),
               std::invalid_argument);

  snap->quantize(Tensor::randn({16, 3, 32, 32}, rng));
  serve::InferenceEngine engine(snap, serve::ScoringMode::kFloatCosine, 0, 0.0f,
                                serve::Precision::kInt8);
  EXPECT_EQ(engine.precision(), serve::Precision::kInt8);

  // The int8 engine serves images end to end, and its decisions track the
  // float engine's on the same inputs (identical prototypes, near-identical
  // embeddings).
  serve::InferenceEngine fengine(snap, serve::ScoringMode::kFloatCosine);
  const Tensor probe = Tensor::randn({6, 3, 32, 32}, rng);
  const auto qpred = engine.classify_batch(probe);
  const auto fpred = fengine.classify_batch(probe);
  ASSERT_EQ(qpred.size(), 6u);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < qpred.size(); ++i) agree += qpred[i].label == fpred[i].label;
  EXPECT_GE(agree, 5u) << "int8 and float top-1 decisions diverged on most probes";
}

}  // namespace
}  // namespace hdczsc
