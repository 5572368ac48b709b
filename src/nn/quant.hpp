// Post-training INT8 quantization of the embed path (backbone + projection).
//
// Scheme (the standard PTQ recipe, e.g. TensorRT / FBGEMM):
//   * activations: per-tensor asymmetric u8 — real = s_in · (q − zp). The
//     calibration range is always widened to include 0 so zero-padding
//     quantizes exactly to zp, and the zero-point correction below stays
//     exact at image borders.
//   * weights: per-output-channel symmetric s8, BatchNorm folded into the
//     conv first (w' = W·γ/√(σ²+ε), b' = (b−μ)·γ/√(σ²+ε) + β). Codes are
//     clamped to ±63 — the range contract of tensor::gemm_s8u8_accumulate
//     that keeps the AVX2 vpmaddubsw pair sums below the s16 limit, making
//     every ISA path bit-exact.
//   * compute: every quantized op — each conv, and the projection FC as
//     the 1×1 conv over [B, in, 1, 1] that it is — runs tensor::
//     gemm_s8u8_conv (tensor/gemm_int8.hpp), which dequantizes each exact
//     s32 sum in its write-back with the zero-point correction
//     y = s_in·s_w[oc]·(acc − zp·Σw[oc]) + b'[oc], then applies the op's
//     ReLU and a residual block's +identity → ReLU. Pooling runs in plain
//     float between ops, and the next op re-quantizes with its own
//     calibrated range.
//
// Calibration harvests per-tensor input ranges by walking the float model
// over a calibration set: moving min/max (EMA) by default, or a
// KL-divergence ("entropy") threshold search over a 2048-bin |x| histogram.
//
// The quantized graph (QuantizedEmbed) is a frozen, self-contained artifact:
// it owns its folded weights and float glue, holds no pointers back into the
// float model, allocates nothing in steady state (thread-local scratch
// pools), and its const forward is safe to call concurrently from server
// workers. It serializes to the .hdcsnap v4 quantization records
// (serve/snapshot_io.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/linear.hpp"
#include "nn/resnet.hpp"
#include "nn/sequential.hpp"

namespace hdczsc::nn {

/// How activation ranges harvested during calibration are reduced to a
/// quantization range.
enum class CalibMethod : unsigned char {
  kMinMax = 0,   ///< EMA of per-batch min/max (fast, outlier-sensitive)
  kEntropy = 1,  ///< KL-divergence threshold search (TensorRT-style)
};

const char* calib_method_name(CalibMethod m);
/// Parse "minmax" / "entropy" (the CLI spellings); throws
/// std::invalid_argument on anything else.
CalibMethod calib_method_from_name(const std::string& name);

/// Per-tensor asymmetric u8 parameters: real = scale · (code − zero_point).
struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;  ///< u8 code of real 0.0, in [0, 255]
};

/// Map a harvested range to u8 params. The range is widened to include 0
/// (so padding and ReLU floors are exactly representable) and degenerate
/// ranges collapse to scale=1, zp=0.
QuantParams choose_qparams(float lo, float hi);

/// Streaming range harvester for one activation tensor. Two-phase for
/// entropy calibration: observe() every batch (min/max EMA), then
/// begin_hist() once and observe_hist() every batch, then finalize().
/// kMinMax needs only the observe() phase.
class RangeObserver {
 public:
  void observe(const float* x, std::size_t n);
  void begin_hist();
  void observe_hist(const float* x, std::size_t n);
  QuantParams finalize(CalibMethod method) const;

  float min() const { return min_; }
  float max() const { return max_; }

  static constexpr std::size_t kBins = 2048;         ///< |x| histogram bins
  static constexpr std::size_t kTargetLevels = 128;  ///< quantized levels for KL

 private:
  bool seen_ = false;
  float min_ = 0.0f, max_ = 0.0f;
  float bin_w_ = 0.0f;
  std::vector<std::uint64_t> hist_;
};

/// Calibrated activation ranges in canonical walk order: stem conv input;
/// per residual block conv1, conv2, (conv3,) (downsample,) inputs; then the
/// projection-linear input. One entry per quantized op. Persisted alongside
/// the int8 weights in v4 snapshots so the artifact records *how* it was
/// quantized.
struct CalibrationTable {
  CalibMethod method = CalibMethod::kMinMax;
  std::vector<QuantParams> activations;
};

void save_calibration(std::ostream& os, const CalibrationTable& table);
CalibrationTable load_calibration(std::istream& is);

/// One BN-folded conv with frozen int8 weights; the projection FC is the
/// default 1×1, stride-1, unpadded geometry. Forward runs the whole batch
/// through tensor::gemm_s8u8_conv: it quantizes the float input with
/// `in_q` (padding is the zero point), dequantizes in the write-back and
/// applies the fused ReLU, then with a `residual` (shaped like the output)
/// adds it and applies ReLU again. Throws std::invalid_argument for an
/// input of the wrong channel count or smaller than the kernel window.
/// Steady-state allocation-free (scratch pools) and const-thread-safe.
struct QuantizedConv2d {
  std::size_t in_c = 0, out_c = 0, k = 1, stride = 1, pad = 0;
  bool fuse_relu = false;
  QuantParams in_q;
  std::vector<std::int8_t> weight;  ///< [out_c, in_c*k*k] codes in [-63, 63]
  std::vector<float> w_scale;       ///< per-channel weight scale [out_c]
  std::vector<float> bias;          ///< BN-folded float bias [out_c]
  std::vector<std::int32_t> wsum;   ///< per-channel Σ codes (zp correction)

  Tensor forward(const Tensor& x, const Tensor* residual = nullptr) const;
};

/// Frozen int8 replica of the embed path γ(·): the backbone Sequential with
/// BN folded away plus the optional projection Linear, as a flat node list.
/// Max-pool and global average pool run in float between quantized ops.
class QuantizedEmbed {
 public:
  struct Block {
    QuantizedConv2d conv1, conv2;
    std::unique_ptr<QuantizedConv2d> conv3;  ///< Bottleneck only
    std::unique_ptr<QuantizedConv2d> down;   ///< projection shortcut, else identity
  };

  struct Node {
    enum class Kind : unsigned char {
      kConv = 0,     ///< stem conv (+BN+ReLU folded/fused)
      kBlock = 1,    ///< BasicBlock / Bottleneck
      kMaxPool = 2,  ///< float max-pool (ImageNet-style stems)
      kGap = 3,      ///< float global average pool
      kFlatten = 4,  ///< shape bookkeeping
      kLinear = 5,   ///< projection FC
    };
    Kind kind = Kind::kConv;
    QuantizedConv2d conv;  ///< kConv; kLinear: the FC as a 1×1 conv over [B, in, 1, 1]
    Block block;
    std::size_t pool_k = 0, pool_stride = 0;
  };

  /// Walk the float model over `images` [N,3,S,S] in eval mode, harvesting
  /// the input range of every quantizable op (one pass for kMinMax, two for
  /// kEntropy). `projection` may be null (no-projection encoders).
  static CalibrationTable calibrate(Sequential& backbone, Linear* projection,
                                    const Tensor& images, CalibMethod method,
                                    std::size_t batch = 32);

  /// Fold BN into each conv, quantize weights per-channel to ±63, and attach
  /// the calibrated input ranges. Throws std::invalid_argument when the
  /// table's entry count does not match the model's walk (wrong table for
  /// this architecture).
  static std::shared_ptr<QuantizedEmbed> build(Sequential& backbone, Linear* projection,
                                               const CalibrationTable& table);

  /// Embeddings [B, d] from images [B, 3, S, S] — same contract as
  /// ImageEncoder::forward(images, /*train=*/false), computed int8.
  Tensor forward(const Tensor& images) const;

  const CalibrationTable& table() const { return table_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Size summary for snapshot_tool --inspect.
  struct QuantInfo {
    CalibMethod method = CalibMethod::kMinMax;
    std::size_t n_conv = 0;    ///< quantized convs (incl. downsamples)
    std::size_t n_linear = 0;  ///< quantized FC layers
    std::size_t weight_bytes = 0;
  };
  QuantInfo info() const;

  /// Self-contained binary serialization (magic + version header; every
  /// load failure names the offending record and throws std::runtime_error).
  void save(std::ostream& os) const;
  static std::shared_ptr<QuantizedEmbed> load(std::istream& is);

 private:
  QuantizedEmbed() = default;
  std::vector<Node> nodes_;
  CalibrationTable table_;
};

}  // namespace hdczsc::nn
