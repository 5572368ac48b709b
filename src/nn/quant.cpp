#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"
#include "util/parallel.hpp"

namespace hdczsc::nn {

namespace {

using tensor::io::check_readable;
using tensor::io::read_pod;
using tensor::io::write_pod;

constexpr char kQuantMagic[4] = {'H', 'Q', 'N', 'T'};
constexpr std::uint32_t kQuantFormatVersion = 1;
/// Weight-code limit — the gemm_s8u8_accumulate range contract (±63 keeps
/// the AVX2 vpmaddubsw pair sums below the s16 saturation point).
constexpr int kWeightMax = 63;

// ---------------------------------------------------------------- float glue

Tensor maxpool_f(const Tensor& x, std::size_t k, std::size_t stride) {
  const std::size_t b = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const std::size_t oh = (h - k) / stride + 1, ow = (w - k) / stride + 1;
  Tensor y({b, c, oh, ow});
  const float* X = x.data();
  float* Y = y.data();
  util::parallel_for(0, b * c, [&](std::size_t bc) {
    const float* in = X + bc * h * w;
    float* out = Y + bc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::size_t ki = 0; ki < k; ++ki)
          for (std::size_t kj = 0; kj < k; ++kj)
            best = std::max(best, in[(oy * stride + ki) * w + ox * stride + kj]);
        out[oy * ow + ox] = best;
      }
  }, 1);
  return y;
}

Tensor gap_f(const Tensor& x) {
  const std::size_t b = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  Tensor y({b, c});
  const float* X = x.data();
  float* Y = y.data();
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t bc = 0; bc < b * c; ++bc) {
    const float* in = X + bc * hw;
    float acc = 0.0f;
    for (std::size_t i = 0; i < hw; ++i) acc += in[i];
    Y[bc] = acc * inv;
  }
  return y;
}

// ----------------------------------------------------- backbone graph walk

/// Flat description of the backbone Sequential in quantization walk order.
/// Both calibrate() and build() traverse this same list, so the observer /
/// table indices cannot drift between the two.
struct WalkItem {
  enum Kind { kStemConv, kMaxPool, kGap, kFlatten, kBasic, kBottleneck } kind;
  Layer* layer = nullptr;  ///< the Sequential entry itself
  ConvRun stem;            ///< kStemConv
  // kMaxPool
  MaxPool2d* pool = nullptr;
  // blocks
  BasicBlock* basic = nullptr;
  Bottleneck* bottleneck = nullptr;
};

std::vector<WalkItem> parse_backbone(Sequential& seq) {
  std::vector<WalkItem> items;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    Layer& l = seq[i];
    const std::string n = l.name();
    WalkItem it;
    it.layer = &l;
    it.stem = seq.conv_run(i);
    if (it.stem.conv) {
      it.kind = WalkItem::kStemConv;
      i = it.stem.end - 1;
    } else if (n == "MaxPool2d") {
      it.kind = WalkItem::kMaxPool;
      it.pool = dynamic_cast<MaxPool2d*>(&l);
    } else if (n == "BasicBlock") {
      it.kind = WalkItem::kBasic;
      it.basic = dynamic_cast<BasicBlock*>(&l);
    } else if (n == "Bottleneck") {
      it.kind = WalkItem::kBottleneck;
      it.bottleneck = dynamic_cast<Bottleneck*>(&l);
    } else if (n == "GlobalAvgPool") {
      it.kind = WalkItem::kGap;
    } else if (n == "Flatten") {
      it.kind = WalkItem::kFlatten;
    } else {
      throw std::invalid_argument("quantize: unsupported backbone layer '" + n + "'");
    }
    items.push_back(it);
  }
  return items;
}

std::size_t quantized_op_count(const std::vector<WalkItem>& items, bool has_projection) {
  std::size_t n = 0;
  for (const WalkItem& it : items) {
    switch (it.kind) {
      case WalkItem::kStemConv: n += 1; break;
      case WalkItem::kBasic: n += 2 + (it.basic->down_conv() ? 1 : 0); break;
      case WalkItem::kBottleneck: n += 3 + (it.bottleneck->down_conv() ? 1 : 0); break;
      default: break;
    }
  }
  return n + (has_projection ? 1 : 0);
}

/// One calibration forward pass in eval mode, feeding each quantizable op's
/// input to its observer (min/max pass or histogram pass).
void calib_forward(const std::vector<WalkItem>& items, Linear* projection, const Tensor& input,
                   std::vector<RangeObserver>& obs, bool hist) {
  std::size_t idx = 0;
  auto see = [&](const Tensor& t) {
    if (hist)
      obs[idx++].observe_hist(t.data(), t.numel());
    else
      obs[idx++].observe(t.data(), t.numel());
  };
  Tensor x = input;
  for (const WalkItem& it : items) {
    switch (it.kind) {
      case WalkItem::kStemConv:
        see(x);
        x = it.stem.conv->forward_fused(x, it.stem.bn, nullptr, it.stem.relu);
        break;
      case WalkItem::kBasic: {
        BasicBlock* b = it.basic;
        see(x);
        const Tensor h = b->conv1().forward_fused(x, &b->bn1(), nullptr, true);
        see(h);
        Tensor identity = x;
        if (b->down_conv()) {
          see(x);
          identity = b->down_conv()->forward_fused(x, b->down_bn(), nullptr, false);
        }
        x = b->conv2().forward_fused(h, &b->bn2(), &identity, true);
        break;
      }
      case WalkItem::kBottleneck: {
        Bottleneck* b = it.bottleneck;
        see(x);
        Tensor h = b->conv1().forward_fused(x, &b->bn1(), nullptr, true);
        see(h);
        h = b->conv2().forward_fused(h, &b->bn2(), nullptr, true);
        see(h);
        Tensor identity = x;
        if (b->down_conv()) {
          see(x);
          identity = b->down_conv()->forward_fused(x, b->down_bn(), nullptr, false);
        }
        x = b->conv3().forward_fused(h, &b->bn3(), &identity, true);
        break;
      }
      case WalkItem::kMaxPool:
      case WalkItem::kGap:
      case WalkItem::kFlatten:
        x = it.layer->forward(x, false);
        break;
    }
  }
  if (projection) {
    see(x);
    x = projection->forward(x, false);
  }
}

// -------------------------------------------------------------- BN folding

/// Quantize q.out_c rows of krows float weights W, row oc first scaled by
/// a[oc], per row to ±kWeightMax symmetric codes; fills q.weight, q.w_scale
/// and q.wsum.
void quantize_weights(QuantizedConv2d& q, const float* W, std::size_t krows,
                      const std::vector<float>& a) {
  q.weight.resize(q.out_c * krows);
  q.w_scale.resize(q.out_c);
  q.wsum.resize(q.out_c);
  std::vector<float> wf(krows);
  for (std::size_t oc = 0; oc < q.out_c; ++oc) {
    const float* wrow = W + oc * krows;
    float max_abs = 0.0f;
    for (std::size_t r = 0; r < krows; ++r) {
      wf[r] = wrow[r] * a[oc];
      max_abs = std::max(max_abs, std::fabs(wf[r]));
    }
    const float s = max_abs > 0.0f ? max_abs / static_cast<float>(kWeightMax) : 1.0f;
    q.w_scale[oc] = s;
    const float inv_s = 1.0f / s;
    std::int32_t sum = 0;
    for (std::size_t r = 0; r < krows; ++r) {
      const float v = wf[r] * inv_s;
      int code = static_cast<int>(v >= 0.0f ? v + 0.5f : v - 0.5f);
      code = std::clamp(code, -kWeightMax, kWeightMax);
      q.weight[oc * krows + r] = static_cast<std::int8_t>(code);
      sum += code;
    }
    q.wsum[oc] = sum;
  }
}

/// Fold the (optional) trailing BatchNorm into the conv and quantize the
/// result per-output-channel to ±kWeightMax symmetric codes.
QuantizedConv2d fold_conv(Conv2d& conv, BatchNorm2d* bn, bool fuse_relu,
                          const QuantParams& in_q) {
  QuantizedConv2d q;
  q.in_c = conv.in_channels();
  q.out_c = conv.out_channels();
  q.k = conv.kernel();
  q.stride = conv.stride();
  q.pad = conv.padding();
  q.fuse_relu = fuse_relu;
  q.in_q = in_q;
  q.bias.resize(q.out_c);
  std::vector<float> a(q.out_c, 1.0f);
  const float* cb = conv.has_bias() ? conv.bias().value.data() : nullptr;
  for (std::size_t oc = 0; oc < q.out_c; ++oc) {
    float shift = 0.0f;
    if (bn) {
      const float inv_std = 1.0f / std::sqrt(bn->running_var()[oc] + bn->eps());
      a[oc] = bn->gamma()[oc] * inv_std;
      shift = bn->beta()[oc] - bn->running_mean()[oc] * a[oc];
    }
    q.bias[oc] = (cb ? cb[oc] : 0.0f) * a[oc] + shift;
  }
  quantize_weights(q, conv.weight().value.data(), q.in_c * q.k * q.k, a);
  return q;
}

/// The projection FC as the 1×1 conv over [B, in, 1, 1] that it is.
QuantizedConv2d fold_linear(Linear& fc, const QuantParams& in_q) {
  QuantizedConv2d q;
  q.in_c = fc.in_features();
  q.out_c = fc.out_features();
  q.in_q = in_q;
  const float* b = fc.has_bias() ? fc.bias().value.data() : nullptr;
  q.bias = b ? std::vector<float>(b, b + q.out_c) : std::vector<float>(q.out_c, 0.0f);
  quantize_weights(q, fc.weight().value.data(), q.in_c, std::vector<float>(q.out_c, 1.0f));
  return q;
}

// ------------------------------------------------------------ serialization

void write_qparams(std::ostream& os, const QuantParams& p) {
  write_pod<float>(os, p.scale);
  write_pod<std::int32_t>(os, p.zero_point);
}

QuantParams read_qparams(std::istream& is, const char* what) {
  QuantParams p;
  p.scale = read_pod<float>(is, what);
  p.zero_point = read_pod<std::int32_t>(is, what);
  if (!(p.scale > 0.0f) || !std::isfinite(p.scale) || p.zero_point < 0 || p.zero_point > 255)
    throw std::runtime_error(std::string("quant: corrupt record '") + what + "': scale " +
                             std::to_string(p.scale) + ", zero_point " +
                             std::to_string(p.zero_point));
  return p;
}

void write_f32_vec(std::ostream& os, const std::vector<float>& v) {
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void read_f32_vec(std::istream& is, std::vector<float>& v, std::size_t n, const char* what) {
  check_readable(is, n, sizeof(float), what);
  v.resize(n);
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(float)));
  if (!is) throw std::runtime_error(std::string("quant: truncated reading ") + what);
}

/// The record tail a conv and a linear record share: input qparams, the
/// [out_c, krows] s8 codes, the weight scales and the bias.
void write_weights(std::ostream& os, const QuantizedConv2d& q) {
  write_qparams(os, q.in_q);
  os.write(reinterpret_cast<const char*>(q.weight.data()),
           static_cast<std::streamsize>(q.weight.size()));
  write_f32_vec(os, q.w_scale);
  write_f32_vec(os, q.bias);
}

/// Read write_weights' tail for q's geometry, naming `kind` ("conv" or
/// "linear") in every error. Recomputes the zero-point correction sums and
/// re-asserts the ±63 range contract — a corrupt weight byte must not
/// silently break the GEMM's exactness guarantee.
void read_weights(std::istream& is, QuantizedConv2d& q, const std::string& kind) {
  q.in_q = read_qparams(is, (kind + " input qparams").c_str());
  const std::size_t krows = q.in_c * q.k * q.k;
  const std::string what = kind + " int8 weights";
  check_readable(is, q.out_c * krows, 1, what.c_str());
  q.weight.resize(q.out_c * krows);
  is.read(reinterpret_cast<char*>(q.weight.data()),
          static_cast<std::streamsize>(q.weight.size()));
  if (!is) throw std::runtime_error("quant: truncated reading " + what);
  read_f32_vec(is, q.w_scale, q.out_c, (kind + " weight scales").c_str());
  read_f32_vec(is, q.bias, q.out_c, (kind + " bias").c_str());
  q.wsum.assign(q.out_c, 0);
  for (std::size_t oc = 0; oc < q.out_c; ++oc) {
    std::int32_t sum = 0;
    for (std::size_t r = 0; r < krows; ++r) {
      const int code = q.weight[oc * krows + r];
      if (code < -kWeightMax || code > kWeightMax)
        throw std::runtime_error("quant: corrupt record '" + what + "': code " +
                                 std::to_string(code) + " outside [-63, 63]");
      sum += code;
    }
    q.wsum[oc] = sum;
  }
}

void write_conv(std::ostream& os, const QuantizedConv2d& q) {
  write_pod<std::uint64_t>(os, q.in_c);
  write_pod<std::uint64_t>(os, q.out_c);
  write_pod<std::uint64_t>(os, q.k);
  write_pod<std::uint64_t>(os, q.stride);
  write_pod<std::uint64_t>(os, q.pad);
  write_pod<std::uint8_t>(os, q.fuse_relu ? 1 : 0);
  write_weights(os, q);
}

QuantizedConv2d read_conv(std::istream& is) {
  QuantizedConv2d q;
  q.in_c = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "conv in_c"));
  q.out_c = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "conv out_c"));
  q.k = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "conv kernel"));
  q.stride = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "conv stride"));
  q.pad = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "conv pad"));
  // Every conv the builder folds has pad <= k/2.
  if (q.out_c == 0 || q.in_c == 0 || q.k == 0 || q.stride == 0 || q.out_c > (1u << 20) ||
      q.in_c > (1u << 20) || q.k > 64 || q.pad >= q.k)
    throw std::runtime_error("quant: corrupt record 'conv geometry'");
  q.fuse_relu = read_pod<std::uint8_t>(is, "conv fuse_relu") != 0;
  read_weights(is, q, "conv");
  return q;
}

/// The linear record: in and out features, then the shared tail.
void write_linear(std::ostream& os, const QuantizedConv2d& q) {
  write_pod<std::uint64_t>(os, q.in_c);
  write_pod<std::uint64_t>(os, q.out_c);
  write_weights(os, q);
}

QuantizedConv2d read_linear(std::istream& is) {
  QuantizedConv2d q;
  q.in_c = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "linear in_features"));
  q.out_c = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "linear out_features"));
  if (q.in_c == 0 || q.out_c == 0 || q.in_c > (1u << 24) || q.out_c > (1u << 24))
    throw std::runtime_error("quant: corrupt record 'linear geometry'");
  read_weights(is, q, "linear");
  return q;
}

}  // namespace

// ---------------------------------------------------------------- qparams

const char* calib_method_name(CalibMethod m) {
  switch (m) {
    case CalibMethod::kMinMax: return "minmax";
    case CalibMethod::kEntropy: return "entropy";
  }
  return "?";
}

CalibMethod calib_method_from_name(const std::string& name) {
  if (name == "minmax") return CalibMethod::kMinMax;
  if (name == "entropy") return CalibMethod::kEntropy;
  throw std::invalid_argument("unknown calibration method '" + name +
                              "' (expected minmax or entropy)");
}

QuantParams choose_qparams(float lo, float hi) {
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  QuantParams p;
  const float range = hi - lo;
  if (!(range > 0.0f) || !std::isfinite(range)) return p;  // degenerate: scale 1, zp 0
  p.scale = range / 255.0f;
  const float zpf = -lo / p.scale;
  p.zero_point = std::clamp(static_cast<std::int32_t>(zpf + 0.5f), 0, 255);
  return p;
}

void RangeObserver::observe(const float* x, std::size_t n) {
  if (n == 0) return;
  float lo = x[0], hi = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  // Moving-average min/max (PyTorch MovingAverageMinMaxObserver, α = 0.3):
  // smooths per-batch outliers without a full histogram.
  constexpr float kAlpha = 0.3f;
  if (!seen_) {
    min_ = lo;
    max_ = hi;
    seen_ = true;
  } else {
    min_ = (1.0f - kAlpha) * min_ + kAlpha * lo;
    max_ = (1.0f - kAlpha) * max_ + kAlpha * hi;
  }
}

void RangeObserver::begin_hist() {
  const float max_abs = std::max(std::fabs(min_), std::fabs(max_));
  bin_w_ = max_abs > 0.0f ? max_abs / static_cast<float>(kBins) : 1e-12f;
  hist_.assign(kBins, 0);
}

void RangeObserver::observe_hist(const float* x, std::size_t n) {
  if (hist_.empty()) throw std::logic_error("RangeObserver: observe_hist before begin_hist");
  const float inv_w = 1.0f / bin_w_;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    // Exact zeros (ReLU floors, padding) quantize exactly at any threshold;
    // keeping their mass in the histogram only skews the KL search toward
    // over-tight clips, so the reference implementations drop them too.
    if (a == 0.0f) continue;
    std::size_t idx = static_cast<std::size_t>(a * inv_w);
    if (idx >= kBins) idx = kBins - 1;
    ++hist_[idx];
  }
}

QuantParams RangeObserver::finalize(CalibMethod method) const {
  if (method == CalibMethod::kMinMax || hist_.empty()) return choose_qparams(min_, max_);

  // TensorRT-style KL threshold search: find the clip threshold T whose
  // clipped-and-requantized distribution (kTargetLevels levels) diverges
  // least from the full-precision reference.
  std::uint64_t total = 0;
  for (std::uint64_t h : hist_) total += h;
  if (total == 0) return choose_qparams(min_, max_);

  double best_kl = std::numeric_limits<double>::infinity();
  std::size_t best_t = kBins;
  std::vector<double> P, Q;
  for (std::size_t t = kTargetLevels; t <= kBins; t += 8) {
    // Reference: bins [0, t) with everything beyond t clamped into bin t-1.
    P.assign(hist_.begin(), hist_.begin() + static_cast<std::ptrdiff_t>(t));
    double outliers = 0.0;
    for (std::size_t i = t; i < kBins; ++i) outliers += static_cast<double>(hist_[i]);
    P[t - 1] += outliers;
    // Candidate: the t bins collapsed into kTargetLevels groups, each group's
    // mass spread uniformly back over its originally-nonempty bins.
    Q.assign(t, 0.0);
    const double group = static_cast<double>(t) / static_cast<double>(kTargetLevels);
    for (std::size_t g = 0; g < kTargetLevels; ++g) {
      const std::size_t start = static_cast<std::size_t>(static_cast<double>(g) * group);
      std::size_t end = static_cast<std::size_t>(static_cast<double>(g + 1) * group);
      if (g + 1 == kTargetLevels) end = t;
      double mass = 0.0;
      std::size_t nonzero = 0;
      for (std::size_t i = start; i < end; ++i) {
        mass += static_cast<double>(hist_[i]);
        if (hist_[i] != 0) ++nonzero;
      }
      if (nonzero == 0) continue;
      const double val = mass / static_cast<double>(nonzero);
      for (std::size_t i = start; i < end; ++i)
        if (hist_[i] != 0) Q[i] = val;
    }
    double psum = 0.0, qsum = 0.0;
    for (std::size_t i = 0; i < t; ++i) {
      psum += P[i];
      qsum += Q[i];
    }
    if (psum <= 0.0 || qsum <= 0.0) continue;
    double kl = 0.0;
    for (std::size_t i = 0; i < t; ++i) {
      if (P[i] <= 0.0) continue;
      const double p = P[i] / psum;
      const double q = std::max(Q[i] / qsum, 1e-12);
      kl += p * std::log(p / q);
    }
    if (kl < best_kl) {
      best_kl = kl;
      best_t = t;
    }
  }
  const float threshold = (static_cast<float>(best_t) + 0.5f) * bin_w_;
  return choose_qparams(std::max(min_, -threshold), std::min(max_, threshold));
}

void save_calibration(std::ostream& os, const CalibrationTable& table) {
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(table.method));
  write_pod<std::uint64_t>(os, table.activations.size());
  for (const QuantParams& p : table.activations) write_qparams(os, p);
}

CalibrationTable load_calibration(std::istream& is) {
  CalibrationTable t;
  const auto m = read_pod<std::uint8_t>(is, "calibration method");
  if (m > static_cast<std::uint8_t>(CalibMethod::kEntropy))
    throw std::runtime_error("quant: corrupt record 'calibration method': " + std::to_string(m));
  t.method = static_cast<CalibMethod>(m);
  const auto n = read_pod<std::uint64_t>(is, "calibration entry count");
  check_readable(is, n, sizeof(float) + sizeof(std::int32_t), "calibration entries");
  t.activations.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i)
    t.activations.push_back(read_qparams(is, "calibration entry"));
  return t;
}

// ------------------------------------------------------------- quantized ops

Tensor QuantizedConv2d::forward(const Tensor& x, const Tensor* residual) const {
  if (x.dim() != 4 || x.size(1) != in_c)
    throw std::invalid_argument("QuantizedConv2d::forward: input " +
                                tensor::shape_str(x.shape()) +
                                " incompatible with in_channels=" + std::to_string(in_c));
  const tensor::ConvShape s{x.size(0), in_c, x.size(2), x.size(3), out_c, k, stride, pad};
  if (s.h + 2 * pad < k || s.w + 2 * pad < k)
    throw std::invalid_argument("QuantizedConv2d::forward: input " +
                                tensor::shape_str(x.shape()) + " smaller than the " +
                                std::to_string(k) + "x" + std::to_string(k) + " window");
  Tensor y({s.batch, out_c, s.out_h(), s.out_w()});
  if (residual && residual->shape() != y.shape())
    throw std::logic_error("quant: residual shape mismatch");
  const tensor::QuantConvEpilogue ep{in_q.scale,  in_q.zero_point, w_scale.data(), wsum.data(),
                                     bias.data(), fuse_relu,       residual ? residual->data()
                                                                            : nullptr};
  tensor::gemm_s8u8_conv(s, weight.data(), x.data(), ep, y.data());
  return y;
}

// ------------------------------------------------------------ QuantizedEmbed

CalibrationTable QuantizedEmbed::calibrate(Sequential& backbone, Linear* projection,
                                           const Tensor& images, CalibMethod method,
                                           std::size_t batch) {
  if (images.dim() != 4)
    throw std::invalid_argument("QuantizedEmbed::calibrate: images must be [N,3,S,S], got " +
                                tensor::shape_str(images.shape()));
  const std::size_t n = images.size(0);
  if (n == 0) throw std::invalid_argument("QuantizedEmbed::calibrate: empty calibration set");
  if (batch == 0) batch = 32;
  const auto items = parse_backbone(backbone);
  std::vector<RangeObserver> obs(quantized_op_count(items, projection != nullptr));

  const std::size_t per_img = images.size(1) * images.size(2) * images.size(3);
  auto run_pass = [&](bool hist) {
    for (std::size_t b0 = 0; b0 < n; b0 += batch) {
      const std::size_t bs = std::min(batch, n - b0);
      Tensor xb({bs, images.size(1), images.size(2), images.size(3)});
      std::memcpy(xb.data(), images.data() + b0 * per_img, bs * per_img * sizeof(float));
      calib_forward(items, projection, xb, obs, hist);
    }
  };
  run_pass(false);
  if (method == CalibMethod::kEntropy) {
    for (auto& o : obs) o.begin_hist();
    run_pass(true);
  }

  CalibrationTable table;
  table.method = method;
  table.activations.reserve(obs.size());
  for (const auto& o : obs) table.activations.push_back(o.finalize(method));
  return table;
}

std::shared_ptr<QuantizedEmbed> QuantizedEmbed::build(Sequential& backbone, Linear* projection,
                                                      const CalibrationTable& table) {
  const auto items = parse_backbone(backbone);
  const std::size_t want = quantized_op_count(items, projection != nullptr);
  if (table.activations.size() != want)
    throw std::invalid_argument("QuantizedEmbed::build: calibration table has " +
                                std::to_string(table.activations.size()) + " entries but this " +
                                "model walk needs " + std::to_string(want) +
                                " (table from a different architecture?)");
  std::size_t idx = 0;
  auto next_q = [&]() -> const QuantParams& { return table.activations[idx++]; };

  auto embed = std::shared_ptr<QuantizedEmbed>(new QuantizedEmbed());
  embed->table_ = table;
  for (const WalkItem& it : items) {
    Node node;
    switch (it.kind) {
      case WalkItem::kStemConv:
        node.kind = Node::Kind::kConv;
        node.conv = fold_conv(*it.stem.conv, it.stem.bn, it.stem.relu, next_q());
        break;
      case WalkItem::kBasic: {
        BasicBlock* b = it.basic;
        node.kind = Node::Kind::kBlock;
        node.block.conv1 = fold_conv(b->conv1(), &b->bn1(), /*fuse_relu=*/true, next_q());
        node.block.conv2 = fold_conv(b->conv2(), &b->bn2(), /*fuse_relu=*/false, next_q());
        if (b->down_conv())
          node.block.down = std::make_unique<QuantizedConv2d>(
              fold_conv(*b->down_conv(), b->down_bn(), /*fuse_relu=*/false, next_q()));
        break;
      }
      case WalkItem::kBottleneck: {
        Bottleneck* b = it.bottleneck;
        node.kind = Node::Kind::kBlock;
        node.block.conv1 = fold_conv(b->conv1(), &b->bn1(), /*fuse_relu=*/true, next_q());
        node.block.conv2 = fold_conv(b->conv2(), &b->bn2(), /*fuse_relu=*/true, next_q());
        node.block.conv3 = std::make_unique<QuantizedConv2d>(
            fold_conv(b->conv3(), &b->bn3(), /*fuse_relu=*/false, next_q()));
        if (b->down_conv())
          node.block.down = std::make_unique<QuantizedConv2d>(
              fold_conv(*b->down_conv(), b->down_bn(), /*fuse_relu=*/false, next_q()));
        break;
      }
      case WalkItem::kMaxPool:
        node.kind = Node::Kind::kMaxPool;
        node.pool_k = it.pool->kernel();
        node.pool_stride = it.pool->stride();
        break;
      case WalkItem::kGap:
        node.kind = Node::Kind::kGap;
        break;
      case WalkItem::kFlatten:
        node.kind = Node::Kind::kFlatten;
        break;
    }
    embed->nodes_.push_back(std::move(node));
  }
  if (projection) {
    Node node;
    node.kind = Node::Kind::kLinear;
    node.conv = fold_linear(*projection, next_q());
    embed->nodes_.push_back(std::move(node));
  }
  return embed;
}

Tensor QuantizedEmbed::forward(const Tensor& images) const {
  Tensor x = images;
  for (const Node& n : nodes_) {
    switch (n.kind) {
      case Node::Kind::kConv:
        x = n.conv.forward(x);
        break;
      case Node::Kind::kBlock: {
        // The last conv adds the identity and applies the block's ReLU.
        const Tensor identity = n.block.down ? n.block.down->forward(x) : x;
        Tensor h = n.block.conv1.forward(x);
        if (n.block.conv3) {
          h = n.block.conv2.forward(h);
          x = n.block.conv3->forward(h, &identity);
        } else {
          x = n.block.conv2.forward(h, &identity);
        }
        break;
      }
      case Node::Kind::kMaxPool:
        x = maxpool_f(x, n.pool_k, n.pool_stride);
        break;
      case Node::Kind::kGap:
        x = gap_f(x);
        break;
      case Node::Kind::kFlatten:
        x = x.reshape({x.size(0), x.numel() / x.size(0)});
        break;
      case Node::Kind::kLinear: {
        const std::size_t batch = x.size(0);
        x = n.conv.forward(x.reshape({batch, x.size(1), 1, 1})).reshape({batch, n.conv.out_c});
        break;
      }
    }
  }
  return x;
}

QuantizedEmbed::QuantInfo QuantizedEmbed::info() const {
  QuantInfo qi;
  qi.method = table_.method;
  auto count_conv = [&](const QuantizedConv2d& c) {
    ++qi.n_conv;
    qi.weight_bytes += c.weight.size();
  };
  for (const Node& n : nodes_) {
    switch (n.kind) {
      case Node::Kind::kConv:
        count_conv(n.conv);
        break;
      case Node::Kind::kBlock:
        count_conv(n.block.conv1);
        count_conv(n.block.conv2);
        if (n.block.conv3) count_conv(*n.block.conv3);
        if (n.block.down) count_conv(*n.block.down);
        break;
      case Node::Kind::kLinear:
        ++qi.n_linear;
        qi.weight_bytes += n.conv.weight.size();
        break;
      default:
        break;
    }
  }
  return qi;
}

void QuantizedEmbed::save(std::ostream& os) const {
  os.write(kQuantMagic, 4);
  write_pod<std::uint32_t>(os, kQuantFormatVersion);
  save_calibration(os, table_);
  write_pod<std::uint64_t>(os, nodes_.size());
  for (const Node& n : nodes_) {
    write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(n.kind));
    switch (n.kind) {
      case Node::Kind::kConv:
        write_conv(os, n.conv);
        break;
      case Node::Kind::kBlock:
        write_pod<std::uint8_t>(os, n.block.conv3 ? 1 : 0);
        write_pod<std::uint8_t>(os, n.block.down ? 1 : 0);
        write_conv(os, n.block.conv1);
        write_conv(os, n.block.conv2);
        if (n.block.conv3) write_conv(os, *n.block.conv3);
        if (n.block.down) write_conv(os, *n.block.down);
        break;
      case Node::Kind::kMaxPool:
        write_pod<std::uint64_t>(os, n.pool_k);
        write_pod<std::uint64_t>(os, n.pool_stride);
        break;
      case Node::Kind::kGap:
      case Node::Kind::kFlatten:
        break;
      case Node::Kind::kLinear:
        write_linear(os, n.conv);
        break;
    }
  }
}

std::shared_ptr<QuantizedEmbed> QuantizedEmbed::load(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != std::string(kQuantMagic, 4))
    throw std::runtime_error("quant: bad magic (not a quantized-embed record)");
  const auto version = read_pod<std::uint32_t>(is, "quant format version");
  if (version == 0 || version > kQuantFormatVersion)
    throw std::runtime_error("quant: unsupported quant record version " +
                             std::to_string(version));
  auto embed = std::shared_ptr<QuantizedEmbed>(new QuantizedEmbed());
  embed->table_ = load_calibration(is);
  const auto n_nodes = read_pod<std::uint64_t>(is, "quant node count");
  if (n_nodes > 4096) throw std::runtime_error("quant: corrupt record 'quant node count'");
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    const auto kind = read_pod<std::uint8_t>(is, "quant node kind");
    Node node;
    switch (static_cast<Node::Kind>(kind)) {
      case Node::Kind::kConv:
        node.kind = Node::Kind::kConv;
        node.conv = read_conv(is);
        break;
      case Node::Kind::kBlock: {
        node.kind = Node::Kind::kBlock;
        const bool has3 = read_pod<std::uint8_t>(is, "block conv3 flag") != 0;
        const bool hasdown = read_pod<std::uint8_t>(is, "block downsample flag") != 0;
        node.block.conv1 = read_conv(is);
        node.block.conv2 = read_conv(is);
        if (has3) node.block.conv3 = std::make_unique<QuantizedConv2d>(read_conv(is));
        if (hasdown) node.block.down = std::make_unique<QuantizedConv2d>(read_conv(is));
        break;
      }
      case Node::Kind::kMaxPool:
        node.kind = Node::Kind::kMaxPool;
        node.pool_k = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "pool kernel"));
        node.pool_stride = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "pool stride"));
        if (node.pool_k == 0 || node.pool_stride == 0)
          throw std::runtime_error("quant: corrupt record 'pool geometry'");
        break;
      case Node::Kind::kGap:
        node.kind = Node::Kind::kGap;
        break;
      case Node::Kind::kFlatten:
        node.kind = Node::Kind::kFlatten;
        break;
      case Node::Kind::kLinear:
        node.kind = Node::Kind::kLinear;
        node.conv = read_linear(is);
        break;
      default:
        throw std::runtime_error("quant: corrupt record 'quant node kind': " +
                                 std::to_string(kind));
    }
    embed->nodes_.push_back(std::move(node));
  }
  return embed;
}

}  // namespace hdczsc::nn
