#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>

#include "nn/batchnorm.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "util/parallel.hpp"

namespace hdczsc::nn {

namespace {

// A backward pass whose whole-batch column matrix holds fewer floats than
// this runs its per-image loops (im2col, gather, col2im) on the calling
// thread: below it a pool dispatch costs about as much as the copying it
// would share (DESIGN.md §6 "Threading model" has the measurement).
constexpr std::size_t kConvInlineColumnFloats = std::size_t{1} << 18;

/// fn(b) for every image b of a batch whose column matrix has
/// `column_floats` entries — on the pool only when that is large enough.
template <typename Fn>
void for_each_image(std::size_t batch, std::size_t column_floats, const Fn& fn) {
  if (column_floats < kConvInlineColumnFloats) {
    for (std::size_t b = 0; b < batch; ++b) fn(b);
  } else {
    util::parallel_for(0, batch, fn, 1);
  }
}

}  // namespace

void im2col(const float* input, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad, float* columns,
            std::size_t col_stride) {
  const std::size_t out_h = (height + 2 * pad - kh) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kw) / stride + 1;
  const std::size_t ncols = out_h * out_w;
  const std::size_t rstride = col_stride == 0 ? ncols : col_stride;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj, ++row) {
        float* dst = columns + row * rstride;
        // Output columns [ox_lo, ox_hi) read input column ox*stride + kj - pad
        // inside [0, width); the rest are zero padding. Bounding them once
        // per row keeps bounds checks out of the per-element loops, and the
        // unit-stride loop (every 3x3 conv but the downsampling ones)
        // vectorizes as a plain copy.
        const std::size_t first = kj >= pad ? 0 : (pad - kj + stride - 1) / stride;
        const std::size_t end = width + pad <= kj ? 0 : (width + pad - kj + stride - 1) / stride;
        const std::size_t ox_lo = std::min(out_w, first);
        const std::size_t ox_hi = std::max(ox_lo, std::min(out_w, end));
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          float* d = dst + oy * out_w;
          const long iy = static_cast<long>(oy * stride + ki) - static_cast<long>(pad);
          if (iy < 0 || iy >= static_cast<long>(height)) {
            std::memset(d, 0, out_w * sizeof(float));
            continue;
          }
          const float* src_row = input + (c * height + static_cast<std::size_t>(iy)) * width;
          for (std::size_t ox = 0; ox < ox_lo; ++ox) d[ox] = 0.0f;
          if (stride == 1) {
            for (std::size_t ox = ox_lo; ox < ox_hi; ++ox) d[ox] = src_row[ox + kj - pad];
          } else {
            for (std::size_t ox = ox_lo; ox < ox_hi; ++ox) d[ox] = src_row[ox * stride + kj - pad];
          }
          for (std::size_t ox = ox_hi; ox < out_w; ++ox) d[ox] = 0.0f;
        }
      }
    }
  }
}

void col2im(const float* columns, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad, float* input,
            std::size_t col_stride) {
  const std::size_t out_h = (height + 2 * pad - kh) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kw) / stride + 1;
  const std::size_t ncols = out_h * out_w;
  const std::size_t rstride = col_stride == 0 ? ncols : col_stride;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj, ++row) {
        const float* src = columns + row * rstride;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const long iy = static_cast<long>(oy * stride + ki) - static_cast<long>(pad);
          if (iy < 0 || iy >= static_cast<long>(height)) continue;
          float* dst_row = input + (c * height + static_cast<std::size_t>(iy)) * width;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const long ix = static_cast<long>(ox * stride + kj) - static_cast<long>(pad);
            if (ix < 0 || ix >= static_cast<long>(width)) continue;
            dst_row[static_cast<std::size_t>(ix)] += src[oy * out_w + ox];
          }
        }
      }
    }
  }
}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, util::Rng& rng, bool bias)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), stride_(stride), pad_(pad),
      has_bias_(bias) {
  Tensor w({out_c_, in_c_, k_, k_});
  kaiming_normal(w, in_c_ * k_ * k_, rng);
  w_ = Parameter(std::move(w), "conv.weight");
  b_ = Parameter(Tensor({out_c_}), "conv.bias");
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  return run(x, {});
}

Tensor Conv2d::forward_fused(const Tensor& x, const BatchNorm2d* bn, const Tensor* residual,
                             bool relu) const {
  tensor::ConvEpilogue ep;
  ep.relu = relu;
  Tensor inv_std;
  if (bn) {
    if (bn->running_mean().numel() != out_c_)
      throw std::invalid_argument("Conv2d::forward_fused: BatchNorm2d over " +
                                  std::to_string(bn->running_mean().numel()) +
                                  " channels after a conv with out_channels=" +
                                  std::to_string(out_c_));
    inv_std = bn->eval_inv_std();
    ep.bn_mean = bn->running_mean().data();
    ep.bn_inv_std = inv_std.data();
    ep.bn_gamma = bn->gamma().data();
    ep.bn_beta = bn->beta().data();
  }
  if (residual) {
    if (x.dim() != 4 || residual->shape() != Shape{x.size(0), out_c_, out_size(x.size(2)),
                                                   out_size(x.size(3))})
      throw std::invalid_argument("Conv2d::forward_fused: residual " +
                                  tensor::shape_str(residual->shape()) +
                                  " does not match the conv output for input " +
                                  tensor::shape_str(x.shape()));
    ep.residual = residual->data();
  }
  return run(x, ep);
}

Tensor Conv2d::run(const Tensor& x, tensor::ConvEpilogue ep) const {
  if (x.dim() != 4 || x.size(1) != in_c_)
    throw std::invalid_argument("Conv2d::forward: input " + tensor::shape_str(x.shape()) +
                                " incompatible with in_channels=" + std::to_string(in_c_));
  tensor::ConvShape s;
  s.batch = x.size(0);
  s.in_c = in_c_;
  s.h = x.size(2);
  s.w = x.size(3);
  s.out_c = out_c_;
  s.kernel = k_;
  s.stride = stride_;
  s.pad = pad_;
  if (has_bias_) ep.bias = b_.value.data();
  Tensor y({s.batch, out_c_, s.out_h(), s.out_w()});
  tensor::gemm_conv(s, w_.value.data(), x.data(), ep, y.data());
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_input_.empty())
    throw std::logic_error("Conv2d::backward called before forward(train=true)");
  const Tensor& x = cached_input_;
  const std::size_t batch = x.size(0), h = x.size(2), w = x.size(3);
  const std::size_t oh = out_size(h), ow = out_size(w);
  if (grad_out.dim() != 4 || grad_out.size(0) != batch || grad_out.size(1) != out_c_ ||
      grad_out.size(2) != oh || grad_out.size(3) != ow)
    throw std::invalid_argument("Conv2d::backward: grad shape " +
                                tensor::shape_str(grad_out.shape()));

  const std::size_t krows = in_c_ * k_ * k_;
  const std::size_t ncols = oh * ow;
  const std::size_t total = batch * ncols;
  Tensor dx({batch, in_c_, h, w});
  const float* W = w_.value.data();
  const float* X = x.data();
  const float* G = grad_out.data();
  float* DX = dx.data();
  float* DW = w_.grad.data();
  float* DB = b_.grad.data();

  // Rebuild the whole-batch column matrix (same layout as forward).
  float* cols = tensor::scratch_f32(tensor::kScratchConvCols, krows * total);
  for_each_image(batch, krows * total, [&](std::size_t b) {
    im2col(X + b * in_c_ * h * w, in_c_, h, w, k_, k_, stride_, pad_, cols + b * ncols, total);
  });

  // Gather NCHW output grads into channel-major gbig[out_c, batch*ncols] so
  // both parameter-grad GEMMs see one contiguous matrix.
  float* gbig = tensor::scratch_f32(tensor::kScratchConvOut, out_c_ * total);
  for_each_image(batch, krows * total, [&](std::size_t b) {
    const float* gb = G + b * out_c_ * ncols;
    for (std::size_t oc = 0; oc < out_c_; ++oc)
      std::memcpy(gbig + oc * total + b * ncols, gb + oc * ncols, ncols * sizeof(float));
  });

  // dW[out_c, krows] += gbig * cols^T — one GEMM-NT for the whole batch,
  // accumulating straight into the parameter gradient.
  tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, out_c_, krows, total, gbig, total,
                          cols, total, DW, krows);
  if (has_bias_) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* grow = gbig + oc * total;
      double acc = 0.0;
      for (std::size_t c = 0; c < total; ++c) acc += grow[c];
      DB[oc] += static_cast<float>(acc);
    }
  }

  // dcols[krows, batch*ncols] = W^T * gbig — one GEMM-TN — then fold each
  // image's column slice back to input space.
  float* dcols = tensor::scratch_f32(tensor::kScratchConvDCols, krows * total);
  std::memset(dcols, 0, krows * total * sizeof(float));
  tensor::gemm_accumulate(tensor::Trans::T, tensor::Trans::N, krows, total, out_c_, W, krows,
                          gbig, total, dcols, total);
  for_each_image(batch, krows * total, [&](std::size_t b) {
    col2im(dcols + b * ncols, in_c_, h, w, k_, k_, stride_, pad_, DX + b * in_c_ * h * w, total);
  });
  return dx;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

}  // namespace hdczsc::nn
