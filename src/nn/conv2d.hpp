// 2-D convolution as one whole-batch GEMM per direction.
// Input layout is NCHW; weight layout is [out_c, in_c, kh, kw].
//
// forward runs tensor::gemm_conv: one blocked GEMM of the flattened weights
// against the batch's im2col matrix [in_c*kh*kw, B*oh*ow], which is never
// built — the GEMM packs its B panels straight from a zero-padded copy of
// the input and writes NCHW output directly. In eval, forward_fused also
// applies the BatchNorm2d, residual add and ReLU that follow the conv in
// that write-back, bitwise equal to running those layers one by one.
// backward materializes the column matrix for dW (one GEMM against the
// gathered output grads) and dx (one transposed GEMM + per-image col2im).
// All workspaces live in thread-local tensor::scratch slots, so
// steady-state passes perform no workspace allocation (asserted via
// scratch_grow_count in tests; the output/grad Tensors themselves are still
// allocated per call) and concurrent eval-mode forwards on a shared layer
// stay race-free.
#pragma once

#include "nn/layer.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace hdczsc::nn {

class BatchNorm2d;

/// Unfold input [C, H, W] into columns [C*kh*kw, out_h*out_w]. When
/// `col_stride` is nonzero the destination rows are spaced `col_stride`
/// floats apart (used to write one image's slice of a whole-batch column
/// matrix); 0 means tightly packed (out_h*out_w).
void im2col(const float* input, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad, float* columns,
            std::size_t col_stride = 0);

/// Fold columns back into an input-shaped gradient (accumulates).
/// `col_stride` mirrors im2col: spacing between source rows (0 = tight).
void col2im(const float* columns, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad, float* input,
            std::size_t col_stride = 0);

class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng, bool bias = false);

  Tensor forward(const Tensor& x, bool train) override;
  /// Eval forward fused with the layers that follow it: `bn` (eval, may be
  /// null), then `+ *residual` (NCHW like the output, may be null), then
  /// ReLU when `relu`. Bitwise equal to forward(x, false) followed by
  /// BatchNorm2d::forward(…, false), Tensor::add_scaled(…, 1) and
  /// ReLU::forward, without their intermediate tensors. Const, so
  /// concurrent calls on a shared layer are safe.
  Tensor forward_fused(const Tensor& x, const BatchNorm2d* bn, const Tensor* residual,
                       bool relu) const;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Conv2d"; }

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return k_; }
  std::size_t stride() const { return stride_; }
  std::size_t padding() const { return pad_; }
  bool has_bias() const { return has_bias_; }
  /// Direct parameter handles (the post-training quantizer folds BN scale
  /// into the weights and needs the raw values; see nn/quant.hpp).
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

  /// Output spatial size for a given input size.
  std::size_t out_size(std::size_t in) const { return (in + 2 * pad_ - k_) / stride_ + 1; }

 private:
  /// gemm_conv of x with this layer's weights; adds the bias to `ep`.
  Tensor run(const Tensor& x, tensor::ConvEpilogue ep) const;

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  bool has_bias_;
  Parameter w_, b_;
  Tensor cached_input_;
};

}  // namespace hdczsc::nn
