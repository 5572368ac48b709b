#include "nn/batchnorm.hpp"

#include <cmath>

namespace hdczsc::nn {

namespace {

Tensor inv_std_of(const Tensor& var, float eps) {
  Tensor inv_std({var.numel()});
  for (std::size_t ch = 0; ch < var.numel(); ++ch) inv_std[ch] = 1.0f / std::sqrt(var[ch] + eps);
  return inv_std;
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps),
      gamma_(Tensor({channels}, 1.0f), "bn.gamma"),
      beta_(Tensor({channels}), "bn.beta"),
      running_mean_({channels}),
      running_var_(Shape{channels}, 1.0f) {}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  if (x.dim() != 4 || x.size(1) != channels_)
    throw std::invalid_argument("BatchNorm2d::forward: input " + tensor::shape_str(x.shape()) +
                                " incompatible with channels=" + std::to_string(channels_));
  const std::size_t batch = x.size(0), c = channels_, h = x.size(2), w = x.size(3);
  const std::size_t spatial = h * w;
  const std::size_t n = batch * spatial;  // samples per channel

  Tensor out(x.shape());
  const float* X = x.data();
  float* O = out.data();

  // Eval normalizes with the running statistics in place; train computes
  // the batch statistics, folds them into the running ones and caches x̂.
  Tensor mean = running_mean_, var = running_var_;
  if (train) {
    mean = Tensor({c});
    var = Tensor({c});
    for (std::size_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      for (std::size_t b = 0; b < batch; ++b) {
        const float* p = X + (b * c + ch) * spatial;
        for (std::size_t i = 0; i < spatial; ++i) s += p[i];
      }
      mean[ch] = static_cast<float>(s / static_cast<double>(n));
      double v = 0.0;
      for (std::size_t b = 0; b < batch; ++b) {
        const float* p = X + (b * c + ch) * spatial;
        for (std::size_t i = 0; i < spatial; ++i) {
          const double d = p[i] - mean[ch];
          v += d * d;
        }
      }
      var[ch] = static_cast<float>(v / static_cast<double>(n));
      running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] + momentum_ * mean[ch];
      // Unbiased variance for the running estimate, as in torch.
      const float unbiased = n > 1 ? var[ch] * static_cast<float>(n) / static_cast<float>(n - 1)
                                   : var[ch];
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] + momentum_ * unbiased;
    }
  }

  const Tensor inv_std = inv_std_of(var, eps_);

  Tensor xhat = train ? Tensor(x.shape()) : Tensor();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float m = mean[ch], is = inv_std[ch];
      const float g = gamma_.value[ch], be = beta_.value[ch];
      const std::size_t off = (b * c + ch) * spatial;
      const float* p = X + off;
      float* o = O + off;
      if (train) {
        float* xh = xhat.data() + off;
        for (std::size_t i = 0; i < spatial; ++i) {
          xh[i] = (p[i] - m) * is;
          o[i] = g * xh[i] + be;
        }
      } else {
        for (std::size_t i = 0; i < spatial; ++i) {
          const float xh = (p[i] - m) * is;
          o[i] = g * xh + be;
        }
      }
    }
  }

  if (train) {
    cached_xhat_ = xhat;
    cached_inv_std_ = inv_std;
    cached_shape_ = x.shape();
  }
  return out;
}

Tensor BatchNorm2d::eval_inv_std() const { return inv_std_of(running_var_, eps_); }

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty())
    throw std::logic_error("BatchNorm2d::backward called before forward(train=true)");
  const std::size_t batch = cached_shape_[0], c = channels_, h = cached_shape_[2],
                    w = cached_shape_[3];
  const std::size_t spatial = h * w;
  const double n = static_cast<double>(batch * spatial);

  Tensor dx(cached_shape_);
  const float* G = grad_out.data();
  const float* XH = cached_xhat_.data();
  float* DX = dx.data();

  for (std::size_t ch = 0; ch < c; ++ch) {
    // Channel-wise sums needed by the BN backward formula.
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::size_t b = 0; b < batch; ++b) {
      const float* g = G + (b * c + ch) * spatial;
      const float* xh = XH + (b * c + ch) * spatial;
      for (std::size_t i = 0; i < spatial; ++i) {
        sum_g += g[i];
        sum_gx += static_cast<double>(g[i]) * xh[i];
      }
    }
    gamma_.grad[ch] += static_cast<float>(sum_gx);
    beta_.grad[ch] += static_cast<float>(sum_g);

    const double gm = gamma_.value[ch];
    const double is = cached_inv_std_[ch];
    const double k1 = sum_g / n;
    const double k2 = sum_gx / n;
    for (std::size_t b = 0; b < batch; ++b) {
      const float* g = G + (b * c + ch) * spatial;
      const float* xh = XH + (b * c + ch) * spatial;
      float* d = DX + (b * c + ch) * spatial;
      for (std::size_t i = 0; i < spatial; ++i)
        d[i] = static_cast<float>(gm * is * (g[i] - k1 - xh[i] * k2));
    }
  }
  return dx;
}

}  // namespace hdczsc::nn
