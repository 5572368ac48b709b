#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"

namespace hdczsc {
namespace {

using nn::Tensor;

TEST(Linear, ForwardKnownValues) {
  util::Rng rng(1);
  nn::Linear fc(2, 2, rng);
  fc.weight().value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  fc.bias().value = Tensor({2}, std::vector<float>{10, 20});
  Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f);  // 1*1+2*1+10
  EXPECT_FLOAT_EQ(y.at(0, 1), 27.0f);  // 3*1+4*1+20
}

TEST(Linear, RejectsWrongInputWidth) {
  util::Rng rng(2);
  nn::Linear fc(3, 2, rng);
  EXPECT_THROW(fc.forward(Tensor({1, 4}), false), std::invalid_argument);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  util::Rng rng(3);
  nn::Linear fc(2, 2, rng);
  EXPECT_THROW(fc.backward(Tensor({1, 2})), std::logic_error);
}

TEST(Linear, ParameterCount) {
  util::Rng rng(4);
  nn::Linear fc(10, 5, rng);
  EXPECT_EQ(fc.parameter_count(), 10u * 5u + 5u);
  nn::Linear nb(10, 5, rng, false);
  EXPECT_EQ(nb.parameter_count(), 50u);
}

TEST(ReLU, ClampsNegative) {
  nn::ReLU relu;
  Tensor x = Tensor::from_vector({-1.0f, 0.0f, 2.0f});
  Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

TEST(ReLU, PassesSignedZeroInfinityAndNaNBitForBit) {
  // Only values that compare below zero clamp (to +0.0): -0.0 keeps its
  // sign, +inf and NaN of either sign pass through, -inf clamps.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> in = {-0.0f, 0.0f, inf, -inf, nan, -nan, -1.5f, 2.5f, denorm, -denorm};
  const std::vector<float> want = {-0.0f, 0.0f, inf, 0.0f, nan, -nan, 0.0f, 2.5f, denorm, 0.0f};
  for (bool train : {false, true}) {
    nn::ReLU relu;
    const Tensor y = relu.forward(Tensor::from_vector(in), train);
    for (std::size_t i = 0; i < in.size(); ++i)
      EXPECT_EQ(bits_of(y[i]), bits_of(want[i])) << "input " << in[i] << " train " << train;
  }
}

TEST(ReLU, GradientMasksNegative) {
  nn::ReLU relu;
  Tensor x = Tensor::from_vector({-1.0f, 3.0f});
  relu.forward(x, true);
  Tensor g = relu.backward(Tensor::from_vector({5.0f, 7.0f}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 7.0f);
}

TEST(Sigmoid, RangeAndMidpoint) {
  nn::Sigmoid sig;
  Tensor y = sig.forward(Tensor::from_vector({0.0f, 100.0f, -100.0f}), false);
  EXPECT_NEAR(y[0], 0.5f, 1e-6);
  EXPECT_NEAR(y[1], 1.0f, 1e-6);
  EXPECT_NEAR(y[2], 0.0f, 1e-6);
}

TEST(Tanh, OddSymmetry) {
  nn::Tanh th;
  Tensor y = th.forward(Tensor::from_vector({-2.0f, 2.0f}), false);
  EXPECT_NEAR(y[0], -y[1], 1e-6);
}

TEST(Dropout, EvalIsIdentity) {
  util::Rng rng(5);
  nn::Dropout drop(0.5f, rng);
  Tensor x = Tensor::from_vector({1, 2, 3});
  Tensor y = drop.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
}

TEST(Dropout, TrainPreservesExpectation) {
  util::Rng rng(6);
  nn::Dropout drop(0.3f, rng);
  Tensor x({10000}, 1.0f);
  Tensor y = drop.forward(x, true);
  EXPECT_NEAR(y.mean(), 1.0f, 0.05f);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  util::Rng rng(7);
  nn::Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.parameters()[0]->value.fill(1.0f);  // 1x1 kernel = identity
  Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.forward(x, false);
  EXPECT_LT(tensor::max_abs_diff(x.reshape({9}), y.reshape({9})), 1e-6f);
}

TEST(Conv2d, KnownSmoothingKernel) {
  util::Rng rng(8);
  nn::Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.parameters()[0]->value.fill(1.0f);  // 3x3 all-ones: local sum w/ zero pad
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 10.0f);  // whole image within window
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 10.0f);
}

TEST(Conv2d, StrideReducesSpatial) {
  util::Rng rng(9);
  nn::Conv2d conv(3, 8, 3, 2, 1, rng);
  Tensor x({2, 3, 8, 8});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 8, 4, 4}));
}

TEST(Conv2d, Im2colColumnLayout) {
  // 1 channel 3x3 input, 2x2 kernel, stride 1, no pad -> 4 rows x 4 cols.
  std::vector<float> input = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(4 * 4, -1.0f);
  nn::im2col(input.data(), 1, 3, 3, 2, 2, 1, 0, cols.data());
  // Row 0 = kernel offset (0,0): top-left of each window.
  EXPECT_FLOAT_EQ(cols[0], 1.0f);
  EXPECT_FLOAT_EQ(cols[1], 2.0f);
  EXPECT_FLOAT_EQ(cols[2], 4.0f);
  EXPECT_FLOAT_EQ(cols[3], 5.0f);
  // Row 3 = kernel offset (1,1): bottom-right of each window.
  EXPECT_FLOAT_EQ(cols[12], 5.0f);
  EXPECT_FLOAT_EQ(cols[15], 9.0f);
}

TEST(Conv2d, Im2colMatchesPerElementReferenceAcrossStridesAndPads) {
  // Every column entry is its input pixel or, where the window hangs over
  // the border, zero — including kernels wider than the padded input row
  // allows on one side, and rows spaced wider than they are long.
  util::Rng rng(14);
  const std::size_t channels = 2;
  for (std::size_t h : {1u, 4u, 7u})
    for (std::size_t w : {1u, 5u, 8u})
      for (std::size_t k : {1u, 2u, 3u, 5u})
        for (std::size_t stride : {1u, 2u, 3u})
          for (std::size_t pad : {0u, 1u, 2u}) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            const std::size_t oh = (h + 2 * pad - k) / stride + 1;
            const std::size_t ow = (w + 2 * pad - k) / stride + 1;
            const std::size_t row_stride = oh * ow + 3;
            const Tensor x = Tensor::randn({channels, h, w}, rng);
            std::vector<float> want(channels * k * k * row_stride, -7.0f), got = want;
            for (std::size_t r = 0; r < channels * k * k; ++r) {
              const std::size_t c = r / (k * k), ki = r / k % k, kj = r % k;
              for (std::size_t oy = 0; oy < oh; ++oy)
                for (std::size_t ox = 0; ox < ow; ++ox) {
                  const long iy = static_cast<long>(oy * stride + ki) - static_cast<long>(pad);
                  const long ix = static_cast<long>(ox * stride + kj) - static_cast<long>(pad);
                  const bool inside = iy >= 0 && iy < static_cast<long>(h) && ix >= 0 &&
                                      ix < static_cast<long>(w);
                  want[r * row_stride + oy * ow + ox] =
                      inside ? x.data()[(c * h + iy) * w + ix] : 0.0f;
                }
            }
            nn::im2col(x.data(), channels, h, w, k, k, stride, pad, got.data(), row_stride);
            ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
                << "h=" << h << " w=" << w << " k=" << k << " stride=" << stride
                << " pad=" << pad;
          }
}

TEST(Conv2d, Col2imInvertsOverlapCounts) {
  // col2im(im2col(x)) multiplies each pixel by its window multiplicity.
  std::vector<float> input(9);
  for (int i = 0; i < 9; ++i) input[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
  std::vector<float> cols(4 * 4);
  nn::im2col(input.data(), 1, 3, 3, 2, 2, 1, 0, cols.data());
  std::vector<float> back(9, 0.0f);
  nn::col2im(cols.data(), 1, 3, 3, 2, 2, 1, 0, back.data());
  // Center pixel (5) appears in all 4 windows; corners once.
  EXPECT_FLOAT_EQ(back[4], 4.0f * 5.0f);
  EXPECT_FLOAT_EQ(back[0], 1.0f);
  EXPECT_FLOAT_EQ(back[8], 9.0f);
}

TEST(BatchNorm, NormalizesTrainBatch) {
  util::Rng rng(10);
  nn::BatchNorm2d bn(2);
  Tensor x = Tensor::randn({4, 2, 5, 5}, rng, 3.0f, 2.0f);
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < 4; ++b)
      for (std::size_t i = 0; i < 25; ++i) {
        mean += y.at(b, c, i / 5, i % 5);
        ++n;
      }
    mean /= static_cast<double>(n);
    for (std::size_t b = 0; b < 4; ++b)
      for (std::size_t i = 0; i < 25; ++i) {
        const double d = y.at(b, c, i / 5, i % 5) - mean;
        var += d * d;
      }
    var /= static_cast<double>(n);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeToDataMoments) {
  util::Rng rng(11);
  nn::BatchNorm2d bn(1, /*momentum=*/0.5f);
  for (int step = 0; step < 30; ++step) {
    Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 2.0f, 1.5f);
    bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 2.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 2.25f, 0.6f);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  util::Rng rng(12);
  nn::BatchNorm2d bn(1);
  Tensor x = Tensor::randn({4, 1, 3, 3}, rng);
  Tensor y_eval = bn.forward(x, false);  // fresh stats: mean 0, var 1
  EXPECT_LT(tensor::max_abs_diff(x, y_eval), 1e-2f);
}

TEST(BatchNorm, EvalIsTheRunningStatAffineAndCachesNothing) {
  util::Rng rng(13);
  nn::BatchNorm2d bn(3, 0.1f, 1e-3f);
  *bn.buffers()[0].tensor = Tensor::randn({3}, rng);                      // running mean
  *bn.buffers()[1].tensor = Tensor::rand_uniform({3}, rng, 0.5f, 2.0f);  // running var
  bn.parameters()[0]->value = Tensor::randn({3}, rng, 1.0f, 0.5f);       // gamma
  bn.parameters()[1]->value = Tensor::randn({3}, rng);                    // beta
  const Tensor mean = bn.running_mean().clone(), var = bn.running_var().clone();
  const Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  const Tensor y = bn.forward(x, false);

  // y = γ·((x − μ)·(1/√(σ² + ε))) + β, rounded step by step in float.
  for (std::size_t b = 0; b < 2; ++b)
    for (std::size_t c = 0; c < 3; ++c) {
      const float is = 1.0f / std::sqrt(var[c] + bn.eps());
      for (std::size_t i = 0; i < 20; ++i) {
        const float xh = (x.at(b, c, i / 5, i % 5) - mean[c]) * is;
        EXPECT_EQ(bits_of(y.at(b, c, i / 5, i % 5)), bits_of(bn.gamma()[c] * xh + bn.beta()[c]))
            << "b=" << b << " c=" << c << " i=" << i;
      }
    }
  EXPECT_EQ(tensor::max_abs_diff(bn.running_mean(), mean), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(bn.running_var(), var), 0.0f);
  EXPECT_THROW(bn.backward(y), std::logic_error);  // nothing cached for backward
}

TEST(MaxPool, SelectsWindowMax) {
  nn::MaxPool2d pool(2, 2);
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 15.0f);
}

TEST(MaxPool, GradientRoutesToArgmax) {
  nn::MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  pool.forward(x, true);
  Tensor g = pool.backward(Tensor({1, 1, 1, 1}, std::vector<float>{7}));
  EXPECT_FLOAT_EQ(g.at(0, 0, 0, 1), 7.0f);
  EXPECT_FLOAT_EQ(g.at(0, 0, 0, 0), 0.0f);
}

TEST(GlobalAvgPool, AveragesPlane) {
  nn::GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = gap.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 10.0f);
}

TEST(Flatten, RoundTripsShape) {
  nn::Flatten fl;
  Tensor x({2, 3, 4, 4});
  Tensor y = fl.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 48}));
  Tensor g = fl.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Sequential, ComposesAndCollectsParams) {
  util::Rng rng(13);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(4, 8, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(8, 2, rng);
  Tensor x({3, 4}, 0.5f);
  Tensor y = seq.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{3, 2}));
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(seq.parameter_count(), 4u * 8 + 8 + 8 * 2 + 2);
}

TEST(Sequential, FreezeMarksParameters) {
  util::Rng rng(14);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(2, 2, rng);
  seq.set_frozen(true);
  for (auto* p : seq.parameters()) EXPECT_FALSE(p->requires_grad);
  seq.set_frozen(false);
  for (auto* p : seq.parameters()) EXPECT_TRUE(p->requires_grad);
}

}  // namespace
}  // namespace hdczsc
