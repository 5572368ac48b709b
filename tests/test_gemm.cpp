// Equivalence and steady-state-allocation tests for the blocked GEMM compute
// core (tensor/gemm.hpp) and the whole-batch convolution that rides on it,
// fused eval epilogue included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/pipeline.hpp"
#include "hdc/hypervector.hpp"
#include "nn/conv2d.hpp"
#include "nn/resnet.hpp"
#include "serve/snapshot.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdczsc {
namespace {

using tensor::Tensor;
using tensor::Trans;

/// Double-precision reference: C[m,n] = op(A) * op(B).
std::vector<double> reference(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                              const std::vector<float>& A, const std::vector<float>& B) {
  auto a_at = [&](std::size_t i, std::size_t p) {
    return static_cast<double>(ta == Trans::N ? A[i * k + p] : A[p * m + i]);
  };
  auto b_at = [&](std::size_t p, std::size_t j) {
    return static_cast<double>(tb == Trans::N ? B[p * n + j] : B[j * k + p]);
  };
  std::vector<double> C(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j) C[i * n + j] += a_at(i, p) * b_at(p, j);
  return C;
}

void expect_close(const std::vector<float>& got, const std::vector<double>& want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double rel = std::abs(got[i] - want[i]) / (1.0 + std::abs(want[i]));
    ASSERT_LT(rel, 1e-4) << what << " at " << i << ": got " << got[i] << " want " << want[i];
  }
}

/// Run gemm_accumulate and gemm_naive for every transpose combination of one
/// (m, n, k) problem and check both against the double reference.
void check_shape(std::size_t m, std::size_t n, std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  for (Trans ta : {Trans::N, Trans::T}) {
    for (Trans tb : {Trans::N, Trans::T}) {
      const std::size_t lda = ta == Trans::N ? k : m;
      const std::size_t ldb = tb == Trans::N ? n : k;
      std::vector<float> A(m * k), B(k * n);
      for (auto& v : A) v = static_cast<float>(rng.normal(0.0, 1.0));
      for (auto& v : B) v = static_cast<float>(rng.normal(0.0, 1.0));
      const std::vector<double> want = reference(ta, tb, m, n, k, A, B);

      std::vector<float> blocked(m * n, 0.0f), naive(m * n, 0.0f);
      tensor::gemm_accumulate(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, blocked.data(), n);
      tensor::gemm_naive(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, naive.data(), n);
      expect_close(blocked, want, "gemm_accumulate");
      expect_close(naive, want, "gemm_naive");
    }
  }
}

TEST(Gemm, TinyShapesBelowBlockingCutoff) {
  check_shape(1, 1, 1, 1);
  check_shape(3, 5, 7, 2);
  check_shape(1, 24, 9, 3);
  check_shape(13, 2, 31, 4);
}

TEST(Gemm, ExactTileMultiples) {
  check_shape(8, 32, 256, 5);    // one avx512 tile, full KC block
  check_shape(4, 24, 64, 6);     // one avx2/portable tile
  check_shape(128, 1024, 256, 7);  // exactly one (MC, NC, KC) block
}

TEST(Gemm, RaggedEdges) {
  check_shape(5, 25, 33, 8);     // one past the 4x24 tile
  check_shape(65, 129, 130, 9);  // odd everything
  check_shape(129, 65, 257, 10);  // one past MC and KC
}

TEST(Gemm, TallSkinnyAndWide) {
  check_shape(1000, 8, 3, 11);
  check_shape(7, 1000, 9, 12);
  check_shape(2, 3, 1000, 13);  // deep k, thin output
}

TEST(Gemm, DeepKStaysWithinTolerance) {
  // Conv backward's GEMM-NT reduces over k = batch*oh*ow (deep). The
  // KC-blocked float accumulation must hold 1e-4 relative against a double
  // reference — the serial-float gemm_naive loop itself drifts past that
  // here, so only the blocked kernel is gated.
  const std::size_t m = 4, n = 24, k = 16384;
  util::Rng rng(21);
  for (Trans ta : {Trans::N, Trans::T}) {
    for (Trans tb : {Trans::N, Trans::T}) {
      const std::size_t lda = ta == Trans::N ? k : m;
      const std::size_t ldb = tb == Trans::N ? n : k;
      std::vector<float> A(m * k), B(k * n);
      for (auto& v : A) v = static_cast<float>(rng.normal(0.0, 1.0));
      for (auto& v : B) v = static_cast<float>(rng.normal(0.0, 1.0));
      const std::vector<double> want = reference(ta, tb, m, n, k, A, B);
      std::vector<float> blocked(m * n, 0.0f);
      tensor::gemm_accumulate(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, blocked.data(), n);
      expect_close(blocked, want, "gemm_accumulate deep k");
    }
  }
}

TEST(Gemm, MultiWorkerTaskGridMatchesReference) {
  // Force several pool workers so small-m products exercise the shrunken
  // row-block task grid (single MC x NC block otherwise). Both shapes sit
  // above kGemmInlineMacs, so the grid really runs on the pool.
  util::set_worker_count(4);
  check_shape(64, 512, 300, 22);
  check_shape(130, 130, 130, 23);
  util::set_worker_count(0);
}

/// Random row-major buffer of `n` N(0, 1) floats.
std::vector<float> randn_vec(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Gemm, PackedEqualsAccumulateBitwise) {
  // Every m around both kernels' MR (4 and 8) plus a multi-row-block one,
  // n from a single column to two NC column blocks, k from 1 to past KC:
  // gemm_accumulate runs the blocked kernel for every shape, so the packed
  // entry matches it everywhere, tiny products included.
  util::Rng rng(24);
  for (std::size_t workers : {1u, 2u, 4u}) {
    util::set_worker_count(workers);
    for (Trans tb : {Trans::N, Trans::T}) {
      for (std::size_t n : {1u, 5u, 131u, 1030u}) {
        for (std::size_t k : {1u, 3u, 255u, 256u, 515u}) {
          const std::size_t ldb = tb == Trans::N ? n : k;
          const std::vector<float> B = randn_vec(k * n, rng);
          const tensor::PackedB packed(tb, k, n, B.data(), ldb);
          for (std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 129u}) {
            const std::vector<float> A = randn_vec(m * k, rng);
            std::vector<float> want(m * n, 0.5f), got(m * n, 0.5f);
            tensor::gemm_accumulate(Trans::N, tb, m, n, k, A.data(), k, B.data(), ldb,
                                    want.data(), n);
            tensor::gemm_packed(m, A.data(), k, packed, got.data(), n);
            ASSERT_TRUE(bitwise_equal(got, want))
                << "m=" << m << " n=" << n << " k=" << k << " tb=" << (tb == Trans::N ? 'N' : 'T')
                << " workers=" << workers;
          }
        }
      }
    }
  }
  util::set_worker_count(0);
}

TEST(Gemm, InlineAndPooledGridsAgreeBitwise) {
  // n·k = 2^16, so m = kGemmInlineMacs / 2^16 - 1 rows stay on the calling
  // thread and m + 2 rows go to the pool. The shared rows of the two
  // products must match bitwise, and match a single-worker run.
  const std::size_t n = 256, k = 256;
  const std::size_t m_inline = tensor::kGemmInlineMacs / (n * k) - 1, m_pooled = m_inline + 2;
  ASSERT_LT(m_inline * n * k, tensor::kGemmInlineMacs);
  ASSERT_GE(m_pooled * n * k, tensor::kGemmInlineMacs);
  util::Rng rng(25);
  const std::vector<float> A = randn_vec(m_pooled * k, rng), B = randn_vec(k * n, rng);
  const tensor::PackedB packed(Trans::N, k, n, B.data(), n);
  auto run = [&](std::size_t m, bool use_packed) {
    std::vector<float> C(m * n, 0.0f);
    if (use_packed)
      tensor::gemm_packed(m, A.data(), k, packed, C.data(), n);
    else
      tensor::gemm_accumulate(Trans::N, Trans::N, m, n, k, A.data(), k, B.data(), n, C.data(),
                              n);
    return C;
  };
  for (bool use_packed : {false, true}) {
    util::set_worker_count(1);
    const std::vector<float> serial = run(m_pooled, use_packed);
    util::set_worker_count(4);
    const std::vector<float> pooled = run(m_pooled, use_packed);
    const std::vector<float> inline_rows = run(m_inline, use_packed);
    EXPECT_TRUE(bitwise_equal(pooled, serial)) << "packed=" << use_packed;
    EXPECT_EQ(std::memcmp(inline_rows.data(), pooled.data(), m_inline * n * sizeof(float)), 0)
        << "packed=" << use_packed;
  }
  util::set_worker_count(0);
}

TEST(Gemm, AccumulatesIntoC) {
  const std::size_t m = 6, n = 30, k = 40;
  util::Rng rng(14);
  std::vector<float> A(m * k), B(k * n);
  for (auto& v : A) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : B) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<double> want = reference(Trans::N, Trans::N, m, n, k, A, B);
  for (auto& v : want) v += 2.5;

  std::vector<float> C(m * n, 2.5f);
  tensor::gemm_accumulate(Trans::N, Trans::N, m, n, k, A.data(), k, B.data(), n, C.data(), n);
  expect_close(C, want, "accumulate");
}

TEST(Gemm, MatmulWrappersMatchReference) {
  util::Rng rng(15);
  Tensor a = Tensor::randn({37, 53}, rng);
  Tensor b = Tensor::randn({53, 41}, rng);
  Tensor ref = tensor::matmul(a, b);
  Tensor tn = tensor::matmul_tn(tensor::transpose(a), b);
  Tensor nt = tensor::matmul_nt(a, tensor::transpose(b));
  EXPECT_LT(tensor::max_abs_diff(ref, tn), 1e-4f);
  EXPECT_LT(tensor::max_abs_diff(ref, nt), 1e-4f);
}

TEST(Gemm, KernelNameIsKnownVariant) {
  const std::string name = tensor::gemm_kernel_name();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "portable") << name;
}

// -- int8 GEMM (tensor/gemm_int8.hpp) ----------------------------------------

/// Fill one (m, n, k) problem with contract-range codes (A in ±63, B full
/// u8) and check the blocked kernel bit-exact against the naive triple loop.
void check_int8_shape(std::size_t m, std::size_t n, std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int8_t> A(m * k);
  std::vector<std::uint8_t> B(k * n);
  for (auto& v : A) v = static_cast<std::int8_t>(static_cast<int>(rng.next_u64() % 127) - 63);
  for (auto& v : B) v = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  std::vector<std::int32_t> want(m * n, 0), got(m * n, 0);
  tensor::gemm_s32_naive(m, n, k, A.data(), k, B.data(), n, want.data(), n);
  tensor::gemm_s8u8_accumulate(m, n, k, A.data(), k, B.data(), n, got.data(), n);
  ASSERT_EQ(got, want) << "int8 kernel '" << tensor::gemm_int8_kernel_name() << "' diverged at "
                       << m << "x" << n << "x" << k;
}

TEST(GemmInt8, EveryKernelBitExactAcrossEdgeShapes) {
  // Integer accumulation is exact, so every ISA variant this machine can
  // run must agree with the reference to the bit. Every shape runs the
  // blocked kernels, so the tiny ones stress tile remainders and the k-quad
  // padding as the large ones stress the cache blocking.
  for (const char* kernel : {"portable", "avx2", "avx512vnni"}) {
    if (!tensor::gemm_int8_force_kernel(kernel)) continue;  // CPU can't run it
    check_int8_shape(1, 1, 1, 31);
    check_int8_shape(1, 1, 3, 32);      // k not a multiple of the packed quad
    check_int8_shape(3, 5, 7, 33);
    check_int8_shape(16, 64, 256, 34);  // exact tiles, full KC depth
    check_int8_shape(17, 65, 257, 35);  // one past everything
    check_int8_shape(1000, 8, 3, 36);   // tall-skinny
    check_int8_shape(7, 1000, 9, 37);   // short-wide
    check_int8_shape(2, 3, 1000, 38);   // deep k, thin output
  }
  ASSERT_TRUE(tensor::gemm_int8_force_kernel("auto"));
}

TEST(GemmInt8, DegenerateShapesAreNoOpsEvenWithNullBuffers) {
  // The m/n/k == 0 guards must return before touching scratch, packing, or
  // any operand — nullptr operands make a violation a crash, not a flake.
  tensor::gemm_s8u8_accumulate(0, 8, 8, nullptr, 1, nullptr, 8, nullptr, 8);
  tensor::gemm_s8u8_accumulate(8, 0, 8, nullptr, 8, nullptr, 1, nullptr, 1);
  tensor::gemm_s8u8_accumulate(8, 8, 0, nullptr, 1, nullptr, 8, nullptr, 8);
  tensor::gemm_s32_naive(0, 0, 0, nullptr, 1, nullptr, 1, nullptr, 1);

  // k == 0 with live C: still strictly accumulate — C must be untouched.
  std::vector<std::int32_t> C(4, 77);
  tensor::gemm_s8u8_accumulate(2, 2, 0, nullptr, 1, nullptr, 2, C.data(), 2);
  for (std::int32_t v : C) EXPECT_EQ(v, 77);
}

TEST(GemmInt8, AccumulatesIntoC) {
  const std::size_t m = 6, n = 30, k = 40;
  util::Rng rng(39);
  std::vector<std::int8_t> A(m * k);
  std::vector<std::uint8_t> B(k * n);
  for (auto& v : A) v = static_cast<std::int8_t>(static_cast<int>(rng.next_u64() % 127) - 63);
  for (auto& v : B) v = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  std::vector<std::int32_t> want(m * n, 5), got(m * n, 5);
  tensor::gemm_s32_naive(m, n, k, A.data(), k, B.data(), n, want.data(), n);
  tensor::gemm_s8u8_accumulate(m, n, k, A.data(), k, B.data(), n, got.data(), n);
  EXPECT_EQ(got, want);
}

TEST(GemmInt8, ExtremeCodesStayExactAtDepth) {
  // Worst-case magnitudes of the range contract: A = -64 everywhere
  // (the one value past ±63 the contract still admits), B = 255, deep k.
  // The AVX2 path's s16 pair sums sit exactly at their -32640 bound and
  // the s32 accumulator at -64*255*4096 — any saturation or overflow shows
  // up as a wrong constant.
  const std::size_t m = 8, n = 48, k = 4096;
  std::vector<std::int8_t> A(m * k, -64);
  std::vector<std::uint8_t> B(k * n, 255);
  std::vector<std::int32_t> got(m * n, 0);
  tensor::gemm_s8u8_accumulate(m, n, k, A.data(), k, B.data(), n, got.data(), n);
  const std::int32_t want = -64 * 255 * static_cast<std::int32_t>(k);
  for (std::int32_t v : got) ASSERT_EQ(v, want);
}

TEST(GemmInt8, KernelNameIsKnownVariantAndForceRejectsUnknown) {
  const std::string name = tensor::gemm_int8_kernel_name();
  EXPECT_TRUE(name == "avx512vnni" || name == "avx2" || name == "portable") << name;
  EXPECT_FALSE(tensor::gemm_int8_force_kernel("not-a-kernel"));
  EXPECT_EQ(tensor::gemm_int8_kernel_name(), name) << "failed force must not change kernel";
  EXPECT_TRUE(tensor::gemm_int8_force_kernel("portable"));  // always available
  EXPECT_TRUE(tensor::gemm_int8_force_kernel("auto"));
}

// -- conv through the batched path -------------------------------------------

/// Seed-style reference conv forward: per-image im2col + naive axpy loops.
Tensor conv_reference_forward(nn::Conv2d& conv, const Tensor& x, const Tensor& w,
                              const Tensor& bias, bool has_bias) {
  const std::size_t batch = x.size(0), in_c = x.size(1), h = x.size(2), ww = x.size(3);
  const std::size_t kk = conv.kernel(), oh = conv.out_size(h), ow = conv.out_size(ww);
  const std::size_t out_c = conv.out_channels();
  const std::size_t krows = in_c * kk * kk, ncols = oh * ow;
  Tensor y({batch, out_c, oh, ow});
  std::vector<float> cols(krows * ncols);
  for (std::size_t b = 0; b < batch; ++b) {
    nn::im2col(x.data() + b * in_c * h * ww, in_c, h, ww, kk, kk, conv.stride(), conv.padding(),
               cols.data());
    float* yb = y.data() + b * out_c * ncols;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      float* yrow = yb + oc * ncols;
      const float* wrow = w.data() + oc * krows;
      for (std::size_t r = 0; r < krows; ++r) {
        const float wv = wrow[r];
        const float* crow = cols.data() + r * ncols;
        for (std::size_t c = 0; c < ncols; ++c) yrow[c] += wv * crow[c];
      }
      if (has_bias) {
        for (std::size_t c = 0; c < ncols; ++c) yrow[c] += bias[oc];
      }
    }
  }
  return y;
}

TEST(GemmConv, BatchedForwardMatchesPerImageReference) {
  util::Rng rng(16);
  nn::Conv2d conv(3, 8, 3, /*stride=*/1, /*pad=*/1, rng, /*bias=*/true);
  Tensor x = Tensor::randn({5, 3, 12, 12}, rng);
  Tensor y = conv.forward(x, /*train=*/false);
  Tensor w = conv.parameters()[0]->value;
  Tensor b = conv.parameters()[1]->value;
  Tensor ref = conv_reference_forward(conv, x, w, b, true);
  EXPECT_LT(tensor::max_abs_diff(y, ref), 1e-4f);
}

TEST(GemmConv, StridedNoPadForwardMatchesPerImageReference) {
  util::Rng rng(17);
  nn::Conv2d conv(4, 6, 5, /*stride=*/2, /*pad=*/0, rng, /*bias=*/false);
  Tensor x = Tensor::randn({3, 4, 17, 13}, rng);
  Tensor y = conv.forward(x, /*train=*/false);
  Tensor w = conv.parameters()[0]->value;
  Tensor ref = conv_reference_forward(conv, x, w, Tensor({6}), false);
  EXPECT_LT(tensor::max_abs_diff(y, ref), 1e-4f);
}

TEST(GemmConv, SteadyStateForwardDoesNotAllocateScratch) {
  // Pin to one worker: with a pool, which thread claims each GEMM task is a
  // cursor race, so a cold worker could grow its own pack slots after the
  // warm-up and flake the grow-count assertion.
  util::set_worker_count(1);
  util::Rng rng(18);
  nn::Conv2d conv(8, 16, 3, 1, 1, rng, /*bias=*/true);
  Tensor x = Tensor::randn({4, 8, 16, 16}, rng);
  conv.forward(x, false);  // warm-up: scratch slots grow to working size
  const std::size_t grown = tensor::scratch_grow_count();
  for (int i = 0; i < 5; ++i) conv.forward(x, false);
  EXPECT_EQ(tensor::scratch_grow_count(), grown)
      << "steady-state conv forward must reuse thread-local scratch";
  util::set_worker_count(0);
}

TEST(GemmConv, SteadyStateBackwardDoesNotAllocateScratch) {
  util::set_worker_count(1);  // see SteadyStateForwardDoesNotAllocateScratch
  util::Rng rng(19);
  nn::Conv2d conv(4, 8, 3, 1, 1, rng, /*bias=*/true);
  Tensor x = Tensor::randn({3, 4, 10, 10}, rng);
  Tensor g = Tensor::randn({3, 8, 10, 10}, rng);
  conv.forward(x, true);
  conv.backward(g);  // warm-up
  const std::size_t grown = tensor::scratch_grow_count();
  for (int i = 0; i < 3; ++i) {
    conv.forward(x, true);
    conv.backward(g);
  }
  EXPECT_EQ(tensor::scratch_grow_count(), grown)
      << "steady-state conv backward must reuse thread-local scratch";
  util::set_worker_count(0);
}

// -- fused eval convolution (tensor::gemm_conv) -------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Conv2d's forward built from public primitives, as the layer computed it
/// before gemm_conv: the whole-batch im2col matrix, one gemm_accumulate into
/// a zeroed [out_c, B·oh·ow] buffer, then NCHW rows plus the bias.
Tensor im2col_gemm_forward(nn::Conv2d& conv, const Tensor& x) {
  const std::size_t batch = x.size(0), in_c = x.size(1), h = x.size(2), w = x.size(3);
  const std::size_t kk = conv.kernel(), oh = conv.out_size(h), ow = conv.out_size(w);
  const std::size_t out_c = conv.out_channels(), krows = in_c * kk * kk, ncols = oh * ow;
  const std::size_t total = batch * ncols;
  std::vector<float> cols(krows * total), out(out_c * total, 0.0f);
  for (std::size_t b = 0; b < batch; ++b)
    nn::im2col(x.data() + b * in_c * h * w, in_c, h, w, kk, kk, conv.stride(), conv.padding(),
               cols.data() + b * ncols, total);
  tensor::gemm_accumulate(Trans::N, Trans::N, out_c, total, krows, conv.weight().value.data(),
                          krows, cols.data(), total, out.data(), total);
  Tensor y({batch, out_c, oh, ow});
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t oc = 0; oc < out_c; ++oc)
      for (std::size_t c = 0; c < ncols; ++c) {
        const float v = out[oc * total + b * ncols + c];
        y[(b * out_c + oc) * ncols + c] = conv.has_bias() ? v + conv.bias().value[oc] : v;
      }
  return y;
}

/// The unfused eval layers a fused conv replaces, applied to the conv's
/// output: BatchNorm2d, the residual add, ReLU — each its own layer call.
Tensor eval_layers(const Tensor& conv_out, nn::BatchNorm2d* bn, const Tensor* residual,
                   bool relu) {
  Tensor y = bn ? bn->forward(conv_out, false) : conv_out.clone();
  if (residual) y.add_scaled(*residual, 1.0f);
  if (relu) y = nn::ReLU().forward(y, false);
  return y;
}

/// Running statistics and an affine far enough from the identity that a
/// skipped or reordered BN step changes the output.
void randomize_bn(nn::BatchNorm2d& bn, util::Rng& rng) {
  for (nn::BufferRef b : bn.buffers())
    for (std::size_t i = 0; i < b.tensor->numel(); ++i)
      (*b.tensor)[i] = b.name == "bn.running_var" ? static_cast<float>(rng.uniform(0.2, 2.0))
                                                  : static_cast<float>(rng.normal(0.0, 0.5));
  for (nn::Parameter* p : bn.parameters())
    for (std::size_t i = 0; i < p->value.numel(); ++i)
      p->value[i] = static_cast<float>(rng.normal(p->name == "bn.gamma" ? 1.0 : 0.0, 0.5));
}

TEST(GemmConv, ForwardAndFusedFormsMatchLayerByLayerBitwise) {
  struct Case {
    std::size_t in_c, out_c, kernel, stride, pad, h, w;
    const char* what;
  };
  const Case cases[] = {
      // 225 columns per image: NR-wide tiles straddle output rows and images.
      {8, 8, 3, 1, 1, 15, 15, "3x3/1 -> 15x15"},
      {8, 16, 3, 2, 1, 13, 13, "3x3/2 -> 7x7"},
      {8, 16, 1, 2, 0, 10, 10, "1x1/2 downsample -> 5x5"},
      {3, 8, 7, 2, 3, 13, 13, "7x7/2 -> 7x7"},
      {32, 8, 3, 1, 1, 5, 5, "k = 288 > KC -> 5x5"},
      {64, 16, 3, 1, 1, 5, 7, "k = 576 -> 5x7"},
  };
  util::Rng rng(26);
  for (const Case& c : cases) {
    for (bool bias : {false, true}) {
      nn::Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, rng, bias);
      for (std::size_t i = 0; i < c.out_c; ++i)
        conv.bias().value[i] = static_cast<float>(rng.normal(0.0, 1.0));
      nn::BatchNorm2d bn(c.out_c);
      randomize_bn(bn, rng);
      for (std::size_t batch : {1u, 2u, 3u, 4u, 7u, 16u, 33u}) {
        const Tensor x = Tensor::randn({batch, c.in_c, c.h, c.w}, rng);
        const Tensor residual =
            Tensor::randn({batch, c.out_c, conv.out_size(c.h), conv.out_size(c.w)}, rng);
        const Tensor conv_out = im2col_gemm_forward(conv, x);
        Tensor want[8];
        for (int form = 0; form < 8; ++form)
          want[form] = eval_layers(conv_out, (form & 4) ? &bn : nullptr,
                                   (form & 2) ? &residual : nullptr, (form & 1) != 0);
        for (std::size_t workers : {1u, 2u, 4u}) {
          util::set_worker_count(workers);
          const std::string where = std::string(c.what) + (bias ? " +bias" : "") +
                                    " batch=" + std::to_string(batch) +
                                    " workers=" + std::to_string(workers);
          ASSERT_TRUE(bitwise_equal(conv.forward(x, false), want[0])) << where << " forward";
          for (int form = 0; form < 8; ++form)
            ASSERT_TRUE(bitwise_equal(conv.forward_fused(x, (form & 4) ? &bn : nullptr,
                                                         (form & 2) ? &residual : nullptr,
                                                         (form & 1) != 0),
                                      want[form]))
                << where << (form & 4 ? " +bn" : "") << (form & 2 ? " +residual" : "")
                << (form & 1 ? " +relu" : "");
        }
      }
    }
  }
  util::set_worker_count(0);
}

TEST(GemmConv, FusedFormRejectsMismatchedBnAndResidual) {
  util::Rng rng(27);
  nn::Conv2d conv(4, 8, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  nn::BatchNorm2d wrong_bn(6);
  EXPECT_THROW(conv.forward_fused(x, &wrong_bn, nullptr, false), std::invalid_argument);
  const Tensor wrong_residual({2, 8, 6, 5});
  EXPECT_THROW(conv.forward_fused(x, nullptr, &wrong_residual, true), std::invalid_argument);
}

/// A small trained resnet_micro_flat snapshot (32x32 images), built once.
struct TrainedFlat {
  core::TrainedPipeline tp;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;

  static const TrainedFlat& get() {
    static TrainedFlat t;
    return t;
  }

 private:
  TrainedFlat() {
    core::PipelineConfig cfg;
    cfg.n_classes = 8;
    cfg.images_per_class = 4;
    cfg.train_instances = 3;
    cfg.image_size = 32;
    cfg.split = "zs";
    cfg.zs_train_classes = 6;
    cfg.model.image.arch = "resnet_micro_flat";
    cfg.model.image.proj_dim = 64;
    cfg.run_phase1 = false;
    cfg.phase2 = {2, 8, 1e-2f, 1e-4f, 5.0f, true, false};
    cfg.phase3 = {2, 8, 1e-2f, 1e-4f, 5.0f, true, false};
    cfg.augment.enabled = false;
    tp = core::run_pipeline_trained(cfg);
    snapshot = std::make_shared<serve::ModelSnapshot>(tp.model, tp.test_class_attributes);
  }
};

/// `batch` images from the trained pipeline's test set, wrapping around.
Tensor test_images(std::size_t batch) {
  const Tensor& all = TrainedFlat::get().tp.test_set.images;
  const std::size_t per = all.numel() / all.size(0);
  Tensor out({batch, all.size(1), all.size(2), all.size(3)});
  for (std::size_t b = 0; b < batch; ++b)
    std::memcpy(out.data() + b * per, all.data() + (b % all.size(0)) * per, per * sizeof(float));
  return out;
}

TEST(GemmConv, TrainedEmbedEqualsLayerByLayerWalk) {
  const TrainedFlat& t = TrainedFlat::get();
  core::ImageEncoder& enc = t.snapshot->model_ptr()->image_encoder();
  nn::Sequential& net = enc.backbone();
  ASSERT_EQ(net.size(), 7u);  // conv, bn, relu, 3 BasicBlocks, flatten
  nn::ReLU relu;
  for (std::size_t batch : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u, 32u, 33u}) {
    const Tensor images = test_images(batch);
    Tensor x = net[2].forward(net[1].forward(net[0].forward(images, false), false), false);
    for (std::size_t i = 3; i < 6; ++i) {
      auto& block = dynamic_cast<nn::BasicBlock&>(net[i]);
      Tensor identity = x;
      if (block.down_conv())
        identity = block.down_bn()->forward(block.down_conv()->forward(x, false), false);
      Tensor h = relu.forward(block.bn1().forward(block.conv1().forward(x, false), false), false);
      h = block.bn2().forward(block.conv2().forward(h, false), false);
      h.add_scaled(identity, 1.0f);
      x = relu.forward(h, false);
    }
    x = enc.projection()->forward(net[6].forward(x, false), false);
    EXPECT_TRUE(bitwise_equal(t.snapshot->embed(images), x)) << "batch " << batch;
  }
}

TEST(GemmConv, SteadyStateEvalEmbedGrowsNoScratch) {
  util::set_worker_count(1);  // see SteadyStateForwardDoesNotAllocateScratch
  const TrainedFlat& t = TrainedFlat::get();
  const Tensor b1 = test_images(1), b2 = test_images(2), b3 = test_images(3);
  t.snapshot->embed(b3);  // warm-up at the largest batch
  const std::size_t grown = tensor::scratch_grow_count();
  for (int i = 0; i < 3; ++i)
    for (const Tensor* images : {&b1, &b2, &b3}) t.snapshot->embed(*images);
  EXPECT_EQ(tensor::scratch_grow_count(), grown)
      << "steady-state eval embeds must reuse thread-local scratch";
  util::set_worker_count(0);
}

// -- parallel Hamming scan ----------------------------------------------------

TEST(GemmSatellites, ParallelHammingMatchesRowByRow) {
  // Big enough to cross the parallel threshold (n_rows * words >= 2^15).
  const std::size_t n_rows = 9000, words = 4;
  util::Rng rng(20);
  std::vector<std::uint64_t> rows(n_rows * words), query(words);
  for (auto& v : rows) v = rng.next_u64();
  for (auto& v : query) v = rng.next_u64();

  std::vector<std::uint32_t> bulk(n_rows), serial(n_rows);
  hdc::hamming_many_packed(query.data(), rows.data(), n_rows, words, bulk.data());
  for (std::size_t i = 0; i < n_rows; ++i)  // per-row calls stay below the threshold
    hdc::hamming_many_packed(query.data(), rows.data() + i * words, 1, words, &serial[i]);
  EXPECT_EQ(bulk, serial);
}

TEST(GemmSatellites, NumThreadsEnvOverride) {
  // Save the process-wide pins (CI sets HDCZSC_NUM_THREADS=2 job-wide) so
  // this test can't leak a different worker count into later tests.
  const char* saved_new = ::getenv("HDCZSC_NUM_THREADS");
  const std::string saved_new_v = saved_new ? saved_new : "";
  const char* saved_old = ::getenv("HDCZSC_THREADS");
  const std::string saved_old_v = saved_old ? saved_old : "";

  ::unsetenv("HDCZSC_THREADS");
  ::setenv("HDCZSC_NUM_THREADS", "3", 1);
  EXPECT_EQ(util::worker_count(), 3u);
  // Legacy spelling still honored when the new one is absent.
  ::unsetenv("HDCZSC_NUM_THREADS");
  ::setenv("HDCZSC_THREADS", "2", 1);
  EXPECT_EQ(util::worker_count(), 2u);
  // The preferred name wins when both are set.
  ::setenv("HDCZSC_NUM_THREADS", "5", 1);
  EXPECT_EQ(util::worker_count(), 5u);

  if (saved_new)
    ::setenv("HDCZSC_NUM_THREADS", saved_new_v.c_str(), 1);
  else
    ::unsetenv("HDCZSC_NUM_THREADS");
  if (saved_old)
    ::setenv("HDCZSC_THREADS", saved_old_v.c_str(), 1);
  else
    ::unsetenv("HDCZSC_THREADS");
}

TEST(GemmSatellites, NestedParallelForRunsInline) {
  // A parallel_for body that itself calls parallel_for must degrade to
  // serial instead of re-entering the (non-re-entrant) pool — this test
  // hangs on deadlock rather than failing an expectation if that breaks.
  util::set_worker_count(4);
  std::vector<int> out(64, 0);
  util::parallel_for(0, 8, [&](std::size_t i) {
    util::parallel_for(0, 8, [&](std::size_t j) {
      out[i * 8 + j] = static_cast<int>(i * 8 + j);
    }, 1);
  }, 1);
  util::set_worker_count(0);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(out[i], i);
}

}  // namespace
}  // namespace hdczsc
