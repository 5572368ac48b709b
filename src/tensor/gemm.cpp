#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "obs/metrics.hpp"
#include "tensor/gemm_blocking.hpp"
#include "tensor/scratch.hpp"

namespace hdczsc::tensor {

namespace {

using detail::round_up;

/// Profiling hook (obs::set_profiling_enabled): wall time of each top-level
/// gemm_accumulate / gemm_packed / gemm_conv call. Magic static — one
/// pointer load per call; with profiling off the ScopedTimer reads no clock.
obs::Histogram* gemm_hist() {
  static const std::shared_ptr<obs::Histogram> h = obs::default_registry().histogram(
      "tensor_gemm_ms", {}, "wall time of one gemm_accumulate, gemm_packed or gemm_conv call");
  return h.get();
}

// Cache blocking: an MC x KC packed A block (~128 KiB) stays L2-resident
// while a KC x NC packed B block streams through; KC deep enough to amortize
// the C-tile load/store in the micro-kernel, NC sized so one (jc, ic) task is
// meaty enough to be a parallel work unit on its own.
constexpr std::size_t kMC = 128;
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 1024;

/// Pack op(A)[ic:ic+mc, pc:pc+kc] into MR-tall panels, k-major within each
/// panel; ragged bottom rows are zero-filled so the micro-kernel always runs
/// a full MR x NR tile.
void pack_a(const float* A, std::size_t lda, Trans ta, std::size_t ic, std::size_t pc,
            std::size_t mc, std::size_t kc, std::size_t mr_tile, float* buf) {
  for (std::size_t ir = 0; ir < mc; ir += mr_tile, buf += kc * mr_tile) {
    const std::size_t mr = std::min(mr_tile, mc - ir);
    if (ta == Trans::N) {  // row by row, so the reads are unit-stride
      for (std::size_t i = 0; i < mr; ++i) {
        const float* arow = A + (ic + ir + i) * lda + pc;
        for (std::size_t p = 0; p < kc; ++p) buf[p * mr_tile + i] = arow[p];
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p)
        for (std::size_t i = 0; i < mr; ++i) buf[p * mr_tile + i] = A[(pc + p) * lda + ic + ir + i];
    }
    for (std::size_t p = 0; p < kc; ++p)
      for (std::size_t i = mr; i < mr_tile; ++i) buf[p * mr_tile + i] = 0.0f;
  }
}

/// Pack op(B)[pc:pc+kc, jc:jc+nc] into NR-wide panels, k-major within each
/// panel; ragged right columns are zero-filled.
void pack_b(const float* B, std::size_t ldb, Trans tb, std::size_t pc, std::size_t jc,
            std::size_t kc, std::size_t nc, std::size_t nr_tile, float* buf) {
  for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
    const std::size_t nr = std::min(nr_tile, nc - jr);
    if (tb == Trans::N) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* brow = B + (pc + p) * ldb + jc + jr;
        for (std::size_t j = 0; j < nr; ++j) *buf++ = brow[j];
        for (std::size_t j = nr; j < nr_tile; ++j) *buf++ = 0.0f;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t j = 0; j < nr; ++j) *buf++ = B[(jc + jr + j) * ldb + pc + p];
        for (std::size_t j = nr; j < nr_tile; ++j) *buf++ = 0.0f;
      }
    }
  }
}

/// Where C[i, j] lives. A plain row-major C leaves img_cols at its
/// maximum: element (i, j) is base[i*ldc + j]. A convolution's NCHW output
/// splits the columns into images of img_cols columns; image b is then a
/// row-major [m, img_cols] block (ldc = img_cols) at base + b*img_stride.
struct CView {
  float* base;
  std::size_t ldc;
  std::size_t img_cols = static_cast<std::size_t>(-1);
  std::size_t img_stride = 0;
};

/// C[i0 + i, j0 + j] += tile[i*ld + j] for an mr x nr tile whose columns
/// cross at least one image boundary of C.
inline void add_split_tile(const float* tile, std::size_t ld, std::size_t mr, std::size_t nr,
                           const CView& c, std::size_t i0, std::size_t j0) {
  for (std::size_t t = 0; t < nr;) {
    const std::size_t img = (j0 + t) / c.img_cols, col = j0 + t - img * c.img_cols;
    const std::size_t len = std::min(nr - t, c.img_cols - col);
    float* dst = c.base + img * c.img_stride + i0 * c.ldc + col;
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t u = 0; u < len; ++u) dst[i * c.ldc + u] += tile[i * ld + t + u];
    t += len;
  }
}

using MacroKernelFn = void (*)(const float* apack, const float* bpack, std::size_t mc,
                               std::size_t nc, std::size_t kc, const CView& c, std::size_t ic,
                               std::size_t jc);

// One micro + macro kernel pair per ISA. The micro-kernel keeps an MR x NR
// accumulator block in registers across the whole KC depth; the loops are
// plain counted loops over contiguous packed panels, which every supported
// compiler turns into broadcast-FMA vector code for the annotated target.
// Tile shapes are per-ISA: they are chosen so the accumulator block fills
// (but does not spill) that ISA's vector register file. The macro-kernel
// adds each tile into C[ic:ic+mc, jc:jc+nc]; a tile that crosses an image
// boundary of a convolution's output lands in a zeroed stack tile first
// (0 + acc is acc bitwise: acc starts at +0 and so is never -0).
#define HDCZSC_DEFINE_GEMM_KERNEL(suffix, attrs, MR_, NR_)                                \
  attrs static void micro_##suffix(const float* a, const float* b, std::size_t kc,        \
                                   float* C, std::size_t ldc, std::size_t mr,             \
                                   std::size_t nr) {                                      \
    constexpr std::size_t MR = (MR_), NR = (NR_);                                         \
    float acc[MR][NR] = {};                                                               \
    for (std::size_t p = 0; p < kc; ++p) {                                                \
      for (std::size_t i = 0; i < MR; ++i) {                                              \
        const float av = a[i];                                                            \
        for (std::size_t j = 0; j < NR; ++j) acc[i][j] += av * b[j];                      \
      }                                                                                   \
      a += MR;                                                                            \
      b += NR;                                                                            \
    }                                                                                     \
    if (mr == MR && nr == NR) {                                                           \
      for (std::size_t i = 0; i < MR; ++i)                                                \
        for (std::size_t j = 0; j < NR; ++j) C[i * ldc + j] += acc[i][j];                 \
    } else {                                                                              \
      for (std::size_t i = 0; i < mr; ++i)                                                \
        for (std::size_t j = 0; j < nr; ++j) C[i * ldc + j] += acc[i][j];                 \
    }                                                                                     \
  }                                                                                       \
  attrs static void macro_##suffix(const float* apack, const float* bpack, std::size_t mc, \
                                   std::size_t nc, std::size_t kc, const CView& c,        \
                                   std::size_t ic, std::size_t jc) {                      \
    constexpr std::size_t MR = (MR_), NR = (NR_);                                         \
    std::size_t img = jc / c.img_cols, col = jc - img * c.img_cols;                       \
    for (std::size_t jr = 0; jr < nc; jr += NR) {                                         \
      const std::size_t nr = std::min(NR, nc - jr);                                       \
      const float* bp = bpack + (jr / NR) * (kc * NR);                                    \
      float* cj = c.base + img * c.img_stride + ic * c.ldc + col;                         \
      const bool split = nr > c.img_cols - col;                                           \
      for (std::size_t ir = 0; ir < mc; ir += MR) {                                       \
        const std::size_t mr = std::min(MR, mc - ir);                                     \
        const float* ap = apack + (ir / MR) * (kc * MR);                                  \
        if (!split) {                                                                     \
          micro_##suffix(ap, bp, kc, cj + ir * c.ldc, c.ldc, mr, nr);                     \
        } else {                                                                          \
          float tile[MR * NR] = {};                                                       \
          micro_##suffix(ap, bp, kc, tile, NR, mr, nr);                                   \
          add_split_tile(tile, NR, mr, nr, c, ic + ir, jc + jr);                          \
        }                                                                                 \
      }                                                                                   \
      for (col += NR; col >= c.img_cols; col -= c.img_cols) ++img;                        \
    }                                                                                     \
  }

// Portable variant: no target annotation, vectorized for whatever the build
// targets (baseline SSE2 on x86-64). 4x24 measured ~2x the naive loop there.
HDCZSC_DEFINE_GEMM_KERNEL(portable, , 4, 24)

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDCZSC_GEMM_X86_DISPATCH 1
// AVX2: 4x24 = 12 ymm accumulators + broadcast + B loads stays in 16 regs.
HDCZSC_DEFINE_GEMM_KERNEL(avx2, __attribute__((target("avx2,fma"))), 4, 24)
// AVX-512: 8x32 = 16 zmm accumulators, deep enough to hide FMA latency.
HDCZSC_DEFINE_GEMM_KERNEL(avx512,
                          __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,fma"))), 8,
                          32)
#endif

struct KernelConfig {
  std::size_t mr, nr;
  MacroKernelFn macro;
  const char* name;
};

KernelConfig pick_kernel() {
#if defined(HDCZSC_GEMM_X86_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("fma"))
    return {8, 32, macro_avx512, "avx512"};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {4, 24, macro_avx2, "avx2"};
#endif
  return {4, 24, macro_portable, "portable"};
}

const KernelConfig& kernel() {
  static const KernelConfig cfg = pick_kernel();
  return cfg;
}

/// C[m, n] += op(A) * op(B) on the shared block-task grid (gemm_blocking.hpp).
/// `b_block(jc, nc, pc, kc)` yields the packed op(B)[pc:pc+kc, jc:jc+nc]
/// panels for the calling thread. Each task packs its own A panels into
/// thread-local scratch, so workers never share pack buffers. After a
/// task's last depth block, `finish(ic, mc, jc, nc)` runs on the C block it
/// alone wrote.
template <typename BBlock, typename Finish>
void run_blocked(const KernelConfig& cfg, Trans ta, std::size_t m, std::size_t n, std::size_t k,
                 const float* A, std::size_t lda, const CView& c, const BBlock& b_block,
                 const Finish& finish) {
  detail::run_block_grid(m, n, k, cfg.mr, kMC, kNC,
                         [&](std::size_t ic, std::size_t mc, std::size_t jc, std::size_t nc) {
                           float* apack =
                               scratch_f32(kScratchGemmPackA, round_up(mc, cfg.mr) * kKC);
                           for (std::size_t pc = 0; pc < k; pc += kKC) {
                             const std::size_t kc = std::min(kKC, k - pc);
                             const float* bpack = b_block(jc, nc, pc, kc);
                             pack_a(A, lda, ta, ic, pc, mc, kc, cfg.mr, apack);
                             cfg.macro(apack, bpack, mc, nc, kc, c, ic, jc);
                           }
                           finish(ic, mc, jc, nc);
                         });
}

constexpr auto kNoFinish = [](std::size_t, std::size_t, std::size_t, std::size_t) {};

// ------------------------------------------------------------- convolution

/// dst[y*ld + u] = src[y*w + u] for y < rows, u < w: an image plane's rows
/// into the interior of its zero-padded copy.
template <std::size_t kW>
void copy_rows(float* dst, std::size_t ld, const float* src, std::size_t rows, std::size_t w) {
  if constexpr (kW != 0) w = kW;
  for (std::size_t y = 0; y < rows; ++y, dst += ld, src += w)
    for (std::size_t u = 0; u < w; ++u) dst[u] = src[u];
}

using CopyRowsFn = void (*)(float*, std::size_t, const float*, std::size_t, std::size_t);

CopyRowsFn pick_copy_rows(std::size_t w) {
  switch (w) {
    case 8: return copy_rows<8>;
    case 16: return copy_rows<16>;
    case 32: return copy_rows<32>;
    default: return copy_rows<0>;
  }
}

/// The ConvEpilogue over rows [i0, i0+mc) x columns [j0, j0+nc) of a conv's
/// NCHW output, instantiated per combination of steps so that each row
/// segment is one branch-free loop. It runs in this baseline-ISA
/// translation unit, outside the FMA-enabled kernels, so `g * xhat + beta`
/// stays a rounded multiply then a rounded add, as in BatchNorm2d.
template <bool kBias, bool kBn, bool kResidual, bool kRelu>
void conv_epilogue(const ConvEpilogue& ep, const CView& c, std::size_t i0, std::size_t mc,
                   std::size_t j0, std::size_t nc) {
  for (std::size_t t = 0; t < nc;) {
    const std::size_t img = (j0 + t) / c.img_cols, col = j0 + t - img * c.img_cols;
    const std::size_t len = std::min(nc - t, c.img_cols - col);
    for (std::size_t i = i0; i < i0 + mc; ++i) {
      const std::size_t off = img * c.img_stride + i * c.ldc + col;
      float* y = c.base + off;
      const float* id = kResidual ? ep.residual + off : nullptr;
      const float bias = kBias ? ep.bias[i] : 0.0f;
      const float mean = kBn ? ep.bn_mean[i] : 0.0f, inv_std = kBn ? ep.bn_inv_std[i] : 0.0f;
      const float gamma = kBn ? ep.bn_gamma[i] : 0.0f, beta = kBn ? ep.bn_beta[i] : 0.0f;
      for (std::size_t u = 0; u < len; ++u) {
        float v = y[u];
        if constexpr (kBias) v = v + bias;
        if constexpr (kBn) {
          const float xhat = (v - mean) * inv_std;
          v = gamma * xhat + beta;
        }
        if constexpr (kResidual) v = v + id[u];
        if constexpr (kRelu) v = v < 0.0f ? 0.0f : v;
        y[u] = v;
      }
    }
    t += len;
  }
}

using ConvEpilogueFn = void (*)(const ConvEpilogue&, const CView&, std::size_t, std::size_t,
                                std::size_t, std::size_t);

template <std::size_t... I>
constexpr std::array<ConvEpilogueFn, sizeof...(I)> conv_epilogues(std::index_sequence<I...>) {
  return {&conv_epilogue<(I & 8) != 0, (I & 4) != 0, (I & 2) != 0, (I & 1) != 0>...};
}

/// The instantiation for `ep`'s steps; null when it has none.
ConvEpilogueFn pick_conv_epilogue(const ConvEpilogue& ep) {
  static constexpr auto table = conv_epilogues(std::make_index_sequence<16>());
  const std::size_t i = (ep.bias ? 8 : 0) | (ep.bn_mean ? 4 : 0) | (ep.residual ? 2 : 0) |
                        (ep.relu ? 1 : 0);
  return i == 0 ? nullptr : table[i];
}

}  // namespace

const char* gemm_kernel_name() { return kernel().name; }

void gemm_naive(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, const float* A,
                std::size_t lda, const float* B, std::size_t ldb, float* C, std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;  // degenerate: C += op(A)*op(B) is a no-op
  if (ta == Trans::N && tb == Trans::N) {
    // i-k-j: unit stride over B and C rows (the seed matmul loop).
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = C + i * ldc;
      const float* arow = A + i * lda;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        const float* brow = B + kk * ldb;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (ta == Trans::N && tb == Trans::T) {
    // Row-row dot products (the seed matmul_nt loop).
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = A + i * lda;
      float* crow = C + i * ldc;
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = B + j * ldb;
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] += static_cast<float>(acc);
      }
    }
  } else if (ta == Trans::T && tb == Trans::N) {
    // k-outer: unit stride over A rows, B rows and C rows (the seed
    // matmul_tn loop).
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* arow = A + kk * lda;
      const float* brow = B + kk * ldb;
      for (std::size_t i = 0; i < m; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* crow = C + i * ldc;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {  // T x T
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = C + i * ldc;
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) acc += A[kk * lda + i] * B[j * ldb + kk];
        crow[j] += static_cast<float>(acc);
      }
    }
  }
}

void gemm_accumulate(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                     const float* A, std::size_t lda, const float* B, std::size_t ldb, float* C,
                     std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  const obs::ScopedTimer profile(gemm_hist());
  const KernelConfig& cfg = kernel();
  // B sub-panels are re-packed once per row block of the same column block
  // — redundant work that is O(k*n) against the O(m*n*k) compute it unlocks.
  run_blocked(
      cfg, ta, m, n, k, A, lda, CView{C, ldc},
      [&](std::size_t jc, std::size_t nc, std::size_t pc, std::size_t kc) {
        float* bpack = scratch_f32(kScratchGemmPackB, round_up(nc, cfg.nr) * kKC);
        pack_b(B, ldb, tb, pc, jc, kc, nc, cfg.nr, bpack);
        return static_cast<const float*>(bpack);
      },
      kNoFinish);
}

// Panel layout: column blocks of kNC in order; inside column block jc the
// KC-deep blocks follow each other, each round_up(nc, NR) * kc floats — so
// block (jc, pc) starts at jc/kNC full column blocks plus pc padded rows.
PackedB::PackedB(Trans tb, std::size_t k, std::size_t n, const float* B, std::size_t ldb)
    : k_(k), n_(n) {
  const std::size_t nr = kernel().nr;
  const std::size_t full = n / kNC, tail = n % kNC;
  panels_.resize((full * round_up(kNC, nr) + round_up(tail, nr)) * k);
  for (std::size_t jc = 0; jc < n; jc += kNC)
    for (std::size_t pc = 0; pc < k; pc += kKC)
      pack_b(B, ldb, tb, pc, jc, std::min(kKC, k - pc), std::min(kNC, n - jc), nr,
             panels_.data() + offset(jc, pc));
}

std::size_t PackedB::offset(std::size_t jc, std::size_t pc) const {
  const std::size_t nr = kernel().nr;
  return (jc / kNC) * round_up(kNC, nr) * k_ + pc * round_up(std::min(kNC, n_ - jc), nr);
}

void gemm_packed(std::size_t m, const float* A, std::size_t lda, const PackedB& B, float* C,
                 std::size_t ldc) {
  if (m == 0 || B.n_ == 0 || B.k_ == 0) return;
  const obs::ScopedTimer profile(gemm_hist());
  run_blocked(
      kernel(), Trans::N, m, B.n_, B.k_, A, lda, CView{C, ldc},
      [&](std::size_t jc, std::size_t, std::size_t pc, std::size_t) {
        return B.panels_.data() + B.offset(jc, pc);
      },
      kNoFinish);
}

void gemm_conv(const ConvShape& s, const float* W, const float* X, const ConvEpilogue& ep,
               float* Y) {
  const std::size_t ncols = s.out_h() * s.out_w();
  const std::size_t m = s.out_c, n = s.batch * ncols, k = s.in_c * s.kernel * s.kernel;
  if (m == 0 || n == 0) return;
  const obs::ScopedTimer profile(gemm_hist());

  // Stage a zero-padded copy of the images once, so that every tap of
  // every output pixel reads in bounds: zero it whole, then copy the input
  // rows of each plane into place.
  const std::size_t hp = s.h + 2 * s.pad, wp = s.w + 2 * s.pad;
  const float* xp = X;
  if (s.pad > 0) {
    const std::size_t planes = s.batch * s.in_c;
    float* buf = scratch_f32(kScratchConvCols, planes * hp * wp);
    std::fill(buf, buf + planes * hp * wp, 0.0f);
    const CopyRowsFn copy_rows = pick_copy_rows(s.w);
    for (std::size_t plane = 0; plane < planes; ++plane)
      copy_rows(buf + (plane * hp + s.pad) * wp + s.pad, wp, X + plane * s.h * s.w, s.h, s.w);
    xp = buf;
  }

  const CView view{Y, ncols, ncols, m * ncols};
  const ConvEpilogueFn epilogue = pick_conv_epilogue(ep);
  const auto finish = [&](std::size_t ic, std::size_t mc, std::size_t jc, std::size_t nc) {
    if (epilogue) epilogue(ep, view, ic, mc, jc, nc);
  };
  const KernelConfig& cfg = kernel();
  run_blocked(
      cfg, Trans::N, m, n, k, W, k, view,
      [&](std::size_t jc, std::size_t nc, std::size_t pc, std::size_t kc) {
        float* bpack = scratch_f32(kScratchGemmPackB, round_up(nc, cfg.nr) * kKC);
        detail::pack_b_conv<float, 1, kKC>(s, xp, hp, wp, pc, jc, kc, nc, cfg.nr, bpack);
        return static_cast<const float*>(bpack);
      },
      finish);
}

}  // namespace hdczsc::tensor
