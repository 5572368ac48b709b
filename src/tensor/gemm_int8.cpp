#include "tensor/gemm_int8.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "obs/metrics.hpp"
#include "tensor/gemm_blocking.hpp"
#include "tensor/scratch.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDCZSC_GEMM_INT8_X86 1
#include <immintrin.h>
#endif

namespace hdczsc::tensor {

namespace {

obs::Histogram* gemm_int8_hist() {
  static const std::shared_ptr<obs::Histogram> h = obs::default_registry().histogram(
      "tensor_gemm_int8_ms", {}, "wall time of one gemm_s8u8_accumulate or gemm_s8u8_conv call");
  return h.get();
}

// Cache blocking: bytes are a quarter of floats, so KC runs twice as deep as
// the float core's while an MC x KC packed A block still stays well inside
// L2; NC keeps one (jc, ic) task a meaty parallel unit. KC is a multiple of
// 4 so only the final k-block ever carries a ragged quad.
constexpr std::size_t kMC = 256;
constexpr std::size_t kKC = 512;
constexpr std::size_t kNC = 2048;

/// Pack A[ic:ic+mc, pc:pc+kc] into MR-tall panels of k-quads: within a
/// panel, quad g holds rows' bytes [i][4g..4g+3] contiguously per row —
/// the 4-byte broadcast unit of the micro-kernels. Ragged rows and the
/// ragged final quad are zero-filled (zero *weights*, so padded lanes
/// contribute exactly 0 regardless of the activation bytes against them).
void pack_a(const std::int8_t* A, std::size_t lda, std::size_t ic, std::size_t pc,
            std::size_t mc, std::size_t kc, std::size_t mr_tile, std::int8_t* buf) {
  const std::size_t full_g = kc / 4;  // quads with all four k-values in range
  const std::size_t kg = (kc + 3) / 4;
  for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
    const std::size_t mr = std::min(mr_tile, mc - ir);
    const std::int8_t* base = A + (ic + ir) * lda + pc;
    for (std::size_t g = 0; g < full_g; ++g) {
      for (std::size_t i = 0; i < mr; ++i) {
        std::memcpy(buf, base + i * lda + 4 * g, 4);
        buf += 4;
      }
      for (std::size_t i = mr; i < mr_tile; ++i) {
        std::memset(buf, 0, 4);
        buf += 4;
      }
    }
    if (full_g < kg) {  // ragged final quad, zero-padded past kc
      for (std::size_t i = 0; i < mr_tile; ++i) {
        for (std::size_t b = 0; b < 4; ++b) {
          const std::size_t p = 4 * full_g + b;
          *buf++ = (i < mr && p < kc) ? base[i * lda + p] : std::int8_t{0};
        }
      }
    }
  }
}

/// q = clamp(trunc(r ± 0.5) + zp, 0, 255) with r = x·(1/s): r rounded half
/// away from zero. r + copysign(0.5, r) equals r >= 0 ? r + 0.5 : r − 0.5
/// except at r = −0.0, where both truncate to 0.
inline std::uint8_t quantize_u8(float v, float inv_scale, std::int32_t zp) {
  const float r = v * inv_scale;
  int q = static_cast<int>(r + std::copysign(0.5f, r)) + zp;
  if (q < 0) q = 0;
  if (q > 255) q = 255;
  return static_cast<std::uint8_t>(q);
}

/// dst[y*dst_ld + u] = quantize_u8(src[y*src_ld + u*step]) for y < rows,
/// u < n. On x86-64 four codes at a time in baseline SSE2: cvttps2dq
/// truncates as the scalar cast does, and the two saturating packs clamp to
/// [0, 255] as the scalar clamps do.
void quantize_rows(std::uint8_t* dst, std::size_t dst_ld, const float* src, std::size_t src_ld,
                   std::size_t rows, std::size_t n, std::size_t step, float inv_scale,
                   std::int32_t zp) {
  for (std::size_t y = 0; y < rows; ++y, dst += dst_ld, src += src_ld) {
    std::size_t u = 0;
#if defined(HDCZSC_GEMM_INT8_X86)
    const __m128 inv = _mm_set1_ps(inv_scale), half = _mm_set1_ps(0.5f);
    const __m128 sign = _mm_set1_ps(-0.0f);
    for (; u + 4 <= n; u += 4) {
      const float* x = src + u * step;
      const __m128 r = _mm_mul_ps(
          step == 1 ? _mm_loadu_ps(x) : _mm_setr_ps(x[0], x[step], x[2 * step], x[3 * step]),
          inv);
      const __m128i q = _mm_add_epi32(
          _mm_cvttps_epi32(_mm_add_ps(r, _mm_or_ps(half, _mm_and_ps(r, sign)))),
          _mm_set1_epi32(zp));
      const __m128i q16 = _mm_packs_epi32(q, q);
      const std::int32_t codes = _mm_cvtsi128_si32(_mm_packus_epi16(q16, q16));
      std::memcpy(dst + u, &codes, 4);
    }
#endif
    for (; u < n; ++u) dst[u] = quantize_u8(src[u * step], inv_scale, zp);
  }
}

/// The QuantConvEpilogue from the s32 block acc [mc, nc] of output rows
/// [i0, i0+mc) x columns [j0, j0+nc) into the NCHW Y, whose images are
/// [out_c, ncols] blocks. Baseline-ISA code, so no multiply-add contracts.
void write_back(const QuantConvEpilogue& ep, const std::int32_t* acc, std::size_t i0,
                std::size_t mc, std::size_t j0, std::size_t nc, std::size_t out_c,
                std::size_t ncols, float* Y) {
  for (std::size_t t = 0; t < nc;) {
    const std::size_t img = (j0 + t) / ncols, col = j0 + t - img * ncols;
    const std::size_t len = std::min(nc - t, ncols - col);
    for (std::size_t i = 0; i < mc; ++i) {
      const std::size_t oc = i0 + i, off = (img * out_c + oc) * ncols + col;
      const std::int32_t* a = acc + i * nc + t;
      const float sc = ep.in_scale * ep.w_scale[oc];
      const std::int32_t corr = ep.in_zero_point * ep.wsum[oc];
      const float bias = ep.bias[oc];
      for (std::size_t u = 0; u < len; ++u) {
        float v = sc * static_cast<float>(a[u] - corr) + bias;
        if (ep.relu) v = v > 0.0f ? v : 0.0f;
        if (ep.residual) {
          v = v + ep.residual[off + u];
          v = v > 0.0f ? v : 0.0f;
        }
        Y[off + u] = v;
      }
    }
    t += len;
  }
}

using MacroKernelFn = void (*)(const std::int8_t* apack, const std::uint8_t* bpack,
                               std::size_t mc, std::size_t nc, std::size_t kg, std::int32_t* C,
                               std::size_t ldc);

// ---------------------------------------------------------------------------
// Portable micro-kernel: 4x8 tile over the shared k-quad panel layout. Plain
// int loops — the compiler widens to whatever the baseline target offers.
// ---------------------------------------------------------------------------

void micro_portable(const std::int8_t* a, const std::uint8_t* b, std::size_t kg,
                    std::int32_t* C, std::size_t ldc, std::size_t mr, std::size_t nr) {
  constexpr std::size_t MR = 4, NR = 8;
  std::int32_t acc[MR][NR] = {};
  for (std::size_t g = 0; g < kg; ++g) {
    for (std::size_t i = 0; i < MR; ++i) {
      const std::int8_t* av = a + 4 * i;
      for (std::size_t j = 0; j < NR; ++j) {
        const std::uint8_t* bv = b + 4 * j;
        acc[i][j] += static_cast<std::int32_t>(av[0]) * bv[0] +
                     static_cast<std::int32_t>(av[1]) * bv[1] +
                     static_cast<std::int32_t>(av[2]) * bv[2] +
                     static_cast<std::int32_t>(av[3]) * bv[3];
      }
    }
    a += MR * 4;
    b += NR * 4;
  }
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j) C[i * ldc + j] += acc[i][j];
}

void macro_portable(const std::int8_t* apack, const std::uint8_t* bpack, std::size_t mc,
                    std::size_t nc, std::size_t kg, std::int32_t* C, std::size_t ldc) {
  constexpr std::size_t MR = 4, NR = 8;
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const std::uint8_t* bp = bpack + (jr / NR) * (kg * 4 * NR);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const std::int8_t* ap = apack + (ir / MR) * (kg * 4 * MR);
      micro_portable(ap, bp, kg, C + ir * ldc + jr, ldc, mr, nr);
    }
  }
}

#if defined(HDCZSC_GEMM_INT8_X86)

// ---------------------------------------------------------------------------
// AVX2 micro-kernel: 4x16 tile, 8 ymm s32 accumulators. Per k-quad and
// 8-column vector: vpmaddubsw(activations_u8, weights_s8_broadcast) sums
// byte pairs into s16 (safe from saturation by the |A| <= 64 contract),
// vpmaddwd against ones folds the two pair sums into one s32 per column,
// vpaddd accumulates — 32 MACs per three ALU ops vs the float FMA's 8.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i bcast_quad(const std::int8_t* p) {
  std::int32_t w;
  std::memcpy(&w, p, 4);
  return _mm256_set1_epi32(w);
}

__attribute__((target("avx2"))) void micro_avx2(const std::int8_t* a, const std::uint8_t* b,
                                                std::size_t kg, std::int32_t* C,
                                                std::size_t ldc, std::size_t mr,
                                                std::size_t nr) {
  constexpr std::size_t MR = 4, NR = 16;
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[MR][2];
  for (std::size_t i = 0; i < MR; ++i) acc[i][0] = acc[i][1] = _mm256_setzero_si256();
  for (std::size_t g = 0; g < kg; ++g) {
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 32));
    for (std::size_t i = 0; i < MR; ++i) {
      const __m256i av = bcast_quad(a + 4 * i);
      acc[i][0] = _mm256_add_epi32(
          acc[i][0], _mm256_madd_epi16(_mm256_maddubs_epi16(b0, av), ones));
      acc[i][1] = _mm256_add_epi32(
          acc[i][1], _mm256_madd_epi16(_mm256_maddubs_epi16(b1, av), ones));
    }
    a += MR * 4;
    b += NR * 4;
  }
  if (mr == MR && nr == NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      std::int32_t* crow = C + i * ldc;
      __m256i c0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow));
      __m256i c1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow + 8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), _mm256_add_epi32(c0, acc[i][0]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8),
                          _mm256_add_epi32(c1, acc[i][1]));
    }
  } else {
    alignas(32) std::int32_t tmp[MR][NR];
    for (std::size_t i = 0; i < MR; ++i) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[i][0]), acc[i][0]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[i][8]), acc[i][1]);
    }
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) C[i * ldc + j] += tmp[i][j];
  }
}

__attribute__((target("avx2"))) void macro_avx2(const std::int8_t* apack,
                                               const std::uint8_t* bpack, std::size_t mc,
                                               std::size_t nc, std::size_t kg, std::int32_t* C,
                                               std::size_t ldc) {
  constexpr std::size_t MR = 4, NR = 16;
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const std::uint8_t* bp = bpack + (jr / NR) * (kg * 4 * NR);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const std::int8_t* ap = apack + (ir / MR) * (kg * 4 * MR);
      micro_avx2(ap, bp, kg, C + ir * ldc + jr, ldc, mr, nr);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX-512 VNNI micro-kernel: 4x32 tile, 8 zmm s32 accumulators. vpdpbusd
// fuses the whole u8·s8 k-quad dot product into the accumulator — 64 MACs
// per instruction, no s16 intermediate at all.
// ---------------------------------------------------------------------------

#define HDCZSC_VNNI_TARGET "avx512f,avx512bw,avx512vl,avx512vnni"

__attribute__((target(HDCZSC_VNNI_TARGET))) void micro_vnni(const std::int8_t* a,
                                                            const std::uint8_t* b,
                                                            std::size_t kg, std::int32_t* C,
                                                            std::size_t ldc, std::size_t mr,
                                                            std::size_t nr) {
  constexpr std::size_t MR = 4, NR = 32;
  __m512i acc[MR][2];
  for (std::size_t i = 0; i < MR; ++i) acc[i][0] = acc[i][1] = _mm512_setzero_si512();
  for (std::size_t g = 0; g < kg; ++g) {
    const __m512i b0 = _mm512_loadu_si512(b);
    const __m512i b1 = _mm512_loadu_si512(b + 64);
    for (std::size_t i = 0; i < MR; ++i) {
      std::int32_t w;
      std::memcpy(&w, a + 4 * i, 4);
      const __m512i av = _mm512_set1_epi32(w);
      acc[i][0] = _mm512_dpbusd_epi32(acc[i][0], b0, av);
      acc[i][1] = _mm512_dpbusd_epi32(acc[i][1], b1, av);
    }
    a += MR * 4;
    b += NR * 4;
  }
  if (mr == MR && nr == NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      std::int32_t* crow = C + i * ldc;
      _mm512_storeu_si512(crow, _mm512_add_epi32(_mm512_loadu_si512(crow), acc[i][0]));
      _mm512_storeu_si512(crow + 16,
                          _mm512_add_epi32(_mm512_loadu_si512(crow + 16), acc[i][1]));
    }
  } else {
    alignas(64) std::int32_t tmp[MR][NR];
    for (std::size_t i = 0; i < MR; ++i) {
      _mm512_store_si512(&tmp[i][0], acc[i][0]);
      _mm512_store_si512(&tmp[i][16], acc[i][1]);
    }
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) C[i * ldc + j] += tmp[i][j];
  }
}

__attribute__((target(HDCZSC_VNNI_TARGET))) void macro_vnni(const std::int8_t* apack,
                                                            const std::uint8_t* bpack,
                                                            std::size_t mc, std::size_t nc,
                                                            std::size_t kg, std::int32_t* C,
                                                            std::size_t ldc) {
  constexpr std::size_t MR = 4, NR = 32;
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const std::uint8_t* bp = bpack + (jr / NR) * (kg * 4 * NR);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const std::int8_t* ap = apack + (ir / MR) * (kg * 4 * MR);
      micro_vnni(ap, bp, kg, C + ir * ldc + jr, ldc, mr, nr);
    }
  }
}

#endif  // HDCZSC_GEMM_INT8_X86

struct KernelConfig {
  std::size_t mr, nr;
  MacroKernelFn macro;
  const char* name;
};

constexpr KernelConfig kPortable{4, 8, macro_portable, "portable"};
#if defined(HDCZSC_GEMM_INT8_X86)
constexpr KernelConfig kAvx2{4, 16, macro_avx2, "avx2"};
constexpr KernelConfig kVnni{4, 32, macro_vnni, "avx512vnni"};

bool cpu_supports(const KernelConfig& cfg) {
  __builtin_cpu_init();
  if (cfg.macro == macro_avx2) return __builtin_cpu_supports("avx2");
  if (cfg.macro == macro_vnni)
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni");
  return true;
}
#else
bool cpu_supports(const KernelConfig& cfg) { return cfg.macro == macro_portable; }
#endif

const KernelConfig* detect_kernel() {
#if defined(HDCZSC_GEMM_INT8_X86)
  if (cpu_supports(kVnni)) return &kVnni;
  if (cpu_supports(kAvx2)) return &kAvx2;
#endif
  return &kPortable;
}

std::atomic<const KernelConfig*>& active_kernel() {
  static std::atomic<const KernelConfig*> active{detect_kernel()};
  return active;
}

}  // namespace

const char* gemm_int8_kernel_name() { return active_kernel().load()->name; }

bool gemm_int8_force_kernel(const char* name) {
  if (name == nullptr || std::strcmp(name, "auto") == 0) {
    active_kernel().store(detect_kernel());
    return true;
  }
  const KernelConfig* candidates[] = {
    &kPortable,
#if defined(HDCZSC_GEMM_INT8_X86)
    &kAvx2,
    &kVnni,
#endif
  };
  for (const KernelConfig* cfg : candidates) {
    if (std::strcmp(name, cfg->name) == 0 && cpu_supports(*cfg)) {
      active_kernel().store(cfg);
      return true;
    }
  }
  return false;
}

void gemm_s32_naive(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* A,
                    std::size_t lda, const std::uint8_t* B, std::size_t ldb, std::int32_t* C,
                    std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  // i-k-j: unit stride over B and C rows, mirroring the float gemm_naive.
  for (std::size_t i = 0; i < m; ++i) {
    std::int32_t* crow = C + i * ldc;
    const std::int8_t* arow = A + i * lda;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = arow[kk];
      if (av == 0) continue;
      const std::uint8_t* brow = B + kk * ldb;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * static_cast<std::int32_t>(brow[j]);
    }
  }
}

void gemm_s8u8_accumulate(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* A,
                          std::size_t lda, const std::uint8_t* B, std::size_t ldb,
                          std::int32_t* C, std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  const obs::ScopedTimer profile(gemm_int8_hist());
  const KernelConfig& cfg = *active_kernel().load();
  // B [k, n] is the one-pixel-high image of a 1×1 conv with k channels.
  const ConvShape b_image{1, k, 1, ldb, m, 1, 1, 0};
  detail::run_block_grid(
      m, n, k, cfg.mr, kMC, kNC,
      [&](std::size_t ic, std::size_t mc, std::size_t jc, std::size_t nc) {
        auto* apack = reinterpret_cast<std::int8_t*>(
            scratch_u8(kScratchGemmPackA, detail::round_up(mc, cfg.mr) * kKC));
        std::uint8_t* bpack = scratch_u8(kScratchGemmPackB, detail::round_up(nc, cfg.nr) * kKC);
        for (std::size_t pc = 0; pc < k; pc += kKC) {
          const std::size_t kc = std::min(kKC, k - pc);
          detail::pack_b_conv<std::uint8_t, 4, kKC>(b_image, B, 1, ldb, pc, jc, kc, nc, cfg.nr,
                                                    bpack);
          pack_a(A, lda, ic, pc, mc, kc, cfg.mr, apack);
          cfg.macro(apack, bpack, mc, nc, (kc + 3) / 4, C + ic * ldc + jc, ldc);
        }
      });
}

void gemm_s8u8_conv(const ConvShape& s, const std::int8_t* W, const float* X,
                    const QuantConvEpilogue& ep, float* Y) {
  const std::size_t ncols = s.out_h() * s.out_w();
  const std::size_t m = s.out_c, n = s.batch * ncols, k = s.in_c * s.kernel * s.kernel;
  if (m == 0 || n == 0) return;
  const obs::ScopedTimer profile(gemm_int8_hist());

  // Stage the elements the conv reads, each quantized once, with the zero
  // point (the exact code of real 0.0) around them. An unpadded 1×1 conv
  // reads only the stride-s subgrid: stage that and convolve it at stride 1.
  const std::size_t step = s.kernel == 1 && s.pad == 0 ? s.stride : 1;
  ConvShape g = s;
  if (step > 1) g = {s.batch, s.in_c, s.out_h(), s.out_w(), s.out_c, 1, 1, 0};
  const std::size_t hp = g.h + 2 * g.pad, wp = g.w + 2 * g.pad;
  const std::size_t planes = s.batch * s.in_c;
  std::uint8_t* xq = scratch_u8(kScratchConvCols, planes * hp * wp);
  const float inv_scale = 1.0f / ep.in_scale;
  const std::int32_t zp = ep.in_zero_point;
  if (g.pad == 0 && step == 1) {  // the staged copy is the input, quantized
    quantize_rows(xq, 0, X, 0, 1, planes * s.h * s.w, 1, inv_scale, zp);
  } else {
    if (g.pad > 0) std::memset(xq, static_cast<std::uint8_t>(zp), planes * hp * wp);
    for (std::size_t plane = 0; plane < planes; ++plane)
      quantize_rows(xq + (plane * hp + g.pad) * wp + g.pad, wp, X + plane * s.h * s.w,
                    step * s.w, g.h, g.w, step, inv_scale, zp);
  }

  const KernelConfig& cfg = *active_kernel().load();
  detail::run_block_grid(
      m, n, k, cfg.mr, kMC, kNC,
      [&](std::size_t ic, std::size_t mc, std::size_t jc, std::size_t nc) {
        auto* apack = reinterpret_cast<std::int8_t*>(
            scratch_u8(kScratchGemmPackA, detail::round_up(mc, cfg.mr) * kKC));
        std::uint8_t* bpack = scratch_u8(kScratchGemmPackB, detail::round_up(nc, cfg.nr) * kKC);
        std::int32_t* acc = scratch_i32(kScratchConvOut, mc * nc);
        std::fill(acc, acc + mc * nc, 0);
        for (std::size_t pc = 0; pc < k; pc += kKC) {
          const std::size_t kc = std::min(kKC, k - pc);
          detail::pack_b_conv<std::uint8_t, 4, kKC>(g, xq, hp, wp, pc, jc, kc, nc, cfg.nr, bpack);
          pack_a(W, k, ic, pc, mc, kc, cfg.mr, apack);
          cfg.macro(apack, bpack, mc, nc, (kc + 3) / 4, acc, nc);
        }
        write_back(ep, acc, ic, mc, jc, nc, m, ncols, Y);
      });
}

}  // namespace hdczsc::tensor
