#include "tensor/gemm_int8.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/metrics.hpp"
#include "tensor/scratch.hpp"
#include "util/parallel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDCZSC_GEMM_INT8_X86 1
#include <immintrin.h>
#endif

namespace hdczsc::tensor {

namespace {

obs::Histogram* gemm_int8_hist() {
  static const std::shared_ptr<obs::Histogram> h = obs::default_registry().histogram(
      "tensor_gemm_int8_ms", {}, "wall time of one gemm_s8u8_accumulate call");
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

/// Pack B[pc:pc+kc, jc:jc+nc] into NR-wide panels of k-quads: within a
/// panel, quad g holds each column j's bytes [4g..4g+3][j] contiguously —
/// the layout vpmaddubsw/vpdpbusd consume directly. Ragged columns and the
/// final quad are zero-filled (they only ever meet zero-padded A rows or
/// are masked by the ragged-tile store).
void pack_b(const std::uint8_t* B, std::size_t ldb, std::size_t pc, std::size_t jc,
            std::size_t kc, std::size_t nc, std::size_t nr_tile, std::uint8_t* buf) {
  const std::size_t full_g = kc / 4;
  const std::size_t kg = (kc + 3) / 4;
  for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
    const std::size_t nr = std::min(nr_tile, nc - jr);
    const std::uint8_t* col0 = B + pc * ldb + jc + jr;
    for (std::size_t g = 0; g < full_g; ++g) {
      // Four consecutive B rows interleaved column-by-column: each j emits
      // the k-quad [r0[j], r1[j], r2[j], r3[j]] the SIMD kernels consume.
      const std::uint8_t* r0 = col0 + 4 * g * ldb;
      const std::uint8_t* r1 = r0 + ldb;
      const std::uint8_t* r2 = r1 + ldb;
      const std::uint8_t* r3 = r2 + ldb;
      for (std::size_t j = 0; j < nr; ++j) {
        buf[0] = r0[j];
        buf[1] = r1[j];
        buf[2] = r2[j];
        buf[3] = r3[j];
        buf += 4;
      }
      for (std::size_t j = nr; j < nr_tile; ++j) {
        std::memset(buf, 0, 4);
        buf += 4;
      }
    }
    if (full_g < kg) {
      for (std::size_t j = 0; j < nr_tile; ++j) {
        for (std::size_t b = 0; b < 4; ++b) {
          const std::size_t p = 4 * full_g + b;
          *buf++ = (j < nr && p < kc) ? col0[p * ldb + j] : std::uint8_t{0};
        }
      }
    }
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
  // Same worker-aware row-block shrink as the float core: split rows only as
  // far as the pool can use, never below two tile rows.
  std::size_t mc_blk = kMC;
  const std::size_t workers = util::worker_count();
  if (workers > 1) {
    const std::size_t jblocks = (n + kNC - 1) / kNC;
    const std::size_t want_iblocks = (workers + jblocks - 1) / jblocks;
    if (want_iblocks > 1) {
      std::size_t per = (m + want_iblocks - 1) / want_iblocks;
      per = std::max(per, 2 * cfg.mr);
      mc_blk = std::min(kMC, (per + cfg.mr - 1) / cfg.mr * cfg.mr);
    }
  }
  const std::size_t n_iblocks = (m + mc_blk - 1) / mc_blk;
  const std::size_t n_jblocks = (n + kNC - 1) / kNC;

  util::parallel_for(0, n_iblocks * n_jblocks, [&](std::size_t task) {
    const std::size_t ic = (task % n_iblocks) * mc_blk;
    const std::size_t jc = (task / n_iblocks) * kNC;
    const std::size_t mc = std::min(mc_blk, m - ic);
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t mc_padded = (mc + cfg.mr - 1) / cfg.mr * cfg.mr;
    const std::size_t nc_padded = (nc + cfg.nr - 1) / cfg.nr * cfg.nr;
    auto* apack =
        reinterpret_cast<std::int8_t*>(scratch_u8(kScratchGemmPackA, mc_padded * kKC));
    std::uint8_t* bpack = scratch_u8(kScratchGemmPackB, nc_padded * kKC);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const std::size_t kg = (kc + 3) / 4;
      pack_b(B, ldb, pc, jc, kc, nc, cfg.nr, bpack);
      pack_a(A, lda, ic, pc, mc, kc, cfg.mr, apack);
      cfg.macro(apack, bpack, mc, nc, kg, C + ic * ldc + jc, ldc);
    }
  }, 1);
}

}  // namespace hdczsc::tensor
