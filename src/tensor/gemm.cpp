#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstddef>

#include "obs/metrics.hpp"
#include "tensor/scratch.hpp"
#include "util/parallel.hpp"

namespace hdczsc::tensor {

namespace {

/// Profiling hook (obs::set_profiling_enabled): wall time of each top-level
/// gemm_accumulate / gemm_packed call. Magic static — one pointer load per call; with
/// profiling off the ScopedTimer reads no clock.
obs::Histogram* gemm_hist() {
  static const std::shared_ptr<obs::Histogram> h = obs::default_registry().histogram(
      "tensor_gemm_ms", {}, "wall time of one gemm_accumulate or gemm_packed call");
  return h.get();
}

// Cache blocking: an MC x KC packed A block (~128 KiB) stays L2-resident
// while a KC x NC packed B block streams through; KC deep enough to amortize
// the C-tile load/store in the micro-kernel, NC sized so one (jc, ic) task is
// meaty enough to be a parallel work unit on its own.
constexpr std::size_t kMC = 128;
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 1024;

/// Logical element (i, p) of op(A) for either transpose state.
inline float at(const float* M, std::size_t ld, Trans t, std::size_t i, std::size_t p) {
  return t == Trans::N ? M[i * ld + p] : M[p * ld + i];
}

/// Pack op(A)[ic:ic+mc, pc:pc+kc] into MR-tall panels, k-major within each
/// panel; ragged bottom rows are zero-filled so the micro-kernel always runs
/// a full MR x NR tile.
void pack_a(const float* A, std::size_t lda, Trans ta, std::size_t ic, std::size_t pc,
            std::size_t mc, std::size_t kc, std::size_t mr_tile, float* buf) {
  for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
    const std::size_t mr = std::min(mr_tile, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) *buf++ = at(A, lda, ta, ic + ir + i, pc + p);
      for (std::size_t i = mr; i < mr_tile; ++i) *buf++ = 0.0f;
    }
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

using MacroKernelFn = void (*)(const float* apack, const float* bpack, std::size_t mc,
                               std::size_t nc, std::size_t kc, float* C, std::size_t ldc);

// One micro + macro kernel pair per ISA. The micro-kernel keeps an MR x NR
// accumulator block in registers across the whole KC depth; the loops are
// plain counted loops over contiguous packed panels, which every supported
// compiler turns into broadcast-FMA vector code for the annotated target.
// Tile shapes are per-ISA: they are chosen so the accumulator block fills
// (but does not spill) that ISA's vector register file.
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
                                   std::size_t nc, std::size_t kc, float* C,              \
                                   std::size_t ldc) {                                     \
    constexpr std::size_t MR = (MR_), NR = (NR_);                                         \
    for (std::size_t jr = 0; jr < nc; jr += NR) {                                         \
      const std::size_t nr = std::min(NR, nc - jr);                                       \
      const float* bp = bpack + (jr / NR) * (kc * NR);                                    \
      for (std::size_t ir = 0; ir < mc; ir += MR) {                                       \
        const std::size_t mr = std::min(MR, mc - ir);                                     \
        const float* ap = apack + (ir / MR) * (kc * MR);                                  \
        micro_##suffix(ap, bp, kc, C + ir * ldc + jr + 0, ldc, mr, nr);                   \
      }                                                                                   \
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

std::size_t round_up(std::size_t x, std::size_t to) { return (x + to - 1) / to * to; }

/// Run the flattened (jc, ic) block-task grid of C[m, n] += op(A) * op(B).
/// `b_block(jc, nc, pc, kc)` yields the packed op(B)[pc:pc+kc, jc:jc+nc]
/// panels for the calling thread. Each task packs its own A panels into
/// thread-local scratch, so workers never share pack buffers.
template <typename BBlock>
void run_blocked(const KernelConfig& cfg, Trans ta, std::size_t m, std::size_t n, std::size_t k,
                 const float* A, std::size_t lda, float* C, std::size_t ldc,
                 const BBlock& b_block) {
  const std::size_t workers = m * n * k < kGemmInlineMacs ? 1 : util::worker_count();
  // Shrink the row-block height when the (jc, ic) grid alone would leave
  // workers idle (e.g. Linear layers: m = batch <= 128, n <= 1024 is a
  // single MC x NC block). Extra row blocks re-pack B redundantly, so only
  // split as far as the pool can use, never below two tile rows.
  std::size_t mc_blk = kMC;
  if (workers > 1) {
    const std::size_t jblocks = (n + kNC - 1) / kNC;
    const std::size_t want_iblocks = (workers + jblocks - 1) / jblocks;
    if (want_iblocks > 1) {
      const std::size_t per = std::max((m + want_iblocks - 1) / want_iblocks, 2 * cfg.mr);
      mc_blk = std::min(kMC, round_up(per, cfg.mr));
    }
  }
  const std::size_t n_iblocks = (m + mc_blk - 1) / mc_blk;
  const std::size_t n_tasks = n_iblocks * ((n + kNC - 1) / kNC);
  const auto task = [&](std::size_t t) {
    const std::size_t ic = (t % n_iblocks) * mc_blk;
    const std::size_t jc = (t / n_iblocks) * kNC;
    const std::size_t mc = std::min(mc_blk, m - ic);
    const std::size_t nc = std::min(kNC, n - jc);
    float* apack = scratch_f32(kScratchGemmPackA, round_up(mc, cfg.mr) * kKC);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const float* bpack = b_block(jc, nc, pc, kc);
      pack_a(A, lda, ta, ic, pc, mc, kc, cfg.mr, apack);
      cfg.macro(apack, bpack, mc, nc, kc, C + ic * ldc + jc, ldc);
    }
  };
  if (workers > 1) {
    util::parallel_for(0, n_tasks, task, 1);
  } else {
    for (std::size_t t = 0; t < n_tasks; ++t) task(t);
  }
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
  if (m * n * k < kGemmNaiveCutoff) {
    gemm_naive(ta, tb, m, n, k, A, lda, B, ldb, C, ldc);
    return;
  }
  const KernelConfig& cfg = kernel();
  // B sub-panels are re-packed once per row block of the same column block
  // — redundant work that is O(k*n) against the O(m*n*k) compute it unlocks.
  run_blocked(cfg, ta, m, n, k, A, lda, C, ldc,
              [&](std::size_t jc, std::size_t nc, std::size_t pc, std::size_t kc) {
                float* bpack = scratch_f32(kScratchGemmPackB, round_up(nc, cfg.nr) * kKC);
                pack_b(B, ldb, tb, pc, jc, kc, nc, cfg.nr, bpack);
                return static_cast<const float*>(bpack);
              });
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
  run_blocked(kernel(), Trans::N, m, B.n_, B.k_, A, lda, C, ldc,
              [&](std::size_t jc, std::size_t, std::size_t pc, std::size_t) {
                return B.panels_.data() + B.offset(jc, pc);
              });
}

}  // namespace hdczsc::tensor
