// Cache-blocked single-precision GEMM over raw row-major buffers.
//
// This is the compute core every dense hot path routes through:
// tensor::matmul / matmul_nt / matmul_tn, Linear forward/backward, and the
// whole-batch convolution (gemm_conv forward, im2col GEMMs backward). The
// design is the classic three-level blocking scheme (BLIS-style):
//
//   * B is packed into NR-wide column panels (KC x NC block),
//   * A is packed into MR-tall row panels (MC x KC block),
//     — each (column-block, row-block) task packs both panels into its own
//     thread-local scratch, so B panels are re-packed once per row block of
//     the same column block (redundancy that is O(k*n) against the O(m*n*k)
//     compute it parallelizes race-free); a constant B (frozen weights) can
//     instead be packed once up front (PackedB + gemm_packed),
//   * a register-tiled MR x NR micro-kernel runs down the shared KC dimension
//     with a local accumulator array the compiler keeps in vector registers.
//
// The micro-kernel is stamped out once per ISA (portable / AVX2+FMA /
// AVX-512) with plain autovectorizable loops — no intrinsics — and the best
// variant the CPU supports is selected once at runtime. Row blocks fan out
// across util::parallel_for workers (products under kGemmInlineMacs stay on
// the calling thread); transposed operands are handled inside the packing
// routines so all variants share one kernel.
//
// Every product, however small, runs that one kernel. C[i, j] is the sum of
// KC-deep register partial sums of row i of op(A) against column j of
// op(B), added into C in depth order, so its arithmetic depends only on
// those two vectors, k and the kernel variant — never on m, n, the task
// grid or the worker count. A query's scores are therefore the same bits
// alone or in any batch, against the whole prototype matrix or any row
// range of it.
#pragma once

#include <cstddef>
#include <vector>

namespace hdczsc::tensor {

enum class Trans : unsigned char { N, T };

/// Products of fewer multiply-adds run their block-task grid on the calling
/// thread instead of the worker pool: below ~2M multiply-adds a pool
/// dispatch costs about as much as the work it would share (see DESIGN.md
/// §6 "Threading model" for the measurement).
inline constexpr std::size_t kGemmInlineMacs = std::size_t{1} << 21;

/// C[m,n] += op(A) * op(B) with op(X) = X or X^T.
///
/// All matrices are dense row-major with explicit leading dimensions:
/// op(A)(i,p) reads A[i*lda + p] (Trans::N, A is [m,k]) or A[p*lda + i]
/// (Trans::T, A is [k,m]); op(B) analogously. C is always [m, ldc>=n].
/// Accumulates into C — callers wanting C = A*B zero C first.
///
/// Accumulation is single precision, but structured: each C element is the
/// sum of KC-deep register partial sums spread across NR vector lanes, so
/// rounding error grows with k/KC rather than k (measured ~2e-5 relative at
/// k=65536 on N(0,1) data — tighter than a serial float loop, looser than
/// the old matmul_nt double path; tests pin 1e-4 at k=16384).
void gemm_accumulate(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                     const float* A, std::size_t lda, const float* B, std::size_t ldb, float* C,
                     std::size_t ldc);

/// op(B) [k, n] packed once into the NR-wide column panels gemm_accumulate
/// packs per call (the BLIS scheme's packed constant operand). Immutable
/// after construction, so one pack may serve any number of threads. Holds
/// about k·n floats (ragged panels zero-padded to the kernel's NR).
class PackedB {
 public:
  /// Packs op(B) = B (Trans::N, B is [k, n]) or B^T (Trans::T, B is [n, k]).
  PackedB(Trans tb, std::size_t k, std::size_t n, const float* B, std::size_t ldb);

 private:
  friend void gemm_packed(std::size_t m, const float* A, std::size_t lda, const PackedB& B,
                          float* C, std::size_t ldc);
  /// Index of the panels packed for column block jc, depth block pc.
  std::size_t offset(std::size_t jc, std::size_t pc) const;

  std::size_t k_, n_;
  std::vector<float> panels_;
};

/// C[m, n] += A * op(B) for row-major A [m, k] and a pre-packed op(B), on
/// the same kernel and task grid as gemm_accumulate: bitwise equal to
/// gemm_accumulate(N, tb, …) for every m.
void gemm_packed(std::size_t m, const float* A, std::size_t lda, const PackedB& B, float* C,
                 std::size_t ldc);

/// A square-kernel convolution over an NCHW input [batch, in_c, h, w] with
/// [out_c, in_c, kernel, kernel] weights, as gemm_conv computes it.
struct ConvShape {
  std::size_t batch = 0, in_c = 0, h = 0, w = 0;
  std::size_t out_c = 0, kernel = 1, stride = 1, pad = 0;

  std::size_t out_h() const { return (h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (w + 2 * pad - kernel) / stride + 1; }
};

/// What gemm_conv does to each output element after the last depth block,
/// per output channel oc and in the unfused layers' float order:
///   v += bias[oc];                                        (conv bias)
///   v = bn_gamma[oc] * ((v - bn_mean[oc]) * bn_inv_std[oc]) + bn_beta[oc];
///                                                         (eval BatchNorm)
///   v += residual[same NCHW index];                       (residual add)
///   v = v < 0 ? 0 : v;                                    (ReLU select)
/// A null pointer (or relu == false) skips its step; BN takes all four of
/// its arrays or none. Every step is one rounded float operation, as in
/// the separate layers — no multiply-add is contracted — so the fused
/// result is bitwise the layer-by-layer one.
struct ConvEpilogue {
  const float* bias = nullptr;
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  const float* residual = nullptr;  ///< NCHW, shaped like Y
  bool relu = false;
};

/// Y = epilogue(W_flat · im2col(X)), written as NCHW [batch, out_c, out_h,
/// out_w] into Y, which must be zero on entry. The im2col column matrix
/// is never built: each GEMM task packs its NR-wide B panels straight from
/// a zero-padded copy of X, and the micro-kernel tiles accumulate into Y
/// itself, split at image boundaries. The epilogue then runs once per task
/// over its finished block. Each Y element is bitwise what gemm_accumulate
/// over nn::im2col's matrix, followed by the epilogue's layers one at a
/// time, computes — for every batch size and worker count.
void gemm_conv(const ConvShape& s, const float* W, const float* X, const ConvEpilogue& ep,
               float* Y);

/// Reference implementation with the same contract (triple loop, no packing,
/// no threading; the N×T and T×T forms accumulate in double). The library
/// never calls it: it is the tests' reference and the benches' baseline.
void gemm_naive(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, const float* A,
                std::size_t lda, const float* B, std::size_t ldb, float* C, std::size_t ldc);

/// Name of the micro-kernel variant selected for this CPU
/// ("avx512" / "avx2" / "portable") — surfaced in benches and logs.
const char* gemm_kernel_name();

}  // namespace hdczsc::tensor
