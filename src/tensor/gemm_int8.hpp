// Cache-blocked integer GEMM over raw row-major buffers, and the int8 form
// of the float core's convolution route (gemm_s8u8_conv, which every
// quantized op of nn/quant.hpp runs): the u8×s8→s32 compute core of the
// quantized backbone.
//
// Same three-level blocking scheme as the float core (gemm.hpp) — packed
// MR-tall A panels, NR-wide B panels, a register-tiled micro-kernel down the
// shared KC depth, thread-local pack scratch — on the float core's own
// (jc, ic) task grid and inline rule, but the panels are packed in groups
// of four k-values so one SIMD instruction consumes a whole k-quad:
//
//   * AVX2:        vpmaddubsw (u8×s8 → s16 pair sums) + vpmaddwd against
//                  ones + vpaddd — 32 MACs per three instructions,
//   * AVX-512 VNNI: vpdpbusd — 64 MACs per single instruction,
//   * portable:    plain int loops over the same k-quad panel layout.
//
// The kernels are stamped per ISA with __attribute__((target)) and the best
// variant the CPU supports is picked once at runtime, exactly like the float
// dispatch. Unlike the float core the micro-kernels use intrinsics: the
// whole point of int8 is vpmaddubsw/vpdpbusd, which no compiler autovectorizes
// from scalar loops.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.hpp"

namespace hdczsc::tensor {

/// C[m,n] (s32) += A[m,k] (s8) * B[k,n] (u8). Dense row-major with explicit
/// leading dimensions; accumulates into C (callers wanting C = A*B zero C
/// first). Integer accumulation is exact — every ISA path returns
/// bit-identical results, asserted against gemm_s32_naive in tests.
///
/// Contract: A values must lie in [-64, 63]. The quantizer emits symmetric
/// ±63 weight codes (nn/quant.hpp) precisely so the AVX2 vpmaddubsw pair sum
/// — at most 2·255·64 = 32640 in magnitude — cannot saturate its s16
/// intermediate; with that range every path computes the same exact s32.
/// B is the full [0, 255] activation range. Degenerate shapes (m, n or
/// k == 0) return immediately without touching scratch or packing.
void gemm_s8u8_accumulate(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* A,
                          std::size_t lda, const std::uint8_t* B, std::size_t ldb,
                          std::int32_t* C, std::size_t ldc);

/// What gemm_s8u8_conv does with an output element's exact s32 sum acc,
/// for output channel oc, in this order (each step one rounded float
/// operation, no multiply-add contracted):
///   v = (in_scale·w_scale[oc])·float(acc − in_zero_point·wsum[oc]) + bias[oc];
///   if relu:     v = v > 0 ? v : 0;
///   if residual: v = v + residual[same NCHW index]; v = v > 0 ? v : 0.
struct QuantConvEpilogue {
  float in_scale = 1.0f;
  std::int32_t in_zero_point = 0;
  const float* w_scale = nullptr;      ///< [out_c]
  const std::int32_t* wsum = nullptr;  ///< [out_c] Σ of each channel's codes
  const float* bias = nullptr;         ///< [out_c]
  bool relu = false;
  const float* residual = nullptr;  ///< NCHW, shaped like Y, or null
};

/// Y = epilogue(W · im2col(quantize(X))) as NCHW [batch, out_c, out_h,
/// out_w]: the int8 form of gemm_conv, with W's [out_c, in_c·k·k] codes in
/// the range contract above. Each input element the conv reads is
/// quantized once, q = clamp(round(x / in_scale) + in_zero_point, 0, 255),
/// into a copy padded with the zero point; each GEMM task packs its k-quad
/// B panels from that copy, accumulates its block in s32 and writes it back
/// through the epilogue. The result does not depend on the batch, the
/// worker count or the kernel variant.
void gemm_s8u8_conv(const ConvShape& s, const std::int8_t* W, const float* X,
                    const QuantConvEpilogue& ep, float* Y);

/// Reference implementation with the same contract (triple loop, no packing,
/// no threading, no range requirement on A). The library never calls it:
/// gemm_s8u8_accumulate runs its blocked kernels for every shape, and the
/// tests compare each of them against this loop.
void gemm_s32_naive(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* A,
                    std::size_t lda, const std::uint8_t* B, std::size_t ldb, std::int32_t* C,
                    std::size_t ldc);

/// Name of the active int8 micro-kernel ("avx512vnni" / "avx2" /
/// "portable") — surfaced in benches and logs.
const char* gemm_int8_kernel_name();

/// Pin the active kernel by name ("portable" / "avx2" / "avx512vnni"), or
/// restore runtime auto-detection with "auto" / nullptr. Returns false —
/// leaving the active kernel unchanged — when this CPU cannot run the named
/// variant. Test/bench hook: lets one machine exercise every path it
/// supports and compare each against gemm_s32_naive.
bool gemm_int8_force_kernel(const char* name);

}  // namespace hdczsc::tensor
