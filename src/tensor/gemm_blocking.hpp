// What the float and int8 GEMM cores (gemm.cpp, gemm_int8.cpp) share: the
// block-task grid every product runs on, and the packing of a
// convolution's B panels straight from its padded input.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/gemm.hpp"
#include "util/parallel.hpp"

namespace hdczsc::tensor::detail {

inline std::size_t round_up(std::size_t x, std::size_t to) { return (x + to - 1) / to * to; }

/// Run C[m, n] += A·B (depth k) as a flattened grid of (jc, ic) tasks:
/// column blocks of nc_blk, row blocks of at most mc_max rows (a multiple
/// of mr). `task(ic, mc, jc, nc)` computes C[ic:ic+mc, jc:jc+nc], which no
/// other task writes. Products under kGemmInlineMacs run on the calling
/// thread; larger ones go to the pool, with the row blocks shrunk when the
/// grid alone would leave workers idle (extra row blocks re-pack B, so
/// never below two tile rows).
template <typename Task>
void run_block_grid(std::size_t m, std::size_t n, std::size_t k, std::size_t mr,
                    std::size_t mc_max, std::size_t nc_blk, const Task& task) {
  const std::size_t workers = m * n * k < kGemmInlineMacs ? 1 : util::worker_count();
  const std::size_t n_jblocks = (n + nc_blk - 1) / nc_blk;
  std::size_t mc_blk = mc_max;
  if (workers > 1) {
    const std::size_t want_iblocks = (workers + n_jblocks - 1) / n_jblocks;
    if (want_iblocks > 1) {
      const std::size_t per = std::max((m + want_iblocks - 1) / want_iblocks, 2 * mr);
      mc_blk = std::min(mc_max, round_up(per, mr));
    }
  }
  const std::size_t n_iblocks = (m + mc_blk - 1) / mc_blk;
  const auto run = [&](std::size_t t) {
    const std::size_t ic = (t % n_iblocks) * mc_blk, jc = (t / n_iblocks) * nc_blk;
    task(ic, std::min(mc_blk, m - ic), jc, std::min(nc_blk, n - jc));
  };
  if (workers > 1) {
    util::parallel_for(0, n_iblocks * n_jblocks, run, 1);
  } else {
    for (std::size_t t = 0; t < n_iblocks * n_jblocks; ++t) run(t);
  }
}

/// dst[(p/Q)·Q·nr_tile + Q·u + p%Q] = src[tap[p] + u·stride] for p < kq,
/// u < len: one run of columns of a B panel of Q-deep k-groups,
/// instantiated for the run widths resnet shapes produce.
template <typename T, std::size_t Q, std::size_t kLen, std::size_t kStride>
void copy_run(T* dst, std::size_t nr_tile, const T* src, const std::size_t* tap, std::size_t kq,
              std::size_t len, std::size_t stride) {
  if constexpr (kLen != 0) len = kLen;
  if constexpr (kStride != 0) stride = kStride;
  static_assert(Q == 1 || Q == 4);
  for (std::size_t p = 0; p < kq; p += Q, dst += Q * nr_tile) {
    if constexpr (Q == 1) {
      const T* s = src + tap[p];
      for (std::size_t u = 0; u < len; ++u) dst[u] = s[u * stride];
    } else {  // named taps: byte stores to dst may not clobber them
      const T *s0 = src + tap[p], *s1 = src + tap[p + 1];
      const T *s2 = src + tap[p + 2], *s3 = src + tap[p + 3];
      for (std::size_t u = 0; u < len; ++u) {
        dst[4 * u] = s0[u * stride];
        dst[4 * u + 1] = s1[u * stride];
        dst[4 * u + 2] = s2[u * stride];
        dst[4 * u + 3] = s3[u * stride];
      }
    }
  }
}

template <typename T, std::size_t Q>
auto pick_copy_run(std::size_t len, std::size_t stride) {
  if (stride == 1 || stride == 2) {
    const bool s1 = stride == 1;
    switch (len) {
      case 1: return s1 ? copy_run<T, Q, 1, 1> : copy_run<T, Q, 1, 2>;
      case 8: return s1 ? copy_run<T, Q, 8, 1> : copy_run<T, Q, 8, 2>;
      case 16: return s1 ? copy_run<T, Q, 16, 1> : copy_run<T, Q, 16, 2>;
      case 24: return s1 ? copy_run<T, Q, 24, 1> : copy_run<T, Q, 24, 2>;
      case 32: return s1 ? copy_run<T, Q, 32, 1> : copy_run<T, Q, 32, 2>;
      default: break;
    }
  }
  return copy_run<T, Q, 0, 0>;
}

/// Pack rows [pc, pc+kc) x columns [jc, jc+nc) of a convolution's im2col
/// matrix into a core's NR-wide panels of Q-deep k-groups (Q = 1: float;
/// Q = 4: the int8 k-quads), reading the padded images xp [batch, in_c, hp,
/// wp] directly. Column j is output pixel (oy, ox) of image j / (oh·ow);
/// row r = (c·k + ki)·k + kj reads xp[img][c][oy·stride + ki][ox·stride +
/// kj], always in bounds. Each panel is cut once into runs of columns on
/// one output row, copied tap by tap. A ragged last k-group repeats the
/// first tap (its A lanes are zero, so it adds exactly 0); a ragged last
/// panel's spare columns are zero.
template <typename T, std::size_t Q, std::size_t KC>
void pack_b_conv(const ConvShape& s, const T* xp, std::size_t hp, std::size_t wp,
                 std::size_t pc, std::size_t jc, std::size_t kc, std::size_t nc,
                 std::size_t nr_tile, T* buf) {
  const std::size_t kk = s.kernel, ow = s.out_w(), ncols = s.out_h() * ow;
  const std::size_t plane = hp * wp, stride = s.stride, kq = (kc + Q - 1) / Q * Q;
  std::size_t tap[KC];  // offset of row pc + p from its column's first tap
  std::size_t c = pc / (kk * kk), ki = pc / kk % kk, kj = pc % kk;
  for (std::size_t p = 0; p < kc; ++p) {
    tap[p] = c * plane + ki * wp + kj;
    if (++kj == kk) {
      kj = 0;
      if (++ki == kk) {
        ki = 0;
        ++c;
      }
    }
  }
  for (std::size_t p = kc; p < kq; ++p) tap[p] = tap[0];
  for (std::size_t jr = 0; jr < nc; jr += nr_tile, buf += kq * nr_tile) {
    const std::size_t nr = std::min(nr_tile, nc - jr);
    for (std::size_t t = 0; t < nr;) {
      const std::size_t j = jc + jr + t, img = j / ncols, oy = j % ncols / ow, ox = j % ow;
      const std::size_t len = std::min(nr - t, ow - ox);
      pick_copy_run<T, Q>(len, stride)(buf + Q * t, nr_tile,
                                       xp + img * s.in_c * plane + oy * stride * wp + ox * stride,
                                       tap, kq, len, stride);
      t += len;
    }
    if (nr < nr_tile)
      for (std::size_t g = 0; g < kq; g += Q)
        std::fill(buf + g * nr_tile + Q * nr, buf + (g + Q) * nr_tile, T{0});
  }
}

}  // namespace hdczsc::tensor::detail
