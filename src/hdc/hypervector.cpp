#include "hdc/hypervector.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace hdczsc::hdc {

namespace {
void check_same_dim(std::size_t a, std::size_t b, const char* op) {
  if (a != b)
    throw std::invalid_argument(std::string(op) + ": dimension mismatch " + std::to_string(a) +
                                " vs " + std::to_string(b));
}
}  // namespace

// ---------------------------------------------------------------------------
// BipolarHV
// ---------------------------------------------------------------------------

BipolarHV BipolarHV::random(std::size_t dim, util::Rng& rng) {
  std::vector<std::int8_t> v(dim);
  for (auto& x : v) x = static_cast<std::int8_t>(rng.rademacher());
  return BipolarHV(std::move(v));
}

BipolarHV BipolarHV::bind(const BipolarHV& other) const {
  check_same_dim(dim(), other.dim(), "BipolarHV::bind");
  std::vector<std::int8_t> out(dim());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::int8_t>(v_[i] * other.v_[i]);
  return BipolarHV(std::move(out));
}

BipolarHV BipolarHV::permute(long k) const {
  const long d = static_cast<long>(dim());
  if (d == 0) return *this;
  long shift = ((k % d) + d) % d;
  std::vector<std::int8_t> out(dim());
  for (long i = 0; i < d; ++i) out[static_cast<std::size_t>((i + shift) % d)] = v_[i];
  return BipolarHV(std::move(out));
}

long BipolarHV::dot(const BipolarHV& other) const {
  check_same_dim(dim(), other.dim(), "BipolarHV::dot");
  long s = 0;
  for (std::size_t i = 0; i < dim(); ++i) s += static_cast<long>(v_[i]) * other.v_[i];
  return s;
}

double BipolarHV::cosine(const BipolarHV& other) const {
  if (dim() == 0) return 0.0;
  return static_cast<double>(dot(other)) / static_cast<double>(dim());
}

BinaryHV BipolarHV::to_binary() const {
  BinaryHV b(dim());
  for (std::size_t i = 0; i < dim(); ++i) b.set(i, v_[i] < 0);
  return b;
}

tensor::Tensor BipolarHV::to_tensor() const {
  tensor::Tensor t({dim()});
  for (std::size_t i = 0; i < dim(); ++i) t[i] = static_cast<float>(v_[i]);
  return t;
}

// ---------------------------------------------------------------------------
// BundleAccumulator
// ---------------------------------------------------------------------------

void BundleAccumulator::add(const BipolarHV& hv) { add_weighted(hv, 1); }

void BundleAccumulator::add_weighted(const BipolarHV& hv, long weight) {
  check_same_dim(dim(), hv.dim(), "BundleAccumulator::add");
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += weight * hv[i];
  ++count_;
}

BipolarHV BundleAccumulator::finalize(util::Rng& rng) const {
  std::vector<std::int8_t> out(sums_.size());
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    if (sums_[i] > 0) out[i] = +1;
    else if (sums_[i] < 0) out[i] = -1;
    else out[i] = static_cast<std::int8_t>(rng.rademacher());
  }
  return BipolarHV(std::move(out));
}

// ---------------------------------------------------------------------------
// BinaryHV
// ---------------------------------------------------------------------------

BinaryHV::BinaryHV(std::size_t dim) : dim_(dim), words_((dim + 63) / 64, 0) {}

void BinaryHV::mask_tail() {
  const std::size_t tail = dim_ % 64;
  if (tail != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << tail) - 1;
}

BinaryHV BinaryHV::random(std::size_t dim, util::Rng& rng) {
  BinaryHV b(dim);
  for (auto& w : b.words_) w = rng.next_u64();
  b.mask_tail();
  return b;
}

bool BinaryHV::get(std::size_t i) const {
  if (i >= dim_) throw std::out_of_range("BinaryHV::get: index out of range");
  return (words_[i / 64] >> (i % 64)) & 1;
}

void BinaryHV::set(std::size_t i, bool value) {
  if (i >= dim_) throw std::out_of_range("BinaryHV::set: index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (value) words_[i / 64] |= mask;
  else words_[i / 64] &= ~mask;
}

BinaryHV BinaryHV::bind(const BinaryHV& other) const {
  check_same_dim(dim_, other.dim_, "BinaryHV::bind");
  BinaryHV out(dim_);
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] = words_[i] ^ other.words_[i];
  return out;
}

std::size_t BinaryHV::hamming(const BinaryHV& other) const {
  check_same_dim(dim_, other.dim_, "BinaryHV::hamming");
  std::size_t h = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    h += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  return h;
}

double BinaryHV::similarity(const BinaryHV& other) const {
  if (dim_ == 0) return 0.0;
  return 1.0 - 2.0 * static_cast<double>(hamming(other)) / static_cast<double>(dim_);
}

BipolarHV BinaryHV::to_bipolar() const {
  std::vector<std::int8_t> v(dim_);
  for (std::size_t i = 0; i < dim_; ++i) v[i] = get(i) ? -1 : +1;
  return BipolarHV(std::move(v));
}

namespace {

/// Row i's label under `labels`.
inline std::size_t label_of(const RowLabels& labels, std::size_t i) {
  return labels.ids ? labels.ids[i] : labels.first + i;
}

/// The block test on one query's (offset-folded) counts h[0, n): whether
/// any is at or below the heap's threshold. A full block with none is
/// added to `pruned`.
[[gnu::always_inline]] inline bool block_open(const HammingTopK& heap, const std::uint32_t* h,
                                              std::size_t n, std::uint64_t& pruned) {
  const std::uint32_t t = heap.threshold();
  std::uint32_t any = 0;
  for (std::size_t j = 0; j < n; ++j) any |= h[j] <= t ? 1u : 0u;
  if (!any && n == kTopkBlock) pruned += kTopkBlock;
  return any != 0;
}

/// Scalar fused scan for NQ ≤ 4 queries: each kTopkBlock-row block is
/// counted for all NQ queries per row load and its offsets folded; the
/// block test runs per query, on the first kTopkHeadWords words first for
/// wider rows; an open block offers its rows at or below the threshold
/// sampled for the test. Inlined into each ISA-stamped wrapper below, which
/// sets the popcount lowering.
template <std::size_t NQ>
[[gnu::always_inline]] inline std::uint64_t topk_scalar(const std::uint64_t* queries,
                                                        const std::uint64_t* rows,
                                                        std::size_t n_rows, std::size_t words,
                                                        const RowLabels& labels,
                                                        HammingTopK* heaps) {
  const std::size_t head = std::min(words, kTopkHeadWords);
  std::uint64_t pruned = 0;
  std::uint32_t h[NQ][kTopkBlock];
  // Adds the counts of words [w0, w1) of rows [i, i + n) to h.
  const auto count = [&](std::size_t i, std::size_t n, std::size_t w0, std::size_t w1) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* row = rows + (i + j) * words;
      std::uint32_t acc[NQ] = {};
      for (std::size_t w = w0; w < w1; ++w) {
        const std::uint64_t rw = row[w];
        for (std::size_t q = 0; q < NQ; ++q)
          acc[q] += static_cast<std::uint32_t>(std::popcount(queries[q * words + w] ^ rw));
      }
      for (std::size_t q = 0; q < NQ; ++q) h[q][j] += acc[q];
    }
  };
  for (std::size_t i = 0; i < n_rows; i += kTopkBlock) {
    const std::size_t n = std::min(kTopkBlock, n_rows - i);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t d = labels.offsets ? labels.offsets[label_of(labels, i + j)] : 0;
      for (std::size_t q = 0; q < NQ; ++q) h[q][j] = d;
    }
    count(i, n, 0, head);
    bool open[NQ];
    bool any_open = false;
    for (std::size_t q = 0; q < NQ; ++q) {
      open[q] = block_open(heaps[q], h[q], n, pruned);
      any_open = any_open || open[q];
    }
    if (head < words && any_open) {
      count(i, n, head, words);
      for (std::size_t q = 0; q < NQ; ++q)
        open[q] = open[q] && block_open(heaps[q], h[q], n, pruned);
    }
    for (std::size_t q = 0; q < NQ; ++q) {
      if (!open[q]) continue;
      const std::uint32_t t = heaps[q].threshold();
      for (std::size_t j = 0; j < n; ++j)
        if (h[q][j] <= t) heaps[q].offer(h[q][j], label_of(labels, i + j));
    }
  }
  return pruned;
}

// The packed-scan kernels are stamped per ISA, mirroring tensor/gemm.cpp:
// the build targets baseline x86-64 (no POPCNT instruction), where
// std::popcount lowers to a ~12-op bit-twiddling sequence. A variant
// compiled with the popcnt target attribute turns every count into one
// 1/cycle instruction; the best variant the CPU supports is picked once at
// runtime via __builtin_cpu_supports.
#define HDCZSC_DEFINE_HAMMING_KERNEL(suffix, attrs)                                         \
  attrs static void hamming_rows_##suffix(                                                  \
      const std::uint64_t* query, const std::uint64_t* rows, std::size_t row_begin,         \
      std::size_t row_end, std::size_t words, std::uint32_t* out) {                         \
    for (std::size_t i = row_begin; i < row_end; ++i) {                                     \
      const std::uint64_t* row = rows + i * words;                                          \
      std::uint32_t h = 0;                                                                  \
      std::size_t w = 0;                                                                    \
      /* 4-way unroll: keeps four independent popcount chains in flight. */                 \
      for (; w + 4 <= words; w += 4) {                                                      \
        h += static_cast<std::uint32_t>(std::popcount(query[w] ^ row[w])) +                 \
             static_cast<std::uint32_t>(std::popcount(query[w + 1] ^ row[w + 1])) +         \
             static_cast<std::uint32_t>(std::popcount(query[w + 2] ^ row[w + 2])) +         \
             static_cast<std::uint32_t>(std::popcount(query[w + 3] ^ row[w + 3]));          \
      }                                                                                     \
      for (; w < words; ++w)                                                                \
        h += static_cast<std::uint32_t>(std::popcount(query[w] ^ row[w]));                  \
      out[i] = h;                                                                           \
    }                                                                                       \
  }                                                                                         \
  /* Query-blocked sweep: each prototype row is loaded once and scored      */              \
  /* against four queries while it sits in registers — four independent     */              \
  /* popcount chains (the single-query kernel is latency-bound on one       */              \
  /* chain at small `words`), and 1/4 the row-stream traffic.               */              \
  attrs static void hamming_multi_##suffix(                                                 \
      const std::uint64_t* queries, std::size_t n_queries, const std::uint64_t* rows,       \
      std::size_t n_rows, std::size_t words, std::uint32_t* out) {                          \
    std::size_t q = 0;                                                                      \
    for (; q + 4 <= n_queries; q += 4) {                                                    \
      const std::uint64_t* q0 = queries + (q + 0) * words;                                  \
      const std::uint64_t* q1 = queries + (q + 1) * words;                                  \
      const std::uint64_t* q2 = queries + (q + 2) * words;                                  \
      const std::uint64_t* q3 = queries + (q + 3) * words;                                  \
      std::uint32_t* o0 = out + (q + 0) * n_rows;                                           \
      std::uint32_t* o1 = out + (q + 1) * n_rows;                                           \
      std::uint32_t* o2 = out + (q + 2) * n_rows;                                           \
      std::uint32_t* o3 = out + (q + 3) * n_rows;                                           \
      for (std::size_t i = 0; i < n_rows; ++i) {                                            \
        const std::uint64_t* row = rows + i * words;                                        \
        std::uint32_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;                                       \
        for (std::size_t w = 0; w < words; ++w) {                                           \
          const std::uint64_t rw = row[w];                                                  \
          h0 += static_cast<std::uint32_t>(std::popcount(q0[w] ^ rw));                      \
          h1 += static_cast<std::uint32_t>(std::popcount(q1[w] ^ rw));                      \
          h2 += static_cast<std::uint32_t>(std::popcount(q2[w] ^ rw));                      \
          h3 += static_cast<std::uint32_t>(std::popcount(q3[w] ^ rw));                      \
        }                                                                                   \
        o0[i] = h0;                                                                         \
        o1[i] = h1;                                                                         \
        o2[i] = h2;                                                                         \
        o3[i] = h3;                                                                         \
      }                                                                                     \
    }                                                                                       \
    for (; q < n_queries; ++q)                                                              \
      hamming_rows_##suffix(queries + q * words, rows, 0, n_rows, words, out + q * n_rows); \
  }                                                                                         \
  attrs static std::uint64_t hamming_topk_##suffix(                                         \
      const std::uint64_t* queries, std::size_t n_queries, const std::uint64_t* rows,       \
      std::size_t n_rows, std::size_t words, const RowLabels& labels, HammingTopK* heaps) { \
    std::uint64_t pruned = 0;                                                               \
    for (std::size_t q = 0; q < n_queries; q += 4) {                                        \
      const std::uint64_t* qs = queries + q * words;                                        \
      switch (std::min<std::size_t>(4, n_queries - q)) {                                    \
        case 1: pruned += topk_scalar<1>(qs, rows, n_rows, words, labels, heaps + q); break; \
        case 2: pruned += topk_scalar<2>(qs, rows, n_rows, words, labels, heaps + q); break; \
        case 3: pruned += topk_scalar<3>(qs, rows, n_rows, words, labels, heaps + q); break; \
        default: pruned += topk_scalar<4>(qs, rows, n_rows, words, labels, heaps + q); break; \
      }                                                                                     \
    }                                                                                       \
    return pruned;                                                                          \
  }

HDCZSC_DEFINE_HAMMING_KERNEL(portable, )
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDCZSC_HAMMING_X86_DISPATCH 1
HDCZSC_DEFINE_HAMMING_KERNEL(popcnt, __attribute__((target("popcnt"))))

// The avx512 variant counts eight words per VPOPCNTQ (the vector popcount
// of Muła, Kurz & Lemire, Comput. J. 2018) and scores each row against a
// block of up to four queries per load, so a batch of 1–4 queries streams
// the code rows once. Rows go sixteen at a time, as two halves of eight,
// laid out by width:
//  * 1, 2, 4 or 8 words — rows in lanes: the eight rows fill `words`
//    registers in memory order, each XORed with the query repeated across
//    the register and counted;
//  * more than 8 words — one register per row, accumulating its counts
//    eight words at a time.
// Either way each row's partial counts sit in consecutive lanes, and
// log2 rounds of lane-transposing adds leave one count per row. The scans
// hand each 16-row block's counts, still in registers, to a sink:
// StoreCounts writes them out (the rows and multi kernels), SelectTopk
// applies the block rule (the fused top-k kernel).
// Widths 3, 5, 6 and 7 keep the popcnt loop: a row there straddles
// registers, and reducing each row on its own measured slower than popcnt.
#define HDCZSC_AVX512_HAMMING \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512dq,avx512vpopcntdq,popcnt")))

/// The first n ≤ 8 words at p, zero above; no word past p[n-1] is read.
HDCZSC_AVX512_HAMMING inline __m512i load_words(const std::uint64_t* p, std::size_t n) {
  return n >= 8 ? _mm512_loadu_si512(p)
                : _mm512_maskz_loadu_epi64(static_cast<__mmask8>((1u << n) - 1), p);
}

/// Lane-transposing add: lane j of the result is s[2j] + s[2j+1] over the
/// sixteen-lane sequence s = [a, b].
HDCZSC_AVX512_HAMMING inline __m512i add_pairs(__m512i a, __m512i b) {
  const __m512i even = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  const __m512i odd = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
  return _mm512_add_epi64(_mm512_permutex2var_epi64(a, even, b),
                          _mm512_permutex2var_epi64(a, odd, b));
}

/// c[0..N) hold eight rows' partial counts in row order, N lanes per row:
/// fold them to one u64 lane per row.
template <std::size_t N>
HDCZSC_AVX512_HAMMING inline __m512i fold(__m512i* c) {
  for (std::size_t width = N; width > 1; width /= 2)
    for (std::size_t k = 0; k < width / 2; ++k) c[k] = add_pairs(c[2 * k], c[2 * k + 1]);
  return c[0];
}

/// The mask of the first min(n, 8) lanes.
inline __mmask8 first_lanes(std::size_t n) {
  return static_cast<__mmask8>((1u << std::min<std::size_t>(n, 8)) - 1);
}

/// Sink of the rows and multi kernels: query q's counts of rows [i, i + n)
/// go to out[q*stride + i, ...). In every sink, h[0] and h[1] hold rows
/// i..i+7 and i+8..i+15 of the block, one u64 lane per row, and only the
/// first n ≤ 16 rows are real; `pruned` is the scan's pruned-row count.
struct StoreCounts {
  static constexpr bool kEarlyTest = false;
  std::uint32_t* out;
  std::size_t stride;

  HDCZSC_AVX512_HAMMING void take(std::size_t q, std::size_t i, std::size_t n, const __m512i* h,
                                  std::uint64_t&) {
    std::uint32_t* o = out + q * stride + i;
    _mm512_mask_cvtepi64_storeu_epi32(o, first_lanes(n), h[0]);
    if (n > 8) _mm512_mask_cvtepi64_storeu_epi32(o + 8, first_lanes(n - 8), h[1]);
  }
};

/// Sink of the fused top-k kernel: hamming_topk_packed's block rule on
/// heaps[q], with the offset fold and the test done in registers.
/// kEarlyTest: wide_block tests a block on its head words' counts first.
struct SelectTopk {
  static constexpr bool kEarlyTest = true;
  const RowLabels& labels;
  HammingTopK* heaps;

  /// The block's counts as sixteen u32 lanes, offsets folded.
  HDCZSC_AVX512_HAMMING __m512i folded(std::size_t i, std::size_t n, const __m512i* h) const {
    // The low half of each u64 lane: rows 0–7 from h[0], 8–15 from h[1].
    const __m512i low = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i v = _mm512_permutex2var_epi32(h[0], low, h[1]);
    if (!labels.offsets) return v;
    const __mmask16 live = static_cast<__mmask16>((1u << n) - 1);
    if (!labels.ids)
      return _mm512_add_epi32(
          v, _mm512_maskz_loadu_epi32(live, labels.offsets + labels.first + i));
    alignas(64) std::uint32_t d[kTopkBlock] = {};
    for (std::size_t j = 0; j < n; ++j) d[j] = labels.offsets[labels.ids[i + j]];
    return _mm512_add_epi32(v, _mm512_load_si512(d));
  }
  /// Lanes of the rows whose counts v can enter heaps[q]; a full block
  /// with none is added to `pruned`.
  HDCZSC_AVX512_HAMMING __mmask16 entering(std::size_t q, std::size_t n, __m512i v,
                                           std::uint64_t& pruned) const {
    const __mmask16 live = static_cast<__mmask16>((1u << n) - 1);
    const __m512i t = _mm512_set1_epi32(static_cast<int>(heaps[q].threshold()));
    const __mmask16 m = _mm512_mask_cmple_epu32_mask(live, v, t);
    if (!m && n == kTopkBlock) pruned += kTopkBlock;
    return m;
  }
  /// The block test on partial counts: false skips the block.
  HDCZSC_AVX512_HAMMING bool open(std::size_t q, std::size_t i, std::size_t n, const __m512i* h,
                                  std::uint64_t& pruned) const {
    return entering(q, n, folded(i, n, h), pruned) != 0;
  }
  HDCZSC_AVX512_HAMMING void take(std::size_t q, std::size_t i, std::size_t n, const __m512i* h,
                                  std::uint64_t& pruned) {
    const __m512i v = folded(i, n, h);
    unsigned m = entering(q, n, v, pruned);
    if (!m) return;
    alignas(64) std::uint32_t c[kTopkBlock];
    _mm512_store_si512(c, v);
    for (; m; m &= m - 1) {
      const unsigned j = static_cast<unsigned>(std::countr_zero(m));
      heaps[q].offer(c[j], label_of(labels, i + j));
    }
  }
};

/// Rows in lanes, W ∈ {1,2,4,8}: one block of n ≤ 16 rows from `block`
/// against NQ queries (qv: each repeated across a register), its counts
/// handed to `sink`. Inlined with n = 16 for every full block, so the hot
/// loop carries no tail masks.
template <std::size_t W, std::size_t NQ, typename Sink>
[[gnu::always_inline]] HDCZSC_AVX512_HAMMING inline void lanes_block(
    const __m512i* qv, const std::uint64_t* block, std::size_t i, std::size_t n, Sink& sink,
    std::uint64_t& pruned) {
  __m512i h[NQ][2];
  for (std::size_t half = 0; half < 2; ++half) {
    if (8 * half >= n) {
      for (std::size_t q = 0; q < NQ; ++q) h[q][half] = _mm512_setzero_si512();
      continue;
    }
    const std::size_t m = std::min<std::size_t>(8, n - 8 * half);
    const std::uint64_t* rows = block + 8 * half * W;
    __m512i r[W];
    for (std::size_t k = 0; k < W; ++k)
      r[k] = m * W > 8 * k ? load_words(rows + 8 * k, m * W - 8 * k) : _mm512_setzero_si512();
    for (std::size_t q = 0; q < NQ; ++q) {
      __m512i c[W];
      for (std::size_t k = 0; k < W; ++k)
        c[k] = _mm512_popcnt_epi64(_mm512_xor_si512(r[k], qv[q]));
      h[q][half] = fold<W>(c);
    }
  }
  for (std::size_t q = 0; q < NQ; ++q) sink.take(q, i, n, h[q], pruned);
}

/// Rows in lanes, W ∈ {1,2,4,8}: NQ queries against n_rows rows, each
/// 16-row block's counts handed to `sink`. Returns the rows pruned.
template <std::size_t W, std::size_t NQ, typename Sink>
HDCZSC_AVX512_HAMMING std::uint64_t scan_lanes(const std::uint64_t* queries,
                                               const std::uint64_t* rows, std::size_t n_rows,
                                               Sink& sink) {
  // Query q repeated across the register: lane j holds word j % W.
  const __m512i lane_word = _mm512_set_epi64(7 % W, 6 % W, 5 % W, 4 % W, 3 % W, 2 % W, 1 % W, 0);
  __m512i qv[NQ];
  for (std::size_t q = 0; q < NQ; ++q) {
    const __m512i words = load_words(queries + q * W, W);
    qv[q] = _mm512_permutex2var_epi64(words, lane_word, words);
  }
  std::uint64_t pruned = 0;
  std::size_t i = 0;
  for (; i + kTopkBlock <= n_rows; i += kTopkBlock)
    lanes_block<W, NQ>(qv, rows + i * W, i, kTopkBlock, sink, pruned);
  if (i < n_rows) lanes_block<W, NQ>(qv, rows + i * W, i, n_rows - i, sink, pruned);
  return pruned;
}

/// Rows [0, n) of a block of `words`-word rows: each row's count of words
/// [w0, w1) against `query`, rows 0–7 in h[0]'s lanes and 8–15 in h[1]'s.
[[gnu::always_inline]] HDCZSC_AVX512_HAMMING inline void count_wide(const std::uint64_t* query,
                                             const std::uint64_t* block, std::size_t n,
                                             std::size_t words, std::size_t w0, std::size_t w1,
                                             __m512i* h) {
  for (std::size_t half = 0; half < 2; ++half) {
    if (8 * half >= n) {
      h[half] = _mm512_setzero_si512();
      continue;
    }
    __m512i c[8];
    for (std::size_t r = 0; r < 8; ++r) {
      c[r] = _mm512_setzero_si512();
      if (8 * half + r >= n) continue;
      const std::uint64_t* row = block + (8 * half + r) * words;
      for (std::size_t w = w0; w < w1; w += 8)
        c[r] = _mm512_add_epi64(
            c[r], _mm512_popcnt_epi64(_mm512_xor_si512(load_words(row + w, w1 - w),
                                                       load_words(query + w, w1 - w))));
    }
    h[half] = fold<8>(c);
  }
}

/// Rows wider than 8 words: one block of n ≤ 16 rows from `block` against
/// NQ queries, one query at a time (the block is re-read from L1; it comes
/// from memory once). A sink with kEarlyTest has the block tested on its
/// first register's counts, and skipped before the rest of its words are
/// read. Inlined with n = 16 for every full block.
template <std::size_t NQ, typename Sink>
[[gnu::always_inline]] HDCZSC_AVX512_HAMMING inline void wide_block(
    const std::uint64_t* queries, const std::uint64_t* block, std::size_t words, std::size_t i,
    std::size_t n, Sink& sink, std::uint64_t& pruned) {
  for (std::size_t q = 0; q < NQ; ++q) {
    const std::uint64_t* query = queries + q * words;
    __m512i h[2];
    if constexpr (!Sink::kEarlyTest) {
      count_wide(query, block, n, words, 0, words, h);
    } else {
      count_wide(query, block, n, words, 0, kTopkHeadWords, h);
      if (!sink.open(q, i, n, h, pruned)) continue;
      __m512i rest[2];
      count_wide(query, block, n, words, kTopkHeadWords, words, rest);
      h[0] = _mm512_add_epi64(h[0], rest[0]);
      h[1] = _mm512_add_epi64(h[1], rest[1]);
    }
    sink.take(q, i, n, h, pruned);
  }
}

/// Rows wider than 8 words, same contract as scan_lanes.
template <std::size_t NQ, typename Sink>
HDCZSC_AVX512_HAMMING std::uint64_t scan_wide(const std::uint64_t* queries,
                                              const std::uint64_t* rows, std::size_t n_rows,
                                              std::size_t words, Sink& sink) {
  std::uint64_t pruned = 0;
  std::size_t i = 0;
  for (; i + kTopkBlock <= n_rows; i += kTopkBlock)
    wide_block<NQ>(queries, rows + i * words, words, i, kTopkBlock, sink, pruned);
  if (i < n_rows) wide_block<NQ>(queries, rows + i * words, words, i, n_rows - i, sink, pruned);
  return pruned;
}

/// Widths the vector scans cover; every other width keeps the popcnt loop.
bool avx512_width(std::size_t words) {
  return words == 1 || words == 2 || words == 4 || words >= 8;
}

/// One block of NQ ≤ 4 queries over all rows, dispatched on the width.
/// Returns the rows pruned.
template <std::size_t NQ, typename Sink>
HDCZSC_AVX512_HAMMING std::uint64_t block_avx512(const std::uint64_t* queries,
                                                 const std::uint64_t* rows, std::size_t n_rows,
                                                 std::size_t words, Sink& sink) {
  switch (words) {
    case 1: return scan_lanes<1, NQ>(queries, rows, n_rows, sink);
    case 2: return scan_lanes<2, NQ>(queries, rows, n_rows, sink);
    case 4: return scan_lanes<4, NQ>(queries, rows, n_rows, sink);
    case 8: return scan_lanes<8, NQ>(queries, rows, n_rows, sink);
    default: return scan_wide<NQ>(queries, rows, n_rows, words, sink);
  }
}

/// The batch in blocks of up to four queries; `sink_at(q)` is the sink of
/// the block that starts at query q. Returns the rows pruned.
template <typename SinkAt>
HDCZSC_AVX512_HAMMING std::uint64_t query_blocks_avx512(const std::uint64_t* queries,
                                                        std::size_t n_queries,
                                                        const std::uint64_t* rows,
                                                        std::size_t n_rows, std::size_t words,
                                                        SinkAt&& sink_at) {
  std::uint64_t pruned = 0;
  for (std::size_t q = 0; q < n_queries; q += 4) {
    const std::uint64_t* qs = queries + q * words;
    auto& sink = sink_at(q);
    switch (std::min<std::size_t>(4, n_queries - q)) {
      case 1: pruned += block_avx512<1>(qs, rows, n_rows, words, sink); break;
      case 2: pruned += block_avx512<2>(qs, rows, n_rows, words, sink); break;
      case 3: pruned += block_avx512<3>(qs, rows, n_rows, words, sink); break;
      default: pruned += block_avx512<4>(qs, rows, n_rows, words, sink); break;
    }
  }
  return pruned;
}

HDCZSC_AVX512_HAMMING void hamming_rows_avx512(const std::uint64_t* query,
                                               const std::uint64_t* rows, std::size_t row_begin,
                                               std::size_t row_end, std::size_t words,
                                               std::uint32_t* out) {
  if (!avx512_width(words))
    return hamming_rows_popcnt(query, rows, row_begin, row_end, words, out);
  StoreCounts sink{out + row_begin, 0};
  block_avx512<1>(query, rows + row_begin * words, row_end - row_begin, words, sink);
}

HDCZSC_AVX512_HAMMING void hamming_multi_avx512(const std::uint64_t* queries,
                                                std::size_t n_queries, const std::uint64_t* rows,
                                                std::size_t n_rows, std::size_t words,
                                                std::uint32_t* out) {
  if (!avx512_width(words))
    return hamming_multi_popcnt(queries, n_queries, rows, n_rows, words, out);
  StoreCounts sink{out, n_rows};
  query_blocks_avx512(queries, n_queries, rows, n_rows, words, [&](std::size_t q) -> auto& {
    sink.out = out + q * n_rows;
    return sink;
  });
}

HDCZSC_AVX512_HAMMING std::uint64_t hamming_topk_avx512(const std::uint64_t* queries,
                                                        std::size_t n_queries,
                                                        const std::uint64_t* rows,
                                                        std::size_t n_rows, std::size_t words,
                                                        const RowLabels& labels,
                                                        HammingTopK* heaps) {
  if (!avx512_width(words))
    return hamming_topk_popcnt(queries, n_queries, rows, n_rows, words, labels, heaps);
  SelectTopk sink{labels, heaps};
  return query_blocks_avx512(queries, n_queries, rows, n_rows, words,
                             [&](std::size_t q) -> auto& {
                               sink.heaps = heaps + q;
                               return sink;
                             });
}

bool cpu_has_avx512_popcnt() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vpopcntdq") && __builtin_cpu_supports("popcnt");
}
#endif

using HammingRowsFn = void (*)(const std::uint64_t*, const std::uint64_t*, std::size_t,
                               std::size_t, std::size_t, std::uint32_t*);
using HammingMultiFn = void (*)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                                std::size_t, std::size_t, std::uint32_t*);
using HammingTopkFn = std::uint64_t (*)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                                        std::size_t, std::size_t, const RowLabels&,
                                        HammingTopK*);

struct HammingKernels {
  HammingRowsFn rows;
  HammingMultiFn multi;
  HammingTopkFn topk;
  const char* name;
};

HammingKernels pick_hamming_kernels() {
#if defined(HDCZSC_HAMMING_X86_DISPATCH)
  __builtin_cpu_init();
  if (cpu_has_avx512_popcnt())
    return {hamming_rows_avx512, hamming_multi_avx512, hamming_topk_avx512, "avx512"};
  if (__builtin_cpu_supports("popcnt"))
    return {hamming_rows_popcnt, hamming_multi_popcnt, hamming_topk_popcnt, "popcnt"};
#endif
  return {hamming_rows_portable, hamming_multi_portable, hamming_topk_portable, "portable"};
}

/// Current selection — runtime-dispatched once, overridable via
/// set_hamming_kernel (tests pin a variant to cover every code path the
/// CPU running them supports).
HammingKernels& hamming_kernels() {
  static HammingKernels k = pick_hamming_kernels();
  return k;
}

}  // namespace

const char* hamming_kernel_name() { return hamming_kernels().name; }

bool set_hamming_kernel(const char* name) {
  const std::string want = name ? name : "";
  if (want == "auto") {
    hamming_kernels() = pick_hamming_kernels();
    return true;
  }
  if (want == "portable") {
    hamming_kernels() = {hamming_rows_portable, hamming_multi_portable, hamming_topk_portable,
                         "portable"};
    return true;
  }
#if defined(HDCZSC_HAMMING_X86_DISPATCH)
  if (want == "popcnt" && __builtin_cpu_supports("popcnt")) {
    hamming_kernels() = {hamming_rows_popcnt, hamming_multi_popcnt, hamming_topk_popcnt,
                         "popcnt"};
    return true;
  }
  if (want == "avx512" && cpu_has_avx512_popcnt()) {
    hamming_kernels() = {hamming_rows_avx512, hamming_multi_avx512, hamming_topk_avx512,
                         "avx512"};
    return true;
  }
#endif
  return false;
}

namespace {
/// Profiling hook (obs::set_profiling_enabled): wall time of each top-level
/// packed-Hamming scan: single-query, multi-query and fused top-k alike.
/// With profiling off the ScopedTimer reads no clock.
obs::Histogram* hamming_hist() {
  static const std::shared_ptr<obs::Histogram> h = obs::default_registry().histogram(
      "hdc_hamming_scan_ms", {}, "wall time of one packed-Hamming prototype scan");
  return h.get();
}
}  // namespace

void hamming_many_packed_multi(const std::uint64_t* queries, std::size_t n_queries,
                               const std::uint64_t* rows, std::size_t n_rows,
                               std::size_t words, std::uint32_t* out) {
  const obs::ScopedTimer profile(hamming_hist());
  hamming_kernels().multi(queries, n_queries, rows, n_rows, words, out);
}

std::uint64_t hamming_topk_packed(const std::uint64_t* queries, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t n_rows,
                                  std::size_t words, const RowLabels& labels,
                                  HammingTopK* heaps) {
  const obs::ScopedTimer profile(hamming_hist());
  return hamming_kernels().topk(queries, n_queries, rows, n_rows, words, labels, heaps);
}

void hamming_many_packed(const std::uint64_t* query, const std::uint64_t* rows,
                         std::size_t n_rows, std::size_t words, std::uint32_t* out) {
  const obs::ScopedTimer profile(hamming_hist());
  // Small scans (the common per-query serving case) stay on the calling
  // thread: the XOR+popcount sweep through a few KiB beats any hand-off.
  // Large label spaces — the prototype-store sharding regime — fan the
  // prototype rows out across workers in contiguous chunks.
  constexpr std::size_t kSequentialWords = std::size_t{1} << 15;  // 256 KiB of codes
  const HammingRowsFn sweep = hamming_kernels().rows;
  if (words == 0 || n_rows * words < kSequentialWords) {
    sweep(query, rows, 0, n_rows, words, out);
    return;
  }
  const std::size_t grain = std::max<std::size_t>(64, kSequentialWords / (4 * words));
  util::parallel_for_chunks(0, n_rows, [&](std::size_t i0, std::size_t i1) {
    sweep(query, rows, i0, i1, words, out);
  }, grain);
}

std::vector<std::size_t> hamming_many(const BinaryHV& query,
                                      const std::vector<BinaryHV>& prototypes) {
  // Each prototype's word buffer is scanned in place — no repacking; hot
  // paths that want one contiguous sweep pre-pack once (see
  // serve::PrototypeStore) and call hamming_many_packed directly.
  const std::size_t words = query.words().size();
  std::vector<std::size_t> out(prototypes.size());
  for (std::size_t i = 0; i < prototypes.size(); ++i) {
    check_same_dim(query.dim(), prototypes[i].dim(), "hamming_many");
    std::uint32_t h = 0;
    hamming_many_packed(query.words().data(), prototypes[i].words().data(), 1, words, &h);
    out[i] = h;
  }
  return out;
}

double mean_abs_pairwise_cosine(const std::vector<BipolarHV>& hvs) {
  if (hvs.size() < 2) return 0.0;
  double s = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < hvs.size(); ++i)
    for (std::size_t j = i + 1; j < hvs.size(); ++j) {
      s += std::abs(hvs[i].cosine(hvs[j]));
      ++pairs;
    }
  return s / static_cast<double>(pairs);
}

}  // namespace hdczsc::hdc
