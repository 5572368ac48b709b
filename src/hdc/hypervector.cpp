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
  }

HDCZSC_DEFINE_HAMMING_KERNEL(portable, )
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDCZSC_HAMMING_X86_DISPATCH 1
HDCZSC_DEFINE_HAMMING_KERNEL(popcnt, __attribute__((target("popcnt"))))

// The avx512 variant counts eight words per VPOPCNTQ (the vector popcount
// of Muła, Kurz & Lemire, Comput. J. 2018) and scores each row against a
// block of up to four queries per load, so a batch of 1–4 queries streams
// the code rows once. Rows go eight at a time, laid out by width:
//  * 1, 2, 4 or 8 words — rows in lanes: the eight rows fill `words`
//    registers in memory order, each XORed with the query repeated across
//    the register and counted;
//  * more than 8 words — one register per row, accumulating its counts
//    eight words at a time.
// Either way each row's partial counts sit in consecutive lanes, and
// log2 rounds of lane-transposing adds leave one count per row, so the
// eight counts go out in one store instead of eight horizontal sums.
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
/// fold them to one lane per row and store the first n ≤ 8 as uint32.
template <std::size_t N>
HDCZSC_AVX512_HAMMING inline void fold_store(__m512i* c, std::size_t n, std::uint32_t* out) {
  for (std::size_t width = N; width > 1; width /= 2)
    for (std::size_t k = 0; k < width / 2; ++k) c[k] = add_pairs(c[2 * k], c[2 * k + 1]);
  _mm512_mask_cvtepi64_storeu_epi32(out, static_cast<__mmask8>((1u << n) - 1), c[0]);
}

/// Rows in lanes, W ∈ {1,2,4,8}: out[q*stride + i] = popcount(query q ^
/// row i) for NQ queries over n_rows rows.
template <std::size_t W, std::size_t NQ>
HDCZSC_AVX512_HAMMING void scan_lanes(const std::uint64_t* queries, const std::uint64_t* rows,
                                      std::size_t n_rows, std::uint32_t* out,
                                      std::size_t stride) {
  // Query q repeated across the register: lane j holds word j % W.
  const __m512i lane_word = _mm512_set_epi64(7 % W, 6 % W, 5 % W, 4 % W, 3 % W, 2 % W, 1 % W, 0);
  __m512i qv[NQ];
  for (std::size_t q = 0; q < NQ; ++q) {
    const __m512i words = load_words(queries + q * W, W);
    qv[q] = _mm512_permutex2var_epi64(words, lane_word, words);
  }
  for (std::size_t i = 0; i < n_rows; i += 8) {
    const std::size_t n = std::min<std::size_t>(8, n_rows - i);
    const std::uint64_t* block = rows + i * W;
    __m512i r[W];
    for (std::size_t k = 0; k < W; ++k)
      r[k] = n * W > 8 * k ? load_words(block + 8 * k, n * W - 8 * k) : _mm512_setzero_si512();
    for (std::size_t q = 0; q < NQ; ++q) {
      __m512i c[W];
      for (std::size_t k = 0; k < W; ++k)
        c[k] = _mm512_popcnt_epi64(_mm512_xor_si512(r[k], qv[q]));
      fold_store<W>(c, n, out + q * stride + i);
    }
  }
}

/// Rows wider than 8 words, same contract as scan_lanes. Each query
/// re-reads the eight-row block from L1; the block comes from memory once.
template <std::size_t NQ>
HDCZSC_AVX512_HAMMING void scan_wide(const std::uint64_t* queries, const std::uint64_t* rows,
                                     std::size_t n_rows, std::size_t words, std::uint32_t* out,
                                     std::size_t stride) {
  for (std::size_t i = 0; i < n_rows; i += 8) {
    const std::size_t n = std::min<std::size_t>(8, n_rows - i);
    for (std::size_t q = 0; q < NQ; ++q) {
      const std::uint64_t* query = queries + q * words;
      __m512i c[8];
      for (std::size_t r = 0; r < 8; ++r) {
        c[r] = _mm512_setzero_si512();
        if (r >= n) continue;
        const std::uint64_t* row = rows + (i + r) * words;
        for (std::size_t w = 0; w < words; w += 8)
          c[r] = _mm512_add_epi64(
              c[r], _mm512_popcnt_epi64(_mm512_xor_si512(load_words(row + w, words - w),
                                                         load_words(query + w, words - w))));
      }
      fold_store<8>(c, n, out + q * stride + i);
    }
  }
}

/// Widths the vector scans cover; every other width keeps the popcnt loop.
bool avx512_width(std::size_t words) {
  return words == 1 || words == 2 || words == 4 || words >= 8;
}

/// One block of NQ ≤ 4 queries over all rows, dispatched on the width.
template <std::size_t NQ>
HDCZSC_AVX512_HAMMING void block_avx512(const std::uint64_t* queries, const std::uint64_t* rows,
                                        std::size_t n_rows, std::size_t words,
                                        std::uint32_t* out, std::size_t stride) {
  switch (words) {
    case 1: return scan_lanes<1, NQ>(queries, rows, n_rows, out, stride);
    case 2: return scan_lanes<2, NQ>(queries, rows, n_rows, out, stride);
    case 4: return scan_lanes<4, NQ>(queries, rows, n_rows, out, stride);
    case 8: return scan_lanes<8, NQ>(queries, rows, n_rows, out, stride);
    default: return scan_wide<NQ>(queries, rows, n_rows, words, out, stride);
  }
}

HDCZSC_AVX512_HAMMING void hamming_rows_avx512(const std::uint64_t* query,
                                               const std::uint64_t* rows, std::size_t row_begin,
                                               std::size_t row_end, std::size_t words,
                                               std::uint32_t* out) {
  if (!avx512_width(words))
    return hamming_rows_popcnt(query, rows, row_begin, row_end, words, out);
  block_avx512<1>(query, rows + row_begin * words, row_end - row_begin, words, out + row_begin,
                  0);
}

HDCZSC_AVX512_HAMMING void hamming_multi_avx512(const std::uint64_t* queries,
                                                std::size_t n_queries, const std::uint64_t* rows,
                                                std::size_t n_rows, std::size_t words,
                                                std::uint32_t* out) {
  if (!avx512_width(words))
    return hamming_multi_popcnt(queries, n_queries, rows, n_rows, words, out);
  for (std::size_t q = 0; q < n_queries; q += 4) {
    const std::uint64_t* qs = queries + q * words;
    std::uint32_t* o = out + q * n_rows;
    switch (std::min<std::size_t>(4, n_queries - q)) {
      case 1: block_avx512<1>(qs, rows, n_rows, words, o, n_rows); break;
      case 2: block_avx512<2>(qs, rows, n_rows, words, o, n_rows); break;
      case 3: block_avx512<3>(qs, rows, n_rows, words, o, n_rows); break;
      default: block_avx512<4>(qs, rows, n_rows, words, o, n_rows); break;
    }
  }
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

struct HammingKernels {
  HammingRowsFn rows;
  HammingMultiFn multi;
  const char* name;
};

HammingKernels pick_hamming_kernels() {
#if defined(HDCZSC_HAMMING_X86_DISPATCH)
  __builtin_cpu_init();
  if (cpu_has_avx512_popcnt())
    return {hamming_rows_avx512, hamming_multi_avx512, "avx512"};
  if (__builtin_cpu_supports("popcnt"))
    return {hamming_rows_popcnt, hamming_multi_popcnt, "popcnt"};
#endif
  return {hamming_rows_portable, hamming_multi_portable, "portable"};
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
    hamming_kernels() = {hamming_rows_portable, hamming_multi_portable, "portable"};
    return true;
  }
#if defined(HDCZSC_HAMMING_X86_DISPATCH)
  if (want == "popcnt" && __builtin_cpu_supports("popcnt")) {
    hamming_kernels() = {hamming_rows_popcnt, hamming_multi_popcnt, "popcnt"};
    return true;
  }
  if (want == "avx512" && cpu_has_avx512_popcnt()) {
    hamming_kernels() = {hamming_rows_avx512, hamming_multi_avx512, "avx512"};
    return true;
  }
#endif
  return false;
}

namespace {
/// Profiling hook (obs::set_profiling_enabled): wall time of each top-level
/// packed-Hamming scan, single- and multi-query alike. With profiling off
/// the ScopedTimer reads no clock.
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
