// Hyperdimensional computing primitives (Kanerva 2009).
//
// Two representations are provided, mirroring §III-A of the paper:
//  * BipolarHV: dense {-1,+1} vectors stored as int8. Binding is elementwise
//    multiplication; similarity is the cosine (= normalized dot product).
//  * BinaryHV:  dense {0,1} vectors packed 64/word. Binding is XOR;
//    similarity is 1 - 2*hamming/d, which equals the bipolar cosine of the
//    corresponding ±1 vectors. This is the "stationary binary weights/ops"
//    form targeted at edge accelerators in the paper's Fig. 1.
//
// Conversions between the two are exact (bit b <-> bipolar 1-2b), and all
// algebraic identities (bind self-inverse, quasi-orthogonality of random
// vectors, similarity equivalence) are covered by tests/test_hdc.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace hdczsc::hdc {

class BinaryHV;  // fwd

/// Dense bipolar hypervector with components in {-1, +1}.
class BipolarHV {
 public:
  BipolarHV() = default;
  /// All +1 (the binding identity).
  explicit BipolarHV(std::size_t dim) : v_(dim, +1) {}
  explicit BipolarHV(std::vector<std::int8_t> values) : v_(std::move(values)) {}

  /// i.i.d. Rademacher sample.
  static BipolarHV random(std::size_t dim, util::Rng& rng);

  std::size_t dim() const { return v_.size(); }
  std::int8_t operator[](std::size_t i) const { return v_[i]; }
  std::int8_t& operator[](std::size_t i) { return v_[i]; }
  const std::vector<std::int8_t>& raw() const { return v_; }

  /// Variable binding (elementwise multiply). Self-inverse:
  /// bind(bind(a,b),b) == a.
  BipolarHV bind(const BipolarHV& other) const;
  /// Unbinding; for bipolar vectors identical to bind.
  BipolarHV unbind(const BipolarHV& other) const { return bind(other); }

  /// Cyclic permutation by k positions (rho^k). Invertible via permute(-k).
  BipolarHV permute(long k) const;

  /// Cosine similarity in [-1, 1] (dot / d).
  double cosine(const BipolarHV& other) const;
  /// Raw integer dot product.
  long dot(const BipolarHV& other) const;

  /// Convert to packed binary (+1 -> 0, -1 -> 1).
  BinaryHV to_binary() const;
  /// Convert to a float tensor row (±1.0f).
  tensor::Tensor to_tensor() const;

  bool operator==(const BipolarHV& other) const { return v_ == other.v_; }

 private:
  std::vector<std::int8_t> v_;
};

/// Accumulator for bundling (superposition): sum bipolar vectors, then take
/// the elementwise sign. Ties (possible for even counts) are broken with a
/// caller-provided rng for unbiased majority, as in binarized bundling
/// (Schmuck et al. 2019).
class BundleAccumulator {
 public:
  explicit BundleAccumulator(std::size_t dim) : sums_(dim, 0) {}

  void add(const BipolarHV& hv);
  /// Add with an integer weight (e.g., counts).
  void add_weighted(const BipolarHV& hv, long weight);

  std::size_t count() const { return count_; }
  std::size_t dim() const { return sums_.size(); }
  const std::vector<long>& sums() const { return sums_; }

  /// Majority/sign readout.
  BipolarHV finalize(util::Rng& rng) const;

 private:
  std::vector<long> sums_;
  std::size_t count_ = 0;
};

/// Dense binary hypervector packed into 64-bit words.
class BinaryHV {
 public:
  BinaryHV() = default;
  /// All zeros (the XOR identity).
  explicit BinaryHV(std::size_t dim);

  static BinaryHV random(std::size_t dim, util::Rng& rng);

  std::size_t dim() const { return dim_; }
  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// XOR binding (self-inverse).
  BinaryHV bind(const BinaryHV& other) const;
  BinaryHV unbind(const BinaryHV& other) const { return bind(other); }

  /// Hamming distance (number of differing bits).
  std::size_t hamming(const BinaryHV& other) const;
  /// Normalized similarity 1 - 2*hamming/d in [-1, 1]; equals the bipolar
  /// cosine of the ±1 counterparts.
  double similarity(const BinaryHV& other) const;

  BipolarHV to_bipolar() const;

  /// Storage cost in bytes (packed words only).
  std::size_t storage_bytes() const { return words_.size() * sizeof(std::uint64_t); }

  const std::vector<std::uint64_t>& words() const { return words_; }

  bool operator==(const BinaryHV& other) const {
    return dim_ == other.dim_ && words_ == other.words_;
  }

 private:
  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
  void mask_tail();
};

/// Mean absolute pairwise cosine of a set of hypervectors — the
/// quasi-orthogonality diagnostic: for i.i.d. Rademacher vectors this
/// concentrates near sqrt(2/(pi*d)).
double mean_abs_pairwise_cosine(const std::vector<BipolarHV>& hvs);

// -- batched Hamming kernel --------------------------------------------------
// The inference hot path of the serving runtime: one query scored against a
// whole prototype matrix with word-level XOR + popcount. Rows are laid out
// contiguously (`words` 64-bit words each) so the scan is a single linear
// sweep — the access pattern an associative-memory accelerator would use.

/// out[i] = popcount(query ^ rows[i*words .. (i+1)*words)) for i in [0, n_rows).
///
/// Parallel threshold and chunking contract: scans touching fewer than
/// 256 KiB of packed prototype codes (n_rows·words < 2^15 words) run
/// entirely on the calling thread — the XOR+popcount sweep through a few
/// KiB beats any hand-off, and this is the common per-query serving case.
/// At or above the threshold the rows are split into contiguous chunks of
/// at least max(64, 2^15/(4·words)) rows across util::parallel_for
/// workers; each worker writes only its own out[i] range, so the call is
/// safe from any thread but must not assume a particular execution order
/// across rows. Nested inside another parallel_for body (e.g. the sharded
/// store's per-shard scatter) the sweep runs inline — the pool is not
/// re-entrant.
void hamming_many_packed(const std::uint64_t* query, const std::uint64_t* rows,
                         std::size_t n_rows, std::size_t words, std::uint32_t* out);

/// Query-blocked variant: out[q*n_rows + i] = popcount(queries[q] ^ rows[i])
/// for n_queries packed queries laid out contiguously (`words` each). Every
/// count goes to memory, so it serves callers that need them all: the
/// sharded store's float-domain selection (a subtract-form GZSL penalty)
/// and throughput probes. Top-k callers use hamming_topk_packed, which
/// selects while the counts are still in registers. The popcnt and
/// portable variants read each row once per full 4-query block, down one
/// popcount chain per query, and once more per leftover query. The avx512
/// variant takes the queries in blocks of up to four and reads each row
/// once per block, so a batch of 1–4 queries streams the rows once; it
/// scores sixteen rows at a time with VPOPCNTQ, laid out by width: 1, 2, 4
/// or 8 words per row as rows in lanes, wider rows one register per row.
/// Widths 3, 5, 6 and 7 take the popcnt variant whole. Always runs on the
/// calling thread; callers parallelize across shards, not inside the sweep.
void hamming_many_packed_multi(const std::uint64_t* queries, std::size_t n_queries,
                               const std::uint64_t* rows, std::size_t n_rows,
                               std::size_t words, std::uint32_t* out);

// -- fused scan-and-select ---------------------------------------------------
// The binary top-k paths (the sharded exact scan and the IVF list scans in
// serve/) never need a row's Hamming count once it cannot enter the top-k.
// hamming_topk_packed scores a block of rows, tests the counts against each
// query's heap threshold while they are still in registers, and offers only
// the rows that can enter.

/// k-bounded selection in the integer Hamming key domain over caller-owned
/// storage: candidates are packed (h << 32) | label keys, so the retrieval
/// order (h asc, label asc) is a single u64 compare and a miss costs one
/// predictable compare. A max-heap keeps the worst kept key on top.
class HammingTopK {
 public:
  /// `bound` is a cutoff hint: a key known to have at least k better keys
  /// elsewhere (another shard's k-th best). Keys at or above it are dropped
  /// before touching the heap. Keys are unique (the label is in the low
  /// bits), so `>=` never discards a genuine tie. k must be at least 1.
  HammingTopK(std::uint64_t* slot, std::size_t k, std::uint64_t bound = ~std::uint64_t{0})
      : slot_(slot), k_(k), bound_(bound) {}

  void offer(std::uint32_t h, std::size_t label) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(h) << 32) | static_cast<std::uint64_t>(label);
    if (key >= bound_) return;  // cutoff miss: the common case
    if (n_ < k_) {
      slot_[n_++] = key;
      std::push_heap(slot_, slot_ + n_);
      if (n_ == k_) bound_ = std::min(bound_, slot_[0]);
      return;
    }
    std::pop_heap(slot_, slot_ + n_);
    slot_[n_ - 1] = key;
    std::push_heap(slot_, slot_ + n_);
    bound_ = std::min(bound_, slot_[0]);
  }

  /// Keys kept so far, in slot[0, size()), heap-ordered.
  std::size_t size() const { return n_; }
  /// The local k-th best key once full, else all ones (the sharded scan
  /// publishes it as the next shard's starting bound).
  std::uint64_t cutoff() const { return n_ == k_ ? slot_[0] : ~std::uint64_t{0}; }
  /// Block-test threshold in the Hamming domain: a count strictly above it
  /// cannot enter (equal counts may, via the label bits). Because further
  /// words only add to a count, a partial count above it already rules the
  /// row out; that is what makes the kernel's early test admissible.
  std::uint32_t threshold() const { return static_cast<std::uint32_t>(bound_ >> 32); }

 private:
  std::uint64_t* slot_;
  std::size_t k_;
  std::size_t n_ = 0;
  std::uint64_t bound_;
};

/// Rows per block of hamming_topk_packed's block test.
inline constexpr std::size_t kTopkBlock = 16;
/// Rows wider than this many words get the block test on their first
/// register (these words) before the rest of the row is read.
inline constexpr std::size_t kTopkHeadWords = 8;

/// Where a fused scan's rows get their labels and GZSL offsets.
struct RowLabels {
  /// Row i's label is ids[i] when set (an IVF list's row ids), else first + i.
  const std::uint32_t* ids = nullptr;
  std::size_t first = 0;
  /// Per-label integer handicap Δ, indexed by label: a row competes as
  /// h + Δ. Null for none.
  const std::uint32_t* offsets = nullptr;
};

/// Fused scan and select. For each query q of n_queries (laid out
/// contiguously, `words` each), offers every row's key
/// ((popcount(queries[q] ^ rows[i]) + Δ) << 32 | label) that can enter
/// heaps[q], under one block rule every variant shares: rows go in blocks
/// of kTopkBlock, the threshold is sampled once per block, a full block
/// whose every count is above it is skipped and counted as pruned, and in
/// any other block the rows at or below it are offered in row order. The
/// last n_rows % kTopkBlock rows are never counted as pruned. Rows wider
/// than kTopkHeadWords words are tested on their first kTopkHeadWords words
/// first; a block that fails there is skipped unread, and counts as pruned
/// exactly when the full-count test would have pruned it. So the kept keys
/// and the returned count (pruned rows summed over queries) are the same
/// on every variant. Queries go in blocks of up to four, each row read
/// once per block. Runs on the calling thread.
std::uint64_t hamming_topk_packed(const std::uint64_t* queries, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t n_rows,
                                  std::size_t words, const RowLabels& labels,
                                  HammingTopK* heaps);

/// Convenience overload over BinaryHV prototypes; every prototype must share
/// the query's dimensionality.
std::vector<std::size_t> hamming_many(const BinaryHV& query,
                                      const std::vector<BinaryHV>& prototypes);

/// Name of the packed-scan kernel variant selected for this CPU, picked
/// once at runtime via __builtin_cpu_supports — "avx512" (AVX-512
/// F/BW/VL/DQ + VPOPCNTDQ: eight words per instruction), "popcnt" (one
/// word per POPCNT) or "portable" (std::popcount at the build's baseline
/// ISA) — surfaced in benches and logs, mirroring
/// tensor::gemm_kernel_name(). Distances are integer counts, so every
/// variant returns identical results.
const char* hamming_kernel_name();

/// Testing/diagnostics hook: pin the packed-scan kernels to one variant —
/// "portable", "popcnt", "avx512", or "auto" to restore runtime dispatch.
/// Returns false (changing nothing) when the variant is unknown or
/// unsupported on this CPU/build. Not synchronized against concurrent
/// scans; call from test or bench setup only, and restore "auto"
/// afterwards.
bool set_hamming_kernel(const char* name);

}  // namespace hdczsc::hdc
