// Frozen class-prototype store for inference serving — now a *versioned*
// copy-on-write value that can grow while requests are in flight.
//
// At snapshot time the class prototype matrix ϕ(A) [C, d] is computed once
// and stored in two forms:
//  * float: L2-normalized rows, so scoring is a single [B,d]x[C,d]ᵀ GEMM
//    (the cosine numerator; the denominator is baked into the rows).
//  * binary: sign-bit-packed rows (64 components/word, bit 1 ↔ negative,
//    matching BipolarHV::to_binary), so scoring is XOR + popcount Hamming
//    similarity 1 - 2h/D — the paper's stationary binary-ops edge form.
//
// `expansion` controls the binary fidelity/latency trade-off:
//  * 1 (default): bits are the signs of the raw ϕ(A) components (D = d).
//    Cheapest possible query — d sign tests + C·d/64 XOR+popcount words —
//    but at CPU-scale d the 1-bit quantization is lossy between highly
//    correlated prototypes.
//  * k > 1: sign-LSH re-expansion into hyperdimensional binary space, the
//    regime the paper's accelerators operate in. Bits are signs of a fixed
//    Rademacher projection R [D=k·d, d] applied to prototypes (at build
//    time) and queries (at score time); E[hamming/D] = θ/π estimates the
//    *angle*, so Hamming ranking converges to the exact cosine ranking as
//    k grows (error ~ 1/(2·sqrt(D))).
//
// Both paths multiply by the model's learned temperature scale s = 1/K so
// their outputs are directly comparable to ZscModel::class_logits.
//
// -- copy-on-write slabs ------------------------------------------------------
//
// Zero-shot's whole point is that a new class is just one ϕ(a) row, so the
// store supports structural-sharing appends: both planes (the float rows
// and the packed binary words) live in *slabs* — allocations that may hold
// more rows than the store's visible prefix [0, n_classes). A store value
// is therefore (slab handles, visible row count): copying it is O(1) and
// shares the slabs.
//
// append_rows / append_parts return a *new* store value with n more rows.
// When the slab has spare capacity, the appender claims rows
// [n_classes, n_classes + n) with one CAS on the slab's shared commit
// counter and writes them in place — addresses no published store value
// can read (every reader's prefix ends at or before the claim start), so
// the write is race-free; the new value is made visible to other threads
// only through an owning shared_ptr publication (see serve::StoreVersion),
// whose release/acquire edge orders the row writes. When capacity is
// exhausted (or another appender won the CAS), the planes are reallocated
// with geometric headroom and the prefix is copied — the old value keeps
// its slabs, so existing readers are never invalidated.
//
// score_float / score_binary are the *flat* scans: one sweep over all C
// rows, materializing full [B, C] logits. For top-k retrieval over large
// label spaces, serve/sharded_store.hpp partitions these same rows into
// row-range shards and runs a scatter/gather scan that never materializes
// the logits matrix; the flat scans remain the reference (and the right
// call when the caller wants every logit, e.g. for calibration).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hdc/hypervector.hpp"
#include "tensor/tensor.hpp"

namespace hdczsc::serve {

/// Calibrated stacking (Chao et al. 2016) resolved against one store: the
/// constant `penalty` is subtracted from every *seen*-class logit to
/// counter the seen-class bias in generalized zero-shot serving — the
/// serving-side form of Trainer::evaluate_gzsl. Built via
/// PrototypeStore::resolve_penalty, consumed by both flat scoring paths,
/// the sharded scatter/gather scan and the IVF tier.
///
/// On the binary path the handicap is translated into the integer Hamming
/// domain whenever it is exactly representable there: a seen-class row is
/// scored as if its Hamming distance were h + `offset`, where
/// penalty = scale · 2·offset/D. That keeps the sharded store's packed
/// (h << 32) | label heap selection and cross-shard cutoff hints exact
/// with respect to the penalized float scores — both flat and sharded
/// paths then evaluate the identical expression
/// scale·(1 − 2·(h + offset)/D). When no exact integer offset exists
/// (`integer_exact` false: fractional offset, non-positive penalty or
/// scale, or h + offset would leave the float-exact range < 2²⁴), both
/// paths fall back to the float form scale·(1 − 2h/D) − penalty and the
/// sharded scan selects in the float domain. That is the usual case for a
/// calibrated penalty: calibrate_seen_penalty returns a value just past a
/// decision margin, a few ulps off the Hamming grid. The one place these
/// forms become scores is detail::BinaryScoreRule (topk_select.hpp).
struct SeenPenalty {
  float penalty = 0.0f;  ///< p, subtracted from every seen-class logit
  /// Per-class float handicap: penalty for seen rows, 0 for unseen ([C]).
  std::vector<float> row_penalty;
  /// Per-class Hamming-domain handicap: `offset` for seen rows, 0 for
  /// unseen ([C]); meaningful only when integer_exact.
  std::vector<std::uint32_t> row_offset;
  std::uint32_t offset = 0;    ///< Δ = p·D/(2s) when integer_exact
  bool integer_exact = false;  ///< binary path may select on h + offset

  bool active() const { return penalty != 0.0f; }
};

class PrototypeStore {
 public:
  /// `prototypes` are the raw ϕ(A) rows [C, d]; `scale` the similarity
  /// temperature s applied to both scoring paths. `expansion` k sets the
  /// binary code width D = k·d (see file comment); `lsh_seed` fixes the
  /// projection so snapshots are reproducible.
  PrototypeStore(const tensor::Tensor& prototypes, float scale, std::size_t expansion = 1,
                 std::uint64_t lsh_seed = 0x5EEDULL);

  /// Reconstitute a store from serialized parts (snapshot_io load path): the
  /// already-normalized float rows and the already-packed binary words are
  /// adopted verbatim — nothing is recomputed, so the round trip is
  /// bit-identical on both scoring paths. The LSH projection (expansion > 1)
  /// is not built here: projection() derives it from `lsh_seed` on first
  /// use, exactly as the building constructor did. Throws
  /// std::invalid_argument when the parts disagree (packed size vs. [C, d] x
  /// expansion).
  static PrototypeStore from_parts(tensor::Tensor normalized_rows,
                                   std::vector<std::uint64_t> packed_words, float scale,
                                   std::size_t expansion, std::uint64_t lsh_seed);

  /// Copy-on-write append of raw ϕ(a) rows [n, d]: returns a new store value
  /// with n_classes() + n visible rows whose first n_classes() rows are
  /// *bitwise* this store's rows (structurally shared when slab capacity
  /// allows — see file comment). New rows are normalized and sign-packed
  /// exactly as the building constructor would have (signs of the raw
  /// components at expansion 1, signs of the shared LSH projection
  /// otherwise), so the appended store is bitwise-identical to one built
  /// cold from the concatenated prototype matrix. Thread-safe against
  /// concurrent readers of any published store value and against concurrent
  /// appenders (losers of the slab CAS reallocate).
  PrototypeStore append_rows(const tensor::Tensor& raw_rows) const;

  /// Append already-normalized rows + already-packed words verbatim (the
  /// delta-snapshot load path) — same slab semantics as append_rows, nothing
  /// recomputed, so a base + delta chain reconstitutes bit-identically.
  PrototypeStore append_parts(const tensor::Tensor& normalized_rows,
                              const std::vector<std::uint64_t>& packed_words) const;

  std::size_t n_classes() const { return n_classes_; }
  std::size_t dim() const { return dim_; }
  float scale() const { return scale_; }
  /// Binary code width D (== dim() when expansion == 1).
  std::size_t code_bits() const { return code_bits_; }
  std::size_t expansion() const { return expansion_; }
  std::size_t words_per_row() const { return words_per_row_; }
  std::uint64_t lsh_seed() const { return lsh_seed_; }
  /// Rows the slabs can hold before an append must reallocate.
  std::size_t capacity_rows() const { return capacity_rows_; }
  /// Whether two store values share the same underlying slabs (an appended
  /// value that fit in capacity does; a reallocated one does not).
  bool shares_planes_with(const PrototypeStore& o) const {
    return float_plane_.shares_storage(o.float_plane_) && packed_plane_ == o.packed_plane_;
  }

  /// Float cosine path: logits [B, C] = s · Ê P̂ᵀ from embeddings e [B, d].
  /// Bit-identical to SimilarityKernel::forward in eval mode. With a
  /// resolved `penalty`, row_penalty[c] is subtracted from column c —
  /// exactly how Trainer::evaluate_gzsl handicaps the seen columns.
  tensor::Tensor score_float(const tensor::Tensor& embeddings,
                             const SeenPenalty* penalty = nullptr) const;

  /// Binary Hamming path: encode each embedding row into a D-bit code
  /// (sign, optionally after the LSH projection), then
  /// logits [B, C] = s · (1 − 2·hamming/D) via the packed popcount kernel.
  /// With a resolved `penalty`: s · (1 − 2·(h + row_offset[c])/D) when the
  /// handicap is integer_exact in the Hamming domain, else the float form
  /// s · (1 − 2h/D) − row_penalty[c] (see SeenPenalty).
  tensor::Tensor score_binary(const tensor::Tensor& embeddings,
                              const SeenPenalty* penalty = nullptr) const;

  /// Resolve a calibrated-stacking handicap against this store (see
  /// SeenPenalty). `seen_mask` is one byte per class (non-zero = seen);
  /// empty means *all* classes are seen (the un-partitioned legacy space —
  /// a uniform handicap, harmless to the ranking). Throws
  /// std::invalid_argument when the mask length disagrees with n_classes().
  SeenPenalty resolve_penalty(float penalty,
                              const std::vector<std::uint8_t>& seen_mask) const;

  /// Encode one embedding row [d] into its D-bit binary code.
  hdc::BinaryHV encode_query(const float* row) const;
  /// Encode embeddings [B, d] into one packed buffer of B rows of
  /// words_per_row() words, row b being encode_query(row b)'s words.
  std::vector<std::uint64_t> encode_queries(const tensor::Tensor& embeddings) const;

  /// The sign-LSH projection R [D, d] (an empty tensor at expansion 1). R is
  /// a pure function of lsh_seed(), built on the first call — by the
  /// building constructor, the first binary encode or append, or a
  /// binary-scoring InferenceEngine's constructor — and shared by every copy
  /// of this store, appended versions included, so one lineage builds it at
  /// most once. Concurrent first calls build it once. Float-only serving of
  /// a loaded store never builds it.
  const tensor::Tensor& projection() const;
  /// Whether this lineage has built projection() yet (false at expansion 1,
  /// which has no projection).
  bool projection_built() const {
    return projection_ && projection_->built.load();
  }

  /// L2-normalized float rows, row-major with leading dimension dim() —
  /// valid for the visible prefix [0, n_classes()). The slab may extend
  /// beyond the prefix; never index past n_classes().
  const float* float_rows() const { return float_plane_.data(); }
  /// Packed binary rows, `words_per_row()` words each, row-major — same
  /// visible-prefix contract as float_rows().
  const std::uint64_t* packed_data() const { return packed_plane_->data(); }
  /// Materialize the visible float rows as an owned [C, d] tensor
  /// (serialization/diagnostics — the scan paths use float_rows()).
  tensor::Tensor normalized_copy() const;
  /// Materialize the visible packed words (serialization/diagnostics).
  std::vector<std::uint64_t> packed_copy() const;
  /// Unpack row `i` (for diagnostics/tests).
  hdc::BinaryHV binary_prototype(std::size_t i) const;

  /// Storage of the float store (visible normalized rows, fp32).
  std::size_t float_bytes() const { return n_classes_ * dim_ * sizeof(float); }
  /// Storage of the binary store (visible packed words only).
  std::size_t binary_bytes() const {
    return n_classes_ * words_per_row_ * sizeof(std::uint64_t);
  }

 private:
  PrototypeStore() = default;  // used by from_parts / append_impl

  /// Shared-slab append core: claim rows via CAS when capacity allows,
  /// else reallocate with geometric headroom + prefix copy.
  PrototypeStore append_impl(const tensor::Tensor& normalized_rows,
                             const std::vector<std::uint64_t>& packed_words) const;

  std::size_t n_classes_ = 0;  // visible prefix of the slabs
  std::size_t dim_ = 0;
  std::size_t code_bits_ = 0;
  std::size_t expansion_ = 1;
  std::size_t words_per_row_ = 0;
  std::uint64_t lsh_seed_ = 0;
  float scale_ = 1.0f;
  std::size_t capacity_rows_ = 0;  // rows the slabs can hold
  tensor::Tensor float_plane_;     // [capacity, d] slab; rows [0, C) visible
  /// R [D, d] Rademacher, built under `once` on first use (see projection()).
  struct LazyProjection {
    std::once_flag once;
    std::atomic<bool> built{false};
    tensor::Tensor r;
  };
  std::shared_ptr<LazyProjection> projection_;  // null when expansion == 1
  /// Packed slab [capacity * words_per_row]; shared across appended values.
  std::shared_ptr<std::vector<std::uint64_t>> packed_plane_;
  /// Rows claimed in the shared slabs (>= any sharing value's n_classes_);
  /// appenders CAS n_classes_ -> n_classes_ + n to claim the tail in place.
  std::shared_ptr<std::atomic<std::size_t>> committed_;

  void init_planes(std::size_t rows);
  void pack_rows_into(const tensor::Tensor& rows, std::size_t first_row, std::size_t n_rows);
};

}  // namespace hdczsc::serve
