// The one score rule and the k-bounded selection primitives every top-k
// path shares: the flat scans (PrototypeStore::score_binary), the sharded
// scatter/gather (sharded_store.cpp) and the IVF pipeline (ann_store.cpp).
//
// BinaryScoreRule is the only place that knows how a Hamming count becomes
// a logit and when integer (h, label) keys order exactly like those
// logits. The float-domain heap below and, for integer keys, hdc::HammingTopK
// under hdc::hamming_topk_packed's block rule are the only places that know
// the retrieval order and its block-skip thresholds. Because every path
// goes through them, the "nprobe == C and unbounded rerank degenerates
// bit-identically to the exact path" property holds by construction
// (tests/test_ann_retrieval.cpp asserts it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "hdc/hypervector.hpp"
#include "serve/sharded_store.hpp"
#include "tensor/tensor.hpp"

namespace hdczsc::serve::detail {

/// The one retrieval order both scoring paths and all store layouts share:
/// score descending, label ascending on exact score ties. The flat
/// reference (full argsort of score_float / score_binary logits) under this
/// order is what every scatter/gather and approximate result is asserted
/// against.
template <typename Hit>
inline bool better(const Hit& a, const Hit& b) {
  return a.score > b.score || (a.score == b.score && a.label < b.label);
}

/// The `[B, d]` embedding check every scan runs before touching a row;
/// `who` names the caller in the message ("IvfIndex::topk_float").
inline void check_embeddings(const tensor::Tensor& embeddings, std::size_t dim,
                             const char* who) {
  if (embeddings.dim() != 2 || embeddings.size(1) != dim)
    throw std::invalid_argument(std::string(who) + ": need [B, " + std::to_string(dim) +
                                "] embeddings, got " + tensor::shape_str(embeddings.shape()));
}

/// How a Hamming count becomes a logit: s · (1 − 2h/D), with a resolved
/// GZSL handicap (SeenPenalty) in one of two forms —
///   folded      an integer-exact handicap adds Δ to a seen row's count
///               before the conversion (`row_offset`; the caller folds);
///   subtracted  any other handicap is subtracted from the converted logit
///               (`row_penalty`; score() applies it).
///
/// `integer_keys` says whether (h asc, label asc) keys order exactly like
/// (score desc, label asc). They do iff distinct counts never round to the
/// same logit and no subtract-form handicap reorders them: s · (1 − 2h/D)
/// is weakly decreasing in h under float rounding (for s > 0), and
/// strictly so while 1/D stays above float resolution — i.e. for D < 2²⁴
/// code bits, far beyond any practical code width (an integer-exact Δ also
/// keeps h + Δ below 2²⁴, see PrototypeStore::resolve_penalty). Wider
/// codes, non-positive scales and subtract-form handicaps select in the
/// float domain.
struct BinaryScoreRule {
  /// What a handicap that does not fold exactly becomes: kSubtract scores
  /// it in subtract form (every path whose scores are final); kIgnore
  /// leaves it out, so the scan ranks raw Hamming (the cascade's
  /// prefilter, whose float rerank applies the handicap).
  enum class Inexact : unsigned char { kSubtract, kIgnore };

  BinaryScoreRule(float scale, std::size_t code_bits, const SeenPenalty* penalty,
                  Inexact inexact = Inexact::kSubtract)
      : scale(scale), inv_d(1.0f / static_cast<float>(code_bits)) {
    if (penalty && penalty->active()) {
      if (penalty->integer_exact)
        row_offset = penalty->row_offset.data();
      else if (inexact == Inexact::kSubtract)
        row_penalty = penalty->row_penalty.data();
    }
    integer_keys = scale > 0.0f && code_bits < (std::size_t{1} << 24) && !row_penalty;
  }

  /// The binary logit of a (handicap-folded) Hamming count.
  float logit(std::uint32_t h) const {
    return scale * (1.0f - 2.0f * static_cast<float>(h) * inv_d);
  }
  /// Final score of prototype row `row` at folded count `h`.
  float score(std::uint32_t h, std::size_t row) const {
    return row_penalty ? logit(h) - row_penalty[row] : logit(h);
  }
  /// The hit an integer key (see hdc::HammingTopK) stands for.
  TopK hit(std::uint64_t key) const {
    return TopK{static_cast<std::size_t>(key & 0xffffffffu),
                logit(static_cast<std::uint32_t>(key >> 32))};
  }

  float scale;
  float inv_d;
  const std::uint32_t* row_offset = nullptr;  ///< per-row Δ to fold into h, or null
  const float* row_penalty = nullptr;         ///< per-row subtract-form handicap, or null
  bool integer_keys = false;
};

/// Rows per block-skip test in the float-domain selection loop: once a
/// cutoff is known, a whole block is skipped with one vectorizable
/// compare-reduce over its scores, so the steady-state selection cost drops
/// well below one branch per row. The integer-key domain applies the same
/// 16-row block rule inside hdc::hamming_topk_packed.
inline constexpr std::size_t kSelectBlock = hdc::kTopkBlock;

/// k-bounded candidate selection over caller-provided storage (one flat
/// slot per (shard, query), so the scatter allocates nothing per scan): a
/// binary heap with the *worst* kept candidate on top (std::push_heap with
/// `better` as the ordering puts the minimum there), so the steady-state
/// cost per scanned row is one score compare against the current cutoff.
template <typename Hit>
class BoundedTopK {
 public:
  BoundedTopK(Hit* slot, std::size_t k) : slot_(slot), k_(k) {}

  void offer(Hit c) {
    if (n_ < k_) {
      slot_[n_++] = c;
      std::push_heap(slot_, slot_ + n_, better<Hit>);
      return;
    }
    if (!better(c, slot_[0])) return;  // cutoff miss: the common case
    std::pop_heap(slot_, slot_ + n_, better<Hit>);
    slot_[n_ - 1] = c;
    std::push_heap(slot_, slot_ + n_, better<Hit>);
  }

  std::size_t size() const { return n_; }
  /// Block-skip threshold: scores strictly below it cannot enter (equal
  /// scores still can, via the label tie-break), -inf while filling.
  float cutoff_score() const {
    return n_ == k_ ? slot_[0].score : -std::numeric_limits<float>::infinity();
  }

 private:
  Hit* slot_;
  std::size_t k_;
  std::size_t n_ = 0;
};

}  // namespace hdczsc::serve::detail
