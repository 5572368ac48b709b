#include "serve/prototype_store.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "serve/topk_select.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace hdczsc::serve {

namespace {

/// Sign-pack `n_rows` rows of `code_bits` floats each into pre-zeroed
/// 64-bit words (bit 1 ↔ negative component), `wpr` words per row.
void pack_signs(const float* src, std::size_t n_rows, std::size_t code_bits, std::size_t wpr,
                std::uint64_t* dst) {
  for (std::size_t c = 0; c < n_rows; ++c) {
    std::uint64_t* row = dst + c * wpr;
    const float* s = src + c * code_bits;
    for (std::size_t j = 0; j < code_bits; ++j)
      if (s[j] < 0.0f) row[j / 64] |= std::uint64_t{1} << (j % 64);
  }
}

}  // namespace

void PrototypeStore::init_planes(std::size_t rows) {
  capacity_rows_ = rows;
  packed_plane_ = std::make_shared<std::vector<std::uint64_t>>(rows * words_per_row_, 0);
  committed_ = std::make_shared<std::atomic<std::size_t>>(rows);
}

void PrototypeStore::pack_rows_into(const tensor::Tensor& rows, std::size_t first_row,
                                    std::size_t n_rows) {
  pack_signs(rows.data(), n_rows, code_bits_, words_per_row_,
             packed_plane_->data() + first_row * words_per_row_);
}

PrototypeStore::PrototypeStore(const tensor::Tensor& prototypes, float scale,
                               std::size_t expansion, std::uint64_t lsh_seed)
    : expansion_(expansion == 0 ? 1 : expansion), lsh_seed_(lsh_seed), scale_(scale) {
  if (prototypes.dim() != 2 || prototypes.size(0) == 0)
    throw std::invalid_argument("PrototypeStore: prototypes must be a non-empty [C, d] matrix");
  n_classes_ = prototypes.size(0);
  dim_ = prototypes.size(1);
  code_bits_ = dim_ * expansion_;
  words_per_row_ = (code_bits_ + 63) / 64;

  // The initial float slab *is* the normalized matrix (capacity == C); the
  // first append grows it geometrically.
  float_plane_ = tensor::l2_normalize_rows(prototypes);
  init_planes(n_classes_);

  if (expansion_ == 1) {
    // Signs are norm-invariant; pack the raw rows directly.
    pack_rows_into(prototypes, 0, n_classes_);
  } else {
    projection_ = std::make_shared<LazyProjection>();
    pack_rows_into(tensor::matmul_nt(prototypes, projection()), 0, n_classes_);
  }
}

PrototypeStore PrototypeStore::from_parts(tensor::Tensor normalized_rows,
                                          std::vector<std::uint64_t> packed_words, float scale,
                                          std::size_t expansion, std::uint64_t lsh_seed) {
  if (normalized_rows.dim() != 2 || normalized_rows.size(0) == 0)
    throw std::invalid_argument(
        "PrototypeStore::from_parts: normalized rows must be a non-empty [C, d] matrix");
  PrototypeStore s;
  s.expansion_ = expansion == 0 ? 1 : expansion;
  s.lsh_seed_ = lsh_seed;
  s.scale_ = scale;
  s.n_classes_ = normalized_rows.size(0);
  s.dim_ = normalized_rows.size(1);
  s.code_bits_ = s.dim_ * s.expansion_;
  s.words_per_row_ = (s.code_bits_ + 63) / 64;
  if (packed_words.size() != s.n_classes_ * s.words_per_row_)
    throw std::invalid_argument(
        "PrototypeStore::from_parts: packed words/shape disagree (" +
        std::to_string(packed_words.size()) + " words for " + std::to_string(s.n_classes_) +
        " rows x " + std::to_string(s.words_per_row_) + " words/row)");
  s.float_plane_ = std::move(normalized_rows);
  s.capacity_rows_ = s.n_classes_;
  s.packed_plane_ =
      std::make_shared<std::vector<std::uint64_t>>(std::move(packed_words));
  s.committed_ = std::make_shared<std::atomic<std::size_t>>(s.n_classes_);
  if (s.expansion_ > 1) s.projection_ = std::make_shared<LazyProjection>();
  return s;
}

const tensor::Tensor& PrototypeStore::projection() const {
  static const tensor::Tensor kNone;
  if (!projection_) return kNone;
  std::call_once(projection_->once, [this] {
    util::Rng rng(lsh_seed_);
    projection_->r = tensor::Tensor::rademacher({code_bits_, dim_}, rng);
    projection_->built.store(true);
  });
  return projection_->r;
}

PrototypeStore PrototypeStore::append_rows(const tensor::Tensor& raw_rows) const {
  if (raw_rows.dim() != 2 || raw_rows.size(0) == 0 || raw_rows.size(1) != dim_)
    throw std::invalid_argument("PrototypeStore::append_rows: need non-empty [n, " +
                                std::to_string(dim_) + "] rows, got " +
                                tensor::shape_str(raw_rows.shape()));
  const std::size_t n_new = raw_rows.size(0);
  const tensor::Tensor normalized = tensor::l2_normalize_rows(raw_rows);
  std::vector<std::uint64_t> packed(n_new * words_per_row_, 0);
  if (expansion_ == 1) {
    pack_signs(raw_rows.data(), n_new, code_bits_, words_per_row_, packed.data());
  } else {
    const tensor::Tensor projected = tensor::matmul_nt(raw_rows, projection());
    pack_signs(projected.data(), n_new, code_bits_, words_per_row_, packed.data());
  }
  return append_impl(normalized, packed);
}

PrototypeStore PrototypeStore::append_parts(
    const tensor::Tensor& normalized_rows, const std::vector<std::uint64_t>& packed_words) const {
  if (normalized_rows.dim() != 2 || normalized_rows.size(0) == 0 ||
      normalized_rows.size(1) != dim_)
    throw std::invalid_argument("PrototypeStore::append_parts: need non-empty [n, " +
                                std::to_string(dim_) + "] rows, got " +
                                tensor::shape_str(normalized_rows.shape()));
  if (packed_words.size() != normalized_rows.size(0) * words_per_row_)
    throw std::invalid_argument(
        "PrototypeStore::append_parts: packed words/shape disagree (" +
        std::to_string(packed_words.size()) + " words for " +
        std::to_string(normalized_rows.size(0)) + " rows x " +
        std::to_string(words_per_row_) + " words/row)");
  return append_impl(normalized_rows, packed_words);
}

PrototypeStore PrototypeStore::append_impl(
    const tensor::Tensor& normalized_rows, const std::vector<std::uint64_t>& packed_words) const {
  const std::size_t n_new = normalized_rows.size(0);
  const std::size_t total = n_classes_ + n_new;

  PrototypeStore out = *this;  // O(1): shares the slabs
  out.n_classes_ = total;

  // Fast path: claim rows [n_classes_, total) of the shared slabs with one
  // CAS and write in place. Those addresses are past every published
  // value's visible prefix, so no reader can observe the write; the new
  // value is published through a shared_ptr swap whose release/acquire
  // edge orders these stores for its readers.
  std::size_t expected = n_classes_;
  if (total <= capacity_rows_ &&
      committed_->compare_exchange_strong(expected, total)) {
    std::copy(normalized_rows.data(), normalized_rows.data() + n_new * dim_,
              out.float_plane_.data() + n_classes_ * dim_);
    std::copy(packed_words.begin(), packed_words.end(),
              out.packed_plane_->data() + n_classes_ * words_per_row_);
    return out;
  }

  // Slow path: capacity exhausted (or a concurrent appender claimed the
  // tail first) — reallocate with geometric headroom and copy the prefix.
  // The old value keeps its slabs; its readers are untouched.
  std::size_t cap = std::max<std::size_t>(capacity_rows_, 1);
  while (cap < total) cap *= 2;
  out.capacity_rows_ = cap;
  out.float_plane_ = tensor::Tensor({cap, dim_});
  std::copy(float_rows(), float_rows() + n_classes_ * dim_, out.float_plane_.data());
  std::copy(normalized_rows.data(), normalized_rows.data() + n_new * dim_,
            out.float_plane_.data() + n_classes_ * dim_);
  out.packed_plane_ =
      std::make_shared<std::vector<std::uint64_t>>(cap * words_per_row_, 0);
  std::copy(packed_data(), packed_data() + n_classes_ * words_per_row_,
            out.packed_plane_->data());
  std::copy(packed_words.begin(), packed_words.end(),
            out.packed_plane_->data() + n_classes_ * words_per_row_);
  out.committed_ = std::make_shared<std::atomic<std::size_t>>(total);
  return out;
}

tensor::Tensor PrototypeStore::normalized_copy() const {
  tensor::Tensor out({n_classes_, dim_});
  std::copy(float_rows(), float_rows() + n_classes_ * dim_, out.data());
  return out;
}

std::vector<std::uint64_t> PrototypeStore::packed_copy() const {
  const std::uint64_t* p = packed_data();
  return std::vector<std::uint64_t>(p, p + n_classes_ * words_per_row_);
}

SeenPenalty PrototypeStore::resolve_penalty(float penalty,
                                            const std::vector<std::uint8_t>& seen_mask) const {
  if (!seen_mask.empty() && seen_mask.size() != n_classes_)
    throw std::invalid_argument("PrototypeStore::resolve_penalty: seen mask has " +
                                std::to_string(seen_mask.size()) + " entries for " +
                                std::to_string(n_classes_) + " classes");
  SeenPenalty p;
  p.penalty = penalty;
  if (penalty == 0.0f) return p;  // inactive: no per-row tables needed

  // Hamming-domain translation: penalty == scale · 2Δ/D for an integer
  // Δ ≥ 0 makes the handicap an exact integer offset on the seen rows'
  // Hamming counts. The double products below are exact (f32 values times
  // a < 2²⁴ integer), so `delta` is integral iff the real quotient is —
  // up to one part in 2⁵³, far beyond float resolution either way. The
  // offset must also keep h + Δ ≤ D + Δ < 2²⁴, the range where distinct
  // integer scores cannot round to the same float logit.
  if (scale_ > 0.0f && penalty > 0.0f) {
    const double delta = static_cast<double>(penalty) * static_cast<double>(code_bits_) /
                         (2.0 * static_cast<double>(scale_));
    if (delta == std::floor(delta) &&
        static_cast<double>(code_bits_) + delta < static_cast<double>(1u << 24)) {
      p.integer_exact = true;
      p.offset = static_cast<std::uint32_t>(delta);
    }
  }

  const auto seen = [&](std::size_t c) { return seen_mask.empty() || seen_mask[c] != 0; };
  p.row_penalty.resize(n_classes_, 0.0f);
  p.row_offset.resize(n_classes_, 0);
  for (std::size_t c = 0; c < n_classes_; ++c) {
    if (!seen(c)) continue;
    p.row_penalty[c] = penalty;
    p.row_offset[c] = p.offset;
  }
  return p;
}

tensor::Tensor PrototypeStore::score_float(const tensor::Tensor& embeddings,
                                           const SeenPenalty* penalty) const {
  detail::check_embeddings(embeddings, dim_, "PrototypeStore::score_float");
  const std::size_t batch = embeddings.size(0);
  tensor::Tensor e_hat = tensor::l2_normalize_rows(embeddings);
  // Zero-init + gemm_accumulate over the slab prefix is exactly what
  // matmul_nt(e_hat, normalized) computed when the rows were a standalone
  // [C, d] tensor — bit-identical, just with the slab as B.
  tensor::Tensor cos({batch, n_classes_});
  tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, batch, n_classes_, dim_,
                          e_hat.data(), dim_, float_rows(), dim_, cos.data(), n_classes_);
  tensor::Tensor logits = tensor::mul_scalar(cos, scale_);
  if (penalty && penalty->active()) {
    // Calibrated stacking, the evaluate_gzsl form: handicap the seen
    // columns after the temperature is applied.
    float* L = logits.data();
    const float* adj = penalty->row_penalty.data();
    for (std::size_t b = 0; b < logits.size(0); ++b)
      for (std::size_t c = 0; c < n_classes_; ++c) L[b * n_classes_ + c] -= adj[c];
  }
  return logits;
}

hdc::BinaryHV PrototypeStore::encode_query(const float* row) const {
  hdc::BinaryHV b(code_bits_);
  if (expansion_ == 1) {
    for (std::size_t j = 0; j < code_bits_; ++j)
      if (row[j] < 0.0f) b.set(j, true);
    return b;
  }
  const float* R = projection().data();
  for (std::size_t j = 0; j < code_bits_; ++j) {
    const float* prow = R + j * dim_;
    float acc = 0.0f;
    for (std::size_t k = 0; k < dim_; ++k) acc += prow[k] * row[k];
    if (acc < 0.0f) b.set(j, true);
  }
  return b;
}

std::vector<std::uint64_t> PrototypeStore::encode_queries(
    const tensor::Tensor& embeddings) const {
  const std::size_t batch = embeddings.size(0);
  std::vector<std::uint64_t> words(batch * words_per_row_);
  for (std::size_t b = 0; b < batch; ++b) {
    const hdc::BinaryHV q = encode_query(embeddings.data() + b * dim_);
    std::copy(q.words().begin(), q.words().end(), words.begin() + b * words_per_row_);
  }
  return words;
}

tensor::Tensor PrototypeStore::score_binary(const tensor::Tensor& embeddings,
                                            const SeenPenalty* penalty) const {
  detail::check_embeddings(embeddings, dim_, "PrototypeStore::score_binary");
  const std::size_t batch = embeddings.size(0);
  tensor::Tensor logits({batch, n_classes_});
  const std::vector<std::uint64_t> queries = encode_queries(embeddings);
  float* L = logits.data();
  std::vector<std::uint32_t> h(n_classes_);
  // The score rule every top-k path uses (topk_select.hpp): an
  // integer-exact handicap scores seen rows as if their Hamming distance
  // were h + Δ, any other handicap is subtracted from the logit.
  const detail::BinaryScoreRule rule(scale_, code_bits_, penalty);
  for (std::size_t b = 0; b < batch; ++b) {
    hdc::hamming_many_packed(queries.data() + b * words_per_row_, packed_data(), n_classes_,
                             words_per_row_, h.data());
    if (rule.row_offset)
      for (std::size_t c = 0; c < n_classes_; ++c) h[c] += rule.row_offset[c];
    float* out = L + b * n_classes_;
    for (std::size_t c = 0; c < n_classes_; ++c) out[c] = rule.score(h[c], c);
  }
  return logits;
}

hdc::BinaryHV PrototypeStore::binary_prototype(std::size_t i) const {
  if (i >= n_classes_)
    throw std::out_of_range("PrototypeStore::binary_prototype: index out of range");
  hdc::BinaryHV b(code_bits_);
  const std::uint64_t* row = packed_data() + i * words_per_row_;
  for (std::size_t j = 0; j < code_bits_; ++j)
    if ((row[j / 64] >> (j % 64)) & 1) b.set(j, true);
  return b;
}

}  // namespace hdczsc::serve
