#include "serve/ann_store.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "hdc/hypervector.hpp"
#include "obs/metrics.hpp"
#include "serve/topk_select.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdczsc::serve {

namespace {

using detail::BinaryScoreRule;
using BoundedTopKFloat = detail::BoundedTopK<TopK>;

/// Rows per k-means assignment chunk: bounds the gathered-row and dot
/// scratch to a few MB regardless of store size, and gives the worker pool
/// enough chunks to balance.
constexpr std::size_t kAssignChunk = 1024;

/// Candidate rows per float re-score GEMM: bounds the gathered rows to
/// kRescoreChunk·d floats however many rows a probe covers.
constexpr std::size_t kRescoreChunk = 512;

/// One query's fused scan over the probed lists in the integer key domain,
/// shared by the IVF binary path and the cascade prefilter: one
/// hdc::hamming_topk_packed call per list over its slice of the
/// list-ordered code plane, labels and GZSL offsets looked up through the
/// list's row ids. The kernel's block rule is the sharded scan's, so
/// `pruned` counts what serve_shard_rows_pruned_total counts.
void scan_probed_lists(const std::uint64_t* qw, const std::vector<std::uint32_t>& probes,
                       const std::vector<std::size_t>& list_offsets,
                       const std::vector<std::uint32_t>& list_rows,
                       const std::vector<std::uint64_t>& codes, std::size_t words,
                       const std::uint32_t* row_offset, hdc::HammingTopK& heap,
                       std::uint64_t& swept, std::uint64_t& pruned) {
  for (std::uint32_t c : probes) {
    const std::size_t off = list_offsets[c];
    const std::size_t len = list_offsets[c + 1] - off;
    if (len == 0) continue;
    swept += len;
    pruned += hdc::hamming_topk_packed(qw, 1, codes.data() + off * words, len, words,
                                       {list_rows.data() + off, 0, row_offset}, &heap);
  }
}

/// Full-count variant for the float-domain fallbacks: no admissible bound
/// exists there, so every row's count is needed. Calls `emit(global_row,
/// h)` per row in list order.
template <typename Emit>
void scan_probed_lists_full(const std::uint64_t* qw, const std::vector<std::uint32_t>& probes,
                            const std::vector<std::size_t>& list_offsets,
                            const std::vector<std::uint32_t>& list_rows,
                            const std::vector<std::uint64_t>& codes, std::size_t words,
                            std::uint64_t& swept, Emit&& emit) {
  std::vector<std::uint32_t> h;
  for (std::uint32_t c : probes) {
    const std::size_t off = list_offsets[c];
    const std::size_t len = list_offsets[c + 1] - off;
    if (len == 0) continue;
    swept += len;
    h.resize(std::max(h.size(), len));
    hdc::hamming_many_packed(qw, codes.data() + off * words, len, words, h.data());
    for (std::size_t i = 0; i < len; ++i) emit(list_rows[off + i], h[i]);
  }
}

/// Process-wide probe/prune telemetry in obs::default_registry(), the
/// approximate-tier mirror of the serve_shard_* counters. Magic statics so
/// the hot loops pay one pointer load, no registry lookups.
obs::Counter& ivf_centroids_probed_total() {
  static const std::shared_ptr<obs::Counter> c = obs::default_registry().counter(
      "serve_ivf_centroids_probed_total", {}, "inverted lists opened by IVF probes");
  return *c;
}
obs::Counter& ivf_rows_swept_total() {
  static const std::shared_ptr<obs::Counter> c = obs::default_registry().counter(
      "serve_ivf_rows_swept_total", {}, "prototype rows scored by IVF list scans");
  return *c;
}
obs::Counter& ivf_rows_pruned_total() {
  static const std::shared_ptr<obs::Counter> c = obs::default_registry().counter(
      "serve_ivf_rows_pruned_total", {},
      "rows skipped wholesale by the heap-cutoff block test of IVF list scans");
  return *c;
}
obs::Counter& ivf_rows_reranked_total() {
  static const std::shared_ptr<obs::Counter> c = obs::default_registry().counter(
      "serve_ivf_rows_reranked_total", {}, "binary candidates re-scored in float by the cascade");
  return *c;
}

}  // namespace

std::string retrieval_mode_name(RetrievalMode mode) {
  switch (mode) {
    case RetrievalMode::kIvf:
      return "ivf";
    case RetrievalMode::kCascade:
      return "cascade";
    case RetrievalMode::kExact:
      break;
  }
  return "exact";
}

RetrievalMode retrieval_mode_from_name(const std::string& name) {
  if (name == "exact") return RetrievalMode::kExact;
  if (name == "ivf") return RetrievalMode::kIvf;
  if (name == "cascade") return RetrievalMode::kCascade;
  throw std::invalid_argument("unknown retrieval mode '" + name +
                              "' (expected exact, ivf or cascade)");
}

void assign_nearest_centroids(const tensor::Tensor& centroids, const float* rows,
                              const std::size_t* ids, std::size_t n, std::uint32_t* out) {
  const std::size_t cc = centroids.size(0), d = centroids.size(1);
  const std::size_t n_chunks = (n + kAssignChunk - 1) / kAssignChunk;
  util::parallel_for(
      0, n_chunks,
      [&](std::size_t ch) {
        const std::size_t lo = ch * kAssignChunk;
        const std::size_t cn = std::min(n, lo + kAssignChunk) - lo;
        std::vector<float> gathered;
        const float* src = rows + lo * d;
        if (ids) {
          gathered.resize(cn * d);
          for (std::size_t r = 0; r < cn; ++r)
            std::copy(rows + ids[lo + r] * d, rows + (ids[lo + r] + 1) * d,
                      gathered.data() + r * d);
          src = gathered.data();
        }
        std::vector<float> dots(cn * cc, 0.0f);
        tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, cn, cc, d, src, d,
                                centroids.data(), d, dots.data(), cc);
        for (std::size_t r = 0; r < cn; ++r) {
          const float* row = dots.data() + r * cc;
          std::size_t best = 0;
          for (std::size_t c = 1; c < cc; ++c)
            if (row[c] > row[best]) best = c;
          out[lo + r] = static_cast<std::uint32_t>(best);
        }
      },
      /*grain=*/1);
}

IvfIndex::IvfIndex(const PrototypeStore& base, std::size_t n_centroids, std::size_t iters,
                   std::uint64_t seed)
    : base_(&base) {
  const std::size_t rows = base.n_classes();
  const std::size_t d = base.dim();
  std::size_t cc =
      n_centroids == 0
          ? static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(rows))))
          : n_centroids;
  cc = std::clamp<std::size_t>(cc, 1, rows);

  const float* P = base.float_rows();
  util::Rng rng(seed);
  const std::vector<std::size_t> perm = rng.permutation(rows);

  // Init: Cc distinct random rows (already unit-norm).
  centroids_ = tensor::Tensor({cc, d});
  float* Cm = centroids_.data();
  for (std::size_t c = 0; c < cc; ++c)
    std::copy(P + perm[c] * d, P + (perm[c] + 1) * d, Cm + c * d);

  // Spherical k-means on a bounded sample (kSamplePerCentroid rows per
  // centroid, FAISS-style): the coarse quantizer needs Voronoi structure,
  // not convergence, and the sample keeps build cost sublinear in C for
  // huge stores. Only the final assignment pass below touches every row.
  const std::size_t sample_n = std::min(rows, cc * kSamplePerCentroid);
  std::vector<std::uint32_t> sassign(sample_n);
  std::vector<double> sums(cc * d);
  std::vector<std::uint32_t> counts(cc);
  for (std::size_t it = 0; it < iters; ++it) {
    assign_nearest_centroids(centroids_, P, perm.data(), sample_n, sassign.data());
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t s = 0; s < sample_n; ++s) {
      const float* row = P + perm[s] * d;
      double* acc = sums.data() + sassign[s] * d;
      for (std::size_t j = 0; j < d; ++j) acc[j] += row[j];
      ++counts[sassign[s]];
    }
    for (std::size_t c = 0; c < cc; ++c) {
      float* dst = Cm + c * d;
      double norm2 = 0.0;
      const double* acc = sums.data() + c * d;
      for (std::size_t j = 0; j < d; ++j) norm2 += acc[j] * acc[j];
      if (counts[c] == 0 || norm2 < 1e-20) {
        // Empty (or degenerate) cluster: reseed to a random sample row so
        // every centroid keeps earning rows.
        const std::size_t r = perm[rng.next_below(sample_n)];
        std::copy(P + r * d, P + (r + 1) * d, dst);
        continue;
      }
      const double inv = 1.0 / std::sqrt(norm2);
      for (std::size_t j = 0; j < d; ++j) dst[j] = static_cast<float>(acc[j] * inv);
    }
  }

  assignments_.resize(rows);
  assign_nearest_centroids(centroids_, P, nullptr, rows, assignments_.data());
  build_lists();
}

IvfIndex IvfIndex::from_parts(const PrototypeStore& base, tensor::Tensor centroids,
                              std::vector<std::uint32_t> assignments) {
  if (centroids.dim() != 2 || centroids.size(0) == 0 || centroids.size(1) != base.dim())
    throw std::invalid_argument("IvfIndex::from_parts: centroids are " +
                                tensor::shape_str(centroids.shape()) + ", expected [Cc, " +
                                std::to_string(base.dim()) + "]");
  if (assignments.size() != base.n_classes())
    throw std::invalid_argument(
        "IvfIndex::from_parts: " + std::to_string(assignments.size()) + " assignments for " +
        std::to_string(base.n_classes()) + " prototype rows");
  const std::size_t cc = centroids.size(0);
  for (std::uint32_t a : assignments)
    if (a >= cc)
      throw std::invalid_argument("IvfIndex::from_parts: assignment " + std::to_string(a) +
                                  " out of range for " + std::to_string(cc) + " centroids");
  IvfIndex idx;
  idx.base_ = &base;
  idx.centroids_ = std::move(centroids);
  idx.assignments_ = std::move(assignments);
  idx.build_lists();
  return idx;
}

void IvfIndex::build_lists() {
  const std::size_t rows = base_->n_classes();
  const std::size_t cc = centroids_.size(0);

  // Packed centroid codes (the binary path's probe targets), encoded with
  // the store's own query encoder so expansion/LSH behave identically.
  centroid_codes_ = base_->encode_queries(centroids_);

  // Inverted lists: counting sort of row ids by centroid — rows stay
  // ascending within each list, so a full probe enumerates labels in the
  // same per-list order every time.
  std::vector<std::size_t> counts(cc, 0);
  for (std::uint32_t a : assignments_) ++counts[a];
  list_offsets_.assign(cc + 1, 0);
  for (std::size_t c = 0; c < cc; ++c) list_offsets_[c + 1] = list_offsets_[c] + counts[c];
  list_rows_.resize(rows);
  std::vector<std::size_t> cursor(list_offsets_.begin(), list_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows; ++r)
    list_rows_[cursor[assignments_[r]]++] = static_cast<std::uint32_t>(r);

  // The codes in list order: each list's rows are one contiguous slice.
  const std::size_t wpr = base_->words_per_row();
  const std::uint64_t* packed = base_->packed_data();
  codes_.resize(rows * wpr);
  for (std::size_t i = 0; i < rows; ++i)
    std::copy(packed + list_rows_[i] * wpr, packed + (list_rows_[i] + 1) * wpr,
              codes_.data() + i * wpr);
}

std::size_t IvfIndex::resolve_nprobe(std::size_t nprobe) const {
  if (nprobe == 0) nprobe = default_nprobe();
  return std::clamp<std::size_t>(nprobe, 1, n_centroids());
}

std::vector<std::uint32_t> IvfIndex::probe_float(const float* dots,
                                                 std::size_t nprobe) const {
  const std::size_t cc = n_centroids();
  std::vector<std::uint32_t> ids(cc);
  std::iota(ids.begin(), ids.end(), 0u);
  std::partial_sort(ids.begin(), ids.begin() + nprobe, ids.end(),
                    [dots](std::uint32_t a, std::uint32_t b) {
                      if (dots[a] != dots[b]) return dots[a] > dots[b];
                      return a < b;
                    });
  ids.resize(nprobe);
  return ids;
}

std::vector<std::uint32_t> IvfIndex::probe_binary(const std::uint64_t* qwords,
                                                  std::size_t nprobe) const {
  const std::size_t cc = n_centroids();
  const std::size_t wpr = base_->words_per_row();
  std::vector<std::uint32_t> h(cc);
  hdc::hamming_many_packed(qwords, centroid_codes_.data(), cc, wpr, h.data());
  std::vector<std::uint32_t> ids(cc);
  std::iota(ids.begin(), ids.end(), 0u);
  std::partial_sort(ids.begin(), ids.begin() + nprobe, ids.end(),
                    [&h](std::uint32_t a, std::uint32_t b) {
                      if (h[a] != h[b]) return h[a] < h[b];
                      return a < b;
                    });
  ids.resize(nprobe);
  return ids;
}

IvfIndex::ProbeStats IvfIndex::probe_stats() const {
  ProbeStats s;
  s.queries = counters_->queries.load(std::memory_order_relaxed);
  s.centroids_probed = counters_->centroids_probed.load(std::memory_order_relaxed);
  s.rows_swept = counters_->rows_swept.load(std::memory_order_relaxed);
  s.rows_pruned = counters_->rows_pruned.load(std::memory_order_relaxed);
  s.rows_reranked = counters_->rows_reranked.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::vector<TopK>> IvfIndex::search(const tensor::Tensor& embeddings,
                                                std::size_t k, std::size_t nprobe, Plan plan,
                                                std::size_t rerank, const SeenPenalty* penalty,
                                                const char* who) const {
  detail::check_embeddings(embeddings, base_->dim(), who);
  const std::size_t batch = embeddings.size(0);
  std::vector<std::vector<TopK>> out(batch);
  if (k == 0 || batch == 0) return out;

  const std::size_t d = base_->dim();
  const std::size_t cc = n_centroids();
  const std::size_t np = resolve_nprobe(nprobe);
  const std::size_t wpr = base_->words_per_row();
  const float scale = base_->scale();
  const std::size_t kk = std::min(k, n_rows());
  // The float stage applies any handicap in subtract form. The binary scan
  // follows the score rule; the cascade's prefilter only folds a handicap
  // that is an exact Hamming offset and otherwise ranks raw Hamming.
  const float* adj = penalty && penalty->active() ? penalty->row_penalty.data() : nullptr;
  const BinaryScoreRule rule(scale, base_->code_bits(), penalty,
                             plan == Plan::kCascade ? BinaryScoreRule::Inexact::kIgnore
                                                    : BinaryScoreRule::Inexact::kSubtract);

  // Float probes and float scoring need the normalized queries and one
  // [B, Cc] dot block against the centroids; binary probes and binary
  // scans need the packed query codes (topk_float encodes none).
  tensor::Tensor e_hat;
  std::vector<float> cdots;
  if (plan != Plan::kBinary) {
    e_hat = tensor::l2_normalize_rows(embeddings);
    cdots.assign(batch * cc, 0.0f);
    tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, batch, cc, d, e_hat.data(), d,
                            centroids_.data(), d, cdots.data(), cc);
  }
  std::vector<std::uint64_t> qwords;
  if (plan != Plan::kFloat) qwords = base_->encode_queries(embeddings);
  const float* P = base_->float_rows();

  util::parallel_for(
      0, batch,
      [&](std::size_t b) {
        // 1. Probe: the nprobe nearest centroids.
        const std::uint64_t* qw = qwords.empty() ? nullptr : qwords.data() + b * wpr;
        const std::vector<std::uint32_t> probes = plan == Plan::kBinary
                                                      ? probe_binary(qw, np)
                                                      : probe_float(cdots.data() + b * cc, np);
        std::size_t total = 0;
        for (std::uint32_t c : probes) total += list_size(c);

        // 2. Candidates: the binary hits themselves (budget k), every
        // probed row (the float path), or the cascade's rerank·k. A
        // cascade budget covering every probed row (rerank == 0 is the
        // unbounded sentinel) skips the prefilter outright — with nprobe ==
        // Cc that is exactly the exact float top-k.
        std::size_t budget = total;
        if (plan == Plan::kBinary)
          budget = kk;
        else if (plan == Plan::kCascade && rerank != 0 && rerank < (total + kk - 1) / kk)
          budget = rerank * kk;
        const bool scan = plan == Plan::kBinary || budget < total;
        std::uint64_t swept = 0, pruned = 0;
        std::vector<TopK> hits;  // the scan's survivors, as binary hits
        if (scan) {
          if (rule.integer_keys) {
            // Fused scan on integer keys; ascending keys are the (score
            // desc, label asc) order under the score rule.
            std::vector<std::uint64_t> keys(budget);
            hdc::HammingTopK heap(keys.data(), budget);
            scan_probed_lists(qw, probes, list_offsets_, list_rows_, codes_, wpr, rule.row_offset,
                              heap, swept, pruned);
            keys.resize(heap.size());
            if (plan == Plan::kBinary) std::sort(keys.begin(), keys.end());
            hits.reserve(keys.size());
            for (std::uint64_t key : keys) hits.push_back(rule.hit(key));
          } else {
            // Float domain (see BinaryScoreRule): no admissible integer
            // bound to prune on, so every row's full count, then the same
            // subtract-form scores the exact path selects on.
            hits.resize(budget);
            BoundedTopKFloat heap(hits.data(), budget);
            scan_probed_lists_full(qw, probes, list_offsets_, list_rows_, codes_, wpr, swept,
                                   [&](std::uint32_t row, std::uint32_t h) {
                                     heap.offer(TopK{row, rule.score(h, row)});
                                   });
            hits.resize(heap.size());
            if (plan == Plan::kBinary) std::sort(hits.begin(), hits.end(), detail::better<TopK>);
          }
        }

        // 3. Score: binary hits are final; otherwise the candidate rows are
        // gathered into one reused buffer, kRescoreChunk at a time, and each
        // chunk is scored through the exact scans' GEMM and finished as they
        // finish a score — fl(s·cos), then the seen handicap — so a full
        // probe reproduces the exact path's scores bit for bit.
        std::uint64_t rescored = 0;
        if (plan == Plan::kBinary) {
          out[b] = std::move(hits);
        } else {
          std::vector<std::size_t> ids;
          if (scan) {
            for (const TopK& hit : hits) ids.push_back(hit.label);
          } else {
            for (std::uint32_t c : probes)
              ids.insert(ids.end(), list_rows_.begin() + list_offsets_[c],
                         list_rows_.begin() + list_offsets_[c + 1]);
          }
          rescored = ids.size();
          std::vector<TopK> slots(kk);
          BoundedTopKFloat heap(slots.data(), kk);
          const std::size_t chunk = std::min(ids.size(), kRescoreChunk);
          std::vector<float> rows(chunk * d), cos(chunk);
          for (std::size_t lo = 0; lo < ids.size(); lo += chunk) {
            const std::size_t n = std::min(chunk, ids.size() - lo);
            for (std::size_t i = 0; i < n; ++i)
              std::copy(P + ids[lo + i] * d, P + (ids[lo + i] + 1) * d, rows.data() + i * d);
            std::fill(cos.begin(), cos.end(), 0.0f);  // gemm accumulates
            tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, 1, n, d,
                                    e_hat.data() + b * d, d, rows.data(), d, cos.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
              float s = scale * cos[i];
              if (adj) s -= adj[ids[lo + i]];
              heap.offer(TopK{ids[lo + i], s});
            }
          }
          std::vector<TopK>& merged = out[b];
          merged.assign(slots.begin(), slots.begin() + heap.size());
          std::sort(merged.begin(), merged.end(), detail::better<TopK>);
        }

        // The float path's scoring is its sweep; the cascade's is a rerank.
        if (plan == Plan::kFloat) swept += rescored;
        const std::uint64_t reranked = plan == Plan::kCascade ? rescored : 0;
        counters_->queries.fetch_add(1, std::memory_order_relaxed);
        counters_->centroids_probed.fetch_add(probes.size(), std::memory_order_relaxed);
        counters_->rows_swept.fetch_add(swept, std::memory_order_relaxed);
        counters_->rows_pruned.fetch_add(pruned, std::memory_order_relaxed);
        counters_->rows_reranked.fetch_add(reranked, std::memory_order_relaxed);
        ivf_centroids_probed_total().add(probes.size());
        ivf_rows_swept_total().add(swept);
        ivf_rows_pruned_total().add(pruned);
        ivf_rows_reranked_total().add(reranked);
      },
      /*grain=*/1);
  return out;
}

std::vector<std::vector<TopK>> IvfIndex::topk_float(const tensor::Tensor& embeddings,
                                                    std::size_t k, std::size_t nprobe,
                                                    const SeenPenalty* penalty) const {
  return search(embeddings, k, nprobe, Plan::kFloat, 0, penalty, "IvfIndex::topk_float");
}

std::vector<std::vector<TopK>> IvfIndex::topk_binary(const tensor::Tensor& embeddings,
                                                     std::size_t k, std::size_t nprobe,
                                                     const SeenPenalty* penalty) const {
  return search(embeddings, k, nprobe, Plan::kBinary, 0, penalty, "IvfIndex::topk_binary");
}

std::vector<std::vector<TopK>> IvfIndex::topk_cascade(const tensor::Tensor& embeddings,
                                                      std::size_t k, std::size_t nprobe,
                                                      std::size_t rerank,
                                                      const SeenPenalty* penalty) const {
  return search(embeddings, k, nprobe, Plan::kCascade, rerank, penalty,
                "IvfIndex::topk_cascade");
}

}  // namespace hdczsc::serve
