#include "serve/sharded_store.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "serve/topk_select.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace hdczsc::serve {

namespace {

// Selection primitives shared with the approximate tier (topk_select.hpp):
// same (score desc, label asc) order, same block-skip thresholds, same
// integer-key Hamming domain — the basis of the exact/approximate
// bit-identity properties in tests/test_ann_retrieval.cpp.
using detail::kSelectBlock;
using BoundedTopK = detail::BoundedTopK<TopK>;
using detail::BoundedTopKHamming;
inline bool better(const TopK& a, const TopK& b) { return detail::better(a, b); }

/// Process-wide scan telemetry in obs::default_registry(): per-shard scan
/// wall time (profiling-gated, see obs::ScopedTimer) and swept/pruned row
/// totals across every sharded store in the process. Magic statics so the
/// hot loops pay one pointer load, no registry lookups.
obs::Histogram* shard_scan_hist() {
  static const std::shared_ptr<obs::Histogram> h = obs::default_registry().histogram(
      "serve_shard_scan_ms", {}, "wall time of one (shard, batch) scatter scan");
  return h.get();
}
obs::Counter& rows_swept_total() {
  static const std::shared_ptr<obs::Counter> c = obs::default_registry().counter(
      "serve_shard_rows_swept_total", {}, "prototype rows swept by sharded scatter scans");
  return *c;
}
obs::Counter& rows_pruned_total() {
  static const std::shared_ptr<obs::Counter> c = obs::default_registry().counter(
      "serve_shard_rows_pruned_total", {},
      "rows skipped wholesale by the heap-cutoff block-skip prefilter");
  return *c;
}

void check_embeddings(const tensor::Tensor& embeddings, std::size_t dim, const char* what) {
  if (embeddings.dim() != 2 || embeddings.size(1) != dim)
    throw std::invalid_argument(std::string("ShardedPrototypeStore::") + what + ": need [B, " +
                                std::to_string(dim) + "] embeddings, got " +
                                tensor::shape_str(embeddings.shape()));
}

}  // namespace

ShardedPrototypeStore::ShardedPrototypeStore(const PrototypeStore& base, std::size_t n_shards)
    : base_(&base) {
  const std::size_t c = base.n_classes();
  const std::size_t s = std::clamp<std::size_t>(n_shards, 1, c);
  shards_.reserve(s);
  const std::size_t rows = c / s, extra = c % s;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t end = begin + rows + (i < extra ? 1 : 0);
    shards_.push_back({begin, end});
    begin = end;
  }
  counters_ = std::make_unique<Counters[]>(s);
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::gather(
    std::size_t batch, std::size_t k, const std::vector<TopK>& cand,
    const std::vector<std::uint32_t>& cand_n) const {
  const std::size_t n_sh = shards_.size();
  std::vector<std::vector<TopK>> out(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<TopK>& merged = out[b];
    merged.reserve(std::min(k, base_->n_classes()));
    for (std::size_t s = 0; s < n_sh; ++s) {
      const TopK* slot = cand.data() + (s * batch + b) * k;
      merged.insert(merged.end(), slot, slot + cand_n[s * batch + b]);
    }
    std::sort(merged.begin(), merged.end(), better);
    if (merged.size() > k) merged.resize(k);
  }
  return out;
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::topk_float(
    const tensor::Tensor& embeddings, std::size_t k, const SeenPenalty* penalty) const {
  check_embeddings(embeddings, base_->dim(), "topk_float");
  const std::size_t batch = embeddings.size(0);
  if (k == 0) return std::vector<std::vector<TopK>>(batch);

  const std::size_t d = base_->dim();
  const float scale = base_->scale();
  const tensor::Tensor e_hat = tensor::l2_normalize_rows(embeddings);
  const float* E = e_hat.data();
  const float* P = base_->float_rows();
  const bool penalized = penalty && penalty->active();

  // Scatter: one GEMM per shard over its row range of the normalized
  // prototype matrix (the rows are contiguous, so the shard is a pointer
  // offset, not a copy), then k-bounded selection per query straight into
  // this (shard, query)'s candidate slot. Shards fan out across the
  // worker pool; each works in its own shard-local score buffer and
  // writes only its own candidate slots.
  const std::size_t n_sh = shards_.size();
  std::vector<TopK> cand(n_sh * batch * k);
  std::vector<std::uint32_t> cand_n(n_sh * batch, 0);
  util::parallel_for(
      0, n_sh,
      [&](std::size_t s) {
        const obs::ScopedTimer scan_timer(shard_scan_hist());
        const Shard sh = shards_[s];
        const std::size_t rows = sh.end - sh.begin;
        std::uint64_t pruned = 0;
        // Shard-local scores, O(B·C/S) — the full [B, C] logit matrix is
        // never materialized. Zeroed: gemm accumulates.
        std::vector<float> cos(batch * rows, 0.0f);
        tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, batch, rows, d, E, d,
                                P + sh.begin * d, d, cos.data(), rows);
        // Finalize the buffer to logits in place — fl(s·cos), then the
        // calibrated-stacking handicap on seen rows — so the selection
        // loop compares exactly the values the flat penalized
        // score_float path materializes.
        for (std::size_t b = 0; b < batch; ++b) {
          float* row = cos.data() + b * rows;
          for (std::size_t i = 0; i < rows; ++i) row[i] = scale * row[i];
          if (penalized) {
            const float* adj = penalty->row_penalty.data() + sh.begin;
            for (std::size_t i = 0; i < rows; ++i) row[i] -= adj[i];
          }
        }
        for (std::size_t b = 0; b < batch; ++b) {
          const float* row = cos.data() + b * rows;
          BoundedTopK local(cand.data() + (s * batch + b) * k, k);
          std::size_t i = 0;
          for (; i + kSelectBlock <= rows; i += kSelectBlock) {
            const float cut = local.cutoff_score();
            std::uint32_t any = 0;
            for (std::size_t j = 0; j < kSelectBlock; ++j)
              any |= row[i + j] >= cut ? 1u : 0u;
            if (!any) {
              pruned += kSelectBlock;
              continue;
            }
            for (std::size_t j = 0; j < kSelectBlock; ++j)
              local.offer(TopK{sh.begin + i + j, row[i + j]});
          }
          for (; i < rows; ++i) local.offer(TopK{sh.begin + i, row[i]});
          cand_n[s * batch + b] = static_cast<std::uint32_t>(local.size());
        }
        counters_[s].scans.fetch_add(batch, std::memory_order_relaxed);
        counters_[s].rows_swept.fetch_add(batch * rows, std::memory_order_relaxed);
        counters_[s].rows_pruned.fetch_add(pruned, std::memory_order_relaxed);
        rows_swept_total().add(batch * rows);
        rows_pruned_total().add(pruned);
      },
      /*grain=*/1);

  return gather(batch, k, cand, cand_n);
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::topk_binary(
    const tensor::Tensor& embeddings, std::size_t k, const SeenPenalty* penalty) const {
  check_embeddings(embeddings, base_->dim(), "topk_binary");
  const std::size_t batch = embeddings.size(0);
  if (k == 0) return std::vector<std::vector<TopK>>(batch);
  const bool penalized = penalty && penalty->active();

  // Encode every query once, up front, into one contiguous packed buffer
  // (the query-blocked kernel reads them side by side).
  const std::size_t wpr = base_->words_per_row();
  const std::vector<std::uint64_t> qwords = base_->encode_queries(embeddings);

  const std::uint64_t* packed = base_->packed_data();
  const float scale = base_->scale();
  const float inv_d = 1.0f / static_cast<float>(base_->code_bits());

  // Scatter: each shard sweeps its (cache-resident) word range once for
  // the whole query batch — hamming_many_packed_multi loads every
  // prototype row once per 4-query block — then folds the shard's distance
  // buffer into per-query candidate slots. Selection compares in the same
  // scale·(1 − 2h/D) float domain score_binary materializes, so gathered
  // scores are bit-identical to the flat path.
  const std::size_t n_sh = shards_.size();
  std::vector<TopK> cand(n_sh * batch * k);
  std::vector<std::uint32_t> cand_n(n_sh * batch, 0);
  // Integer-domain selection is order-identical to the float logits while
  // distinct Hamming counts cannot round to the same score (see
  // BoundedTopKHamming); pathological widths take the float-domain loop.
  // A calibrated-stacking penalty joins the integer domain only when it is
  // an exact Hamming offset (SeenPenalty::integer_exact, which also
  // guarantees h + Δ stays inside the < 2²⁴ float-exact range); any other
  // handicap forces the float-domain loop with subtract-form scores.
  const bool integer_select = scale > 0.0f && base_->code_bits() < (std::size_t{1} << 24) &&
                              (!penalized || penalty->integer_exact);
  std::vector<std::uint64_t> keys(integer_select ? n_sh * batch * k : 0);
  // Cross-shard cutoff hints, one per query: the first shard to fill its
  // heap publishes its k-th best key, and every shard scanning that query
  // afterwards starts with that bound already in place (sequential shards
  // on one worker get a near-global cutoff for free; concurrent shards
  // just see a laggier hint — the bound is conservative either way).
  std::unique_ptr<std::atomic<std::uint64_t>[]> hints;
  if (integer_select) {
    hints = std::make_unique<std::atomic<std::uint64_t>[]>(batch);
    for (std::size_t b = 0; b < batch; ++b)
      hints[b].store(~std::uint64_t{0}, std::memory_order_relaxed);
  }
  util::parallel_for(
      0, n_sh,
      [&](std::size_t s) {
        const obs::ScopedTimer scan_timer(shard_scan_hist());
        const Shard sh = shards_[s];
        const std::size_t rows = sh.end - sh.begin;
        std::uint64_t pruned = 0;
        // Shard-local distance buffer, O(B·C/S) and for-overwrite (the
        // kernel fills every slot read back) — the full [B, C] matrix is
        // never materialized.
        auto h = std::make_unique_for_overwrite<std::uint32_t[]>(batch * rows);
        hdc::hamming_many_packed_multi(qwords.data(), batch, packed + sh.begin * wpr, rows,
                                       wpr, h.get());
        if (penalized && integer_select) {
          // Fold the handicap into the Hamming counts up front: seen rows
          // carry h + Δ from here on, so the key selection, the cross-shard
          // hints and the final score conversion all see one consistent
          // integer domain (and the conversion below stays the exact
          // expression the flat penalized score_binary materializes).
          const std::uint32_t* off = penalty->row_offset.data() + sh.begin;
          for (std::size_t b = 0; b < batch; ++b) {
            std::uint32_t* hb = h.get() + b * rows;
            for (std::size_t i = 0; i < rows; ++i) hb[i] += off[i];
          }
        }
        const float* adj =
            penalized && !integer_select ? penalty->row_penalty.data() + sh.begin : nullptr;
        for (std::size_t b = 0; b < batch; ++b) {
          const std::uint32_t* hb = h.get() + b * rows;
          TopK* slot = cand.data() + (s * batch + b) * k;
          if (integer_select) {
            BoundedTopKHamming local(keys.data() + (s * batch + b) * k, k,
                                     hints[b].load(std::memory_order_relaxed));
            std::size_t i = 0;
            for (; i + kSelectBlock <= rows; i += kSelectBlock) {
              const std::uint32_t t = local.threshold();
              std::uint32_t any = 0;
              for (std::size_t j = 0; j < kSelectBlock; ++j)
                any |= hb[i + j] <= t ? 1u : 0u;
              if (!any) {
                pruned += kSelectBlock;
                continue;
              }
              for (std::size_t j = 0; j < kSelectBlock; ++j)
                local.offer(hb[i + j], sh.begin + i + j);
            }
            for (; i < rows; ++i) local.offer(hb[i], sh.begin + i);
            // Publish this shard's cutoff if it tightens the hint.
            std::uint64_t cut = local.cutoff();
            std::uint64_t seen = hints[b].load(std::memory_order_relaxed);
            while (cut < seen &&
                   !hints[b].compare_exchange_weak(seen, cut, std::memory_order_relaxed)) {
            }
            const std::uint64_t* kept = keys.data() + (s * batch + b) * k;
            for (std::size_t i = 0; i < local.size(); ++i) {
              const auto hv = static_cast<float>(kept[i] >> 32);
              slot[i] = TopK{static_cast<std::size_t>(kept[i] & 0xffffffffu),
                             scale * (1.0f - 2.0f * hv * inv_d)};
            }
            cand_n[s * batch + b] = static_cast<std::uint32_t>(local.size());
          } else {
            BoundedTopK local(slot, k);
            if (adj) {
              for (std::size_t i = 0; i < rows; ++i)
                local.offer(
                    TopK{sh.begin + i,
                         scale * (1.0f - 2.0f * static_cast<float>(hb[i]) * inv_d) - adj[i]});
            } else {
              for (std::size_t i = 0; i < rows; ++i)
                local.offer(TopK{sh.begin + i,
                                 scale * (1.0f - 2.0f * static_cast<float>(hb[i]) * inv_d)});
            }
            cand_n[s * batch + b] = static_cast<std::uint32_t>(local.size());
          }
        }
        counters_[s].scans.fetch_add(batch, std::memory_order_relaxed);
        counters_[s].rows_swept.fetch_add(batch * rows, std::memory_order_relaxed);
        counters_[s].rows_pruned.fetch_add(pruned, std::memory_order_relaxed);
        rows_swept_total().add(batch * rows);
        rows_pruned_total().add(pruned);
      },
      /*grain=*/1);

  return gather(batch, k, cand, cand_n);
}

std::vector<ShardedPrototypeStore::ShardInfo> ShardedPrototypeStore::shard_stats() const {
  std::vector<ShardInfo> out(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out[s].begin = shards_[s].begin;
    out[s].rows = shards_[s].end - shards_[s].begin;
    out[s].scans = counters_[s].scans.load(std::memory_order_relaxed);
    out[s].rows_swept = counters_[s].rows_swept.load(std::memory_order_relaxed);
    out[s].rows_pruned = counters_[s].rows_pruned.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace hdczsc::serve
