#include "serve/sharded_store.hpp"

#include <algorithm>
#include <limits>

#include "hdc/hypervector.hpp"
#include "obs/metrics.hpp"
#include "serve/topk_select.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace hdczsc::serve {

namespace {

// Selection primitives and the binary score rule shared with the flat
// scans and the approximate tier (topk_select.hpp, and the fused Hamming
// kernel in hdc/): same (score desc, label asc) order, same block-skip
// thresholds, same integer-key Hamming domain — the basis of the
// exact/approximate bit-identity properties in tests/test_ann_retrieval.cpp.
using detail::kSelectBlock;
using BoundedTopK = detail::BoundedTopK<TopK>;
using detail::BinaryScoreRule;

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

/// The float-domain selection loop: one query's finished logits `row`
/// (labels first_label + i) into `heap`, a block of kSelectBlock rows at a
/// time. A block whose every score is strictly below the cutoff is skipped
/// with one compare-reduce (`>=` keeps equal scores, which may still enter
/// on the label tie-break). Returns the rows skipped; the count stays in a
/// local so the loop keeps it in a register.
std::uint64_t select_float(const float* row, std::size_t rows, std::size_t first_label,
                           BoundedTopK& heap) {
  std::uint64_t pruned = 0;
  std::size_t i = 0;
  for (; i + kSelectBlock <= rows; i += kSelectBlock) {
    const float cut = heap.cutoff_score();
    std::uint32_t any = 0;
    for (std::size_t j = 0; j < kSelectBlock; ++j) any |= row[i + j] >= cut ? 1u : 0u;
    if (!any) {
      pruned += kSelectBlock;
      continue;
    }
    for (std::size_t j = 0; j < kSelectBlock; ++j)
      heap.offer(TopK{first_label + i + j, row[i + j]});
  }
  for (; i < rows; ++i) heap.offer(TopK{first_label + i, row[i]});
  return pruned;
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

template <typename ScanShard>
std::vector<std::vector<TopK>> ShardedPrototypeStore::scatter_gather(
    std::size_t batch, std::size_t k, ScanShard&& scan_shard) const {
  // Scatter: shards fan out across the worker pool. Shard s fills its own
  // (query, k) candidate slots and counts — one flat slot per (shard,
  // query), so the scan allocates no per-query storage — and reports the
  // rows its block skip pruned.
  const std::size_t n_sh = shards_.size();
  std::vector<TopK> cand(n_sh * batch * k);
  std::vector<std::uint32_t> cand_n(n_sh * batch, 0);
  util::parallel_for(
      0, n_sh,
      [&](std::size_t s) {
        const obs::ScopedTimer scan_timer(shard_scan_hist());
        const Shard sh = shards_[s];
        const std::size_t rows = sh.end - sh.begin;
        const std::uint64_t pruned = scan_shard(s, sh.begin, rows, cand.data() + s * batch * k,
                                                cand_n.data() + s * batch);
        counters_[s].scans.fetch_add(batch, std::memory_order_relaxed);
        counters_[s].rows_swept.fetch_add(batch * rows, std::memory_order_relaxed);
        counters_[s].rows_pruned.fetch_add(pruned, std::memory_order_relaxed);
        rows_swept_total().add(batch * rows);
        rows_pruned_total().add(pruned);
      },
      /*grain=*/1);

  // Gather: merge the ≤ S·k candidates per query and cut the global top-k.
  std::vector<std::vector<TopK>> out(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<TopK>& merged = out[b];
    merged.reserve(std::min(k, base_->n_classes()));
    for (std::size_t s = 0; s < n_sh; ++s) {
      const TopK* slot = cand.data() + (s * batch + b) * k;
      merged.insert(merged.end(), slot, slot + cand_n[s * batch + b]);
    }
    std::sort(merged.begin(), merged.end(), detail::better<TopK>);
    if (merged.size() > k) merged.resize(k);
  }
  return out;
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::topk_float(
    const tensor::Tensor& embeddings, std::size_t k, const SeenPenalty* penalty) const {
  detail::check_embeddings(embeddings, base_->dim(), "ShardedPrototypeStore::topk_float");
  const std::size_t batch = embeddings.size(0);
  if (k == 0) return std::vector<std::vector<TopK>>(batch);

  const std::size_t d = base_->dim();
  const float scale = base_->scale();
  const tensor::Tensor e_hat = tensor::l2_normalize_rows(embeddings);
  const float* E = e_hat.data();
  const float* P = base_->float_rows();
  const float* adj = penalty && penalty->active() ? penalty->row_penalty.data() : nullptr;

  // Per shard: one GEMM over its row range of the normalized prototype
  // matrix (the rows are contiguous, so the shard is a pointer offset, not
  // a copy) into shard-local scores, O(B·C/S) — the full [B, C] logit
  // matrix is never materialized.
  const auto scan = [&](std::size_t, std::size_t begin, std::size_t rows, TopK* slots,
                        std::uint32_t* counts) {
    std::vector<float> cos(batch * rows, 0.0f);  // zeroed: gemm accumulates
    tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, batch, rows, d, E, d,
                            P + begin * d, d, cos.data(), rows);
    std::uint64_t pruned = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      // Finish the row to logits in place — fl(s·cos), then the
      // calibrated-stacking handicap on seen rows — so selection compares
      // exactly the values the flat penalized score_float materializes.
      float* row = cos.data() + b * rows;
      for (std::size_t i = 0; i < rows; ++i) row[i] = scale * row[i];
      if (adj)
        for (std::size_t i = 0; i < rows; ++i) row[i] -= adj[begin + i];
      BoundedTopK heap(slots + b * k, k);
      pruned += select_float(row, rows, begin, heap);
      counts[b] = static_cast<std::uint32_t>(heap.size());
    }
    return pruned;
  };
  return scatter_gather(batch, k, scan);
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::topk_binary(
    const tensor::Tensor& embeddings, std::size_t k, const SeenPenalty* penalty) const {
  detail::check_embeddings(embeddings, base_->dim(), "ShardedPrototypeStore::topk_binary");
  const std::size_t batch = embeddings.size(0);
  if (k == 0) return std::vector<std::vector<TopK>>(batch);

  // Encode every query once, up front, into one contiguous packed buffer
  // (the query-blocked kernels read them side by side).
  const std::size_t wpr = base_->words_per_row();
  const std::vector<std::uint64_t> qwords = base_->encode_queries(embeddings);
  const std::uint64_t* packed = base_->packed_data();
  const BinaryScoreRule rule(base_->scale(), base_->code_bits(), penalty);

  // Integer keys need one u64 slot per candidate next to its hit slot.
  // Cross-shard cutoff hints, one per query: the first shard to fill its
  // heap publishes its k-th best key, and every shard scanning that query
  // afterwards starts with that bound already in place (sequential shards
  // on one worker get a near-global cutoff for free; concurrent shards
  // just see a laggier hint — the bound is conservative either way).
  const std::size_t n_sh = shards_.size();
  std::vector<std::uint64_t> keys(rule.integer_keys ? n_sh * batch * k : 0);
  std::unique_ptr<std::atomic<std::uint64_t>[]> hints;
  if (rule.integer_keys) {
    hints = std::make_unique<std::atomic<std::uint64_t>[]>(batch);
    for (std::size_t b = 0; b < batch; ++b)
      hints[b].store(~std::uint64_t{0}, std::memory_order_relaxed);
  }

  const auto scan = [&](std::size_t s, std::size_t begin, std::size_t rows, TopK* slots,
                        std::uint32_t* counts) {
    const std::uint64_t* codes = packed + begin * wpr;
    if (rule.integer_keys) {
      // One fused sweep of the shard's (cache-resident) word range for the
      // whole batch: hamming_topk_packed loads every row once per 4-query
      // block, folds any integer handicap into its counts (seen rows
      // compete as h + Δ, so selection, hints and scores share one integer
      // domain) and offers each query's heap only the rows that can enter.
      std::vector<hdc::HammingTopK> heaps;
      heaps.reserve(batch);
      for (std::size_t b = 0; b < batch; ++b)
        heaps.emplace_back(keys.data() + (s * batch + b) * k, k,
                           hints[b].load(std::memory_order_relaxed));
      const std::uint64_t pruned = hdc::hamming_topk_packed(
          qwords.data(), batch, codes, rows, wpr, {nullptr, begin, rule.row_offset}, heaps.data());
      for (std::size_t b = 0; b < batch; ++b) {
        const hdc::HammingTopK& heap = heaps[b];
        // Publish this shard's cutoff if it tightens the hint.
        const std::uint64_t cut = heap.cutoff();
        std::uint64_t seen = hints[b].load(std::memory_order_relaxed);
        while (cut < seen &&
               !hints[b].compare_exchange_weak(seen, cut, std::memory_order_relaxed)) {
        }
        // Scores are converted only for the ≤ k kept candidates.
        const std::uint64_t* kept = keys.data() + (s * batch + b) * k;
        for (std::size_t i = 0; i < heap.size(); ++i) slots[b * k + i] = rule.hit(kept[i]);
        counts[b] = static_cast<std::uint32_t>(heap.size());
      }
      return pruned;
    }
    // Float domain — a subtract-form GZSL handicap (a calibrated penalty
    // off the Hamming grid, edge-hd's case), a non-positive scale or
    // ≥ 2²⁴-bit codes: one sweep of the shard for the whole batch into a
    // shard-local distance buffer (for-overwrite: the kernel fills every
    // slot read back), then each query's counts finished to scores and
    // selected through the float path's block-skip loop.
    auto h = std::make_unique_for_overwrite<std::uint32_t[]>(batch * rows);
    hdc::hamming_many_packed_multi(qwords.data(), batch, codes, rows, wpr, h.get());
    std::uint64_t pruned = 0;
    std::vector<float> logits(rows);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::uint32_t* hb = h.get() + b * rows;
      const std::uint32_t* off = rule.row_offset;
      for (std::size_t i = 0; i < rows; ++i)
        logits[i] = rule.score(off ? hb[i] + off[begin + i] : hb[i], begin + i);
      BoundedTopK heap(slots + b * k, k);
      pruned += select_float(logits.data(), rows, begin, heap);
      counts[b] = static_cast<std::uint32_t>(heap.size());
    }
    return pruned;
  };
  return scatter_gather(batch, k, scan);
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
