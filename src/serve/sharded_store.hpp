// Sharded prototype retrieval: scatter/gather top-k over row-range shards.
//
// A PrototypeStore keeps the whole label space in one flat packed matrix;
// scoring it returns full [B, C] logits and retrieval argsorts C scores per
// query. That is the right shape for CUB-scale label spaces, but it stops
// scaling long before the "very large label space" serving regime: the
// logits materialization alone is O(B·C) writes, and the argsort touches
// every class again through an index indirection.
//
// ShardedPrototypeStore partitions the store's rows into S contiguous
// row-range shards (balanced: C/S rows each, the first C%S shards one row
// longer) and retrieves top-k by scatter/gather:
//
//   scatter  each shard scans only its own rows — the packed-binary path
//            sweeps the shard's word range once for the whole query batch
//            (hdc::hamming_topk_packed: every prototype row is loaded once
//            per 4-query block, and its counts are tested against each
//            query's heap while still in registers), the float path runs
//            one cache-blocked GEMM per shard — and folds the scores into a
//            k-bounded candidate heap as they are produced. No full-width
//            logits row is ever materialized.
//   gather   the S candidate heaps (≤ S·k entries) are merged and the
//            global top-k is cut, ordered by (score desc, label asc).
//
// Both scoring paths run through one scatter/gather and differ only in the
// per-shard scan. Selection runs in one of two domains:
//   integer  the binary path, wherever BinaryScoreRule::integer_keys holds
//            (topk_select.hpp): packed (h << 32) | label keys, a GZSL
//            handicap folded into h when it is an exact Hamming offset,
//            and cross-shard cutoff hints; the fused kernel selects, under
//            the same 16-row block rule as the float loop;
//   float    the float path, and the binary path when a subtract-form
//            handicap breaks the integer order — a calibrated GZSL penalty
//            lands just off the Hamming grid, so every edge-hd request
//            takes this branch — or for non-positive scales and ≥ 2²⁴-bit
//            codes: the counts go to a shard-local buffer
//            (hdc::hamming_many_packed_multi) and both paths share the one
//            block-skip loop here.
//
// Shards fan out across util::parallel_for workers, so on multi-core
// serving hosts the scan parallelizes across shards; on one core the win
// is still large and architectural — the shard is the cache tile (its
// packed words stay L1/L2-resident across the query block) and the query
// block is the register tile (independent popcount chains instead of one
// latency-bound chain), plus k-bounded selection in place of a C-wide
// argsort over a materialized [B, C] tensor. Results are exact, not
// approximate: the gathered top-k equals the flat store's full argsort
// under the same (score desc, label asc) order — asserted for both scoring
// paths in tests/test_sharded_store.cpp.
//
// The shards are row *ranges* over the existing store, not copies: shard s
// scores class rows [begin(s), end(s)) of the same packed words and the
// same normalized float rows the flat store scans, so S is a pure serving
// knob — any S yields the same ranking, and an S=1 store behaves exactly
// like the flat path. Per-shard scan counters (scans, rows swept, rows
// pruned by the heap-cutoff block-skip) are kept for telemetry and
// surfaced through ServerRuntime/ModelRegistry; scan wall time feeds the
// profiling-gated serve_shard_scan_ms histogram (obs/metrics.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/prototype_store.hpp"
#include "tensor/tensor.hpp"

namespace hdczsc::serve {

/// One retrieval hit: a prototype-store row and its logit under the
/// requested scoring path (same value the flat score_* path produces).
struct TopK {
  std::size_t label = 0;
  float score = 0.0f;
};

class ShardedPrototypeStore {
 public:
  /// Shard `base` into `n_shards` balanced row ranges. `n_shards` is
  /// clamped to [1, C] — more shards than classes degenerates to one row
  /// per shard. `base` must outlive this view (ModelSnapshot owns it for
  /// the serving stack).
  ShardedPrototypeStore(const PrototypeStore& base, std::size_t n_shards);

  std::size_t n_shards() const { return shards_.size(); }
  std::size_t n_classes() const { return base_->n_classes(); }
  const PrototypeStore& base() const { return *base_; }

  /// Row range [begin, end) of shard `s`.
  std::size_t shard_begin(std::size_t s) const { return shards_[s].begin; }
  std::size_t shard_end(std::size_t s) const { return shards_[s].end; }

  /// Scatter/gather top-k on the float-cosine path from embeddings [B, d]:
  /// per shard one GEMM over its row range, k-bounded local selection,
  /// global merge. result[b] holds min(k, C) entries ordered by
  /// (score desc, label asc). k == 0 yields empty results. A resolved
  /// `penalty` (GZSL calibrated stacking, see SeenPenalty) handicaps the
  /// seen rows inside the selection loop — the ranking and scores equal
  /// the flat score_float(emb, penalty) full argsort.
  std::vector<std::vector<TopK>> topk_float(const tensor::Tensor& embeddings, std::size_t k,
                                            const SeenPenalty* penalty = nullptr) const;

  /// Scatter/gather top-k on the binary-Hamming path: per shard one fused
  /// scan-and-select (hdc::hamming_topk_packed) over its word range for
  /// the whole batch, selection directly in the integer Hamming domain,
  /// scores converted only for the ≤ S·k gathered candidates. Same
  /// ordering contract as topk_float. With a `penalty` whose handicap is
  /// integer_exact, seen rows select on h + offset — still pure u64-key
  /// compares, still exact vs. the flat score_binary(emb, penalty)
  /// argsort; any other handicap (a calibrated penalty off the Hamming
  /// grid) selects in the float domain, through topk_float's block-skip
  /// loop, with the same subtract-form scores.
  std::vector<std::vector<TopK>> topk_binary(const tensor::Tensor& embeddings, std::size_t k,
                                             const SeenPenalty* penalty = nullptr) const;

  /// Per-shard telemetry snapshot.
  struct ShardInfo {
    std::size_t begin = 0;          ///< first prototype row of the shard
    std::size_t rows = 0;           ///< shard height
    std::uint64_t scans = 0;        ///< (query, shard) scatter scans executed
    std::uint64_t rows_swept = 0;   ///< prototype rows swept in those scans
    /// Rows skipped wholesale by the block-skip cutoff (a subset of
    /// swept; the prune rate is rows_pruned / rows_swept): full 16-row
    /// blocks, counted from the shard's first row, none of whose scores
    /// could enter the heap at the threshold sampled at the block's start.
    /// On the binary integer-key scan this count depends on thread timing:
    /// each shard starts from whatever cross-shard hint earlier shards have
    /// published, so with shards scanning concurrently it varies run to
    /// run (results do not). With one worker it is deterministic.
    std::uint64_t rows_pruned = 0;
  };
  std::vector<ShardInfo> shard_stats() const;

 private:
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// The scatter/gather both scans share: runs
  /// `scan_shard(s, begin, rows, slots, counts)` for every shard across the
  /// worker pool — it fills query b's ≤ k candidates into slots[b·k, ...)
  /// and their number into counts[b], and returns the rows its block skip
  /// pruned — keeps the shard's telemetry, then merges the candidates into
  /// per-query globally ordered top-k lists.
  template <typename ScanShard>
  std::vector<std::vector<TopK>> scatter_gather(std::size_t batch, std::size_t k,
                                                ScanShard&& scan_shard) const;
  /// Telemetry (mutable: scoring is logically const). A few relaxed
  /// fetch_adds per (batch, shard) scatter scan.
  struct Counters {
    std::atomic<std::uint64_t> scans{0};
    std::atomic<std::uint64_t> rows_swept{0};
    std::atomic<std::uint64_t> rows_pruned{0};
  };

  const PrototypeStore* base_;
  std::vector<Shard> shards_;
  mutable std::unique_ptr<Counters[]> counters_;
};

}  // namespace hdczsc::serve
