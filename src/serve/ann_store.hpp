// Approximate retrieval tier: IVF coarse probing + fused Hamming
// scan-and-select + binary→float rerank cascade over a frozen
// PrototypeStore.
//
// The exact sharded scatter/gather (sharded_store.hpp) sweeps every packed
// prototype row per query — cost linear in the label space C. At
// million-class scale that linear sweep is the bottleneck, so this tier
// trades a measured sliver of recall for sublinear scan cost, in three
// composable stages:
//
//  1. IVF coarse quantizer — spherical k-means clusters the store's
//     normalized prototype rows into Cc centroids (built once, persisted in
//     .hdcsnap v5, or rebuilt deterministically on load of older files).
//     Rows are regrouped into per-centroid inverted lists whose packed
//     binary codes are stored contiguously, FAISS-IVF style. A query probes
//     its `nprobe` nearest centroids (float dot for float/cascade queries,
//     Hamming over packed centroid codes for binary queries) and scans only
//     those lists: the swept fraction is ~nprobe/Cc.
//
//  2. Fused Hamming scan-and-select — each probed list is one contiguous
//     slice of a full-width, list-ordered code plane, scanned by the kernel
//     the exact sharded scan runs (hdc::hamming_topk_packed). It scores 16
//     rows at a time, folds in the rows' GZSL integer offsets (looked up
//     through the list's row ids), and tests the counts against the heap
//     threshold while they are in registers: a block none of whose rows
//     can enter is skipped, and only rows that can enter are offered. For
//     rows wider than 8 words the test runs on the first register before
//     the rest of the row is read (further words only add to a count). The
//     test is *admissible*: with nprobe == Cc the result is bit-identical
//     to the exact sharded top-k.
//
//  3. Binary-prefilter → float-rerank cascade — the top rerank·k binary
//     candidates from the probed lists are re-scored in float through the
//     GEMM the exact scans run (the same bits for the same query and row),
//     recovering float-quality ranking at binary-scan cost. rerank == 0
//     means unbounded: every probed row is reranked, so nprobe == Cc
//     degenerates to the exact float top-k.
//
// topk_float, topk_binary and topk_cascade are one pipeline (search):
// probe → candidates → score. They differ only in the probe domain (float
// dot or centroid-code Hamming), the candidate budget (every probed row, k,
// or rerank·k) and the finish (float re-score or the binary hits). All
// three keep the retrieval contract shared with the exact paths: results
// ordered by (score desc, label asc), binary scores from the one score rule
// (topk_select.hpp) score_binary and the sharded scan use, GZSL
// seen-penalties applied identically (integer Hamming offsets where exact,
// float subtract form otherwise). Thread-safe after construction
// (telemetry is atomic).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/prototype_store.hpp"
#include "serve/sharded_store.hpp"
#include "tensor/tensor.hpp"

namespace hdczsc::serve {

/// Retrieval tier selection, threaded from ServerConfig through
/// InferenceEngine: exact sharded scatter/gather, IVF-probed scan in the
/// engine's scoring mode, or the IVF + binary-prefilter + float-rerank
/// cascade.
enum class RetrievalMode : unsigned char { kExact = 0, kIvf = 1, kCascade = 2 };

std::string retrieval_mode_name(RetrievalMode mode);
/// Parse "exact" / "ivf" / "cascade" (the ServerConfig / CLI spellings);
/// throws std::invalid_argument on anything else.
RetrievalMode retrieval_mode_from_name(const std::string& name);

/// Nearest centroid of each of `n` rows: the max float dot against the unit
/// centroid rows [Cc, d] (the spherical k-means metric; ties → the lower
/// centroid), one [chunk, Cc] GEMM per chunk of rows, chunks spread over
/// the worker pool. Row r is rows[r·d, (r+1)·d), or with `ids` the
/// matrix's row ids[r]. IvfIndex's k-means passes and
/// extend_ivf_assignments both assign through this, so a row gets the
/// same centroid whichever of them assigns it.
void assign_nearest_centroids(const tensor::Tensor& centroids, const float* rows,
                              const std::size_t* ids, std::size_t n, std::uint32_t* out);

class IvfIndex {
 public:
  /// Default k-means rounds; the coarse quantizer needs rough Voronoi
  /// structure, not convergence.
  static constexpr std::size_t kBuildIters = 6;
  /// k-means trains on min(C, kSamplePerCentroid·Cc) sampled rows (the
  /// FAISS max_points_per_centroid pattern); only the final assignment
  /// pass touches every row.
  static constexpr std::size_t kSamplePerCentroid = 128;
  /// Deterministic build seed: the same store always clusters identically,
  /// so an index rebuilt on load of a pre-v5 snapshot matches the one a
  /// v5 writer would have persisted.
  static constexpr std::uint64_t kBuildSeed = 0x1BF5EEDULL;

  /// Build by spherical k-means over the store's normalized float rows.
  /// `n_centroids` == 0 picks ~√C (clamped to [1, C]). `base` must outlive
  /// this index (ModelSnapshot owns both for the serving stack).
  explicit IvfIndex(const PrototypeStore& base, std::size_t n_centroids = 0,
                    std::size_t iters = kBuildIters, std::uint64_t seed = kBuildSeed);

  /// Adopt persisted centroids + assignments (snapshot_io v5 load path):
  /// nothing is re-clustered, so a loaded index probes identically to the
  /// one that was saved. Packed centroid codes and the inverted-list
  /// layout are rebuilt deterministically from the parts. Throws
  /// std::invalid_argument when the parts disagree with the store
  /// geometry (centroid width, assignment count/range).
  static IvfIndex from_parts(const PrototypeStore& base, tensor::Tensor centroids,
                             std::vector<std::uint32_t> assignments);

  std::size_t n_centroids() const { return list_offsets_.size() - 1; }
  std::size_t n_rows() const { return base_->n_classes(); }
  const PrototypeStore& base() const { return *base_; }
  /// L2-normalized centroid rows [Cc, d] (the v5 persistence payload,
  /// together with assignments()).
  const tensor::Tensor& centroids() const { return centroids_; }
  /// Per-row centroid assignment [C], values in [0, Cc).
  const std::vector<std::uint32_t>& assignments() const { return assignments_; }
  std::size_t list_size(std::size_t c) const {
    return list_offsets_[c + 1] - list_offsets_[c];
  }

  /// The nprobe an `nprobe == 0` request resolves to: Cc/8, at least 1 —
  /// scan ~1/8 of the label space before the block test trims further.
  std::size_t default_nprobe() const { return std::max<std::size_t>(1, n_centroids() / 8); }
  /// Resolve a caller nprobe: 0 → default_nprobe(), clamped to [1, Cc].
  std::size_t resolve_nprobe(std::size_t nprobe) const;

  /// IVF top-k on the float-cosine path: probe `nprobe` centroids by float
  /// dot, score every row of the probed lists through the GEMM the exact
  /// scans run (gathered a bounded chunk at a time), select with the exact
  /// path's k-bounded heap. result[b] holds min(k, probed rows) entries
  /// ordered by (score desc, label asc). With nprobe == Cc the result is
  /// the exact float top-k, bit-identical to the sharded scan. `penalty` as
  /// in ShardedPrototypeStore::topk_float.
  std::vector<std::vector<TopK>> topk_float(const tensor::Tensor& embeddings, std::size_t k,
                                            std::size_t nprobe,
                                            const SeenPenalty* penalty = nullptr) const;

  /// IVF top-k on the binary-Hamming path: probe by centroid-code Hamming,
  /// then the fused scan-and-select over the probed lists' packed codes,
  /// selecting in the integer key domain with the exact sharded scan's
  /// kernel (same integer-exactness preconditions; pathological widths and
  /// non-integer GZSL handicaps take a full-count float-domain scan). With
  /// nprobe == Cc the result is bit-identical to
  /// ShardedPrototypeStore::topk_binary — the block test is admissible and
  /// never drops a true top-k row.
  std::vector<std::vector<TopK>> topk_binary(const tensor::Tensor& embeddings, std::size_t k,
                                             std::size_t nprobe,
                                             const SeenPenalty* penalty = nullptr) const;

  /// Cascade: binary-prefilter the probed lists down to rerank·k candidate
  /// rows (fused scan, integer keys), then re-score those candidates
  /// in float as topk_float scores rows and select the final k. rerank == 0
  /// means unbounded — every probed row is reranked — so nprobe == Cc +
  /// rerank == 0 degenerates to the exact float top-k. GZSL handicaps:
  /// the prefilter folds the integer offset where exact (otherwise it
  /// ranks unpenalized raw Hamming); the float rerank always applies the
  /// exact row_penalty subtraction.
  std::vector<std::vector<TopK>> topk_cascade(const tensor::Tensor& embeddings, std::size_t k,
                                              std::size_t nprobe, std::size_t rerank,
                                              const SeenPenalty* penalty = nullptr) const;

  /// Cumulative probe/prune telemetry (process-lifetime totals also feed
  /// the serve_ivf_* counters in obs::default_registry()).
  struct ProbeStats {
    std::uint64_t queries = 0;           ///< single-query probes served
    std::uint64_t centroids_probed = 0;  ///< inverted lists opened
    std::uint64_t rows_swept = 0;        ///< rows of the probed lists scanned
    /// Rows skipped wholesale by the fused scan's 16-row block test (a
    /// subset of swept; ShardedPrototypeStore::ShardInfo::rows_pruned's
    /// definition): full blocks of a list none of whose rows could enter
    /// the heap. A list's last len % 16 rows never count. Float-domain
    /// scans and the float plan prune nothing.
    std::uint64_t rows_pruned = 0;
    std::uint64_t rows_reranked = 0;     ///< cascade float re-scores
  };
  ProbeStats probe_stats() const;

 private:
  IvfIndex() = default;  // used by from_parts

  /// Derive list offsets/rows from assignments_ and lay the codes out in
  /// list order.
  void build_lists();
  /// Probed-centroid ids for one query, nearest first: float-dot order for
  /// the float/cascade paths, centroid-code Hamming order for binary.
  std::vector<std::uint32_t> probe_float(const float* dots, std::size_t nprobe) const;
  std::vector<std::uint32_t> probe_binary(const std::uint64_t* qwords,
                                          std::size_t nprobe) const;

  /// What a top-k call runs through the one pipeline: probe → candidates →
  /// score.
  ///   kFloat    float probe; every probed row is a candidate; float scores.
  ///   kBinary   binary probe; the fused scan keeps k candidates,
  ///             which are the binary hits.
  ///   kCascade  float probe; the scan keeps rerank·k candidates (every
  ///             probed row when that budget covers them); float rerank.
  enum class Plan : unsigned char { kFloat, kBinary, kCascade };
  std::vector<std::vector<TopK>> search(const tensor::Tensor& embeddings, std::size_t k,
                                        std::size_t nprobe, Plan plan, std::size_t rerank,
                                        const SeenPenalty* penalty, const char* who) const;

  const PrototypeStore* base_ = nullptr;
  tensor::Tensor centroids_;                    // [Cc, d], unit rows
  std::vector<std::uint64_t> centroid_codes_;   // [Cc * words_per_row]
  std::vector<std::uint32_t> assignments_;      // [C], row -> centroid
  std::vector<std::size_t> list_offsets_;       // [Cc + 1] into list_rows_
  std::vector<std::uint32_t> list_rows_;        // [C], row ids grouped by list
  std::vector<std::uint64_t> codes_;            // [C * words_per_row], list order

  /// Telemetry, behind a pointer so the index stays movable (from_parts
  /// returns it by value). A few relaxed fetch_adds per query.
  struct Counters {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> centroids_probed{0};
    std::atomic<std::uint64_t> rows_swept{0};
    std::atomic<std::uint64_t> rows_pruned{0};
    std::atomic<std::uint64_t> rows_reranked{0};
  };
  std::unique_ptr<Counters> counters_ = std::make_unique<Counters>();
};

}  // namespace hdczsc::serve
