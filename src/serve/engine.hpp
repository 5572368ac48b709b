// Inference engine: execution wrapper over a ModelSnapshot that serves an
// *evolving* label space through immutable store versions.
//
// classify_batch runs the eval-mode embed once for the whole batch — the
// CNN backbone does one whole-batch im2col + blocked GEMM per conv layer,
// so batching speeds up the embed itself, not just what follows — then
// scores against the pinned prototype store via either
//  * kFloatCosine   — s · cosine(e, ϕ(A)), bit-identical to
//                     ZscModel::class_logits in eval mode, or
//  * kBinaryHamming — sign-binarized query vs. bit-packed prototypes,
//                     word-level XOR + popcount (the edge/accelerator path).
//
// Retrieval comes in two shapes:
//  * logits()      — the full [B, C] logit matrix (flat store scan), and
//  * topk_batch()  — the top-k (label, score) hits per image via the
//    sharded scatter/gather scan (sharded_store.hpp). With n_shards == 1
//    the sharded store degenerates to the flat layout; either way the
//    ranking equals the flat path's full argsort. classify_batch is the
//    k = 1 case on every retrieval tier.
//
// GZSL serving: when the version carries a seen/unseen partition, the
// calibrated-stacking penalty is subtracted from every seen-class logit on
// *both* scoring paths (as an exact integer Hamming-domain offset on the
// binary path where possible), consistently across logits / topk_batch /
// classify_batch. The penalty source, in precedence order: a
// GzslCalibration validation split (auto-recalibrated on load and after
// every append), the explicit `seen_penalty` knob, the snapshot's
// persisted calibrated penalty (v6 .hdcsnap).
//
// Approximate retrieval: `retrieval` selects the top-k tier (ann_store.hpp)
// — kExact scans every row (the default, results equal the flat argsort);
// kIvf probes `nprobe` coarse-quantizer lists and scans only those, in the
// engine's scoring mode; kCascade adds the binary-prefilter → float-rerank
// stage. The engine reuses the snapshot's persisted IVF index (v5
// .hdcsnap) or builds one deterministically at construction. logits() is
// always exact — the full [B, C] matrix has no approximate form.
//
// -- live model evolution -----------------------------------------------------
//
// Everything a scoring path reads is bundled in an immutable StoreVersion
// (store_version.hpp) behind one shared_ptr. Every entrypoint pins
// *exactly one* version for its whole batch (pin() — a shared-lock
// pointer copy), so a batch scored while append_classes() publishes
// version k+1 is bit-identical to exact scoring over the version k it
// pinned: versions are never mutated, and the copy-on-write store slabs
// guarantee even structurally shared rows are bitwise stable.
//
// append_classes() encodes ϕ(a) for the new attribute rows with the
// snapshot's frozen attribute encoder, appends them to the store
// (structural sharing), extends the seen mask (new classes default
// unseen), re-derives the sharded view, extends the IVF assignment vector
// by nearest centroid (no re-clustering), recalibrates the GZSL penalty,
// extends the content checksum, and publishes the new version with one
// shared_ptr swap. append_delta() publishes what serve::apply_delta
// (snapshot_io.hpp) builds from a persisted SnapshotDelta — the step
// compact_snapshot folds over a chain — and a bad delta throws *before*
// anything is published (strong guarantee). Appends are
// logically-const (the registry shares engines as shared_ptr<const>);
// concurrent appends serialize on an internal mutex.
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "serve/ann_store.hpp"
#include "serve/sharded_store.hpp"
#include "serve/snapshot.hpp"
#include "serve/store_version.hpp"

namespace hdczsc::serve {

struct SnapshotDelta;  // serve/snapshot_io.hpp

enum class ScoringMode { kFloatCosine, kBinaryHamming };

std::string scoring_mode_name(ScoringMode mode);
/// Parse "float" / "binary" (the CLI spellings); throws
/// std::invalid_argument on anything else.
ScoringMode scoring_mode_from_name(const std::string& name);

/// Numeric precision of the backbone embed stage. kInt8 routes images
/// through the snapshot's attached quantized artifact (nn/quant.hpp) —
/// u8×s8→s32 GEMMs instead of fp32 — and requires a snapshot that carries
/// one (quantize() at build time, or a v4 .hdcsnap with quant records).
/// Scoring always runs float/binary exactly as before; only the embed
/// changes.
enum class Precision : unsigned char { kFloat32 = 0, kInt8 = 1 };

std::string precision_name(Precision p);
/// Parse "float32" / "int8" (the ServerConfig / CLI spellings); throws
/// std::invalid_argument on anything else.
Precision precision_from_name(const std::string& name);

/// One classified request.
struct Prediction {
  std::size_t label = 0;  ///< argmax class (prototype-store row)
  float score = 0.0f;     ///< winning logit
};

class InferenceEngine {
 public:
  /// `n_shards` splits the prototype store into that many row-range shards
  /// for the top-k retrieval path (clamped to [1, C]; 0 means "use the
  /// snapshot's preferred shard layout"). Sharding never changes results —
  /// only how the scan is scattered.
  ///
  /// `seen_penalty` is the GZSL calibrated-stacking knob (Chao et al.
  /// 2016, the serving-side form of Trainer::evaluate_gzsl): it is
  /// subtracted from every *seen*-class logit — per the version's
  /// partition mask — on both scoring paths, in logits(), topk_batch()
  /// and classify_batch() alike. On the binary path the handicap runs as
  /// an exact integer Hamming-domain offset whenever one exists, so the
  /// sharded integer-key selection stays exact (see SeenPenalty). 0
  /// defers to `calibration` (when given) or the snapshot's persisted
  /// calibrated penalty; a snapshot without a partition treats every class
  /// as seen, making the handicap a uniform, ranking-neutral shift.
  /// `precision` selects the embed stage's numeric path; kInt8 throws
  /// std::invalid_argument at construction when the snapshot carries no
  /// quantized artifact (fail at load, not on the first request).
  ///
  /// `retrieval` picks the top-k tier. Anything but kExact adopts the
  /// snapshot's IVF index — or clusters one deterministically here when
  /// the snapshot carries none (pre-v5 artifacts). `nprobe` (0 = the
  /// index default, ~Cc/8) bounds the probed coarse lists; `rerank` is the
  /// cascade's candidate budget multiplier (rerank·k binary survivors get
  /// float-reranked; 0 = unbounded, every probed row).
  ///
  /// `calibration` is the held-out GZSL validation split: when non-null,
  /// the seen penalty is swept against it at construction and after every
  /// append (overriding `seen_penalty`), so evolving label spaces keep a
  /// calibrated decision rule without operator intervention.
  InferenceEngine(std::shared_ptr<const ModelSnapshot> snapshot,
                  ScoringMode mode = ScoringMode::kFloatCosine, std::size_t n_shards = 0,
                  float seen_penalty = 0.0f, Precision precision = Precision::kFloat32,
                  RetrievalMode retrieval = RetrievalMode::kExact, std::size_t nprobe = 0,
                  std::size_t rerank = 4,
                  std::shared_ptr<const GzslCalibration> calibration = nullptr);

  /// Wall time of one batch forward split at the embed/score boundary —
  /// the two stages the per-request tracer (obs/trace.hpp) reports
  /// separately so "slow request" resolves to backbone vs prototype scan.
  /// Embedding inputs report embed_ms == 0 (no backbone ran).
  struct BatchTimings {
    double embed_ms = 0.0;
    double score_ms = 0.0;
  };

  /// Full logits [B, C] via the flat store scan (C = the pinned version's
  /// class count). `inputs` is either an image batch [B, 3, S, S]
  /// (embedded by the backbone) or a pre-computed embedding batch [B, d]
  /// (split inference: the backbone ran on the client/edge, only the
  /// prototype scan runs here).
  tensor::Tensor logits(const tensor::Tensor& inputs, BatchTimings* timings = nullptr) const;

  /// Top-k (label, score) hits per input, ordered by (score desc, label
  /// asc), via the sharded scatter/gather scan. Returns min(k, C) entries
  /// per input; k == 0 yields empty results. Accepts the same image /
  /// embedding input shapes as logits().
  std::vector<std::vector<TopK>> topk_batch(const tensor::Tensor& inputs, std::size_t k,
                                            BatchTimings* timings = nullptr) const;

  /// Argmax + winning score per input (images or embeddings, as above):
  /// topk_batch's top hit, so ties go to the lower label. `timings`, when
  /// non-null, receives the embed/score wall-time split; results are
  /// identical either way.
  std::vector<Prediction> classify_batch(const tensor::Tensor& inputs,
                                         BatchTimings* timings = nullptr) const;

  /// Pin the current store version: an O(1) shared-lock pointer copy.
  /// Every scoring entrypoint pins exactly once per batch; callers needing
  /// multi-call consistency (telemetry, exactness tests) pin their own.
  std::shared_ptr<const StoreVersion> pin() const;

  /// Append classes online: encode ϕ(a) for `attributes` [n, α], build
  /// the next store version (see file comment) and publish it atomically.
  /// `seen_flags`, when non-empty, must have n entries (non-zero = seen);
  /// empty marks every new class unseen — the zero-shot default. Returns
  /// the published version. Thread-safe; concurrent appends serialize,
  /// in-flight batches keep their pinned versions. Throws
  /// std::invalid_argument on shape mismatch (nothing published).
  std::shared_ptr<const StoreVersion> append_classes(
      const tensor::Tensor& attributes, const std::vector<std::uint8_t>& seen_flags = {}) const;

  /// Apply a persisted delta-snapshot record to the *current* version via
  /// serve::apply_delta (snapshot_io.hpp): the published version is bitwise
  /// the one the delta writer serialized. Throws what apply_delta throws,
  /// with the previous version still serving (strong guarantee).
  std::shared_ptr<const StoreVersion> append_delta(const SnapshotDelta& delta) const;

  ScoringMode mode() const { return mode_; }
  Precision precision() const { return precision_; }
  RetrievalMode retrieval() const { return retrieval_; }
  /// Probe width for approximate retrieval (0 = the index default).
  std::size_t nprobe() const { return nprobe_; }
  /// Cascade rerank budget multiplier (0 = unbounded).
  std::size_t rerank() const { return rerank_; }
  /// The current version's IVF index — null iff retrieval() == kExact.
  std::shared_ptr<const IvfIndex> ivf() const { return pin()->ivf; }
  /// Current version counter (the `ver` registry column).
  std::uint64_t store_version() const { return pin()->version; }
  /// Current class count (grows with appends).
  std::size_t n_classes() const { return pin()->n_classes(); }
  std::size_t n_shards() const { return pin()->sharded->n_shards(); }
  /// Calibrated-stacking handicap of the current version
  /// (0 = plain single-space serving).
  float seen_penalty() const { return pin()->penalty.penalty; }
  /// Per-shard scan telemetry of the current version's sharded view.
  std::vector<ShardedPrototypeStore::ShardInfo> shard_stats() const {
    return pin()->sharded->shard_stats();
  }
  const ModelSnapshot& snapshot() const { return *snapshot_; }

 private:
  /// Rank-2 inputs [B, d] are pre-computed embeddings and pass through
  /// (width-checked against the store dim); everything else runs the
  /// eval-mode backbone. `embed_ms` receives the backbone wall time
  /// (0 for the passthrough).
  tensor::Tensor embed_inputs(const tensor::Tensor& inputs, double* embed_ms) const;

  /// Top-k over an already-embedded batch against one pinned version,
  /// routed by retrieval_ / mode_.
  std::vector<std::vector<TopK>> topk_embedded(const StoreVersion& ver,
                                               const tensor::Tensor& emb, std::size_t k) const;

  /// Resolve the effective GZSL penalty for a (store, mask) pair under the
  /// engine's precedence: calibration split > explicit knob > snapshot's
  /// persisted calibrated penalty.
  float effective_penalty(const PrototypeStore& store,
                          const std::vector<std::uint8_t>& seen_mask) const;

  /// Shared append tail: derive the views of the next version's parts and
  /// publish it. Caller holds evolve_mu_.
  std::shared_ptr<const StoreVersion> publish_appended(
      const std::shared_ptr<const StoreVersion>& cur, VersionParts next) const;

  std::shared_ptr<const ModelSnapshot> snapshot_;
  ScoringMode mode_;
  Precision precision_;
  std::size_t shard_target_ = 0;  // ctor n_shards resolved (0 → snapshot preference)
  float cfg_penalty_ = 0.0f;       // explicit seen_penalty knob
  RetrievalMode retrieval_ = RetrievalMode::kExact;
  std::size_t nprobe_ = 0;
  std::size_t rerank_ = 4;
  std::shared_ptr<const GzslCalibration> calibration_;

  /// The published version. ver_mu_ is held shared for the O(1) pin copy
  /// and exclusively only for the swap itself; evolve_mu_ serializes the
  /// (potentially expensive) version *construction* so appenders never
  /// build against a stale base.
  mutable std::shared_mutex ver_mu_;
  mutable std::shared_ptr<const StoreVersion> version_;
  mutable std::mutex evolve_mu_;
};

}  // namespace hdczsc::serve
