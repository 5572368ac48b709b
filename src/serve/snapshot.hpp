// Frozen inference artifact: a trained ZscModel snapshotted against a fixed
// class-attribute matrix A.
//
// Snapshotting performs, once:
//  * ϕ(A) — the attribute-encoder forward over all C classes (the per-call
//    cost that dominates naive `class_logits` serving),
//  * the PrototypeStore build (normalized float rows + bit-packed binary
//    rows),
// plus the store's content checksum (serve::content_checksum over the
// prototype rows and seen bytes), which the serving stack adopts instead of
// re-hashing the store: engines seed their version-0 checksum from it and
// save_snapshot / compact_snapshot write and chain it. The snapshot also
// freezes the similarity temperature and the image encoder's projection
// FC (nn::Linear::freeze_for_serving): from then on a train-mode forward
// through the model throws, and the FC weight is packed once into the GEMM
// panel layout on the first image embed (endpoints that only receive
// embeddings never build that ~2 MiB pack). After construction the snapshot
// only ever runs eval-mode forwards, which are read-only across the whole
// layer stack apart from that one std::call_once pack build — so one
// snapshot can be shared by any number of worker threads without locking.
#pragma once

#include <memory>

#include "core/zsc_model.hpp"
#include "nn/quant.hpp"
#include "serve/prototype_store.hpp"

namespace hdczsc::serve {

class IvfIndex;  // serve/ann_store.hpp

class ModelSnapshot {
 public:
  /// `class_attributes` is A [C, α] in serving-label order; row c of the
  /// prototype store scores class c. `binary_expansion` is forwarded to the
  /// PrototypeStore (1 = direct d-bit sign codes; k > 1 = k·d-bit sign-LSH
  /// codes with higher cosine fidelity). `preferred_shards` records the
  /// shard layout the artifact was sized for (see sharded_store.hpp); it is
  /// a serving hint, not a property of the scores — engines may override it.
  /// `seen_mask` is the GZSL label-space partition: one byte per class,
  /// non-zero = *seen* (a training class, eligible for the calibrated-
  /// stacking handicap); empty = no partition, every class counts as seen
  /// (the plain single-space artifact — exactly how pre-v3 .hdcsnap files
  /// load).
  ModelSnapshot(std::shared_ptr<core::ZscModel> model,
                const tensor::Tensor& class_attributes, std::size_t binary_expansion = 1,
                std::size_t preferred_shards = 1, std::vector<std::uint8_t> seen_mask = {});

  /// Reconstituting constructor (snapshot_io load and compaction paths):
  /// adopt an already-built PrototypeStore instead of re-encoding ϕ(A) — the
  /// store carries the exact serialized rows, so a loaded snapshot scores
  /// bit-identically to the one that was saved. `content_checksum` must be
  /// content_checksum(store, seen_mask); it is adopted, not recomputed —
  /// the caller already holds it (load_snapshot verified or computed it,
  /// compact_snapshot chained it).
  ModelSnapshot(std::shared_ptr<core::ZscModel> model, tensor::Tensor class_attributes,
                PrototypeStore store, std::size_t preferred_shards,
                std::vector<std::uint8_t> seen_mask, std::uint64_t content_checksum);

  std::size_t n_classes() const { return store_->n_classes(); }
  std::size_t dim() const { return store_->dim(); }
  float scale() const { return store_->scale(); }
  /// Shard count the artifact recommends for its label space (≥ 1; old
  /// version-1 .hdcsnap files carry no record and load as 1 = flat).
  std::size_t preferred_shards() const { return preferred_shards_; }

  /// True when the artifact carries a genuine seen/unseen partition (a
  /// non-empty mask with at least one unseen class). Without one the whole
  /// label space counts as seen and a seen-class handicap is a uniform —
  /// ranking-neutral — shift.
  bool has_partition() const { return !seen_mask_.empty(); }
  /// Seen-class count (== n_classes() when there is no partition).
  std::size_t n_seen() const { return has_partition() ? n_seen_ : n_classes(); }
  std::size_t n_unseen() const { return n_classes() - n_seen(); }
  /// Whether serving label `c` is a seen (training) class.
  bool is_seen(std::size_t c) const { return seen_mask_.empty() || seen_mask_[c] != 0; }
  /// Per-class partition mask (empty = no partition = all seen).
  const std::vector<std::uint8_t>& seen_mask() const { return seen_mask_; }

  /// Eval-mode image-encoder forward: embeddings [B, d] from images
  /// [B, 3, S, S]. Thread-safe (no train-mode caching is touched; the first
  /// call packs the frozen projection weight once). Bitwise equal to the
  /// unfrozen model's eval forward at every batch size and worker count.
  tensor::Tensor embed(const tensor::Tensor& images) const;

  /// INT8 embed path — same contract as embed(), computed through the
  /// attached quantized backbone. Throws std::logic_error when the snapshot
  /// carries no quantized artifact (check has_quantized(), or request
  /// Precision::kInt8 through the engine which validates at construction).
  tensor::Tensor embed_int8(const tensor::Tensor& images) const;

  /// True when an INT8 artifact (weights + calibration) rides along — set
  /// by quantize(), attach_quantized(), or loading a v4 .hdcsnap that
  /// carries the quantization records.
  bool has_quantized() const { return quant_ != nullptr; }
  const std::shared_ptr<const nn::QuantizedEmbed>& quantized() const { return quant_; }

  /// Post-training-quantize this snapshot's embed path against a
  /// calibration set (images [N, 3, S, S]) and attach the result; returns
  /// the artifact. Idempotent re-runs replace the previous artifact.
  std::shared_ptr<const nn::QuantizedEmbed> quantize(
      const tensor::Tensor& calibration_images,
      nn::CalibMethod method = nn::CalibMethod::kMinMax, std::size_t batch = 32);

  /// Adopt an already-built quantized embed (snapshot_io v4 load path).
  void attach_quantized(std::shared_ptr<const nn::QuantizedEmbed> quant) {
    quant_ = std::move(quant);
  }

  /// True when an IVF coarse index rides along — built by build_ivf(),
  /// attached from a v5 .hdcsnap's centroid records, or lazily by an engine
  /// configured for approximate retrieval.
  bool has_ivf() const { return ivf_ != nullptr; }
  const std::shared_ptr<const IvfIndex>& ivf() const { return ivf_; }

  /// Cluster this snapshot's prototype store into an IVF coarse index and
  /// attach it (n_centroids == 0 → ~√C; see IvfIndex). Deterministic — the
  /// same store always yields the same index. Replaces any previous index.
  /// The index borrows this snapshot's store, so it must not outlive the
  /// snapshot (the serving stack holds both through one shared_ptr).
  std::shared_ptr<const IvfIndex> build_ivf(std::size_t n_centroids = 0);

  /// Adopt a reconstituted index (snapshot_io v5 load path).
  void attach_ivf(std::shared_ptr<const IvfIndex> ivf) { ivf_ = std::move(ivf); }

  const PrototypeStore& prototypes() const { return *store_; }
  /// Owning handle to the store — serve::StoreVersion shares it so store
  /// views (sharded/IVF) stay valid however long a pinned version lives.
  const std::shared_ptr<const PrototypeStore>& store_ptr() const { return store_; }
  const core::ZscModel& model() const { return *model_; }
  /// The frozen class-attribute rows A [C, α] the store was built against.
  const tensor::Tensor& class_attributes() const { return class_attributes_; }

  /// Encode class-attribute rows [n, α] into raw ϕ(a) prototype rows
  /// [n, d] with this snapshot's frozen attribute encoder (eval mode) —
  /// the online class-append path. α must match class_attributes().
  tensor::Tensor encode_attributes(const tensor::Tensor& attributes) const;

  /// Store-version counter persisted in v6 .hdcsnap files: 0 for a fresh
  /// build, advanced by delta compaction so evolved artifacts keep their
  /// lineage. Engines seed their live version counter from it.
  std::uint64_t store_version() const { return store_version_; }
  void set_store_version(std::uint64_t v) { store_version_ = v; }
  /// serve::content_checksum of the store and seen mask, computed once at
  /// build (or adopted from the loader / compaction chain) — the version-0
  /// anchor of every engine's delta chain and the value a v6 save writes.
  std::uint64_t content_checksum() const { return content_checksum_; }
  /// Auto-calibrated GZSL seen-penalty persisted alongside (0 = none) —
  /// engines without an explicit penalty or a validation split serve it.
  float calibrated_penalty() const { return calibrated_penalty_; }
  void set_calibrated_penalty(float p) { calibrated_penalty_ = p; }

  /// Shared handle to the underlying model — snapshot_io needs the mutable
  /// parameter/buffer lists for serialization; serving code should use the
  /// const accessors above.
  const std::shared_ptr<core::ZscModel>& model_ptr() const { return model_; }

 private:
  std::shared_ptr<core::ZscModel> model_;
  tensor::Tensor class_attributes_;
  std::shared_ptr<const PrototypeStore> store_;
  std::size_t preferred_shards_ = 1;
  std::uint64_t store_version_ = 0;  // v6 lineage counter
  std::uint64_t content_checksum_ = 0;  // content_checksum(*store_, seen_mask_)
  float calibrated_penalty_ = 0.0f;  // v6 persisted auto-calibration
  std::vector<std::uint8_t> seen_mask_;  // [C] (1 = seen) or empty = all seen
  std::size_t n_seen_ = 0;               // popcount of seen_mask_ (cached)
  std::shared_ptr<const nn::QuantizedEmbed> quant_;  // optional INT8 artifact
  std::shared_ptr<const IvfIndex> ivf_;              // optional IVF coarse index

  void adopt_seen_mask(std::vector<std::uint8_t> seen_mask);
};

/// Build a joint seen+unseen GZSL snapshot from the two label spaces'
/// attribute rows: serving labels [0, C_seen) are the seen (training)
/// classes, [C_seen, C_seen + C_unseen) the unseen ones — the label order
/// of Trainer::evaluate_gzsl — with the partition mask set accordingly.
std::shared_ptr<ModelSnapshot> make_gzsl_snapshot(std::shared_ptr<core::ZscModel> model,
                                                  const tensor::Tensor& seen_attributes,
                                                  const tensor::Tensor& unseen_attributes,
                                                  std::size_t binary_expansion = 1,
                                                  std::size_t preferred_shards = 1);

}  // namespace hdczsc::serve
