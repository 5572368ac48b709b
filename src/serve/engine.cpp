#include "serve/engine.hpp"

#include <limits>
#include <stdexcept>

#include "serve/snapshot_io.hpp"
#include "tensor/ops.hpp"
#include "util/timer.hpp"

namespace hdczsc::serve {

std::string scoring_mode_name(ScoringMode mode) {
  return mode == ScoringMode::kFloatCosine ? "float-cosine" : "binary-hamming";
}

ScoringMode scoring_mode_from_name(const std::string& name) {
  if (name == "float") return ScoringMode::kFloatCosine;
  if (name == "binary") return ScoringMode::kBinaryHamming;
  throw std::invalid_argument("unknown scoring mode '" + name +
                              "' (expected float or binary)");
}

std::string precision_name(Precision p) {
  return p == Precision::kInt8 ? "int8" : "float32";
}

Precision precision_from_name(const std::string& name) {
  if (name == "float32" || name == "fp32" || name == "float") return Precision::kFloat32;
  if (name == "int8") return Precision::kInt8;
  throw std::invalid_argument("unknown backbone precision '" + name +
                              "' (expected float32 or int8)");
}

InferenceEngine::InferenceEngine(std::shared_ptr<const ModelSnapshot> snapshot,
                                 ScoringMode mode, std::size_t n_shards, float seen_penalty,
                                 Precision precision, RetrievalMode retrieval,
                                 std::size_t nprobe, std::size_t rerank,
                                 std::shared_ptr<const GzslCalibration> calibration)
    : snapshot_(std::move(snapshot)),
      mode_(mode),
      precision_(precision),
      cfg_penalty_(seen_penalty),
      retrieval_(retrieval),
      nprobe_(nprobe),
      rerank_(rerank),
      calibration_(std::move(calibration)) {
  if (!snapshot_) throw std::invalid_argument("InferenceEngine: null snapshot");
  if (precision_ == Precision::kInt8 && !snapshot_->has_quantized())
    throw std::invalid_argument(
        "InferenceEngine: int8 precision requested but the snapshot carries no quantized "
        "artifact (quantize it, or load a v4 .hdcsnap with quantization records)");
  shard_target_ = n_shards == 0 ? snapshot_->preferred_shards() : n_shards;

  // Version 0 of this engine's lineage: the snapshot's state, re-bundled.
  auto v = std::make_shared<StoreVersion>();
  v->version = snapshot_->store_version();
  v->store = snapshot_->store_ptr();
  v->seen_mask = snapshot_->seen_mask();
  v->n_seen = v->seen_mask.empty() ? 0 : snapshot_->n_seen();
  v->class_attributes = snapshot_->class_attributes();
  v->sharded = std::make_shared<const ShardedPrototypeStore>(*v->store, shard_target_);
  if (retrieval_ != RetrievalMode::kExact) {
    // Adopt the snapshot's persisted index (v5 .hdcsnap) when there is
    // one; otherwise cluster here — deterministic, so a rebuilt index
    // matches what a v5 writer would have saved for this store.
    v->ivf = snapshot_->has_ivf() ? snapshot_->ivf()
                                  : std::make_shared<const IvfIndex>(*v->store);
  }
  v->penalty =
      v->store->resolve_penalty(effective_penalty(*v->store, v->seen_mask), v->seen_mask);
  // Adopted, not re-hashed: the snapshot already holds the store's checksum.
  v->content_checksum = snapshot_->content_checksum();
  // Binary scoring encodes every query through the sign-LSH projection (an
  // IVF index above has already built it for its centroid codes). Build it
  // here, on the loading thread: left to the first served batch, it would
  // add to that batch's latency and come from a serving thread's arena.
  if (mode_ == ScoringMode::kBinaryHamming) v->store->projection();
  version_ = std::move(v);
}

float InferenceEngine::effective_penalty(const PrototypeStore& store,
                                         const std::vector<std::uint8_t>& seen_mask) const {
  if (calibration_)
    return calibrate_seen_penalty(store, seen_mask, *calibration_,
                                  mode_ == ScoringMode::kBinaryHamming);
  if (cfg_penalty_ != 0.0f) return cfg_penalty_;
  return snapshot_->calibrated_penalty();
}

std::shared_ptr<const StoreVersion> InferenceEngine::pin() const {
  std::shared_lock lock(ver_mu_);
  return version_;
}

tensor::Tensor InferenceEngine::embed_inputs(const tensor::Tensor& inputs,
                                             double* embed_ms) const {
  // Split inference: a [B, d] batch already *is* the embedding (the
  // backbone ran on the client/edge — examples/edge_inference) and only
  // needs a width check; images run the whole-batch eval-mode forward.
  if (inputs.dim() == 2) {
    if (inputs.size(1) != snapshot_->dim())
      throw std::invalid_argument(
          "InferenceEngine: embedding width " + std::to_string(inputs.size(1)) +
          " does not match the model dim " + std::to_string(snapshot_->dim()));
    if (embed_ms) *embed_ms = 0.0;
    return inputs;
  }
  util::Timer clock;
  tensor::Tensor emb = precision_ == Precision::kInt8 ? snapshot_->embed_int8(inputs)
                                                      : snapshot_->embed(inputs);
  if (embed_ms) *embed_ms = clock.millis();
  return emb;
}

tensor::Tensor InferenceEngine::logits(const tensor::Tensor& inputs,
                                       BatchTimings* timings) const {
  double embed_ms = 0.0;
  tensor::Tensor emb = embed_inputs(inputs, &embed_ms);
  util::Timer clock;
  const std::shared_ptr<const StoreVersion> ver = pin();  // one version per batch
  tensor::Tensor out = mode_ == ScoringMode::kFloatCosine
                           ? ver->store->score_float(emb, ver->penalty_ptr())
                           : ver->store->score_binary(emb, ver->penalty_ptr());
  if (timings) {
    timings->embed_ms = embed_ms;
    timings->score_ms = clock.millis();
  }
  return out;
}

std::vector<std::vector<TopK>> InferenceEngine::topk_embedded(const StoreVersion& ver,
                                                              const tensor::Tensor& emb,
                                                              std::size_t k) const {
  switch (retrieval_) {
    case RetrievalMode::kIvf:
      return mode_ == ScoringMode::kFloatCosine
                 ? ver.ivf->topk_float(emb, k, nprobe_, ver.penalty_ptr())
                 : ver.ivf->topk_binary(emb, k, nprobe_, ver.penalty_ptr());
    case RetrievalMode::kCascade:
      // Cascade scores are float-domain regardless of the engine's scoring
      // mode: the binary stage only prefilters, the rerank decides.
      return ver.ivf->topk_cascade(emb, k, nprobe_, rerank_, ver.penalty_ptr());
    case RetrievalMode::kExact:
      break;
  }
  return mode_ == ScoringMode::kFloatCosine
             ? ver.sharded->topk_float(emb, k, ver.penalty_ptr())
             : ver.sharded->topk_binary(emb, k, ver.penalty_ptr());
}

std::vector<std::vector<TopK>> InferenceEngine::topk_batch(const tensor::Tensor& inputs,
                                                           std::size_t k,
                                                           BatchTimings* timings) const {
  double embed_ms = 0.0;
  tensor::Tensor emb = embed_inputs(inputs, &embed_ms);
  util::Timer clock;
  const std::shared_ptr<const StoreVersion> ver = pin();  // one version per batch
  auto out = topk_embedded(*ver, emb, k);
  if (timings) {
    timings->embed_ms = embed_ms;
    timings->score_ms = clock.millis();
  }
  return out;
}

std::vector<Prediction> InferenceEngine::classify_batch(const tensor::Tensor& inputs,
                                                        BatchTimings* timings) const {
  // One coalesced forward end-to-end: the backbone runs a single whole-batch
  // im2col + GEMM per conv layer (tensor/gemm.hpp), so a batch of B images
  // is substantially cheaper than B single-image forwards — dynamic batching
  // now amortizes the embed, not just the prototype scan. The embed runs
  // here (not inside logits/topk_batch) so the two stages can be timed
  // separately for the per-request tracer; the computation is unchanged.
  double embed_ms = 0.0;
  tensor::Tensor emb = embed_inputs(inputs, &embed_ms);
  util::Timer clock;
  const std::shared_ptr<const StoreVersion> ver = pin();  // one version per batch

  // Classify is the k = 1 retrieval on every tier: no [B, C] logits
  // materialization, no full-width argmax sweep, and the same selection
  // (and tie-break) as topk_batch. An IVF probe can in principle come back
  // empty (every probed list empty); that degenerates to "no prediction",
  // reported as label 0 with a -inf score rather than UB.
  const auto hits = topk_embedded(*ver, emb, 1);
  std::vector<Prediction> out(hits.size());
  for (std::size_t b = 0; b < hits.size(); ++b)
    out[b] = hits[b].empty() ? Prediction{0, -std::numeric_limits<float>::infinity()}
                             : Prediction{hits[b][0].label, hits[b][0].score};
  if (timings) {
    timings->embed_ms = embed_ms;
    timings->score_ms = clock.millis();
  }
  return out;
}

std::shared_ptr<const StoreVersion> InferenceEngine::publish_appended(
    const std::shared_ptr<const StoreVersion>& cur, VersionParts next) const {
  auto v = std::make_shared<StoreVersion>();
  v->version = next.version;
  v->store = std::make_shared<const PrototypeStore>(std::move(next.store));
  v->seen_mask = std::move(next.seen_mask);
  for (std::uint8_t m : v->seen_mask) v->n_seen += m != 0;
  v->class_attributes = std::move(next.class_attributes);
  v->sharded = std::make_shared<const ShardedPrototypeStore>(*v->store, shard_target_);
  if (cur->ivf)
    v->ivf = std::make_shared<const IvfIndex>(IvfIndex::from_parts(
        *v->store, cur->ivf->centroids(), std::move(next.ivf_assignments)));
  v->penalty =
      v->store->resolve_penalty(effective_penalty(*v->store, v->seen_mask), v->seen_mask);
  v->content_checksum = next.content_checksum;
  std::unique_lock lock(ver_mu_);
  version_ = v;
  return v;
}

std::shared_ptr<const StoreVersion> InferenceEngine::append_classes(
    const tensor::Tensor& attributes, const std::vector<std::uint8_t>& seen_flags) const {
  // encode_attributes validates the [n, α] shape before the lock is taken.
  const tensor::Tensor phi = snapshot_->encode_attributes(attributes);
  const std::size_t n_new = phi.size(0);
  if (!seen_flags.empty() && seen_flags.size() != n_new)
    throw std::invalid_argument("InferenceEngine::append_classes: " +
                                std::to_string(seen_flags.size()) + " seen flags for " +
                                std::to_string(n_new) + " appended classes");

  std::lock_guard evolve(evolve_mu_);
  const std::shared_ptr<const StoreVersion> cur = pin();
  PrototypeStore store = cur->store->append_rows(phi);
  std::vector<std::uint8_t> mask =
      extend_seen_mask(cur->seen_mask, cur->n_classes(), seen_flags, n_new);
  // Checksums chain: only the new rows are hashed. The base rows' seen
  // bytes are unchanged by mask materialization (empty mask and all-1s mask
  // hash identically), so the extension equals a full re-hash.
  const std::uint64_t checksum =
      extend_content_checksum(cur->content_checksum, store, mask, cur->n_classes());
  std::vector<std::uint32_t> assignments;
  if (cur->ivf)
    assignments = extend_ivf_assignments(cur->ivf->centroids(), cur->ivf->assignments(),
                                         store, cur->n_classes());
  return publish_appended(
      cur, VersionParts{std::move(store), std::move(mask),
                        tensor::concat_rows(cur->class_attributes, attributes),
                        std::move(assignments), checksum, cur->version + 1});
}

std::shared_ptr<const StoreVersion> InferenceEngine::append_delta(
    const SnapshotDelta& delta) const {
  std::lock_guard evolve(evolve_mu_);
  const std::shared_ptr<const StoreVersion> cur = pin();
  const LineageHead head{.store = *cur->store,
                         .seen_mask = cur->seen_mask,
                         .class_attributes = cur->class_attributes,
                         .ivf_centroids = cur->ivf ? &cur->ivf->centroids() : nullptr,
                         .ivf_assignments = cur->ivf ? &cur->ivf->assignments() : nullptr,
                         .content_checksum = cur->content_checksum,
                         .version = cur->version};
  return publish_appended(cur, apply_delta(head, delta, "InferenceEngine::append_delta"));
}

}  // namespace hdczsc::serve
