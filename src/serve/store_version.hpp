// StoreVersion: one immutable, shareable version of a model's servable
// prototype state — the unit of live model evolution.
//
// The serving stack used to assume a fixed class count: the engine held
// one sharded store, one resolved GZSL penalty and one optional IVF index
// for the lifetime of the process. Online class appends break that
// assumption, so everything a scoring path reads is now bundled into a
// StoreVersion value:
//
//   * the PrototypeStore (copy-on-write slabs — an appended version
//     structurally shares the previous version's rows),
//   * the ShardedPrototypeStore view over those rows,
//   * the seen/unseen partition mask and the SeenPenalty resolved against
//     *this* version's class count,
//   * the optional IvfIndex (appends extend the assignment vector by
//     nearest-centroid without re-clustering),
//   * the frozen class-attribute rows the prototypes were encoded from,
//   * a running content checksum over (float rows, packed rows, seen
//     bytes) that anchors delta-snapshot chains.
//
// Versions are published through shared_ptr swaps (InferenceEngine pins
// one version per batch; ModelRegistry re-exposes the counter), so a
// batch scored against version k is bit-identical to exact scoring over
// version k even while k+1 is being appended and published. Old versions
// stay valid as long as anyone pins them — nothing is ever mutated.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/ann_store.hpp"
#include "serve/prototype_store.hpp"
#include "serve/sharded_store.hpp"
#include "tensor/tensor.hpp"

namespace hdczsc::serve {

struct StoreVersion {
  /// Monotone per-model version counter: the snapshot's persisted value at
  /// load, +1 per append. Surfaced as the `ver` registry column and the
  /// serve_store_version gauge.
  std::uint64_t version = 0;
  std::shared_ptr<const PrototypeStore> store;
  std::shared_ptr<const ShardedPrototypeStore> sharded;
  /// Per-class partition mask (1 = seen); empty = no partition, every
  /// class counts as seen. Appended classes default to *unseen* — serving
  /// them is the whole point of zero-shot evolution.
  std::vector<std::uint8_t> seen_mask;
  std::size_t n_seen = 0;  ///< popcount of seen_mask (0 when mask empty)
  /// Calibrated-stacking handicap resolved against this version's store
  /// and mask (auto-recalibrated after appends when the engine carries a
  /// validation split).
  SeenPenalty penalty;
  /// Optional IVF coarse index over this version's rows (null = exact
  /// retrieval only).
  std::shared_ptr<const IvfIndex> ivf;
  /// The class-attribute rows A [C, α] the prototypes were encoded from —
  /// grows with appends, persisted by delta snapshots.
  tensor::Tensor class_attributes;
  /// FNV-1a 64 over the per-row content stream (see content_checksum) —
  /// the bitwise identity a delta chain is validated against.
  std::uint64_t content_checksum = 0;

  std::size_t n_classes() const { return store->n_classes(); }
  bool has_partition() const { return !seen_mask.empty(); }
  std::size_t seen_count() const { return has_partition() ? n_seen : n_classes(); }
  std::size_t unseen_count() const { return n_classes() - seen_count(); }
  bool is_seen(std::size_t c) const { return seen_mask.empty() || seen_mask[c] != 0; }
  const SeenPenalty* penalty_ptr() const { return penalty.active() ? &penalty : nullptr; }
};

/// The lineage version a delta applies to (serve::apply_delta), borrowed:
/// a live StoreVersion's parts or compaction's chain state. The IVF
/// pointers are null when the lineage has no index.
struct LineageHead {
  const PrototypeStore& store;
  const std::vector<std::uint8_t>& seen_mask;
  const tensor::Tensor& class_attributes;
  const tensor::Tensor* ivf_centroids = nullptr;
  const std::vector<std::uint32_t>* ivf_assignments = nullptr;
  std::uint64_t content_checksum = 0;
  std::uint64_t version = 0;
};

/// A version's own parts, before the sharded view, IVF lists and penalty
/// are derived from them: what both append paths publish and compaction
/// folds. ivf_assignments is empty when the lineage has no index.
struct VersionParts {
  PrototypeStore store;
  std::vector<std::uint8_t> seen_mask;
  tensor::Tensor class_attributes;
  std::vector<std::uint32_t> ivf_assignments;
  std::uint64_t content_checksum = 0;
  std::uint64_t version = 0;
};

/// FNV-1a 64 over the store's per-row content stream: for each visible row
/// c — the d·4 bytes of the normalized float row, the words_per_row·8
/// bytes of the packed binary row, then one seen byte (1 when the mask is
/// empty or non-zero at c, else 0). Appending rows extends the stream, so
/// checksum(base + delta rows) == extend_content_checksum(checksum(base),
/// appended store, mask, base rows) — the invariant delta-snapshot chains
/// are validated with.
std::uint64_t content_checksum(const PrototypeStore& store,
                               const std::vector<std::uint8_t>& seen_mask);
/// Continue a row-stream checksum over rows [begin_row, store.n_classes()).
std::uint64_t extend_content_checksum(std::uint64_t h, const PrototypeStore& store,
                                      const std::vector<std::uint8_t>& seen_mask,
                                      std::size_t begin_row);

/// Held-out validation split for GZSL seen-penalty auto-calibration:
/// pre-computed embeddings [N, d] with their true serving labels. Carried
/// by ServerConfig; the engine recalibrates on load and after every append
/// so freshly added unseen classes are immediately served under a
/// calibrated decision rule.
struct GzslCalibration {
  tensor::Tensor embeddings;        // [N, d]
  std::vector<std::size_t> labels;  // [N], serving-label space
};

/// Extend a partition mask by `n_new` appended rows. An empty base mask
/// ("no partition, everything seen") is materialized to all-1s the moment a
/// non-seen row arrives; conversely a resulting all-seen mask collapses
/// back to empty. `flags` (one byte per new row, non-zero = seen) may be
/// empty — the zero-shot default, every appended class unseen — or else
/// must hold exactly `n_new` bytes (std::invalid_argument otherwise).
/// Checksum semantics are unaffected by the materialization: empty and
/// all-1s masks hash identically.
std::vector<std::uint8_t> extend_seen_mask(const std::vector<std::uint8_t>& base_mask,
                                           std::size_t base_rows,
                                           const std::vector<std::uint8_t>& flags,
                                           std::size_t n_new);

/// Extend an IVF assignment vector over a grown store: rows
/// [first_new_row, grown.n_classes()) are assigned to their nearest
/// centroid by assign_nearest_centroids, the routine the index's own
/// k-means assigned every row with, and appended to `assignments` (which
/// holds first_new_row entries). No re-clustering: appends only extend the
/// vector, so a persisted delta's assignments reproduce exactly. The
/// result is built with one allocation; `assignments` (the live version's)
/// is only read.
std::vector<std::uint32_t> extend_ivf_assignments(const tensor::Tensor& centroids,
                                                  const std::vector<std::uint32_t>& assignments,
                                                  const PrototypeStore& grown,
                                                  std::size_t first_new_row);

/// Sweep the calibrated-stacking penalty over the split's decision margins
/// and return the value maximizing the harmonic mean of seen-class and
/// unseen-class top-1 accuracy (ties -> the smaller penalty; 0 when the
/// store has no genuine partition or the split decides nothing). `binary`
/// selects the scoring path the decisions are computed under. Labels >=
/// n_classes (a split captured before an append) are ignored.
float calibrate_seen_penalty(const PrototypeStore& store,
                             const std::vector<std::uint8_t>& seen_mask,
                             const GzslCalibration& calibration, bool binary);

}  // namespace hdczsc::serve
