// Versioned on-disk snapshot format (".hdcsnap") — the deployable artifact
// of a trained HDC-ZSC model, so server fleets cold-start from a file
// instead of retraining (the Triton/TensorRT "frozen engine" pattern).
//
// The full record table, field widths and versioning rules live in
// docs/snapshot_format.md; the shape of the file (version 3):
//
//   "HDCS"  magic, u32 format version
//   -- model architecture (enough to rebuild the layer stack exactly) --
//   arch string, projection dim d, use_projection, attribute-encoder
//   kind + MLP hidden width, α, similarity temperature
//   -- model state --
//   nn::save_parameters records, nn::save_buffers records (BatchNorm
//   running statistics), optional HDC dictionary tensor B [α, d]
//   -- frozen serving artifacts --
//   class-attribute matrix A [C, α]; expansion k, LSH seed, store scale;
//   normalized float prototype rows [C, d]; packed binary words
//   -- serving layout (version ≥ 2) --
//   u64     preferred shard count S (sharded_store.hpp scatter/gather
//           layout hint; version-1 files carry no record and load as
//           S = 1, the flat store)
//   -- GZSL label-space partition (version ≥ 3) --
//   u64     seen-class count n_seen
//   u64[]   seen mask, ⌈C/64⌉ words, bit c = 1 iff serving label c is a
//           seen class (tail bits zero). Version-1/2 files carry no
//           record and load with no partition — every class seen.
//   -- INT8 quantization record pair (version ≥ 4) --
//   u8      has_quant flag; when set, two records follow:
//   record  activation calibration table (nn::save_calibration)
//   record  quantized embed graph — "HQNT" magic, BN-folded per-channel
//           int8 weights + per-op input qparams (nn::QuantizedEmbed::save).
//           Pre-v4 files carry neither and load float-only.
//   -- IVF coarse-index record pair (version ≥ 5) --
//   u8      has_ivf flag; when set, two records follow:
//   record  centroid tensor [Cc, d] — the unit-norm spherical k-means
//           centroids of the IVF coarse quantizer (ann_store.hpp)
//   u64     assignment count (must equal C), then u32[C] per-row centroid
//           assignments, each < Cc. Inverted lists and packed centroid
//           codes are rebuilt deterministically from these on load, so a
//           loaded index probes identically to the saved one. Pre-v5
//           files carry neither and load exact-only (engines rebuild on
//           demand).
//   -- evolution lineage (version ≥ 6) --
//   u64     store version counter (0 = fresh build; advanced by delta
//           compaction — see serve/store_version.hpp)
//   f32     auto-calibrated GZSL seen-penalty (0 = none persisted)
//   u64     FNV-1a content checksum over the per-row store stream
//           (serve::content_checksum) — validated against the loaded rows,
//           and the anchor delta files chain from. Pre-v6 files carry none
//           and load with version 0 / penalty 0.
//   "PANS"  end marker (truncation tripwire)
//
// Delta snapshots (".hdcdelta", magic "HDCD") carry *only* the classes
// appended since a base artifact: the base's row count / version /
// content checksum (rejected on mismatch before anything is applied),
// the new class-attribute rows, the pre-normalized float rows and packed
// binary words (adopted verbatim, so base + delta chain reconstitutes
// bit-identically to the equivalent full snapshot), per-row seen flags,
// optional IVF assignments, and the end-state checksum the chained apply
// must reach. See docs/evolution.md.
//
// Both prototype forms are stored verbatim (not recomputed on load), and
// BatchNorm running statistics ride along with the parameters, so a loaded
// snapshot serves scores bit-identical to the one that was saved — float
// and packed-binary paths alike. Loaders accept every version up to the
// current one (new records are appended, so older files parse under the
// newer reader with defaults); writers always emit the current version.
// Every load failure names the offending record and nothing
// half-constructed ever escapes: the model is built and populated in full
// before the ModelSnapshot exists.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "serve/snapshot.hpp"

namespace hdczsc::serve {

/// Current .hdcsnap format version (writers emit this; loaders accept
/// 1..kSnapshotVersion — see docs/snapshot_format.md for the version log).
inline constexpr std::uint32_t kSnapshotVersion = 6;

/// Current .hdcdelta format version.
inline constexpr std::uint32_t kDeltaVersion = 1;

/// Serialize a snapshot (model architecture + parameters + buffers + frozen
/// prototype store) to a stream / file. The file savers (this one and
/// save_delta_file) write a temp file next to `path`, check its close,
/// fsync it and rename it over `path`, then fsync the directory: a crash
/// or a failed write (disk full, file-size limit) leaves the previous
/// artifact at `path` intact and no temp file behind, and throws
/// std::runtime_error naming `path`.
void save_snapshot(std::ostream& os, const ModelSnapshot& snap);
void save_snapshot_file(const std::string& path, const ModelSnapshot& snap);

/// Deserialize: rebuilds the model architecture from the header, loads
/// parameters/buffers/dictionary into it, and adopts the stored prototype
/// rows verbatim. Throws std::runtime_error (with the offending record
/// named) on any corruption or truncation.
std::shared_ptr<ModelSnapshot> load_snapshot(std::istream& is);
std::shared_ptr<ModelSnapshot> load_snapshot_file(const std::string& path);

/// Header + size summary of a snapshot stream (for `snapshot_tool
/// --inspect`). inspect_snapshot reads the file through the same reader as
/// load_snapshot and summarizes the loaded snapshot, so a file it describes
/// is exactly a file that loads, and a file the loader rejects fails here
/// with the loader's named error.
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::string arch;
  std::size_t proj_dim = 0;
  bool use_projection = true;
  std::string attribute_encoder;
  std::size_t mlp_hidden = 0;
  std::size_t n_attributes = 0;
  float scale = 0.0f;
  std::size_t param_records = 0;
  std::size_t param_elements = 0;
  bool has_dictionary = false;
  std::size_t n_classes = 0;
  std::size_t dim = 0;
  std::size_t expansion = 0;
  std::size_t code_bits = 0;
  std::size_t float_bytes = 0;   ///< normalized prototype rows, fp32
  std::size_t binary_bytes = 0;  ///< packed binary rows
  /// Recommended scatter/gather shard count (1 for version-1 files).
  std::size_t preferred_shards = 1;
  /// GZSL partition (version ≥ 3): true when the artifact carries a
  /// seen/unseen split with at least one unseen class. Pre-v3 files (and
  /// single-space artifacts) report n_seen == n_classes.
  bool has_partition = false;
  std::size_t n_seen = 0;
  /// INT8 quantization records (version ≥ 4): present iff the artifact can
  /// cold-start int8 serving. Pre-v4 files report has_quant == false.
  bool has_quant = false;
  std::string quant_method;           ///< "minmax" / "entropy"
  std::size_t quant_conv = 0;         ///< quantized convs (incl. downsamples)
  std::size_t quant_linear = 0;       ///< quantized FC layers
  std::size_t quant_weight_bytes = 0; ///< total int8 weight payload
  /// IVF coarse-index records (version ≥ 5): present iff the artifact
  /// cold-starts approximate retrieval without re-clustering. Pre-v5 files
  /// report has_ivf == false.
  bool has_ivf = false;
  std::size_t n_centroids = 0;  ///< coarse-quantizer centroid count Cc
  /// Per-centroid inverted-list sizes (sums to n_classes; empty when
  /// has_ivf is false) — the `--inspect` list-size histogram input.
  std::vector<std::size_t> ivf_list_sizes;
  /// Evolution lineage (version ≥ 6; pre-v6 files report version 0 and
  /// penalty 0). content_checksum is the loaded snapshot's: the verified
  /// stored value for v6 files, the one the loader computed for pre-v6
  /// files (which store none).
  std::uint64_t store_version = 0;
  float calibrated_penalty = 0.0f;
  std::uint64_t content_checksum = 0;
};

SnapshotInfo inspect_snapshot(std::istream& is);
SnapshotInfo inspect_snapshot_file(const std::string& path);

struct LineageHead;   // serve/store_version.hpp
struct StoreVersion;  // serve/store_version.hpp
struct VersionParts;  // serve/store_version.hpp

/// One persisted append: everything needed to grow a base artifact by n
/// classes, bit-identically to the version the writer published. Produced
/// by make_delta from two versions of one lineage; applied only through
/// apply_delta, which InferenceEngine::append_delta (live) and
/// compact_snapshot (offline) both call.
struct SnapshotDelta {
  /// Base-identity triple — all three must match the state the delta is
  /// applied to (class count, version counter, content checksum).
  std::uint64_t base_rows = 0;
  std::uint64_t base_version = 0;
  std::uint64_t base_checksum = 0;
  tensor::Tensor attributes;       ///< appended class-attribute rows [n, α]
  tensor::Tensor normalized_rows;  ///< appended L2-normalized ϕ(a) rows [n, d]
  std::vector<std::uint64_t> packed_words;  ///< appended packed rows, n · wpr words
  /// Per-new-row seen flags (non-zero = seen); empty = all unseen.
  std::vector<std::uint8_t> seen_flags;
  bool has_ivf = false;  ///< whether per-new-row IVF assignments ride along
  std::vector<std::uint32_t> ivf_assignments;  ///< [n] when has_ivf
  /// Content checksum of base + these rows — the chained apply must land
  /// exactly here or the delta is rejected (nothing published).
  std::uint64_t new_checksum = 0;

  std::size_t n_new() const { return normalized_rows.dim() == 2 ? normalized_rows.size(0) : 0; }
};

/// Diff two versions of one engine lineage (`next` must extend `base`):
/// captures rows [base.n_classes, next.n_classes) with their attributes,
/// seen flags and IVF assignments. Throws std::invalid_argument when the
/// versions are not an extension pair.
SnapshotDelta make_delta(const StoreVersion& base, const StoreVersion& next);

void save_delta(std::ostream& os, const SnapshotDelta& delta);
void save_delta_file(const std::string& path, const SnapshotDelta& delta);
SnapshotDelta load_delta(std::istream& is);
SnapshotDelta load_delta_file(const std::string& path);

/// True when the file leads with the delta magic "HDCD" (false for full
/// snapshots, missing or short files) — how ModelRegistry::load_file and
/// snapshot_tool route a path to the right loader.
bool is_delta_file(const std::string& path);

/// The one delta step behind InferenceEngine::append_delta and
/// compact_snapshot. Validates the whole delta against `head` first (base
/// triple, row widths and counts, seen flags, IVF assignment count and
/// range), then appends the rows verbatim and returns the next version's
/// parts, its chained checksum checked against the delta's end checksum.
/// Throws std::invalid_argument on a base mismatch or a malformed count,
/// width or range, std::runtime_error naming the content checksum when the
/// chained checksum misses; messages start with `context`.
VersionParts apply_delta(const LineageHead& head, const SnapshotDelta& delta,
                         const std::string& context);

/// Offline delta-chain compaction: fold apply_delta over `deltas` from
/// `base` and return a full snapshot whose store planes, seen mask, class
/// attributes and IVF assignments are *bitwise* the state a live engine
/// reaches by applying the same deltas, with the store-version counter
/// advanced by the chain length. A failing link throws apply_delta's error
/// ("compact_snapshot: delta <i>: ..."); `base` is not modified.
std::shared_ptr<ModelSnapshot> compact_snapshot(const ModelSnapshot& base,
                                                const std::vector<SnapshotDelta>& deltas);

}  // namespace hdczsc::serve
