#include "serve/snapshot_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/zsc_model.hpp"
#include "data/attribute_space.hpp"
#include "nn/serialize.hpp"
#include "serve/ann_store.hpp"
#include "serve/store_version.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"

namespace hdczsc::serve {

namespace {

constexpr char kMagic[4] = {'H', 'D', 'C', 'S'};
constexpr char kDeltaMagic[4] = {'H', 'D', 'C', 'D'};
constexpr char kEndMarker[4] = {'P', 'A', 'N', 'S'};

using tensor::io::read_pod;
using tensor::io::read_string;
using tensor::io::write_pod;
using tensor::io::write_string;

tensor::Tensor read_tensor(std::istream& is, const char* what) {
  try {
    return tensor::load_tensor(is);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("snapshot_io: corrupt tensor record '") + what +
                             "': " + e.what());
  }
}

/// Everything up to (and including) the f32 temperature field.
struct Header {
  std::uint32_t version = 0;
  std::string arch;
  std::size_t proj_dim = 0;
  bool use_projection = true;
  std::string attr_kind;
  std::size_t mlp_hidden = 0;
  std::size_t n_attributes = 0;
  float scale = 0.0f;
};

Header read_header(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != std::string(kMagic, 4))
    throw std::runtime_error("snapshot_io: bad magic (not a .hdcsnap file)");
  const auto version = read_pod<std::uint32_t>(is, "format version");
  // Forward-only compatibility: every version up to the current one parses
  // (later versions only append records); files from a newer writer are
  // rejected rather than misread.
  if (version == 0 || version > kSnapshotVersion)
    throw std::runtime_error("snapshot_io: unsupported snapshot version " +
                             std::to_string(version) + " (this reader supports 1.." +
                             std::to_string(kSnapshotVersion) + ")");
  Header h;
  h.version = version;
  h.arch = read_string(is, "image-encoder arch");
  h.proj_dim = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "projection dim"));
  h.use_projection = read_pod<std::uint8_t>(is, "use_projection flag") != 0;
  h.attr_kind = read_string(is, "attribute-encoder kind");
  h.mlp_hidden = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "mlp hidden width"));
  h.n_attributes = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "attribute count"));
  h.scale = read_pod<float>(is, "temperature");
  return h;
}

void read_end_marker(std::istream& is) {
  char tail[4];
  is.read(tail, 4);
  if (!is || std::string(tail, 4) != std::string(kEndMarker, 4))
    throw std::runtime_error("snapshot_io: truncated file (missing end marker)");
}

/// Raw-array record body: `count` values of T (a count the caller checked
/// against the record's geometry), bounded by the bytes the stream still
/// holds before anything is allocated; a short read names the record.
template <typename T>
std::vector<T> read_array(std::istream& is, std::uint64_t count, const char* what) {
  tensor::io::check_readable(is, count, sizeof(T), what);
  std::vector<T> values(count);
  is.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!is) throw std::runtime_error(std::string("snapshot_io: truncated reading ") + what);
  return values;
}

/// The writer's side of read_array: the values' raw bytes.
template <typename T>
void write_array(std::ostream& os, const std::vector<T>& values) {
  os.write(reinterpret_cast<const char*>(values.data()),
           static_cast<std::streamsize>(values.size() * sizeof(T)));
}

/// `expected_words` is what the already-parsed store geometry implies
/// (C rows × ⌈k·d/64⌉ words/row). A corrupted count is rejected by name
/// *before* any blind allocation or read — a short (or long) word array
/// must never parse as a smaller store with trailing records misaligned.
std::vector<std::uint64_t> read_packed_words(std::istream& is, std::size_t expected_words) {
  const auto n_words = read_pod<std::uint64_t>(is, "packed word count");
  if (n_words != expected_words)
    throw std::runtime_error("snapshot_io: corrupt record 'packed word count': " +
                             std::to_string(n_words) + " words, but the prototype rows imply " +
                             std::to_string(expected_words));
  return read_array<std::uint64_t>(is, n_words, "packed binary rows");
}

/// GZSL label-space partition record (version ≥ 3): u64 seen count, then
/// ⌈C/64⌉ packed mask words. Internally consistent or rejected by name:
/// the count must match the mask popcount and tail bits must be zero.
/// Returns the per-class mask; empty when every class is seen (≡ no
/// partition, exactly how pre-v3 files load).
std::vector<std::uint8_t> read_partition(std::istream& is, std::size_t n_classes) {
  const auto n_seen = read_pod<std::uint64_t>(is, "seen-class count");
  if (n_seen > n_classes)
    throw std::runtime_error("snapshot_io: corrupt record 'seen-class count': " +
                             std::to_string(n_seen) + " seen of " +
                             std::to_string(n_classes) + " classes");
  const std::vector<std::uint64_t> words =
      read_array<std::uint64_t>(is, (n_classes + 63) / 64, "seen mask");
  const std::size_t tail = n_classes % 64;
  if (tail != 0 && (words.back() >> tail) != 0)
    throw std::runtime_error(
        "snapshot_io: corrupt record 'seen mask': bits set beyond the class count");
  std::size_t bits = 0;
  for (std::uint64_t w : words) bits += static_cast<std::size_t>(std::popcount(w));
  if (bits != n_seen)
    throw std::runtime_error("snapshot_io: corrupt record 'seen mask': popcount " +
                             std::to_string(bits) + " != seen-class count " +
                             std::to_string(n_seen));
  if (n_seen == n_classes) return {};  // all seen ≡ no partition
  std::vector<std::uint8_t> mask(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c)
    mask[c] = static_cast<std::uint8_t>((words[c / 64] >> (c % 64)) & 1);
  return mask;
}

void write_partition(std::ostream& os, const ModelSnapshot& snap) {
  const std::size_t c = snap.n_classes();
  std::vector<std::uint64_t> words((c + 63) / 64, 0);
  for (std::size_t i = 0; i < c; ++i)
    if (snap.is_seen(i)) words[i / 64] |= std::uint64_t{1} << (i % 64);
  write_pod<std::uint64_t>(os, snap.n_seen());
  write_array(os, words);
}

}  // namespace

void save_snapshot(std::ostream& os, const ModelSnapshot& snap) {
  core::ZscModel& model = *snap.model_ptr();
  auto* mlp = dynamic_cast<core::MlpAttributeEncoder*>(&model.attribute_encoder());
  auto* hdc_enc = dynamic_cast<core::HdcAttributeEncoder*>(&model.attribute_encoder());

  os.write(kMagic, 4);
  write_pod<std::uint32_t>(os, kSnapshotVersion);
  write_string(os, model.image_encoder().arch());
  write_pod<std::uint64_t>(os, model.dim());
  write_pod<std::uint8_t>(os, model.image_encoder().has_projection() ? 1 : 0);
  write_string(os, model.attribute_encoder().name());
  write_pod<std::uint64_t>(os, mlp ? mlp->hidden() : 0);
  write_pod<std::uint64_t>(os, model.attribute_encoder().n_attributes());
  write_pod<float>(os, snap.scale());

  nn::save_parameters(os, model.parameters());
  nn::save_buffers(os, model.buffers());
  write_pod<std::uint8_t>(os, hdc_enc ? 1 : 0);
  if (hdc_enc) tensor::save_tensor(os, hdc_enc->dictionary_tensor());

  tensor::save_tensor(os, snap.class_attributes());
  const PrototypeStore& store = snap.prototypes();
  write_pod<std::uint64_t>(os, store.expansion());
  write_pod<std::uint64_t>(os, store.lsh_seed());
  write_pod<float>(os, store.scale());
  // Materialize the slabs' visible prefix once for serialization.
  tensor::save_tensor(os, store.normalized_copy());
  const std::vector<std::uint64_t> packed = store.packed_copy();
  write_pod<std::uint64_t>(os, packed.size());
  write_array(os, packed);
  write_pod<std::uint64_t>(os, snap.preferred_shards());  // v2 shard-layout record
  write_partition(os, snap);                              // v3 GZSL partition record
  // v4 INT8 quantization record pair: calibration table + quantized weights.
  write_pod<std::uint8_t>(os, snap.has_quantized() ? 1 : 0);
  if (snap.has_quantized()) {
    nn::save_calibration(os, snap.quantized()->table());
    snap.quantized()->save(os);
  }
  // v5 IVF coarse-index record pair: centroids + per-row assignments (the
  // inverted-list layout and packed centroid codes are derived, not stored).
  write_pod<std::uint8_t>(os, snap.has_ivf() ? 1 : 0);
  if (snap.has_ivf()) {
    const IvfIndex& ivf = *snap.ivf();
    tensor::save_tensor(os, ivf.centroids());
    write_pod<std::uint64_t>(os, ivf.assignments().size());
    write_array(os, ivf.assignments());
  }
  // v6 evolution-lineage records: version counter, persisted auto-calibrated
  // penalty, content checksum (the delta-chain anchor — also a load-time
  // integrity check over the prototype rows + seen bytes).
  write_pod<std::uint64_t>(os, snap.store_version());
  write_pod<float>(os, snap.calibrated_penalty());
  write_pod<std::uint64_t>(os, snap.content_checksum());
  os.write(kEndMarker, 4);
  if (!os) throw std::runtime_error("save_snapshot: write failed");
}

namespace {

/// v4 quantization record pair: u8 flag, then the calibration table and the
/// quantized embed graph. The standalone table record is the artifact's
/// stated calibration; it must agree entry-for-entry with the one embedded
/// in the weights record, or the pair is rejected as inconsistent.
std::shared_ptr<const nn::QuantizedEmbed> read_quant_records(std::istream& is) {
  if (read_pod<std::uint8_t>(is, "quantization flag") == 0) return nullptr;
  const nn::CalibrationTable table = nn::load_calibration(is);
  std::shared_ptr<nn::QuantizedEmbed> quant = nn::QuantizedEmbed::load(is);
  const nn::CalibrationTable& embedded = quant->table();
  if (embedded.method != table.method ||
      embedded.activations.size() != table.activations.size())
    throw std::runtime_error(
        "snapshot_io: quantization records disagree (calibration table vs int8 weights)");
  for (std::size_t i = 0; i < table.activations.size(); ++i)
    if (table.activations[i].scale != embedded.activations[i].scale ||
        table.activations[i].zero_point != embedded.activations[i].zero_point)
      throw std::runtime_error("snapshot_io: quantization records disagree at entry " +
                               std::to_string(i));
  return quant;
}

/// v5 IVF record pair: u8 flag, then the centroid tensor and the per-row
/// assignment array. Validated against the already-parsed store geometry
/// by name before anything is adopted: the centroid width must match the
/// store dim, the assignment count must match C, and every assignment must
/// land in [0, Cc).
struct IvfRecords {
  bool present = false;
  tensor::Tensor centroids;
  std::vector<std::uint32_t> assignments;
};

IvfRecords read_ivf_records(std::istream& is, std::size_t n_classes, std::size_t dim) {
  IvfRecords r;
  if (read_pod<std::uint8_t>(is, "ivf flag") == 0) return r;
  r.centroids = read_tensor(is, "ivf centroids");
  if (r.centroids.dim() != 2 || r.centroids.size(0) == 0 || r.centroids.size(1) != dim)
    throw std::runtime_error("snapshot_io: corrupt record 'ivf centroids': " +
                             tensor::shape_str(r.centroids.shape()) + ", expected [Cc, " +
                             std::to_string(dim) + "]");
  const auto count = read_pod<std::uint64_t>(is, "ivf assignment count");
  if (count != n_classes)
    throw std::runtime_error("snapshot_io: corrupt record 'ivf assignment count': " +
                             std::to_string(count) + " assignments for " +
                             std::to_string(n_classes) + " prototype rows");
  r.assignments = read_array<std::uint32_t>(is, count, "ivf assignments");
  const std::size_t cc = r.centroids.size(0);
  for (std::uint32_t a : r.assignments)
    if (a >= cc)
      throw std::runtime_error("snapshot_io: corrupt record 'ivf assignments': value " +
                               std::to_string(a) + " out of range for " + std::to_string(cc) +
                               " centroids");
  r.present = true;
  return r;
}

/// Everything after the header: the one record reader, and so the one
/// place that knows which records each format version carries.
std::shared_ptr<ModelSnapshot> read_body(std::istream& is, const Header& h) {
  // Rebuild the architecture; every random initialization below is
  // overwritten by the parameter/buffer/dictionary records.
  util::Rng rng(0xC0FFEEULL);
  core::ImageEncoderConfig icfg;
  icfg.arch = h.arch;
  icfg.proj_dim = h.proj_dim;
  icfg.use_projection = h.use_projection;
  auto img = std::make_unique<core::ImageEncoder>(icfg, rng);
  const std::size_t d = img->dim();

  std::unique_ptr<core::AttributeEncoder> attr;
  if (h.attr_kind == "hdc") {
    // The encoder's codebook structure is irrelevant once the materialized
    // dictionary is restored below; the flattest space with the right α is
    // enough (one single-value group per attribute).
    data::AttributeSpace space = data::AttributeSpace::toy(h.n_attributes, 1, 1);
    attr = std::make_unique<core::HdcAttributeEncoder>(space, d, rng);
  } else if (h.attr_kind == "mlp") {
    attr = std::make_unique<core::MlpAttributeEncoder>(h.n_attributes, h.mlp_hidden, d, rng);
  } else {
    throw std::runtime_error("snapshot_io: unknown attribute-encoder kind '" + h.attr_kind +
                             "'");
  }

  auto model = std::make_shared<core::ZscModel>(std::move(img), std::move(attr), h.scale);
  nn::load_parameters(is, model->parameters());
  nn::load_buffers(is, model->buffers());

  const bool has_dict = read_pod<std::uint8_t>(is, "dictionary flag") != 0;
  auto* hdc_enc = dynamic_cast<core::HdcAttributeEncoder*>(&model->attribute_encoder());
  if (has_dict != (hdc_enc != nullptr))
    throw std::runtime_error("snapshot_io: dictionary record disagrees with encoder kind '" +
                             h.attr_kind + "'");
  if (hdc_enc) hdc_enc->set_dictionary(read_tensor(is, "hdc dictionary"));

  tensor::Tensor a = read_tensor(is, "class-attribute matrix");
  if (a.dim() != 2 || a.size(1) != h.n_attributes)
    throw std::runtime_error("snapshot_io: class-attribute matrix is " +
                             tensor::shape_str(a.shape()) + ", expected [C, " +
                             std::to_string(h.n_attributes) + "]");

  const auto expansion = static_cast<std::size_t>(read_pod<std::uint64_t>(is, "expansion"));
  const auto lsh_seed = read_pod<std::uint64_t>(is, "lsh seed");
  // The content checksum covers neither the store scale nor the v6
  // calibrated penalty, so both are range-checked as they are read: every
  // writer stores s = exp(log_scale) > 0 (see SimilarityKernel) and a
  // finite penalty. A NaN or infinite value would answer with NaN scores,
  // a non-positive scale would rank the farthest classes first.
  const float store_scale = read_pod<float>(is, "store scale");
  if (!std::isfinite(store_scale) || store_scale <= 0.0f)
    throw std::runtime_error("snapshot_io: corrupt record 'store scale': " +
                             std::to_string(store_scale) + " is not a positive finite scale");
  tensor::Tensor normalized = read_tensor(is, "normalized prototype rows");
  if (normalized.dim() != 2 || normalized.size(0) == 0)
    throw std::runtime_error("snapshot_io: normalized prototype rows are " +
                             tensor::shape_str(normalized.shape()) + ", expected [C, d]");
  const std::size_t n_classes = normalized.size(0);
  const std::size_t words_per_row =
      (normalized.size(1) * std::max<std::size_t>(expansion, 1) + 63) / 64;
  std::vector<std::uint64_t> packed = read_packed_words(is, n_classes * words_per_row);
  // Version-1 files predate sharding and load as S = 1 (the flat store).
  const std::size_t shards =
      h.version >= 2
          ? static_cast<std::size_t>(read_pod<std::uint64_t>(is, "preferred shard count"))
          : 1;
  // Version-1/2 files predate the GZSL partition and load with every class
  // seen (empty mask).
  std::vector<std::uint8_t> seen_mask =
      h.version >= 3 ? read_partition(is, n_classes) : std::vector<std::uint8_t>{};
  // Version-1..3 files predate quantization and load float-only.
  std::shared_ptr<const nn::QuantizedEmbed> quant =
      h.version >= 4 ? read_quant_records(is) : nullptr;
  // Version-1..4 files predate the IVF tier and load exact-only (engines
  // configured for approximate retrieval rebuild the index on demand).
  IvfRecords ivf = h.version >= 5
                       ? read_ivf_records(is, n_classes, normalized.size(1))
                       : IvfRecords{};
  // Version-1..5 files predate the evolution lineage and load with version
  // 0, no persisted calibration, and no stored checksum to validate.
  std::uint64_t store_version = 0;
  float calibrated_penalty = 0.0f;
  std::uint64_t stored_checksum = 0;
  if (h.version >= 6) {
    store_version = read_pod<std::uint64_t>(is, "store version");
    calibrated_penalty = read_pod<float>(is, "calibrated penalty");
    if (!std::isfinite(calibrated_penalty))
      throw std::runtime_error("snapshot_io: corrupt record 'calibrated penalty': " +
                               std::to_string(calibrated_penalty) + " is not finite");
    stored_checksum = read_pod<std::uint64_t>(is, "content checksum");
  }
  read_end_marker(is);

  PrototypeStore store = PrototypeStore::from_parts(std::move(normalized), std::move(packed),
                                                    store_scale, expansion, lsh_seed);
  if (store.n_classes() != a.size(0))
    throw std::runtime_error("snapshot_io: prototype store rows (" +
                             std::to_string(store.n_classes()) +
                             ") != class-attribute rows (" + std::to_string(a.size(0)) + ")");
  // The load's one pass over the prototype rows: a v6 file's stored
  // checksum is verified against it, a pre-v6 file's is computed, and the
  // snapshot adopts the value either way.
  const std::uint64_t checksum = content_checksum(store, seen_mask);
  if (h.version >= 6 && checksum != stored_checksum)
    throw std::runtime_error(
        "snapshot_io: corrupt record 'content checksum': the stored prototype rows do not "
        "hash to the stated checksum");
  auto snap = std::make_shared<ModelSnapshot>(std::move(model), std::move(a), std::move(store),
                                              shards, std::move(seen_mask), checksum);
  if (quant) snap->attach_quantized(std::move(quant));
  // The reconstituted index borrows the snapshot's own (heap-held) store.
  if (ivf.present)
    snap->attach_ivf(std::make_shared<const IvfIndex>(IvfIndex::from_parts(
        snap->prototypes(), std::move(ivf.centroids), std::move(ivf.assignments))));
  snap->set_store_version(store_version);
  snap->set_calibrated_penalty(calibrated_penalty);
  return snap;
}

}  // namespace

std::shared_ptr<ModelSnapshot> load_snapshot(std::istream& is) {
  const Header h = read_header(is);
  return read_body(is, h);
}

namespace {

/// fsync(2) of the file or directory at `path`; false, with errno set, on
/// failure.
bool sync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  errno = err;
  return ok;
}

/// Crash-safe artifact write. `write` fills a temp file in the same
/// directory as `path`; the file is closed and checked (a failed final
/// flush is an error here, where a stream's destructor would drop it),
/// fsync'ed, renamed over `path`, and the directory is fsync'ed so the
/// rename itself survives a crash. Until the rename, the previous artifact
/// at `path` is untouched. On failure the temp file is removed and the
/// error names `path`.
template <typename Write>
void write_file_atomically(const std::string& path, const char* op, Write&& write) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  const auto fail = [&](const std::string& why) {
    std::remove(tmp.c_str());
    return std::runtime_error(std::string(op) + ": cannot write " + path + ": " + why);
  };
  {
    std::ofstream f(tmp, std::ios::binary);
    if (!f) throw fail("cannot create temp file " + tmp);
    try {
      write(f);
    } catch (const std::exception& e) {
      throw fail(e.what());
    }
    f.close();
    if (!f) throw fail("write failed");
  }
  if (!sync_path(tmp, O_WRONLY)) throw fail(std::string("fsync: ") + std::strerror(errno));
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw fail(std::string("rename: ") + std::strerror(errno));
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (!sync_path(dir.empty() ? "." : dir.string(), O_RDONLY | O_DIRECTORY))
    throw std::runtime_error(std::string(op) + ": wrote " + path +
                             " but could not fsync its directory: " + std::strerror(errno));
}

}  // namespace

void save_snapshot_file(const std::string& path, const ModelSnapshot& snap) {
  write_file_atomically(path, "save_snapshot_file",
                        [&](std::ostream& os) { save_snapshot(os, snap); });
}

std::shared_ptr<ModelSnapshot> load_snapshot_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_snapshot_file: cannot open " + path);
  return load_snapshot(f);
}

SnapshotInfo inspect_snapshot(std::istream& is) {
  const Header h = read_header(is);
  const std::shared_ptr<const ModelSnapshot> snap = read_body(is, h);
  SnapshotInfo info;
  info.version = h.version;
  info.arch = h.arch;
  info.proj_dim = h.proj_dim;
  info.use_projection = h.use_projection;
  info.attribute_encoder = h.attr_kind;
  info.mlp_hidden = h.mlp_hidden;
  info.n_attributes = h.n_attributes;
  info.scale = h.scale;

  core::ZscModel& model = *snap->model_ptr();
  for (const nn::Parameter* p : model.parameters()) info.param_elements += p->value.numel();
  info.param_records = model.parameters().size();
  info.has_dictionary =
      dynamic_cast<const core::HdcAttributeEncoder*>(&model.attribute_encoder()) != nullptr;

  const PrototypeStore& store = snap->prototypes();
  info.n_classes = store.n_classes();
  info.dim = store.dim();
  info.expansion = store.expansion();
  info.code_bits = store.code_bits();
  info.float_bytes = store.float_bytes();
  info.binary_bytes = store.binary_bytes();
  info.preferred_shards = snap->preferred_shards();
  info.has_partition = snap->has_partition();
  info.n_seen = snap->n_seen();
  if (snap->has_quantized()) {
    const nn::QuantizedEmbed::QuantInfo qi = snap->quantized()->info();
    info.has_quant = true;
    info.quant_method = nn::calib_method_name(qi.method);
    info.quant_conv = qi.n_conv;
    info.quant_linear = qi.n_linear;
    info.quant_weight_bytes = qi.weight_bytes;
  }
  if (snap->has_ivf()) {
    const IvfIndex& ivf = *snap->ivf();
    info.has_ivf = true;
    info.n_centroids = ivf.n_centroids();
    for (std::size_t c = 0; c < info.n_centroids; ++c)
      info.ivf_list_sizes.push_back(ivf.list_size(c));
  }
  info.store_version = snap->store_version();
  info.calibrated_penalty = snap->calibrated_penalty();
  info.content_checksum = snap->content_checksum();
  return info;
}

SnapshotInfo inspect_snapshot_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("inspect_snapshot_file: cannot open " + path);
  return inspect_snapshot(f);
}

// -- delta snapshots ("HDCD") -------------------------------------------------

SnapshotDelta make_delta(const StoreVersion& base, const StoreVersion& next) {
  if (!base.store || !next.store)
    throw std::invalid_argument("make_delta: null store version");
  const std::size_t base_rows = base.n_classes();
  const std::size_t next_rows = next.n_classes();
  const std::size_t d = base.store->dim();
  if (next_rows <= base_rows || next.store->dim() != d ||
      next.version <= base.version)
    throw std::invalid_argument(
        "make_delta: 'next' (version " + std::to_string(next.version) + ", " +
        std::to_string(next_rows) + " classes) does not extend 'base' (version " +
        std::to_string(base.version) + ", " + std::to_string(base_rows) + " classes)");
  const std::size_t n = next_rows - base_rows;
  const std::size_t wpr = next.store->words_per_row();
  const std::size_t alpha = next.class_attributes.size(1);

  SnapshotDelta delta;
  delta.base_rows = base_rows;
  delta.base_version = base.version;
  delta.base_checksum = base.content_checksum;
  delta.new_checksum = next.content_checksum;

  delta.attributes = tensor::Tensor({n, alpha});
  std::copy(next.class_attributes.data() + base_rows * alpha,
            next.class_attributes.data() + next_rows * alpha, delta.attributes.data());
  delta.normalized_rows = tensor::Tensor({n, d});
  std::copy(next.store->float_rows() + base_rows * d, next.store->float_rows() + next_rows * d,
            delta.normalized_rows.data());
  delta.packed_words.assign(next.store->packed_data() + base_rows * wpr,
                            next.store->packed_data() + next_rows * wpr);
  // Seen flags are written explicitly (empty means "all unseen" on apply,
  // which is only the default, not necessarily next's actual partition).
  delta.seen_flags.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    delta.seen_flags[i] = next.is_seen(base_rows + i) ? 1 : 0;
  if (next.ivf) {
    delta.has_ivf = true;
    delta.ivf_assignments.assign(next.ivf->assignments().begin() +
                                     static_cast<std::ptrdiff_t>(base_rows),
                                 next.ivf->assignments().end());
  }
  return delta;
}

void save_delta(std::ostream& os, const SnapshotDelta& delta) {
  const std::size_t n = delta.n_new();
  if (n == 0) throw std::invalid_argument("save_delta: delta appends no rows");
  os.write(kDeltaMagic, 4);
  write_pod<std::uint32_t>(os, kDeltaVersion);
  write_pod<std::uint64_t>(os, delta.base_rows);
  write_pod<std::uint64_t>(os, delta.base_version);
  write_pod<std::uint64_t>(os, delta.base_checksum);
  tensor::save_tensor(os, delta.attributes);
  tensor::save_tensor(os, delta.normalized_rows);
  write_pod<std::uint64_t>(os, delta.packed_words.size());
  write_array(os, delta.packed_words);
  write_pod<std::uint64_t>(os, delta.seen_flags.size());
  write_array(os, delta.seen_flags);
  write_pod<std::uint8_t>(os, delta.has_ivf ? 1 : 0);
  if (delta.has_ivf) {
    write_pod<std::uint64_t>(os, delta.ivf_assignments.size());
    write_array(os, delta.ivf_assignments);
  }
  write_pod<std::uint64_t>(os, delta.new_checksum);
  os.write(kEndMarker, 4);
  if (!os) throw std::runtime_error("save_delta: write failed");
}

void save_delta_file(const std::string& path, const SnapshotDelta& delta) {
  write_file_atomically(path, "save_delta_file",
                        [&](std::ostream& os) { save_delta(os, delta); });
}

SnapshotDelta load_delta(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != std::string(kDeltaMagic, 4))
    throw std::runtime_error("snapshot_io: bad magic (not a .hdcdelta file)");
  const auto version = read_pod<std::uint32_t>(is, "delta format version");
  if (version == 0 || version > kDeltaVersion)
    throw std::runtime_error("snapshot_io: unsupported delta version " +
                             std::to_string(version) + " (this reader supports 1.." +
                             std::to_string(kDeltaVersion) + ")");
  SnapshotDelta delta;
  delta.base_rows = read_pod<std::uint64_t>(is, "delta base rows");
  delta.base_version = read_pod<std::uint64_t>(is, "delta base version");
  delta.base_checksum = read_pod<std::uint64_t>(is, "delta base checksum");
  delta.attributes = read_tensor(is, "delta class-attribute rows");
  delta.normalized_rows = read_tensor(is, "delta normalized rows");
  if (delta.normalized_rows.dim() != 2 || delta.normalized_rows.size(0) == 0)
    throw std::runtime_error("snapshot_io: delta normalized rows are " +
                             tensor::shape_str(delta.normalized_rows.shape()) +
                             ", expected [n, d]");
  const std::size_t n = delta.normalized_rows.size(0);
  if (delta.attributes.dim() != 2 || delta.attributes.size(0) != n)
    throw std::runtime_error(
        "snapshot_io: delta class-attribute rows disagree with the normalized rows");
  const auto n_words = read_pod<std::uint64_t>(is, "delta packed word count");
  // The base's store geometry (expansion → words/row) is unknown until
  // apply time; here the count only needs to be row-divisible and honest
  // about the remaining bytes.
  if (n_words == 0 || n_words % n != 0)
    throw std::runtime_error("snapshot_io: corrupt record 'delta packed word count': " +
                             std::to_string(n_words) + " words for " + std::to_string(n) +
                             " rows");
  delta.packed_words = read_array<std::uint64_t>(is, n_words, "delta packed rows");
  const auto n_flags = read_pod<std::uint64_t>(is, "delta seen-flag count");
  if (n_flags != 0 && n_flags != n)
    throw std::runtime_error("snapshot_io: corrupt record 'delta seen-flag count': " +
                             std::to_string(n_flags) + " flags for " + std::to_string(n) +
                             " rows");
  delta.seen_flags = read_array<std::uint8_t>(is, n_flags, "delta seen flags");
  delta.has_ivf = read_pod<std::uint8_t>(is, "delta ivf flag") != 0;
  if (delta.has_ivf) {
    const auto count = read_pod<std::uint64_t>(is, "delta ivf assignment count");
    if (count != n)
      throw std::runtime_error("snapshot_io: corrupt record 'delta ivf assignment count': " +
                               std::to_string(count) + " assignments for " +
                               std::to_string(n) + " rows");
    delta.ivf_assignments = read_array<std::uint32_t>(is, count, "delta ivf assignments");
  }
  delta.new_checksum = read_pod<std::uint64_t>(is, "delta new checksum");
  read_end_marker(is);
  return delta;
}

SnapshotDelta load_delta_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_delta_file: cannot open " + path);
  return load_delta(f);
}

bool is_delta_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  char magic[4];
  f.read(magic, 4);
  return f && std::string(magic, 4) == std::string(kDeltaMagic, 4);
}

VersionParts apply_delta(const LineageHead& head, const SnapshotDelta& delta,
                         const std::string& context) {
  const auto reject = [&](const std::string& why) {
    return std::invalid_argument(context + ": " + why);
  };
  const std::size_t rows = head.store.n_classes(), n = delta.n_new();
  const auto n_rows = [n](std::size_t got) {
    return std::to_string(got) + " for " + std::to_string(n) + " rows";
  };
  if (delta.base_rows != rows || delta.base_version != head.version)
    throw reject("delta base (version " + std::to_string(delta.base_version) + ", " +
                 std::to_string(delta.base_rows) + " classes) is not the head (version " +
                 std::to_string(head.version) + ", " + std::to_string(rows) + " classes)");
  if (delta.base_checksum != head.content_checksum)
    throw reject("delta base content checksum differs from the head's");
  if (n == 0 || delta.normalized_rows.size(1) != head.store.dim() ||
      delta.packed_words.size() != n * head.store.words_per_row())
    throw reject("delta prototype rows " + tensor::shape_str(delta.normalized_rows.shape()) +
                 " with " + std::to_string(delta.packed_words.size()) +
                 " packed words do not fit the store");
  if (delta.attributes.dim() != 2 || delta.attributes.size(0) != n ||
      delta.attributes.size(1) != head.class_attributes.size(1))
    throw reject("delta class-attribute rows are " +
                 tensor::shape_str(delta.attributes.shape()) + ", expected [" +
                 std::to_string(n) + ", " + std::to_string(head.class_attributes.size(1)) + "]");
  if (!delta.seen_flags.empty() && delta.seen_flags.size() != n)
    throw reject("delta seen-flag count: " + n_rows(delta.seen_flags.size()));
  if (delta.has_ivf && delta.ivf_assignments.size() != n)
    throw reject("delta ivf assignment count: " + n_rows(delta.ivf_assignments.size()));
  if (head.ivf_centroids && delta.has_ivf)
    for (std::uint32_t a : delta.ivf_assignments)
      if (a >= head.ivf_centroids->size(0))
        throw reject("delta ivf assignments: centroid " + std::to_string(a) + " out of range");

  // Adopt the serialized rows verbatim — bitwise what the writer appended —
  // and hash only the new rows: the chained checksum is the delta's
  // end-state check and the next version's checksum at once.
  PrototypeStore store = head.store.append_parts(delta.normalized_rows, delta.packed_words);
  std::vector<std::uint8_t> mask = extend_seen_mask(head.seen_mask, rows, delta.seen_flags, n);
  const std::uint64_t checksum =
      extend_content_checksum(head.content_checksum, store, mask, rows);
  if (checksum != delta.new_checksum)
    throw std::runtime_error(context + ": content checksum mismatch after append");

  std::vector<std::uint32_t> assignments;
  if (head.ivf_centroids && delta.has_ivf) {
    assignments.reserve(rows + n);
    assignments.assign(head.ivf_assignments->begin(), head.ivf_assignments->end());
    assignments.insert(assignments.end(), delta.ivf_assignments.begin(),
                       delta.ivf_assignments.end());
  } else if (head.ivf_centroids) {
    assignments = extend_ivf_assignments(*head.ivf_centroids, *head.ivf_assignments, store, rows);
  }
  return VersionParts{std::move(store), std::move(mask),
                      tensor::concat_rows(head.class_attributes, delta.attributes),
                      std::move(assignments), checksum, head.version + 1};
}

std::shared_ptr<ModelSnapshot> compact_snapshot(const ModelSnapshot& base,
                                                const std::vector<SnapshotDelta>& deltas) {
  // The chain's store shares slabs with the base (copy-on-write); the IVF
  // lists are built once, from the end state's assignments.
  const IvfIndex* ivf = base.ivf().get();
  VersionParts chain{base.prototypes(), base.seen_mask(), base.class_attributes(),
                     ivf ? ivf->assignments() : std::vector<std::uint32_t>{},
                     base.content_checksum(), base.store_version()};
  for (std::size_t i = 0; i < deltas.size(); ++i)
    chain = apply_delta(LineageHead{.store = chain.store,
                                    .seen_mask = chain.seen_mask,
                                    .class_attributes = chain.class_attributes,
                                    .ivf_centroids = ivf ? &ivf->centroids() : nullptr,
                                    .ivf_assignments = ivf ? &chain.ivf_assignments : nullptr,
                                    .content_checksum = chain.content_checksum,
                                    .version = chain.version},
                        deltas[i], "compact_snapshot: delta " + std::to_string(i));

  auto snap = std::make_shared<ModelSnapshot>(
      base.model_ptr(), std::move(chain.class_attributes), std::move(chain.store),
      base.preferred_shards(), std::move(chain.seen_mask), chain.content_checksum);
  if (base.has_quantized()) snap->attach_quantized(base.quantized());
  if (ivf)
    snap->attach_ivf(std::make_shared<const IvfIndex>(IvfIndex::from_parts(
        snap->prototypes(), ivf->centroids(), std::move(chain.ivf_assignments))));
  snap->set_store_version(chain.version);
  snap->set_calibrated_penalty(base.calibrated_penalty());
  return snap;
}

}  // namespace hdczsc::serve
