// Snapshot persistence + multi-model registry: a .hdcsnap round trip must
// be bit-identical on both scoring paths (the float GEMM *and* the packed
// binary rows), corrupt/truncated files must throw naming the offending
// record without ever registering a half-loaded model, and the registry
// must keep serving while models are hot-loaded/unloaded around it.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "core/zsc_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/snapshot_io.hpp"
#include "tensor/ops.hpp"

namespace hdczsc {
namespace {

using nn::Tensor;

/// A cheap *untrained* model is enough for persistence tests — bit-identity
/// does not care about accuracy. A couple of train-mode forwards move the
/// BatchNorm running statistics off their init so the buffer records are
/// actually load-bearing.
struct Tiny {
  std::shared_ptr<core::ZscModel> model;
  Tensor a;  // class-attribute rows [C, α]
};

Tiny make_tiny(std::uint64_t seed, const std::string& attr_kind = "hdc",
               std::size_t n_classes = 7) {
  auto space = data::AttributeSpace::toy(6, 3, 9);  // α = 18
  core::ZscModelConfig mcfg;
  mcfg.image.arch = "resnet_micro_flat";
  mcfg.image.proj_dim = 64;
  mcfg.attribute_encoder = attr_kind;
  mcfg.mlp_hidden = 32;
  util::Rng rng(seed);
  Tiny t;
  t.model = core::make_zsc_model(mcfg, space, rng);
  util::Rng ir(seed + 1);
  for (int i = 0; i < 2; ++i)
    t.model->image_encoder().forward(Tensor::randn({4, 3, 32, 32}, ir), /*train=*/true);
  t.a = Tensor::rand_uniform({n_classes, space.n_attributes()}, ir);
  return t;
}

Tensor probe_images(std::size_t n, std::uint64_t seed = 0xBEEFULL) {
  util::Rng rng(seed);
  return Tensor::randn({n, 3, 32, 32}, rng);
}

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// -- round trips -------------------------------------------------------------

TEST(SnapshotIO, FloatPathRoundTripIsBitIdentical) {
  Tiny t = make_tiny(11);
  serve::ModelSnapshot original(t.model, t.a, /*binary_expansion=*/1);
  const std::string path = temp_path("roundtrip_float.hdcsnap");
  serve::save_snapshot_file(path, original);
  auto loaded = serve::load_snapshot_file(path);

  EXPECT_EQ(loaded->n_classes(), original.n_classes());
  EXPECT_EQ(loaded->dim(), original.dim());
  EXPECT_EQ(loaded->scale(), original.scale());
  EXPECT_EQ(tensor::max_abs_diff(loaded->class_attributes(), original.class_attributes()),
            0.0f);

  // The full serving forward — image encoder (incl. BatchNorm running
  // stats) + normalized prototype GEMM — must reproduce bit-for-bit.
  const Tensor probe = probe_images(6);
  const Tensor expected = original.prototypes().score_float(original.embed(probe));
  const Tensor actual = loaded->prototypes().score_float(loaded->embed(probe));
  EXPECT_EQ(tensor::max_abs_diff(expected, actual), 0.0f)
      << "persisted snapshot diverged from the in-memory one on the float path";

  // Packed binary rows travel verbatim.
  EXPECT_EQ(loaded->prototypes().packed_copy(), original.prototypes().packed_copy());

  // BatchNorm running statistics made the trip (they are not Parameters).
  auto orig_bufs = t.model->buffers();
  auto load_bufs = loaded->model_ptr()->buffers();
  ASSERT_EQ(orig_bufs.size(), load_bufs.size());
  ASSERT_GT(orig_bufs.size(), 0u);
  for (std::size_t i = 0; i < orig_bufs.size(); ++i) {
    EXPECT_EQ(orig_bufs[i].name, load_bufs[i].name);
    EXPECT_EQ(tensor::max_abs_diff(*orig_bufs[i].tensor, *load_bufs[i].tensor), 0.0f)
        << orig_bufs[i].name;
  }
}

TEST(SnapshotIO, BinaryPathRoundTripWithLshExpansion) {
  Tiny t = make_tiny(13);
  serve::ModelSnapshot original(t.model, t.a, /*binary_expansion=*/4);
  const std::string path = temp_path("roundtrip_lsh.hdcsnap");
  serve::save_snapshot_file(path, original);
  auto loaded = serve::load_snapshot_file(path);

  EXPECT_EQ(loaded->prototypes().expansion(), 4u);
  EXPECT_EQ(loaded->prototypes().code_bits(), original.prototypes().code_bits());
  EXPECT_EQ(loaded->prototypes().packed_copy(), original.prototypes().packed_copy());

  // Binary scoring uses the query-side LSH projection, regenerated from the
  // persisted seed — it must give bit-identical Hamming logits.
  const Tensor probe = probe_images(5);
  const Tensor expected = original.prototypes().score_binary(original.embed(probe));
  const Tensor actual = loaded->prototypes().score_binary(loaded->embed(probe));
  EXPECT_EQ(tensor::max_abs_diff(expected, actual), 0.0f);
}

TEST(SnapshotIO, HdcDictionarySurvivesReload) {
  // The stationary dictionary is seed-derived, not a Parameter; the loaded
  // model must still encode *new* attribute rows exactly like the original
  // (GZSL-style label-space extension after cold start).
  Tiny t = make_tiny(17);
  serve::ModelSnapshot original(t.model, t.a);
  const std::string path = temp_path("dict.hdcsnap");
  serve::save_snapshot_file(path, original);
  auto loaded = serve::load_snapshot_file(path);

  util::Rng rng(99);
  Tensor fresh_rows = Tensor::rand_uniform({3, t.a.size(1)}, rng);
  Tensor expected = t.model->attribute_encoder().encode(fresh_rows, /*train=*/false);
  Tensor actual =
      loaded->model_ptr()->attribute_encoder().encode(fresh_rows, /*train=*/false);
  EXPECT_EQ(tensor::max_abs_diff(expected, actual), 0.0f);

  // Only the materialized tensor is persisted; the factored codebook view
  // must refuse to hand out its (stale) placeholder on a restored encoder.
  auto* restored =
      dynamic_cast<core::HdcAttributeEncoder*>(&loaded->model_ptr()->attribute_encoder());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(tensor::max_abs_diff(
                restored->dictionary_tensor(),
                dynamic_cast<core::HdcAttributeEncoder&>(t.model->attribute_encoder())
                    .dictionary_tensor()),
            0.0f);
  EXPECT_THROW(restored->dictionary(), std::logic_error);
}

TEST(SnapshotIO, MlpEncoderRoundTripsThroughParameters) {
  Tiny t = make_tiny(19, "mlp");
  serve::ModelSnapshot original(t.model, t.a);
  const std::string path = temp_path("mlp.hdcsnap");
  serve::save_snapshot_file(path, original);
  auto loaded = serve::load_snapshot_file(path);

  const Tensor probe = probe_images(4);
  Tensor expected = t.model->class_logits(probe, t.a, /*train=*/false);
  Tensor actual = loaded->model_ptr()->class_logits(probe, t.a, /*train=*/false);
  EXPECT_EQ(tensor::max_abs_diff(expected, actual), 0.0f);
}

TEST(SnapshotIO, InspectReportsTheHeader) {
  Tiny t = make_tiny(23);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/2);
  const std::string path = temp_path("inspect.hdcsnap");
  serve::save_snapshot_file(path, snap);

  const serve::SnapshotInfo info = serve::inspect_snapshot_file(path);
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_EQ(info.arch, "resnet_micro_flat");
  EXPECT_EQ(info.proj_dim, 64u);
  EXPECT_EQ(info.attribute_encoder, "hdc");
  EXPECT_TRUE(info.has_dictionary);
  EXPECT_EQ(info.n_attributes, 18u);
  EXPECT_EQ(info.n_classes, 7u);
  EXPECT_EQ(info.dim, 64u);
  EXPECT_EQ(info.expansion, 2u);
  EXPECT_EQ(info.code_bits, 128u);
  EXPECT_GT(info.param_records, 0u);
  EXPECT_GT(info.param_elements, 100000u);  // the 2048x64 projection alone
}

// -- corruption and truncation -----------------------------------------------

TEST(SnapshotIO, RejectsBadMagic) {
  Tiny t = make_tiny(29);
  serve::ModelSnapshot snap(t.model, t.a);
  const std::string path = temp_path("magic.hdcsnap");
  serve::save_snapshot_file(path, snap);

  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  try {
    serve::load_snapshot_file(path);
    FAIL() << "expected load to reject the corrupt magic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST(SnapshotIO, RejectsUnsupportedVersion) {
  Tiny t = make_tiny(31);
  serve::ModelSnapshot snap(t.model, t.a);
  const std::string path = temp_path("version.hdcsnap");
  serve::save_snapshot_file(path, snap);

  std::string bytes = read_file(path);
  bytes[4] = 99;  // u32 version field, little-endian low byte
  write_file(path, bytes);
  try {
    serve::load_snapshot_file(path);
    FAIL() << "expected load to reject the future version";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(SnapshotIO, TruncationAlwaysThrowsAndNamesTheRecord) {
  Tiny t = make_tiny(37);
  serve::ModelSnapshot snap(t.model, t.a);
  const std::string path = temp_path("trunc.hdcsnap");
  serve::save_snapshot_file(path, snap);
  const std::string bytes = read_file(path);

  for (double frac : {0.02, 0.2, 0.5, 0.8, 0.97}) {
    const auto cut = static_cast<std::size_t>(static_cast<double>(bytes.size()) * frac);
    const std::string cut_path = temp_path("trunc_cut.hdcsnap");
    write_file(cut_path, bytes.substr(0, cut));
    EXPECT_THROW(serve::load_snapshot_file(cut_path), std::runtime_error)
        << "truncation at " << frac << " must not load";
  }

  // The parameter block dominates the file; a mid-file cut must name the
  // record it was reading, not just fail generically.
  const std::string cut_path = temp_path("trunc_mid.hdcsnap");
  write_file(cut_path, bytes.substr(0, bytes.size() / 2));
  try {
    serve::load_snapshot_file(cut_path);
    FAIL() << "expected truncated load to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record"), std::string::npos) << e.what();
  }

  // Cutting just the end marker is caught by the trailer tripwire.
  const std::string tail_path = temp_path("trunc_tail.hdcsnap");
  write_file(tail_path, bytes.substr(0, bytes.size() - 2));
  EXPECT_THROW(serve::load_snapshot_file(tail_path), std::runtime_error);
}

TEST(SnapshotIO, TruncationAtEveryRecordBoundaryThrowsNeverReadsShort) {
  // Regression sweep for every record boundary — and every byte inside the
  // serving-artifact tail, which packs the expansion/seed/scale fields,
  // the prototype rows, the v2 shard record, the v3 partition record and
  // the end marker into its last ~2 KiB. A cut must *always* throw; a
  // loader that reads short would come back with a half-initialized
  // snapshot instead. The parameter block (hundreds of KiB) is swept at a
  // coarse stride; cuts land inside records as well as on their seams.
  Tiny t = make_tiny(61, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/2);
  std::stringstream full;
  serve::save_snapshot(full, snap);
  const std::string bytes = full.str();
  ASSERT_GT(bytes.size(), 4096u);

  std::vector<std::size_t> cuts;
  for (std::size_t off = 0; off < bytes.size() - 2048; off += 1499) cuts.push_back(off);
  for (std::size_t off = bytes.size() - 2048; off < bytes.size(); ++off) cuts.push_back(off);

  for (std::size_t cut : cuts) {
    std::istringstream in(bytes.substr(0, cut));
    try {
      serve::load_snapshot(in);
      FAIL() << "truncation at byte " << cut << " of " << bytes.size() << " loaded anyway";
    } catch (const std::runtime_error&) {
      // Expected: every cut throws; which record it names depends on where
      // the cut landed.
    }
    // inspect_snapshot reads through the same record reader and must be
    // exactly as strict.
    std::istringstream in2(bytes.substr(0, cut));
    EXPECT_THROW(serve::inspect_snapshot(in2), std::runtime_error) << "inspect at " << cut;
  }
}

TEST(SnapshotIO, CorruptPackedWordCountRejectedBeforeReadingShort) {
  // The packed-row count is implied by the already-parsed store geometry
  // (C rows × words/row); a corrupted count must be rejected by name
  // *before* the loader blindly reads (or allocates) that many words and
  // misparses every record after them.
  Tiny t = make_tiny(67, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/1);  // d=64 ⇒ 1 word/row
  std::stringstream full;
  serve::save_snapshot(full, snap);
  std::string bytes = full.str();

  // Tail layout (fixed widths, back to front): "PANS" | v6 lineage records
  // (u64 store version + f32 penalty + u64 checksum = 20 bytes) | has_ivf
  // u8 (0) | has_quant u8 (0, no quant records follow) | 1 mask word |
  // n_seen u64 | shards u64 | 7 packed words | packed count u64.
  const std::size_t count_off = bytes.size() - 4 - 20 - 1 - 1 - 8 - 8 - 8 - 7 * 8 - 8;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + count_off, 8);
  ASSERT_EQ(count, 7u) << "tail-layout arithmetic drifted from the format";

  for (std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{6}, std::uint64_t{8},
                            std::uint64_t{1} << 27}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + count_off, &bad, 8);
    std::istringstream in(corrupt);
    try {
      serve::load_snapshot(in);
      FAIL() << "corrupt packed word count " << bad << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("packed word count"), std::string::npos)
          << e.what();
    }
  }
}

// -- v4 quantization records -------------------------------------------------

TEST(SnapshotIO, QuantizedV4RoundTripServesInt8) {
  Tiny t = make_tiny(71, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot original(t.model, t.a, /*binary_expansion=*/2);
  util::Rng rng(72);
  original.quantize(Tensor::randn({24, 3, 32, 32}, rng), nn::CalibMethod::kMinMax);
  ASSERT_TRUE(original.has_quantized());

  const std::string path = temp_path("quant_v4.hdcsnap");
  serve::save_snapshot_file(path, original);
  auto loaded = serve::load_snapshot_file(path);
  ASSERT_TRUE(loaded->has_quantized());

  // Integer weights and qparams travel exactly, so the int8 embed path —
  // and everything float alongside it — must reproduce bit-for-bit.
  const Tensor probe = probe_images(5, 0xA1CEULL);
  EXPECT_EQ(tensor::max_abs_diff(original.embed_int8(probe), loaded->embed_int8(probe)),
            0.0f);
  EXPECT_EQ(tensor::max_abs_diff(original.embed(probe), loaded->embed(probe)), 0.0f);

  // inspect_snapshot surfaces the quantization block of the loaded snapshot.
  std::ifstream f(path, std::ios::binary);
  const auto info = serve::inspect_snapshot(f);
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_TRUE(info.has_quant);
  EXPECT_EQ(info.quant_method, "minmax");
  EXPECT_EQ(info.quant_conv, original.quantized()->info().n_conv);
  EXPECT_EQ(info.quant_linear, original.quantized()->info().n_linear);
  EXPECT_GT(info.quant_weight_bytes, 0u);
}

TEST(SnapshotIO, CrossVersionLoadMatrixV1ToV6) {
  // One snapshot, every on-disk generation: a current (unquantized, no
  // IVF) v6 file shrinks to a byte-genuine v5 / v4 / v3 / v2 / v1 by
  // stripping exactly the records each version appended — v6 the 20-byte
  // lineage block (u64 version + f32 penalty + u64 checksum), v5 one u8
  // has_ivf flag, v4 one u8 has_quant flag, v3 one u64 seen count +
  // ⌈7/64⌉ = 1 mask word, v2 one u64 shard record — and rewriting the u32
  // version field. Every generation must load, agree on its version via
  // inspect, and score bit-identically to the v6 file.
  Tiny t = make_tiny(73, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/2);
  std::stringstream full;
  serve::save_snapshot(full, snap);
  const std::string v6 = full.str();
  ASSERT_EQ(v6.substr(v6.size() - 4), "PANS");

  auto downgrade = [&](std::uint32_t version, std::size_t strip) {
    std::string bytes = v6;
    bytes.erase(bytes.size() - 4 - strip, strip);
    bytes.replace(4, 4, reinterpret_cast<const char*>(&version), 4);
    return bytes;
  };
  const std::vector<std::pair<std::uint32_t, std::string>> matrix = {
      {6, v6},
      {5, downgrade(5, 20)},
      {4, downgrade(4, 21)},
      {3, downgrade(3, 22)},
      {2, downgrade(2, 38)},
      {1, downgrade(1, 46)}};

  const Tensor probe = probe_images(4, 0xC0DEULL);
  const Tensor want = snap.prototypes().score_float(snap.embed(probe));
  for (const auto& [version, bytes] : matrix) {
    std::istringstream in(bytes);
    auto loaded = serve::load_snapshot(in);
    EXPECT_FALSE(loaded->has_quantized()) << "v" << version;
    EXPECT_EQ(tensor::max_abs_diff(loaded->prototypes().score_float(loaded->embed(probe)),
                                   want),
              0.0f)
        << "v" << version << " scores diverged";
    EXPECT_FALSE(loaded->has_ivf()) << "v" << version;

    // The loader hashes the rows once (verifying v6, computing v1..v5) and
    // every consumer adopts that value: an engine's version 0, and the
    // next save — which reproduces the current-format file byte for byte.
    const std::uint64_t want_sum =
        serve::content_checksum(loaded->prototypes(), loaded->seen_mask());
    EXPECT_EQ(loaded->content_checksum(), want_sum) << "v" << version;
    EXPECT_EQ(loaded->content_checksum(), snap.content_checksum()) << "v" << version;
    const serve::InferenceEngine engine(loaded);
    EXPECT_EQ(engine.pin()->content_checksum, want_sum) << "v" << version;
    std::stringstream resaved;
    serve::save_snapshot(resaved, *loaded);
    EXPECT_TRUE(resaved.str() == v6) << "v" << version << " save -> load -> save drifted";

    std::istringstream in2(bytes);
    const auto info = serve::inspect_snapshot(in2);
    EXPECT_EQ(info.version, version);
    EXPECT_FALSE(info.has_quant) << "v" << version;
  }
}

TEST(SnapshotIO, TruncationInsideQuantRecordsAlwaysThrows) {
  // The v4 tail appends two records (standalone calibration table +
  // self-contained int8 weights blob) after the has_quant flag. Saving the
  // same snapshot with and without the artifact brackets that region
  // exactly; a cut anywhere inside it must throw — for load_snapshot AND
  // inspect_snapshot — never read short.
  Tiny t = make_tiny(79, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/1);
  std::stringstream bare;
  serve::save_snapshot(bare, snap);
  // Quant records sit between the has_quant flag and the v5 has_ivf flag,
  // so in the unquantized file their future position is 5 bytes from the
  // end (has_ivf u8 + "PANS").
  const std::size_t quant_begin = bare.str().size() - 4 - 1;

  util::Rng rng(80);
  snap.quantize(Tensor::randn({16, 3, 32, 32}, rng), nn::CalibMethod::kEntropy);
  std::stringstream full;
  serve::save_snapshot(full, snap);
  const std::string bytes = full.str();
  ASSERT_GT(bytes.size(), quant_begin + 4096);

  std::vector<std::size_t> cuts;
  for (std::size_t off = quant_begin; off < bytes.size(); off += 211) cuts.push_back(off);
  for (std::size_t off = bytes.size() - 256; off < bytes.size(); ++off) cuts.push_back(off);
  for (std::size_t cut : cuts) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_THROW(serve::load_snapshot(in), std::runtime_error) << "cut at " << cut;
    std::istringstream in2(bytes.substr(0, cut));
    EXPECT_THROW(serve::inspect_snapshot(in2), std::runtime_error) << "inspect at " << cut;
  }
}

TEST(SnapshotIO, QuantRecordCorruptionNeverLoadsQuietly) {
  // Flip single bytes across the calibration-table record: whatever the
  // byte hits — method id, entry count, a scale, a zero point — the loader
  // must reject (bad qparams or a standalone/embedded table disagreement),
  // never attach a silently different artifact.
  Tiny t = make_tiny(83, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/1);
  std::stringstream bare;
  serve::save_snapshot(bare, snap);
  // Standalone table starts right after has_quant — 5 bytes from the end
  // of the bare file (v5 has_ivf u8 + "PANS").
  const std::size_t table_off = bare.str().size() - 4 - 1;

  util::Rng rng(84);
  snap.quantize(Tensor::randn({16, 3, 32, 32}, rng));
  std::stringstream full;
  serve::save_snapshot(full, snap);
  const std::string bytes = full.str();

  const std::size_t table_bytes = 1 + 8 + snap.quantized()->table().activations.size() * 12;
  for (std::size_t off = table_off; off < table_off + table_bytes; off += 5) {
    std::string corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    std::istringstream in(corrupt);
    EXPECT_THROW(serve::load_snapshot(in), std::runtime_error)
        << "flipped byte at " << off << " loaded anyway";
  }
}

// -- crash-safe saves --------------------------------------------------------

/// Caps the size of any file this process writes (RLIMIT_FSIZE) with
/// SIGXFSZ ignored, so a write past the cap fails with EFBIG instead of
/// killing the process — the disk filling up mid-save. Restores the limit
/// and the signal's disposition on scope exit.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ok_ = getrlimit(RLIMIT_FSIZE, &old_limit_) == 0 &&
          sigaction(SIGXFSZ, &ignore, &old_action_) == 0;
    rlimit capped = old_limit_;
    capped.rlim_cur = bytes;
    ok_ = ok_ && setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    setrlimit(RLIMIT_FSIZE, &old_limit_);
    sigaction(SIGXFSZ, &old_action_, nullptr);
  }
  bool ok() const { return ok_; }

 private:
  rlimit old_limit_{};
  struct sigaction old_action_ {};
  bool ok_ = false;
};

/// An empty directory of its own, so leftover temp files are visible.
std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> dir_entries(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

/// Saves `next` over the artifact at `path` with the file size capped 9
/// bytes short of it: the save must throw naming `path`, leave the bytes
/// already at `path` as they were, and leave no temp file in `dir`.
template <typename Save>
void expect_failed_save_keeps_previous(const std::filesystem::path& dir,
                                       const std::string& path, std::size_t next_bytes,
                                       Save&& save) {
  const std::string previous = read_file(path);
  {
    FileSizeCap cap(next_bytes - 9);
    ASSERT_TRUE(cap.ok());
    try {
      save();
      ADD_FAILURE() << "a save cut short by the file-size limit reported success";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
  const std::string after = read_file(path);
  EXPECT_TRUE(after == previous) << "the artifact at " << path << " changed: "
                                 << previous.size() << " -> " << after.size() << " bytes";
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{std::filesystem::path(path).filename()});
}

TEST(SnapshotIO, SnapshotSaveCutShortKeepsThePreviousArtifact) {
  const std::filesystem::path dir = fresh_dir("failed_snapshot_save");
  const std::string path = (dir / "model.hdcsnap").string();
  Tiny old_t = make_tiny(61);
  const serve::ModelSnapshot previous(old_t.model, old_t.a, /*binary_expansion=*/2);
  serve::save_snapshot_file(path, previous);

  Tiny t = make_tiny(62, "hdc", /*n_classes=*/12);
  const serve::ModelSnapshot next(t.model, t.a, /*binary_expansion=*/2);
  std::ostringstream next_bytes;
  serve::save_snapshot(next_bytes, next);
  expect_failed_save_keeps_previous(dir, path, next_bytes.str().size(),
                                    [&] { serve::save_snapshot_file(path, next); });
  const auto loaded = serve::load_snapshot_file(path);
  EXPECT_EQ(loaded->n_classes(), previous.n_classes());
  EXPECT_EQ(loaded->prototypes().packed_copy(), previous.prototypes().packed_copy());

  // Uncapped, the same save replaces the artifact whole.
  serve::save_snapshot_file(path, next);
  EXPECT_TRUE(read_file(path) == next_bytes.str());
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"model.hdcsnap"});
}

serve::SnapshotDelta make_test_delta(std::size_t n_rows, std::uint64_t seed) {
  util::Rng rng(seed);
  serve::SnapshotDelta d;
  d.base_rows = 7;
  d.base_version = 3;
  d.base_checksum = seed;
  d.attributes = Tensor::rand_uniform({n_rows, 18}, rng);
  d.normalized_rows = Tensor::randn({n_rows, 64}, rng);
  d.packed_words.resize(n_rows * 2);
  for (auto& w : d.packed_words) w = rng.next_u64();
  d.new_checksum = seed + 1;
  return d;
}

TEST(SnapshotIO, DeltaSaveCutShortKeepsThePreviousArtifact) {
  const std::filesystem::path dir = fresh_dir("failed_delta_save");
  const std::string path = (dir / "append.hdcdelta").string();
  const serve::SnapshotDelta previous = make_test_delta(4, 71);
  serve::save_delta_file(path, previous);

  const serve::SnapshotDelta next = make_test_delta(9, 72);
  std::ostringstream next_bytes;
  serve::save_delta(next_bytes, next);
  expect_failed_save_keeps_previous(dir, path, next_bytes.str().size(),
                                    [&] { serve::save_delta_file(path, next); });
  const serve::SnapshotDelta loaded = serve::load_delta_file(path);
  EXPECT_EQ(loaded.n_new(), previous.n_new());
  EXPECT_EQ(loaded.packed_words, previous.packed_words);
  EXPECT_EQ(loaded.new_checksum, previous.new_checksum);

  serve::save_delta_file(path, next);
  EXPECT_TRUE(read_file(path) == next_bytes.str());
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"append.hdcdelta"});
}

// -- model registry ----------------------------------------------------------

serve::ServerConfig fast_cfg() {
  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_delay_ms = 0.5;
  cfg.batch.max_queue_depth = 1024;
  return cfg;
}

/// One request through the status-based submit surface, resolved.
serve::InferResult submit_one(serve::ModelRegistry& registry, const std::string& key,
                              Tensor input) {
  serve::InferRequest req;
  req.model_key = key;
  req.input = std::move(input);
  req.k = 1;
  return registry.submit(std::move(req)).get();
}

TEST(ModelRegistry, NeverRegistersAHalfLoadedModel) {
  Tiny t = make_tiny(41);
  serve::ModelSnapshot snap(t.model, t.a);
  const std::string path = temp_path("registry_corrupt.hdcsnap");
  serve::save_snapshot_file(path, snap);
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() / 3));

  serve::ModelRegistry registry(fast_cfg());
  EXPECT_THROW(registry.load_file("m", path), std::runtime_error);
  EXPECT_FALSE(registry.has("m"));
  EXPECT_EQ(registry.size(), 0u);

  // And the good file loads into the same registry afterwards.
  write_file(path, bytes);
  registry.load_file("m", path);
  EXPECT_TRUE(registry.has("m"));
  const serve::InferResult r = submit_one(registry, "m", probe_images(1).reshape({3, 32, 32}));
  ASSERT_EQ(r.status, serve::InferStatus::kOk);
  ASSERT_FALSE(r.topk.empty());
  EXPECT_EQ(r.topk[0].label, registry.engine("m")->classify_batch(probe_images(1))[0].label);
}

TEST(SnapshotIO, QuantConvPadPastItsKernelRejectedByName) {
  // The content checksum does not cover the quant records, so the loader's
  // geometry check is what keeps a corrupt pad from reaching a forward that
  // sizes its output from h + 2·pad − k. Every conv the builder folds has
  // pad <= k/2, so the loader rejects pad >= k.
  Tiny t = make_tiny(85, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/1);
  std::stringstream bare;
  serve::save_snapshot(bare, snap);
  // The quant records follow the has_quant flag. After it the bare file
  // holds only has_ivf (u8), the store version (u64), the calibrated
  // penalty (f32), the content checksum (u64) and the end marker.
  const std::size_t table_off = bare.str().size() - (1 + 8 + 4 + 8 + 4);

  util::Rng rng(86);
  snap.quantize(Tensor::randn({32, 3, 32, 32}, rng), nn::CalibMethod::kEntropy);
  std::stringstream full;
  serve::save_snapshot(full, snap);
  const std::string bytes = full.str();
  // The graph record follows the standalone table: "HQNT", u32 version, its
  // own table copy, u64 node count, then node 0 — the stem conv — as a u8
  // kind and u64 in_c, out_c, kernel, stride, pad.
  // A table is its method (u8), its entry count (u64) and a (f32 scale,
  // s32 zero point) pair per entry.
  const std::size_t table_bytes = 1 + 8 + snap.quantized()->table().activations.size() * 8;
  const std::size_t graph_off = table_off + table_bytes;
  ASSERT_EQ(bytes.substr(graph_off, 4), "HQNT");
  const std::size_t kernel_off = graph_off + 4 + 4 + table_bytes + 8 + 1 + 2 * 8;
  const std::size_t pad_off = kernel_off + 2 * 8;
  std::uint64_t kernel = 0, pad = 0;
  std::memcpy(&kernel, bytes.data() + kernel_off, 8);
  std::memcpy(&pad, bytes.data() + pad_off, 8);
  ASSERT_EQ(kernel, 3u);
  ASSERT_EQ(pad, 1u);

  const std::string path = temp_path("quant_conv_pad.hdcsnap");
  for (const std::uint64_t bad :
       {std::uint64_t{1} << 62, (std::uint64_t{1} << 63) - 15, std::uint64_t{1} << 63}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + pad_off, &bad, 8);
    const auto expect_named = [&](const char* what, const auto& load) {
      try {
        load();
        ADD_FAILURE() << what << " accepted conv pad " << bad;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("conv geometry"), std::string::npos)
            << what << " with pad " << bad << ": " << e.what();
      }
    };
    std::istringstream in(corrupt);
    expect_named("load_snapshot", [&] { serve::load_snapshot(in); });
    std::istringstream in2(corrupt);
    expect_named("inspect_snapshot", [&] { serve::inspect_snapshot(in2); });
    write_file(path, corrupt);
    serve::ModelRegistry registry(fast_cfg());
    expect_named("ModelRegistry::load_file", [&] { registry.load_file("m", path); });
    EXPECT_FALSE(registry.has("m"));
    EXPECT_EQ(registry.size(), 0u);
  }
}

TEST(SnapshotIO, CorruptPrototypePlanesFailTheContentChecksum) {
  // The v6 checksum is the only guard over the prototype planes' payload:
  // a flipped float bit or packed-word bit, or a seen/unseen swap that
  // keeps the mask's popcount, parses as a well-formed file. Each must be
  // rejected naming the checksum — by the loader and by inspect, which
  // reads through the loader — and the registry must register nothing.
  Tiny t = make_tiny(79, "hdc", /*n_classes=*/7);
  const serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/1, /*preferred_shards=*/1,
                                  {1, 1, 1, 1, 0, 0, 0});
  std::stringstream full;
  serve::save_snapshot(full, snap);
  const std::string bytes = full.str();

  // Tail layout (fixed widths, back to front): "PANS" | 20 lineage bytes |
  // has_ivf u8 | has_quant u8 | 1 mask word | n_seen u64 | shards u64 |
  // 7 packed words (d=64 ⇒ 1 word/row) | packed count u64 | 7x64 floats.
  const std::size_t mask_off = bytes.size() - 4 - 20 - 1 - 1 - 8;
  const std::size_t packed_off = mask_off - 8 - 8 - 7 * 8;
  const std::size_t float_off = packed_off - 8 - 7 * 64 * sizeof(float);
  std::uint64_t mask_word = 0;
  std::memcpy(&mask_word, bytes.data() + mask_off, 8);
  ASSERT_EQ(mask_word, 0b0001111u) << "tail-layout arithmetic drifted from the format";
  ASSERT_EQ(std::memcmp(bytes.data() + packed_off, snap.prototypes().packed_data(), 7 * 8), 0);
  ASSERT_EQ(std::memcmp(bytes.data() + float_off, snap.prototypes().float_rows(),
                        7 * 64 * sizeof(float)),
            0);

  std::vector<std::pair<std::string, std::string>> corrupt;
  std::string b = bytes;
  b[float_off + (2 * 64 + 5) * sizeof(float)] ^= 0x01;  // row 2, lowest mantissa bit
  corrupt.emplace_back("float row bit", b);
  b = bytes;
  b[packed_off + 3 * 8 + 2] ^= 0x02;  // row 3, bit 17
  corrupt.emplace_back("packed word bit", b);
  b = bytes;
  const std::uint64_t swapped = 0b0010111;  // class 3 unseen, class 4 seen
  std::memcpy(b.data() + mask_off, &swapped, 8);
  corrupt.emplace_back("seen/unseen swap", b);

  const std::string path = temp_path("corrupt_planes.hdcsnap");
  serve::ModelRegistry registry(fast_cfg());
  for (const auto& [what, bad] : corrupt) {
    std::istringstream in(bad);
    try {
      serve::load_snapshot(in);
      ADD_FAILURE() << what << ": corrupt planes loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("content checksum"), std::string::npos)
          << what << ": " << e.what();
    }
    std::istringstream in2(bad);
    try {
      serve::inspect_snapshot(in2);
      ADD_FAILURE() << what << ": inspect described corrupt planes";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("content checksum"), std::string::npos)
          << what << ": " << e.what();
    }
    write_file(path, bad);
    EXPECT_THROW(registry.load_file("m", path), std::runtime_error) << what;
    EXPECT_FALSE(registry.has("m")) << what;
    EXPECT_EQ(registry.size(), 0u) << what;
  }

  // The untouched bytes load, carrying the checksum they were saved with.
  write_file(path, bytes);
  registry.load_file("m", path);
  EXPECT_EQ(registry.engine("m")->pin()->content_checksum, snap.content_checksum());
}

TEST(SnapshotIO, UncheckedFloatRecordsRejectedByName) {
  // The content checksum covers neither the store scale nor the v6
  // calibrated penalty. Out of range, either one would load and serve
  // garbage: a NaN or infinite value answers with NaN scores, a
  // non-positive scale ranks the farthest classes first (or ties them
  // all). Each must be rejected naming its record — by the loader, by
  // inspect, and by the registry, which must register nothing.
  Tiny t = make_tiny(83, "hdc", /*n_classes=*/7);
  serve::ModelSnapshot snap(t.model, t.a, /*binary_expansion=*/1, /*preferred_shards=*/1,
                            {1, 1, 1, 1, 0, 0, 0});
  snap.set_calibrated_penalty(0.25f);
  std::stringstream full;
  serve::save_snapshot(full, snap);
  const std::string bytes = full.str();

  // Tail layout (fixed widths, back to front): "PANS" | u64 checksum |
  // f32 penalty | u64 store version | has_ivf u8 | has_quant u8 | 1 mask
  // word | n_seen u64 | shards u64 | 7 packed words | packed count u64 |
  // 7x64 floats | 28-byte tensor header | f32 store scale.
  const std::size_t penalty_off = bytes.size() - 4 - 8 - 4;
  const std::size_t float_off = bytes.size() - 4 - 20 - 1 - 1 - 8 - 8 - 8 - 7 * 8 - 8 -
                                7 * 64 * sizeof(float);
  const std::size_t scale_off = float_off - 28 - sizeof(float);
  float stored = 0.0f;
  std::memcpy(&stored, bytes.data() + penalty_off, sizeof(float));
  ASSERT_EQ(stored, 0.25f) << "tail-layout arithmetic drifted from the format";
  std::memcpy(&stored, bytes.data() + scale_off, sizeof(float));
  ASSERT_EQ(stored, snap.prototypes().scale()) << "tail-layout arithmetic drifted";

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  struct Case {
    const char* record;
    std::size_t offset;
    float value;
  };
  const Case cases[] = {
      {"calibrated penalty", penalty_off, nan}, {"calibrated penalty", penalty_off, inf},
      {"calibrated penalty", penalty_off, -inf}, {"store scale", scale_off, nan},
      {"store scale", scale_off, inf},           {"store scale", scale_off, 0.0f},
      {"store scale", scale_off, -10.82f},
  };
  const std::string path = temp_path("unchecked_floats.hdcsnap");
  serve::ModelRegistry registry(fast_cfg());
  for (const Case& c : cases) {
    std::string bad = bytes;
    std::memcpy(bad.data() + c.offset, &c.value, sizeof(float));
    const std::string what = std::string(c.record) + " = " + std::to_string(c.value);
    const std::string want = std::string("corrupt record '") + c.record + "'";
    std::istringstream in(bad);
    try {
      serve::load_snapshot(in);
      ADD_FAILURE() << what << ": loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << what << ": " << e.what();
    }
    std::istringstream in2(bad);
    try {
      serve::inspect_snapshot(in2);
      ADD_FAILURE() << what << ": inspected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << what << ": " << e.what();
    }
    write_file(path, bad);
    EXPECT_THROW(registry.load_file("m", path), std::runtime_error) << what;
    EXPECT_FALSE(registry.has("m")) << what;
  }

  // The untouched bytes load with both values intact.
  std::istringstream good(bytes);
  const auto loaded = serve::load_snapshot(good);
  EXPECT_EQ(loaded->calibrated_penalty(), 0.25f);
  EXPECT_EQ(loaded->scale(), snap.prototypes().scale());
}

TEST(ModelRegistry, RoutesRequestsByKey) {
  Tiny ta = make_tiny(43, "hdc", 7);
  Tiny tb = make_tiny(47, "hdc", 5);
  auto snap_a = std::make_shared<const serve::ModelSnapshot>(ta.model, ta.a);
  auto snap_b = std::make_shared<const serve::ModelSnapshot>(tb.model, tb.a);

  serve::ModelRegistry registry(fast_cfg());
  registry.load("a", snap_a);
  registry.load("b", snap_b);
  EXPECT_EQ(registry.size(), 2u);

  const Tensor probe = probe_images(6);
  const auto expect_a = registry.engine("a")->classify_batch(probe);
  const auto expect_b = registry.engine("b")->classify_batch(probe);
  for (std::size_t i = 0; i < probe.size(0); ++i) {
    Tensor one({3, 32, 32});
    std::copy(probe.data() + i * one.numel(), probe.data() + (i + 1) * one.numel(),
              one.data());
    const serve::InferResult pa = submit_one(registry, "a", one);
    const serve::InferResult pb = submit_one(registry, "b", one.clone());
    ASSERT_EQ(pa.status, serve::InferStatus::kOk);
    ASSERT_EQ(pb.status, serve::InferStatus::kOk);
    ASSERT_FALSE(pa.topk.empty());
    ASSERT_FALSE(pb.topk.empty());
    EXPECT_EQ(pa.topk[0].label, expect_a[i].label);
    EXPECT_FLOAT_EQ(pa.topk[0].score, expect_a[i].score);
    EXPECT_EQ(pb.topk[0].label, expect_b[i].label);
    EXPECT_FLOAT_EQ(pb.topk[0].score, expect_b[i].score);
  }

  // Unknown keys are a named status, not an exception (the wire contract).
  EXPECT_EQ(submit_one(registry, "missing", probe_images(1).reshape({3, 32, 32})).status,
            serve::InferStatus::kBadModel);
  EXPECT_TRUE(registry.unload("a"));
  EXPECT_FALSE(registry.unload("a"));
  EXPECT_FALSE(registry.has("a"));
  EXPECT_EQ(submit_one(registry, "a", probe_images(1).reshape({3, 32, 32})).status,
            serve::InferStatus::kBadModel);
  // "b" is untouched by "a"'s unload.
  const serve::InferResult rb = submit_one(registry, "b", probe_images(1).reshape({3, 32, 32}));
  ASSERT_EQ(rb.status, serve::InferStatus::kOk);
  ASSERT_FALSE(rb.topk.empty());
  EXPECT_EQ(rb.topk[0].label, expect_b[0].label);
}

TEST(ModelRegistry, ServesThroughConcurrentHotLoadAndUnload) {
  Tiny ta = make_tiny(53);
  Tiny tb = make_tiny(59);
  auto snap_a = std::make_shared<const serve::ModelSnapshot>(ta.model, ta.a);
  auto snap_b = std::make_shared<const serve::ModelSnapshot>(tb.model, tb.a);

  serve::ModelRegistry registry(fast_cfg());
  registry.load("hot", snap_a);

  // Client threads storm the "hot" key while the control thread swaps the
  // model behind it and churns a side key. Requests racing a swap may come
  // back kShutdown / kOverloaded (a stopping runtime rejects, as on any
  // overloaded server) but every future must resolve with a named status —
  // no deadlock, no lost futures, no exceptions.
  const std::size_t per_client = 60;
  std::atomic<std::size_t> ok{0}, rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      for (std::size_t r = 0; r < per_client; ++r) {
        const serve::InferResult res =
            submit_one(registry, "hot", probe_images(1, 100 + r).reshape({3, 32, 32}));
        if (res.ok()) {
          ++ok;
        } else {
          EXPECT_TRUE(res.status == serve::InferStatus::kShutdown ||
                      res.status == serve::InferStatus::kOverloaded)
              << infer_status_name(res.status);
          ++rejected;
        }
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    registry.load("hot", i % 2 ? snap_a : snap_b);
    registry.load("side", snap_b);
    registry.unload("side");
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(ok.load() + rejected.load(), 2 * per_client);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_TRUE(registry.has("hot"));
  EXPECT_FALSE(registry.has("side"));
  // The registry still serves after the churn.
  EXPECT_EQ(submit_one(registry, "hot", probe_images(1).reshape({3, 32, 32})).status,
            serve::InferStatus::kOk);
}

TEST(ModelRegistry, UnloadWhileInflightResolvesEveryFuture) {
  // Queue a burst of accepted requests, then rip the model out from under
  // them. unload() drains the runtime, so every already-accepted future
  // must resolve with a named status — served (kOk) or rejected by the
  // stopping runtime (kShutdown) — never hang, never throw.
  Tiny t = make_tiny(61);
  auto snap = std::make_shared<const serve::ModelSnapshot>(t.model, t.a);
  serve::ServerConfig cfg = fast_cfg();
  cfg.batch.max_delay_ms = 2.0;  // hold a window open so a backlog builds
  serve::ModelRegistry registry(cfg);
  registry.load("doomed", snap);

  std::vector<std::future<serve::InferResult>> futures;
  for (std::size_t r = 0; r < 32; ++r) {
    serve::InferRequest req;
    req.model_key = "doomed";
    req.input = probe_images(1, 700 + r).reshape({3, 32, 32});
    req.k = 1;
    futures.push_back(registry.submit(std::move(req)));
  }
  ASSERT_TRUE(registry.unload("doomed"));
  EXPECT_FALSE(registry.has("doomed"));

  std::size_t ok = 0, shutdown = 0;
  for (auto& f : futures) {
    const serve::InferResult res = f.get();  // must resolve, not hang
    if (res.ok()) {
      EXPECT_EQ(res.topk.size(), 1u);
      ++ok;
    } else {
      EXPECT_EQ(res.status, serve::InferStatus::kShutdown) << infer_status_name(res.status);
      ++shutdown;
    }
  }
  EXPECT_EQ(ok + shutdown, 32u);
  // The key is gone: a fresh submit resolves kBadModel, again by status.
  EXPECT_EQ(submit_one(registry, "doomed", probe_images(1).reshape({3, 32, 32})).status,
            serve::InferStatus::kBadModel);
}

}  // namespace
}  // namespace hdczsc
