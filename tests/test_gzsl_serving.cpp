// GZSL serving: the joint seen+unseen label space with calibrated stacking
// (Chao et al. 2016) must behave identically across every serving layer —
// the penalized binary top-k bit-identical to a penalized float full-
// argsort reference on the flat AND sharded paths, the float path
// bit-identical to Trainer::evaluate_gzsl's subtract form, the partition
// persisted through the .hdcsnap v3 record (v1/v2 load as all-seen), and
// the seen/unseen decision telemetry surfaced per model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/pipeline.hpp"
#include "core/zsc_model.hpp"
#include "data/attribute_space.hpp"
#include "serve/model_registry.hpp"
#include "serve/snapshot_io.hpp"
#include "tensor/ops.hpp"
#include "util/timer.hpp"

namespace hdczsc {
namespace {

using serve::PrototypeStore;
using serve::SeenPenalty;
using serve::ShardedPrototypeStore;
using serve::TopK;
using tensor::Tensor;

/// Retrieval order shared with the sharded gather: score desc, label asc.
bool better(const TopK& a, const TopK& b) {
  return a.score > b.score || (a.score == b.score && a.label < b.label);
}

/// Full argsort of a [B, C] logit matrix, cut to k — the flat reference.
std::vector<std::vector<TopK>> flat_topk(const Tensor& logits, std::size_t k) {
  const std::size_t batch = logits.size(0), classes = logits.size(1);
  std::vector<std::vector<TopK>> out(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.data() + b * classes;
    std::vector<TopK> all(classes);
    for (std::size_t c = 0; c < classes; ++c) all[c] = TopK{c, row[c]};
    std::sort(all.begin(), all.end(), better);
    all.resize(std::min(k, classes));
    out[b] = std::move(all);
  }
  return out;
}

void expect_identical(const std::vector<std::vector<TopK>>& got,
                      const std::vector<std::vector<TopK>>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].size(), want[b].size()) << what << " query " << b;
    for (std::size_t i = 0; i < got[b].size(); ++i) {
      EXPECT_EQ(got[b][i].label, want[b][i].label) << what << " query " << b << " rank " << i;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got[b][i].score, want[b][i].score) << what << " query " << b << " rank " << i;
    }
  }
}

/// Mask with every third class seen — deliberately interleaved, not the
/// seen-first block layout, so nothing silently assumes contiguity.
std::vector<std::uint8_t> striped_mask(std::size_t classes) {
  std::vector<std::uint8_t> mask(classes, 0);
  for (std::size_t c = 0; c < classes; c += 3) mask[c] = 1;
  return mask;
}

PrototypeStore make_store(std::size_t classes, std::size_t dim, std::size_t expansion = 1,
                          std::uint64_t seed = 7, float scale = 4.0f) {
  util::Rng rng(seed);
  return PrototypeStore(Tensor::randn({classes, dim}, rng), scale, expansion);
}

/// Minimal untrained model (the serving layers only need eval forwards).
std::shared_ptr<core::ZscModel> make_model(std::size_t n_attributes, std::size_t dim) {
  util::Rng rng(0xABCDULL);
  core::ImageEncoderConfig icfg;
  icfg.arch = "resnet_micro_flat";
  icfg.proj_dim = dim;
  auto img = std::make_unique<core::ImageEncoder>(icfg, rng);
  data::AttributeSpace space = data::AttributeSpace::toy(n_attributes, 1, 1);
  auto attr = std::make_unique<core::HdcAttributeEncoder>(space, img->dim(), rng);
  return std::make_shared<core::ZscModel>(std::move(img), std::move(attr), 4.0f);
}

/// Joint seen+unseen snapshot over random attribute rows (seen first).
std::shared_ptr<serve::ModelSnapshot> make_gzsl(std::size_t n_seen, std::size_t n_unseen,
                                                std::size_t expansion = 1,
                                                std::size_t preferred_shards = 1) {
  const std::size_t n_attributes = 24, dim = 64;
  util::Rng rng(0xFACEULL);
  const Tensor seen_a = Tensor::randn({n_seen, n_attributes}, rng);
  const Tensor unseen_a = Tensor::randn({n_unseen, n_attributes}, rng);
  return serve::make_gzsl_snapshot(make_model(n_attributes, dim), seen_a, unseen_a,
                                   expansion, preferred_shards);
}

// -- penalty resolution ------------------------------------------------------

TEST(SeenPenalty, IntegerExactHammingOffsetWhenRepresentable) {
  // scale 4, D = 256: penalty = 2·s·Δ/D = Δ/32 — exactly representable for
  // any small integer Δ.
  const PrototypeStore store = make_store(20, 256);
  const std::vector<std::uint8_t> mask = striped_mask(20);

  const SeenPenalty p = store.resolve_penalty(8.0f / 32.0f, mask);
  EXPECT_TRUE(p.active());
  EXPECT_TRUE(p.integer_exact);
  EXPECT_EQ(p.offset, 8u);
  ASSERT_EQ(p.row_penalty.size(), 20u);
  ASSERT_EQ(p.row_offset.size(), 20u);
  for (std::size_t c = 0; c < 20; ++c) {
    EXPECT_EQ(p.row_offset[c], mask[c] ? 8u : 0u) << c;
    EXPECT_EQ(p.row_penalty[c], mask[c] ? 0.25f : 0.0f) << c;
  }

  // Fractional offsets and negative penalties fall back to float form.
  EXPECT_FALSE(store.resolve_penalty(0.3f, mask).integer_exact);
  EXPECT_TRUE(store.resolve_penalty(0.3f, mask).active());
  EXPECT_FALSE(store.resolve_penalty(-0.25f, mask).integer_exact);

  // penalty == 0 resolves to an inactive no-op.
  EXPECT_FALSE(store.resolve_penalty(0.0f, mask).active());

  // Empty mask = all seen (uniform handicap); wrong-sized mask throws.
  const SeenPenalty uniform = store.resolve_penalty(0.25f, {});
  EXPECT_TRUE(uniform.integer_exact);
  for (float v : uniform.row_penalty) EXPECT_EQ(v, 0.25f);
  EXPECT_THROW(store.resolve_penalty(0.25f, std::vector<std::uint8_t>(7)),
               std::invalid_argument);
}

// -- flat scoring paths ------------------------------------------------------

TEST(SeenPenalty, FloatPathMatchesEvaluateGzslSubtractForm) {
  const PrototypeStore store = make_store(40, 64);
  const std::vector<std::uint8_t> mask = striped_mask(40);
  const SeenPenalty p = store.resolve_penalty(0.7f, mask);
  util::Rng rng(11);
  const Tensor emb = Tensor::randn({5, 64}, rng);

  Tensor want = store.score_float(emb);
  float* W = want.data();
  for (std::size_t b = 0; b < want.size(0); ++b)
    for (std::size_t c = 0; c < want.size(1); ++c)
      if (mask[c]) W[b * want.size(1) + c] -= 0.7f;  // the evaluate_gzsl loop

  const Tensor got = store.score_float(emb, &p);
  EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0f)
      << "penalized float logits must equal the evaluate_gzsl subtract form bit-for-bit";
}

TEST(SeenPenalty, BinaryIntegerOffsetFormMatchesDefinition) {
  const PrototypeStore store = make_store(12, 256, /*expansion=*/1, 13);
  const std::vector<std::uint8_t> mask = striped_mask(12);
  const SeenPenalty p = store.resolve_penalty(4.0f / 32.0f, mask);  // Δ = 4
  ASSERT_TRUE(p.integer_exact);

  util::Rng rng(17);
  const Tensor emb = Tensor::randn({3, 256}, rng);
  const Tensor got = store.score_binary(emb, &p);

  const float inv_d = 1.0f / static_cast<float>(store.code_bits());
  for (std::size_t b = 0; b < emb.size(0); ++b) {
    const hdc::BinaryHV q = store.encode_query(emb.data() + b * emb.size(1));
    for (std::size_t c = 0; c < store.n_classes(); ++c) {
      const auto h = static_cast<std::uint32_t>(q.hamming(store.binary_prototype(c)));
      const float want =
          store.scale() * (1.0f - 2.0f * static_cast<float>(h + (mask[c] ? 4u : 0u)) * inv_d);
      EXPECT_EQ(got.at(b, c), want) << "query " << b << " class " << c;
    }
  }
}

// -- the acceptance bar: penalized top-k vs penalized argsort ----------------

TEST(GzslTopk, PenalizedBinaryTopkBitIdenticalToPenalizedArgsort) {
  // Integer-exact penalty on a ragged label space: selection runs on
  // (h + Δ) keys and must reproduce the penalized float reference exactly
  // on the flat (S = 1) and every sharded layout.
  const PrototypeStore store = make_store(999, 128, /*expansion=*/2);  // D = 256
  const std::vector<std::uint8_t> mask = striped_mask(999);
  const SeenPenalty p = store.resolve_penalty(16.0f / 32.0f, mask);  // Δ = 16
  ASSERT_TRUE(p.integer_exact);

  util::Rng rng(19);
  const Tensor emb = Tensor::randn({4, 128}, rng);
  const auto want = flat_topk(store.score_binary(emb, &p), 10);
  for (std::size_t shards : {1u, 4u, 7u, 64u}) {
    const ShardedPrototypeStore sharded(store, shards);
    expect_identical(sharded.topk_binary(emb, 10, &p), want,
                     "penalized binary S=" + std::to_string(shards));
  }
}

TEST(GzslTopk, NonRepresentablePenaltyFallsBackToFloatAndStaysExact) {
  const PrototypeStore store = make_store(500, 128, /*expansion=*/1, 23);
  const std::vector<std::uint8_t> mask = striped_mask(500);
  const SeenPenalty p = store.resolve_penalty(0.37f, mask);
  ASSERT_FALSE(p.integer_exact);
  ASSERT_TRUE(p.active());

  util::Rng rng(29);
  const Tensor emb = Tensor::randn({3, 128}, rng);
  const auto want = flat_topk(store.score_binary(emb, &p), 8);
  for (std::size_t shards : {1u, 3u, 9u}) {
    const ShardedPrototypeStore sharded(store, shards);
    expect_identical(sharded.topk_binary(emb, 8, &p), want,
                     "fallback binary S=" + std::to_string(shards));
  }

  // edge-hd's regime: 150 seen + 50 unseen classes, d = 256 at expansion 8
  // (D = 2048), and a penalty a few ulps past s·2Δ/D for a whole Δ — what
  // calibrate_seen_penalty returns, a value just past a decision margin.
  // Seen logits then land within a few ulps of unseen ones, and every query
  // takes the float-domain branch and its block-skip loop, as every
  // edge-hd request does.
  const float s = 10.8225f;
  const PrototypeStore edge = make_store(200, 256, /*expansion=*/8, 41, s);
  std::vector<std::uint8_t> seen(200, 0);
  std::fill(seen.begin(), seen.begin() + 150, 1);
  float calibrated = s * 2.0f * 182.0f / 2048.0f;
  for (int ulp = 0; ulp < 2; ++ulp) calibrated = std::nextafter(calibrated, 1e9f);
  const SeenPenalty pe = edge.resolve_penalty(calibrated, seen);
  ASSERT_FALSE(pe.integer_exact);
  ASSERT_TRUE(pe.active());
  const Tensor edge_emb = Tensor::randn({8, 256}, rng);
  const auto edge_want = flat_topk(edge.score_binary(edge_emb, &pe), 5);
  for (std::size_t shards : {1u, 3u}) {
    const ShardedPrototypeStore sharded(edge, shards);
    expect_identical(sharded.topk_binary(edge_emb, 5, &pe), edge_want,
                     "calibrated penalty S=" + std::to_string(shards));
  }
}

TEST(GzslTopk, PenalizedFloatTopkBitIdenticalToPenalizedArgsort) {
  // Small dims keep every GEMM on one deterministic kernel path, so the
  // scores are bit-identical, not merely rank-identical.
  const PrototypeStore store = make_store(100, 64);
  const std::vector<std::uint8_t> mask = striped_mask(100);
  const SeenPenalty p = store.resolve_penalty(0.42f, mask);

  util::Rng rng(31);
  const Tensor emb = Tensor::randn({5, 64}, rng);
  const auto want = flat_topk(store.score_float(emb, &p), 7);
  for (std::size_t shards : {1u, 2u, 5u, 16u}) {
    const ShardedPrototypeStore sharded(store, shards);
    expect_identical(sharded.topk_float(emb, 7, &p), want,
                     "penalized float S=" + std::to_string(shards));
  }
}

// -- engine: one knob, every entry point -------------------------------------

TEST(GzslEngine, LogitsTopkAndClassifyAgreeUnderPenalty) {
  auto snapshot = make_gzsl(30, 10);
  util::Rng rng(37);
  const Tensor images = Tensor::randn({5, 3, 32, 32}, rng);
  for (serve::ScoringMode mode :
       {serve::ScoringMode::kFloatCosine, serve::ScoringMode::kBinaryHamming}) {
    const serve::InferenceEngine engine(snapshot, mode, /*n_shards=*/3,
                                        /*seen_penalty=*/0.5f);
    EXPECT_EQ(engine.seen_penalty(), 0.5f);
    const auto want = flat_topk(engine.logits(images), 5);
    expect_identical(engine.topk_batch(images, 5), want, scoring_mode_name(mode));
    const auto preds = engine.classify_batch(images);
    for (std::size_t b = 0; b < preds.size(); ++b) {
      EXPECT_EQ(preds[b].label, want[b][0].label) << scoring_mode_name(mode);
      EXPECT_EQ(preds[b].score, want[b][0].score) << scoring_mode_name(mode);
    }
  }
}

TEST(GzslEngine, PenaltyShiftsDecisionsAcrossThePartition) {
  auto snapshot = make_gzsl(30, 10);
  EXPECT_TRUE(snapshot->has_partition());
  EXPECT_EQ(snapshot->n_seen(), 30u);
  EXPECT_EQ(snapshot->n_unseen(), 10u);

  util::Rng rng(41);
  const Tensor images = Tensor::randn({8, 3, 32, 32}, rng);
  // A penalty far beyond the logit range [-s, s] evicts every decision
  // from the seen domain; penalty 0 must leave the plain ranking intact.
  const serve::InferenceEngine plain(snapshot, serve::ScoringMode::kBinaryHamming, 1, 0.0f);
  const serve::InferenceEngine hard(snapshot, serve::ScoringMode::kBinaryHamming, 1,
                                    /*seen_penalty=*/100.0f);
  const serve::InferenceEngine unpartitioned(
      std::make_shared<const serve::ModelSnapshot>(make_model(24, 64),
                                                   snapshot->class_attributes()),
      serve::ScoringMode::kBinaryHamming, 1, 0.0f);
  for (const auto& p : hard.classify_batch(images))
    EXPECT_GE(p.label, 30u) << "a 100-point handicap must evict all seen-class decisions";
  const auto a = plain.classify_batch(images);
  const auto b = unpartitioned.classify_batch(images);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].label, b[i].label);
}

// -- snapshot layout and the v3 record ---------------------------------------

TEST(GzslSnapshot, MakeGzslSnapshotConcatenatesSeenFirst) {
  const std::size_t n_attributes = 24;
  util::Rng rng(0xFACEULL);
  const Tensor seen_a = Tensor::randn({6, n_attributes}, rng);
  const Tensor unseen_a = Tensor::randn({4, n_attributes}, rng);
  auto snap = serve::make_gzsl_snapshot(make_model(n_attributes, 64), seen_a, unseen_a);

  EXPECT_EQ(snap->n_classes(), 10u);
  EXPECT_EQ(snap->n_seen(), 6u);
  EXPECT_EQ(snap->n_unseen(), 4u);
  for (std::size_t c = 0; c < 10; ++c) EXPECT_EQ(snap->is_seen(c), c < 6) << c;
  const Tensor& joint = snap->class_attributes();
  ASSERT_EQ(joint.size(0), 10u);
  for (std::size_t i = 0; i < seen_a.numel(); ++i)
    ASSERT_EQ(joint.data()[i], seen_a.data()[i]);
  for (std::size_t i = 0; i < unseen_a.numel(); ++i)
    ASSERT_EQ(joint.data()[seen_a.numel() + i], unseen_a.data()[i]);

  // Attribute-width mismatch is rejected up front.
  util::Rng rng2(1);
  EXPECT_THROW(serve::make_gzsl_snapshot(make_model(n_attributes, 64), seen_a,
                                         Tensor::randn({4, n_attributes + 1}, rng2)),
               std::invalid_argument);
}

TEST(GzslSnapshotIo, V3RoundTripPreservesPartition) {
  auto snapshot = make_gzsl(30, 10, /*expansion=*/2, /*preferred_shards=*/4);
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);

  const auto info = serve::inspect_snapshot(ss);
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_TRUE(info.has_partition);
  EXPECT_EQ(info.n_seen, 30u);
  EXPECT_EQ(info.n_classes, 40u);

  ss.seekg(0);
  auto loaded = serve::load_snapshot(ss);
  EXPECT_TRUE(loaded->has_partition());
  EXPECT_EQ(loaded->n_seen(), 30u);
  EXPECT_EQ(loaded->seen_mask(), snapshot->seen_mask());
  EXPECT_EQ(loaded->preferred_shards(), 4u);

  // The persisted partition drives the same penalized scores.
  util::Rng rng(43);
  const Tensor probe = Tensor::randn({4, 3, 32, 32}, rng);
  for (serve::ScoringMode mode :
       {serve::ScoringMode::kFloatCosine, serve::ScoringMode::kBinaryHamming}) {
    const serve::InferenceEngine a(snapshot, mode, 1, 0.5f);
    const serve::InferenceEngine b(loaded, mode, 1, 0.5f);
    EXPECT_EQ(tensor::max_abs_diff(a.logits(probe), b.logits(probe)), 0.0f)
        << scoring_mode_name(mode);
  }
}

TEST(GzslSnapshotIo, SingleSpaceSnapshotRoundTripsWithNoPartition) {
  util::Rng rng(47);
  auto snap = std::make_shared<const serve::ModelSnapshot>(make_model(24, 64),
                                                           Tensor::randn({13, 24}, rng));
  ASSERT_FALSE(snap->has_partition());
  std::stringstream ss;
  serve::save_snapshot(ss, *snap);
  const auto info = serve::inspect_snapshot(ss);
  EXPECT_FALSE(info.has_partition);
  EXPECT_EQ(info.n_seen, 13u);
  ss.seekg(0);
  auto loaded = serve::load_snapshot(ss);
  EXPECT_FALSE(loaded->has_partition());
  EXPECT_EQ(loaded->n_seen(), 13u);
}

TEST(GzslSnapshotIo, V2FileLoadsAsAllSeen) {
  auto snapshot = make_gzsl(30, 10);  // C = 40 → one mask word
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  std::string bytes = ss.str();
  // Reconstruct the version-2 layout byte-for-byte: v3 appended exactly
  // one u64 seen count + ⌈40/64⌉ = 1 mask word, v4 one u8 has_quant flag,
  // v5 one u8 has_ivf flag and v6 the 20-byte lineage block (u64 version +
  // f32 penalty + u64 checksum) immediately before the end marker, so
  // dropping those 38 bytes and rewriting the u32 version field yields a
  // genuine v2 file.
  ASSERT_EQ(bytes.substr(bytes.size() - 4), "PANS");
  bytes.erase(bytes.size() - 4 - 38, 38);
  const std::uint32_t v2 = 2;
  bytes.replace(4, 4, reinterpret_cast<const char*>(&v2), 4);

  std::istringstream v2_file(bytes);
  auto loaded = serve::load_snapshot(v2_file);
  EXPECT_FALSE(loaded->has_partition());
  EXPECT_EQ(loaded->n_seen(), 40u);

  std::istringstream v2_again(bytes);
  const auto info = serve::inspect_snapshot(v2_again);
  EXPECT_EQ(info.version, 2u);
  EXPECT_FALSE(info.has_partition);

  // And it still scores bit-identically to the v3 artifact.
  util::Rng rng(53);
  const Tensor probe = Tensor::randn({3, 3, 32, 32}, rng);
  std::stringstream v3_file(ss.str());
  auto v3_loaded = serve::load_snapshot(v3_file);
  EXPECT_EQ(tensor::max_abs_diff(
                loaded->prototypes().score_float(loaded->embed(probe)),
                v3_loaded->prototypes().score_float(v3_loaded->embed(probe))),
            0.0f);
}

TEST(GzslSnapshotIo, CorruptPartitionRecordRejectedByName) {
  auto snapshot = make_gzsl(30, 10);  // C = 40: tail is n_seen u64 + 1 mask word +
                                      // has_quant u8 + has_ivf u8 + the 20-byte
                                      // v6 lineage block + "PANS"
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  const std::string bytes = ss.str();
  const std::size_t mask_off = bytes.size() - 4 - 20 - 1 - 1 - 8;  // one mask word
  const std::size_t n_seen_off = mask_off - 8;

  // Seen count beyond the class count.
  {
    std::string bad = bytes;
    bad[n_seen_off] = 99;  // little-endian low byte: n_seen = 99 > 40
    std::istringstream f(bad);
    try {
      serve::load_snapshot(f);
      FAIL() << "expected the corrupt seen count to be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("seen-class count"), std::string::npos)
          << e.what();
    }
  }
  // Mask popcount disagreeing with the count.
  {
    std::string bad = bytes;
    bad[mask_off] = static_cast<char>(bad[mask_off] ^ 0x01);  // flip seen bit of class 0
    std::istringstream f(bad);
    try {
      serve::load_snapshot(f);
      FAIL() << "expected the corrupt mask to be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("seen mask"), std::string::npos) << e.what();
    }
  }
  // Mask bits beyond the class count (tail bits must be zero).
  {
    std::string bad = bytes;
    bad[mask_off + 5] = static_cast<char>(0xFF);  // bits 40..47
    std::istringstream f(bad);
    EXPECT_THROW(serve::load_snapshot(f), std::runtime_error);
  }
}

// -- registry: per-model penalty + decision telemetry ------------------------

TEST(GzslRegistry, PerModelPenaltyAndDomainTelemetry) {
  auto snapshot = make_gzsl(30, 10);
  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_delay_ms = 0.5;
  cfg.seen_penalty = 100.0f;  // evict every decision from the seen domain
  serve::ModelRegistry registry(cfg);
  registry.load("gzsl", snapshot, serve::ScoringMode::kBinaryHamming);
  EXPECT_EQ(registry.engine("gzsl")->seen_penalty(), 100.0f);

  util::Rng rng(59);
  const std::size_t n = 12;
  for (std::size_t i = 0; i < n; ++i) {
    serve::InferRequest req;
    req.model_key = "gzsl";
    req.input = Tensor::randn({3, 32, 32}, rng);
    req.k = 1;
    const serve::InferResult r = registry.submit(std::move(req)).get();
    ASSERT_EQ(r.status, serve::InferStatus::kOk) << "request " << i;
    ASSERT_FALSE(r.topk.empty());
    EXPECT_GE(r.topk[0].label, 30u) << "request " << i;
  }
  // The worker records domain counters *after* resolving the future, so
  // give the last batch a moment to land before asserting.
  util::Timer t;
  serve::ServingStats::Summary s;
  do {
    s = registry.stats("gzsl");
  } while (s.seen_hits + s.unseen_hits < n && t.seconds() < 5.0);
  EXPECT_EQ(s.seen_hits, 0u);
  EXPECT_EQ(s.unseen_hits, n);
  EXPECT_EQ(s.domain_harmonic, 0.0);  // one-domain collapse ⇒ H = 0
  registry.to_table().print();        // penalty / seen / unseen / H columns render
  registry.stop_all();
}

// -- pipeline: snapshot_gzsl artifacts ---------------------------------------

TEST(GzslPipeline, EmitsJointSnapshotAndSeenEvalArtifacts) {
  core::PipelineConfig cfg;
  cfg.n_classes = 10;
  cfg.images_per_class = 3;
  cfg.train_instances = 2;
  cfg.image_size = 32;
  cfg.split = "zs";
  cfg.zs_train_classes = 7;
  cfg.model.image.arch = "resnet_micro_flat";
  cfg.model.image.proj_dim = 64;
  cfg.run_phase1 = false;
  cfg.run_phase2 = false;
  cfg.phase3 = {1, 8, 1e-2f, 1e-4f, 5.0f, true, false};
  cfg.augment.enabled = false;
  cfg.snapshot_gzsl = true;
  const std::string path = testing::TempDir() + "gzsl_pipeline.hdcsnap";
  cfg.snapshot_path = path;

  auto tp = core::run_pipeline_trained(cfg);
  ASSERT_EQ(tp.seen_class_attributes.size(0), 7u);
  ASSERT_EQ(tp.seen_classes.size(), 7u);
  // Held-out instance range [2, 3) of each of the 7 training classes.
  ASSERT_EQ(tp.seen_set.images.size(0), 7u);
  for (std::size_t l : tp.seen_set.labels) EXPECT_LT(l, 7u);

  auto loaded = serve::load_snapshot_file(path);
  EXPECT_TRUE(loaded->has_partition());
  EXPECT_EQ(loaded->n_seen(), 7u);
  EXPECT_EQ(loaded->n_unseen(), 3u);
  std::remove(path.c_str());

  // Guard rails: GZSL artifacts need held-out instances and a class split.
  core::PipelineConfig bad = cfg;
  bad.snapshot_path.clear();
  bad.train_instances = bad.images_per_class;
  EXPECT_THROW(core::run_pipeline_trained(bad), std::invalid_argument);
  core::PipelineConfig nozs = cfg;
  nozs.snapshot_path.clear();
  nozs.split = "nozs";
  nozs.nozs_classes = 10;
  EXPECT_THROW(core::run_pipeline_trained(nozs), std::invalid_argument);
}

}  // namespace
}  // namespace hdczsc
