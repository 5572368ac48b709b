// Live model evolution: versioned copy-on-write prototype stores, online
// class appends, delta snapshots and GZSL auto-calibration
// (docs/evolution.md). The load-bearing claims pinned here:
//
//  * appends share slab planes structurally (no realloc when capacity
//    allows) and never disturb a previously pinned version — a batch
//    pinned to version k scores bit-identical to exact scoring over
//    version k even after k+1/k+2 publish;
//  * an appended engine is bitwise a cold engine built over the
//    concatenated attribute rows (same frozen encoder, same planes);
//  * base .hdcsnap + .hdcdelta chain ≡ the compacted full snapshot,
//    bitwise, whether the chain is applied live (append_delta) or
//    offline (compact_snapshot);
//  * a corrupt delta is rejected with the previously served version
//    intact and answering — even under a concurrent reader — and a
//    malformed one fails live apply and compaction alike (same exception
//    type, same record named), since both take the one apply_delta step;
//  * an append-while-serving storm drops zero requests, and the
//    post-storm top-k is bit-identical to a cold rebuild from the
//    compacted snapshot;
//  * the GZSL penalty recalibrates from the validation split after every
//    append (and the precedence vs the explicit knob / persisted value
//    holds);
//  * the registry exposes version metrics; the HDCN kAppendClasses admin
//    frame round-trips the wire.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/zsc_model.hpp"
#include "data/attribute_space.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/snapshot_io.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace hdczsc {
namespace {

using serve::InferenceEngine;
using serve::ModelSnapshot;
using serve::ScoringMode;
using serve::SnapshotDelta;
using serve::StoreVersion;
using serve::TopK;
using tensor::Tensor;

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

constexpr std::size_t kAlpha = 24, kDim = 64;

Tensor rand_attrs(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn({n, kAlpha}, rng);
}

std::shared_ptr<const ModelSnapshot> make_snapshot(std::size_t classes,
                                                   std::size_t expansion = 2) {
  return std::make_shared<const ModelSnapshot>(make_model(kAlpha, kDim),
                                               rand_attrs(classes, 0x5EEDULL), expansion);
}

std::shared_ptr<ModelSnapshot> make_gzsl(std::size_t n_seen, std::size_t n_unseen) {
  return serve::make_gzsl_snapshot(make_model(kAlpha, kDim), rand_attrs(n_seen, 0xAAULL),
                                   rand_attrs(n_unseen, 0xBBULL), 2);
}

Tensor probe_embeddings(std::size_t n, std::uint64_t seed = 0x9E0BEULL) {
  util::Rng rng(seed);
  return Tensor::randn({n, kDim}, rng);
}

void expect_topk_identical(const std::vector<std::vector<TopK>>& got,
                           const std::vector<std::vector<TopK>>& want,
                           const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].size(), want[b].size()) << what << " query " << b;
    for (std::size_t i = 0; i < got[b].size(); ++i) {
      EXPECT_EQ(got[b][i].label, want[b][i].label) << what << " query " << b << " rank " << i;
      EXPECT_EQ(got[b][i].score, want[b][i].score) << what << " query " << b << " rank " << i;
    }
  }
}

/// Concatenate attribute row blocks (the cold-rebuild reference input).
Tensor concat_attrs(const Tensor& a, const Tensor& b) {
  Tensor out({a.size(0) + b.size(0), a.size(1)});
  std::copy(a.data(), a.data() + a.numel(), out.data());
  std::copy(b.data(), b.data() + b.numel(), out.data() + a.numel());
  return out;
}

// -- copy-on-write slabs + pinned-version stability ---------------------------

TEST(Evolution, AppendSharesSlabPlanesAndPinnedVersionIsBitStable) {
  auto snapshot = make_snapshot(10);
  const InferenceEngine engine(snapshot);
  const auto v0 = engine.pin();
  ASSERT_EQ(v0->version, 0u);
  ASSERT_EQ(v0->n_classes(), 10u);

  const Tensor probe = probe_embeddings(4);
  const Tensor logits_v0 = engine.logits(probe);
  const auto topk_v0 = engine.topk_batch(probe, 3);

  // First append outgrows the loaded store's exact-fit capacity → realloc
  // (no plane sharing); the doubled slab then has room, so the second
  // append *must* structurally share the first append's planes.
  const auto v1 = engine.append_classes(rand_attrs(3, 0xA1ULL));
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->n_classes(), 13u);
  EXPECT_FALSE(v1->store->shares_planes_with(*v0->store));
  EXPECT_GE(v1->store->capacity_rows(), 20u);

  const auto v2 = engine.append_classes(rand_attrs(2, 0xA2ULL));
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v2->n_classes(), 15u);
  EXPECT_TRUE(v2->store->shares_planes_with(*v1->store));

  // The pinned v0 still scores bit-identically: appends never mutate a
  // published version, shared slabs included.
  EXPECT_EQ(tensor::max_abs_diff(v0->store->score_float(probe), logits_v0), 0.0f);
  expect_topk_identical(v0->sharded->topk_float(probe, 3), topk_v0, "pinned v0 top-k");

  // The grown version ranks the appended labels; its first 10 logit
  // columns are bitwise the v0 columns (structural sharing is visible in
  // the scores, not just the planes).
  const Tensor logits_v2 = engine.logits(probe);
  ASSERT_EQ(logits_v2.size(1), 15u);
  for (std::size_t b = 0; b < probe.size(0); ++b)
    for (std::size_t c = 0; c < 10; ++c)
      EXPECT_EQ(logits_v2.data()[b * 15 + c], logits_v0.data()[b * 10 + c])
          << "query " << b << " class " << c;
}

TEST(Evolution, AppendedEngineIsBitwiseAColdRebuild) {
  const Tensor base_attrs = rand_attrs(12, 0x5EEDULL);
  const Tensor new_attrs = rand_attrs(5, 0xC0FFEEULL);
  auto model = make_model(kAlpha, kDim);

  auto base = std::make_shared<const ModelSnapshot>(model, base_attrs, 2);
  const InferenceEngine live(base, ScoringMode::kBinaryHamming);
  live.append_classes(new_attrs);

  // Live appends default the new classes to unseen, so the equivalent cold
  // snapshot carries the matching partition (12 seen, 5 unseen).
  std::vector<std::uint8_t> mask(17, 1);
  std::fill(mask.begin() + 12, mask.end(), 0);
  auto cold_snap = std::make_shared<const ModelSnapshot>(
      model, concat_attrs(base_attrs, new_attrs), 2, 1, mask);
  const InferenceEngine cold(cold_snap, ScoringMode::kBinaryHamming);

  const auto vl = live.pin(), vc = cold.pin();
  ASSERT_EQ(vl->n_classes(), vc->n_classes());
  EXPECT_EQ(tensor::max_abs_diff(vl->store->normalized_copy(), vc->store->normalized_copy()),
            0.0f);
  EXPECT_EQ(vl->store->packed_copy(), vc->store->packed_copy());
  EXPECT_EQ(vl->content_checksum, vc->content_checksum);

  const Tensor probe = probe_embeddings(6);
  EXPECT_EQ(tensor::max_abs_diff(live.logits(probe), cold.logits(probe)), 0.0f);
  expect_topk_identical(live.topk_batch(probe, 4), cold.topk_batch(probe, 4),
                        "live append vs cold rebuild");
}

TEST(Evolution, OneRowAppendMatchesAColdBuildOnACancellationRow) {
  // At d=64, expansion 4 a 1-row append is a 1·256·64 < 32³ product, while
  // a cold build of four rows is not. Both must sign the pre-activations
  // the same float kernel computes: for this row, R·x = ±1e8 ± 1 ∓ 1e8 is
  // exactly ±1, but the float running sum rounds 1e8 ± 1 back to 1e8 and
  // ends at 0, where a double accumulation keeps the -1 on a quarter of
  // the code bits.
  util::Rng rng(0xCA7CULL);
  const Tensor base = Tensor::randn({3, kDim}, rng);
  Tensor crafted({1, kDim});
  crafted[0] = 1e8f;
  crafted[1] = 1.0f;
  crafted[2] = 1e8f;
  const serve::PrototypeStore store(base, 4.0f, /*expansion=*/4);
  const serve::PrototypeStore appended = store.append_rows(crafted);
  const serve::PrototypeStore cold(concat_attrs(base, crafted), 4.0f, /*expansion=*/4);
  EXPECT_EQ(appended.packed_copy(), cold.packed_copy());

  // One more input: the same store saved and loaded as a snapshot. A load
  // does not build R, so the append goes through a copy taken before the
  // loaded lineage ever built it, and builds it from the persisted seed.
  const ModelSnapshot saved(make_model(kAlpha, kDim), rand_attrs(3, 0x5EEDULL), store, 1, {},
                            serve::content_checksum(store, {}));
  std::stringstream ss;
  serve::save_snapshot(ss, saved);
  const auto loaded = serve::load_snapshot(ss);
  const serve::PrototypeStore copy = loaded->prototypes();
  ASSERT_FALSE(copy.projection_built());
  EXPECT_EQ(copy.append_rows(crafted).packed_copy(), cold.packed_copy());
  EXPECT_TRUE(loaded->prototypes().projection_built()) << "copies share one build of R";
}

// -- delta chains -------------------------------------------------------------

TEST(Evolution, DeltaChainAppliesAndCompactsBitwise) {
  auto snapshot = make_gzsl(9, 4);
  const InferenceEngine writer(snapshot);
  const auto v0 = writer.pin();
  const std::vector<std::uint8_t> flags = {1, 0, 0};
  const auto v1 = writer.append_classes(rand_attrs(3, 0xD1ULL), flags);
  const auto v2 = writer.append_classes(rand_attrs(2, 0xD2ULL));

  SnapshotDelta d1 = serve::make_delta(*v0, *v1);
  SnapshotDelta d2 = serve::make_delta(*v1, *v2);
  EXPECT_EQ(d1.n_new(), 3u);
  EXPECT_EQ(d2.base_version, 1u);

  // Serialization round trip is field-exact.
  std::stringstream ss;
  serve::save_delta(ss, d1);
  const SnapshotDelta r1 = serve::load_delta(ss);
  EXPECT_EQ(r1.base_rows, d1.base_rows);
  EXPECT_EQ(r1.base_checksum, d1.base_checksum);
  EXPECT_EQ(r1.new_checksum, d1.new_checksum);
  EXPECT_EQ(tensor::max_abs_diff(r1.normalized_rows, d1.normalized_rows), 0.0f);
  EXPECT_EQ(r1.packed_words, d1.packed_words);
  EXPECT_EQ(r1.seen_flags, d1.seen_flags);

  // Live application on a fresh engine reaches the writer's end state
  // bitwise.
  const InferenceEngine replica(snapshot);
  replica.append_delta(r1);
  const auto rv2 = replica.append_delta(d2);
  EXPECT_EQ(rv2->version, 2u);
  EXPECT_EQ(rv2->content_checksum, v2->content_checksum);
  EXPECT_EQ(rv2->seen_mask, v2->seen_mask);
  EXPECT_EQ(rv2->store->packed_copy(), v2->store->packed_copy());
  const Tensor probe = probe_embeddings(5);
  EXPECT_EQ(tensor::max_abs_diff(rv2->store->score_float(probe),
                                 v2->store->score_float(probe)),
            0.0f);

  // Offline compaction reaches it too, with the version counter advanced
  // by the chain length — and a full save/load of the compacted artifact
  // preserves every lineage field.
  auto compacted = serve::compact_snapshot(*snapshot, {d1, d2});
  EXPECT_EQ(compacted->store_version(), 2u);
  EXPECT_EQ(compacted->n_classes(), 18u);
  EXPECT_EQ(tensor::max_abs_diff(compacted->prototypes().normalized_copy(),
                                 v2->store->normalized_copy()),
            0.0f);
  EXPECT_EQ(compacted->prototypes().packed_copy(), v2->store->packed_copy());
  EXPECT_EQ(serve::content_checksum(compacted->prototypes(), compacted->seen_mask()),
            v2->content_checksum);

  std::stringstream snap_ss;
  serve::save_snapshot(snap_ss, *compacted);
  auto reloaded = serve::load_snapshot(snap_ss);
  EXPECT_EQ(reloaded->store_version(), 2u);
  EXPECT_EQ(reloaded->prototypes().packed_copy(), v2->store->packed_copy());
}

TEST(Evolution, CompactedSnapshotCarriesTheLiveChainsChecksum) {
  // Compaction chains the checksum link by link from the base snapshot's
  // carried value; the compacted snapshot adopts the chain's end, which
  // must be exactly the live writer's and a full re-hash's.
  auto snapshot = make_gzsl(9, 4);
  const InferenceEngine writer(snapshot);
  const auto v0 = writer.pin();
  EXPECT_EQ(v0->content_checksum, snapshot->content_checksum());
  const auto v1 = writer.append_classes(rand_attrs(3, 0xD3ULL), {0, 1, 0});
  const auto v2 = writer.append_classes(rand_attrs(4, 0xD4ULL));
  auto compacted = serve::compact_snapshot(
      *snapshot, {serve::make_delta(*v0, *v1), serve::make_delta(*v1, *v2)});
  EXPECT_EQ(compacted->content_checksum(), v2->content_checksum);
  EXPECT_EQ(compacted->content_checksum(),
            serve::content_checksum(compacted->prototypes(), compacted->seen_mask()));
  EXPECT_EQ(InferenceEngine(compacted).pin()->content_checksum, v2->content_checksum);

  // The compacted artifact saves the carried value; a reload verifies and
  // re-adopts it, and a second save is byte-identical to the first.
  std::stringstream first;
  serve::save_snapshot(first, *compacted);
  const std::string first_bytes = first.str();
  auto reloaded = serve::load_snapshot(first);
  EXPECT_EQ(reloaded->content_checksum(), v2->content_checksum);
  std::stringstream second;
  serve::save_snapshot(second, *reloaded);
  EXPECT_TRUE(second.str() == first_bytes) << "save -> load -> save drifted";
}

TEST(Evolution, MismatchedDeltaRejectedWithNothingPublished) {
  auto snapshot = make_snapshot(8);
  const InferenceEngine writer(snapshot);
  const auto v0 = writer.pin();
  const auto v1 = writer.append_classes(rand_attrs(2, 0xE1ULL));
  const auto v2 = writer.append_classes(rand_attrs(2, 0xE2ULL));
  const SnapshotDelta d2 = serve::make_delta(*v1, *v2);

  // Applying the chain's second link first: wrong base triple.
  const InferenceEngine replica(snapshot);
  EXPECT_THROW(replica.append_delta(d2), std::invalid_argument);
  EXPECT_EQ(replica.pin()->version, 0u);

  // A flipped payload byte: base triple matches, end checksum cannot.
  SnapshotDelta d1 = serve::make_delta(*v0, *v1);
  d1.normalized_rows.data()[0] += 1.0f;
  try {
    replica.append_delta(d1);
    FAIL() << "expected the corrupt delta to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
  EXPECT_EQ(replica.pin()->version, 0u);
  EXPECT_EQ(replica.pin()->content_checksum, v0->content_checksum);
}

TEST(Evolution, CompactionRejectsWhatLiveApplyRejects) {
  // Live apply and compaction take the same delta step, so every malformed
  // delta must fail both the same way: the same exception type naming the
  // same record, nothing published, nothing returned. The base carries an
  // IVF index and the engines serve cascade retrieval, so the two IVF
  // cases reach both paths.
  auto gzsl = make_gzsl(9, 4);
  gzsl->build_ivf();
  const std::shared_ptr<const ModelSnapshot> base = gzsl;
  const std::size_t cc = base->ivf()->n_centroids();
  const auto cascade_engine = [&] {
    return std::make_unique<const InferenceEngine>(
        base, ScoringMode::kFloatCosine, 0, 0.0f, serve::Precision::kFloat32,
        serve::RetrievalMode::kCascade);
  };
  const auto writer = cascade_engine();
  const auto v0 = writer->pin();
  const SnapshotDelta good = serve::make_delta(
      *v0, *writer->append_classes(rand_attrs(6, 0xB1ULL), {1, 0, 0, 1, 0, 0}));
  ASSERT_TRUE(good.has_ivf);
  ASSERT_EQ(good.ivf_assignments.size(), 6u);
  ASSERT_EQ(serve::compact_snapshot(*base, {good})->content_checksum(), good.new_checksum);

  struct Case {
    std::string name;
    std::function<void(SnapshotDelta&)> corrupt;
    bool invalid_argument;  // else std::runtime_error
    std::string record;
  };
  const std::vector<Case> cases = {
      {"base rows/version",
       [](SnapshotDelta& d) {
         ++d.base_rows;
         ++d.base_version;
       },
       true, "delta base ("},
      {"base checksum", [](SnapshotDelta& d) { d.base_checksum ^= 1; }, true,
       "base content checksum"},
      {"flipped payload float",
       [](SnapshotDelta& d) {
         d.normalized_rows = d.normalized_rows.clone();  // copies share storage
         d.normalized_rows.data()[3] += 1.0f;
       },
       false, "content checksum mismatch after append"},
      {"short seen flags", [](SnapshotDelta& d) { d.seen_flags.resize(1); }, true,
       "delta seen-flag count"},
      {"long seen flags", [](SnapshotDelta& d) { d.seen_flags.push_back(1); }, true,
       "delta seen-flag count"},
      {"attribute rows", [](SnapshotDelta& d) { d.attributes = rand_attrs(2, 0xB2ULL); }, true,
       "delta class-attribute rows"},
      {"attribute width",
       [](SnapshotDelta& d) {
         util::Rng rng(0xB3ULL);
         d.attributes = Tensor::randn({6, kAlpha + 1}, rng);
       },
       true, "delta class-attribute rows"},
      {"ivf assignment count", [](SnapshotDelta& d) { d.ivf_assignments.pop_back(); }, true,
       "delta ivf assignment count"},
      {"ivf assignment range",
       [cc](SnapshotDelta& d) { d.ivf_assignments[2] = static_cast<std::uint32_t>(cc); }, true,
       "delta ivf assignments"},
  };

  // Runs `apply`, which must throw the case's type; returns its message.
  const auto rejection = [](const Case& c, const std::function<void()>& apply) {
    try {
      apply();
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(c.invalid_argument) << c.name << ": " << e.what();
      return std::string(e.what());
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(c.invalid_argument) << c.name << ": " << e.what();
      return std::string(e.what());
    }
    ADD_FAILURE() << c.name << ": the malformed delta was applied";
    return std::string();
  };

  for (const Case& c : cases) {
    SnapshotDelta bad = good;
    c.corrupt(bad);

    const auto replica = cascade_engine();
    const std::string live = rejection(c, [&] { replica->append_delta(bad); });
    EXPECT_NE(live.find(c.record), std::string::npos) << c.name << ": " << live;
    EXPECT_EQ(replica->pin()->version, 0u) << c.name;
    EXPECT_EQ(replica->pin()->content_checksum, v0->content_checksum) << c.name;

    std::shared_ptr<ModelSnapshot> compacted;
    const std::string offline =
        rejection(c, [&] { compacted = serve::compact_snapshot(*base, {bad}); });
    EXPECT_NE(offline.find(c.record), std::string::npos) << c.name << ": " << offline;
    EXPECT_NE(offline.find("delta 0"), std::string::npos) << c.name << ": " << offline;
    EXPECT_EQ(compacted, nullptr) << c.name;
  }
}

// -- registry: delta routing, strong guarantee under a concurrent reader ------

TEST(Evolution, CorruptDeltaFileLeavesServedVersionAnsweringUnderConcurrentReader) {
  auto snapshot = make_snapshot(10);
  const InferenceEngine writer(snapshot);
  const auto base_ver = writer.pin();  // pin *before* the append publishes
  const SnapshotDelta good =
      serve::make_delta(*base_ver, *writer.append_classes(rand_attrs(3, 0xF1ULL)));

  const std::string good_path = "evolution_good.hdcdelta";
  const std::string bad_path = "evolution_bad.hdcdelta";
  serve::save_delta_file(good_path, good);
  {
    SnapshotDelta bad = good;
    bad.packed_words[0] ^= 0x8000000000000000ULL;  // checksum can no longer land
    serve::save_delta_file(bad_path, bad);
  }
  ASSERT_TRUE(serve::is_delta_file(good_path));

  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_delay_ms = 0.2;
  serve::ModelRegistry registry(cfg);
  registry.load("m", snapshot, ScoringMode::kFloatCosine);

  // Reader hammers the model throughout the failed apply; every request
  // must come back kOk against the intact version.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> served{0}, failed{0};
  std::thread reader([&] {
    util::Rng rng(0x77ULL);
    while (!stop.load()) {
      serve::InferRequest req;
      req.model_key = "m";
      req.input = Tensor::randn({kDim}, rng);
      req.k = 2;
      const serve::InferResult r = registry.submit(std::move(req)).get();
      (r.ok() ? served : failed).fetch_add(1);
    }
  });

  // Let traffic genuinely overlap the failed apply on both sides.
  while (served.load() == 0) std::this_thread::yield();
  EXPECT_THROW(registry.load_file("m", bad_path), std::runtime_error);
  EXPECT_EQ(registry.engine("m")->store_version(), 0u);
  EXPECT_EQ(registry.engine("m")->n_classes(), 10u);

  // The strong guarantee is not "fail once then wedge": the valid delta
  // still applies cleanly afterwards.
  registry.load_file("m", good_path);
  EXPECT_EQ(registry.engine("m")->store_version(), 1u);
  EXPECT_EQ(registry.engine("m")->n_classes(), 13u);
  const std::size_t before_grown = served.load();
  while (served.load() <= before_grown) std::this_thread::yield();

  stop.store(true);
  reader.join();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(served.load(), 0u);

  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

// -- append-while-serving storm ----------------------------------------------

TEST(Evolution, AppendWhileServingStormDropsNothingAndMatchesColdRebuild) {
  auto snapshot = make_gzsl(12, 6);
  serve::ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.batch.max_batch = 8;
  cfg.batch.max_delay_ms = 0.2;
  cfg.batch.max_queue_depth = 1 << 16;  // admission control must never trip
  serve::ModelRegistry registry(cfg);
  registry.load("m", snapshot, ScoringMode::kBinaryHamming);

  constexpr std::size_t kAppends = 6, kPerAppend = 2, kThreads = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> served{0}, failed{0};
  std::vector<std::thread> traffic;
  for (std::size_t t = 0; t < kThreads; ++t) {
    traffic.emplace_back([&, t] {
      util::Rng rng(0x1000ULL + t);
      while (!stop.load()) {
        serve::InferRequest req;
        req.model_key = "m";
        req.input = Tensor::randn({kDim}, rng);
        req.k = 3;
        const serve::InferResult r = registry.submit(std::move(req)).get();
        (r.ok() ? served : failed).fetch_add(1);
      }
    });
  }

  // Record the per-append deltas so the end state can be cold-rebuilt.
  std::vector<SnapshotDelta> chain;
  const auto engine = registry.engine("m");
  for (std::size_t a = 0; a < kAppends; ++a) {
    const auto before = engine->pin();
    const std::uint64_t ver = registry.append_classes(
        "m", rand_attrs(kPerAppend, 0x2000ULL + a), a % 2 ? std::vector<std::uint8_t>{1, 0}
                                                          : std::vector<std::uint8_t>{});
    EXPECT_EQ(ver, a + 1);
    chain.push_back(serve::make_delta(*before, *engine->pin()));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : traffic) t.join();

  EXPECT_EQ(failed.load(), 0u) << "the storm dropped requests";
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(engine->store_version(), kAppends);
  EXPECT_EQ(engine->n_classes(), 18 + kAppends * kPerAppend);

  // Post-swap top-k must be bit-identical to a cold engine rebuilt from
  // the compacted snapshot.
  auto compacted = serve::compact_snapshot(*snapshot, chain);
  const InferenceEngine cold(
      std::shared_ptr<const ModelSnapshot>(std::move(compacted)),
      ScoringMode::kBinaryHamming);
  const Tensor probe = probe_embeddings(8);
  expect_topk_identical(engine->topk_batch(probe, 5), cold.topk_batch(probe, 5),
                        "post-storm live vs compacted cold rebuild");
  EXPECT_EQ(engine->pin()->content_checksum, cold.pin()->content_checksum);
  registry.stop_all();
}

// -- GZSL auto-calibration ----------------------------------------------------

TEST(Evolution, PenaltyRecalibratesFromValidationSplitAfterAppend) {
  auto snapshot = make_gzsl(10, 5);

  // A perfectly separable split: the prototypes themselves, labeled.
  auto calib = std::make_shared<serve::GzslCalibration>();
  calib->embeddings = snapshot->prototypes().normalized_copy();
  calib->labels.resize(snapshot->n_classes());
  for (std::size_t c = 0; c < calib->labels.size(); ++c) calib->labels[c] = c;

  const InferenceEngine engine(snapshot, ScoringMode::kFloatCosine, 1, 0.0f,
                               serve::Precision::kFloat32, serve::RetrievalMode::kExact, 0, 4,
                               calib);
  const auto v0 = engine.pin();
  EXPECT_EQ(v0->penalty.penalty,
            serve::calibrate_seen_penalty(*v0->store, v0->seen_mask, *calib, false));

  const auto v1 = engine.append_classes(rand_attrs(4, 0xCA1ULL));
  EXPECT_EQ(v1->penalty.penalty,
            serve::calibrate_seen_penalty(*v1->store, v1->seen_mask, *calib, false));

  // Precedence: an explicit knob wins over the snapshot's persisted value
  // and survives appends unrecalibrated.
  const InferenceEngine knob(snapshot, ScoringMode::kFloatCosine, 1, 0.75f);
  EXPECT_EQ(knob.pin()->penalty.penalty, 0.75f);
  EXPECT_EQ(knob.append_classes(rand_attrs(2, 0xCA2ULL))->penalty.penalty, 0.75f);
}

TEST(Evolution, PersistedCalibratedPenaltyAdoptedOnLoad) {
  auto snapshot = make_gzsl(10, 5);
  snapshot->set_calibrated_penalty(0.375f);
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  auto loaded = serve::load_snapshot(ss);
  EXPECT_EQ(loaded->calibrated_penalty(), 0.375f);

  const InferenceEngine engine(std::shared_ptr<const ModelSnapshot>(std::move(loaded)));
  EXPECT_EQ(engine.pin()->penalty.penalty, 0.375f);
}

// -- registry metrics ---------------------------------------------------------

TEST(Evolution, RegistryExportsVersionMetricsAndTableColumn) {
  auto snapshot = make_snapshot(10);
  serve::ModelRegistry registry;
  registry.load("evo-metrics", snapshot, ScoringMode::kFloatCosine);
  auto& reg = obs::default_registry();
  EXPECT_EQ(reg.gauge("serve_store_version", {{"model", "evo-metrics"}})->value(), 0.0);

  registry.append_classes("evo-metrics", rand_attrs(4, 0x31ULL));
  registry.append_classes("evo-metrics", rand_attrs(3, 0x32ULL));
  EXPECT_EQ(reg.gauge("serve_store_version", {{"model", "evo-metrics"}})->value(), 2.0);
  EXPECT_EQ(reg.counter("serve_classes_appended_total", {{"model", "evo-metrics"}})->value(),
            7u);

  const std::string table = registry.to_table().to_text();
  EXPECT_NE(table.find("ver"), std::string::npos);
  registry.stop_all();
}

// -- the wire: kAppendClasses admin frames ------------------------------------

TEST(Evolution, AppendFrameCodecRoundTripsAndRejectsTruncation) {
  net::AppendRequest req;
  req.model_key = "m0";
  req.request_id = 42;
  req.attributes = rand_attrs(3, 0x99ULL);
  req.seen_flags = {1, 0, 1};

  const std::vector<char> frame = net::encode_append_request_frame(req);
  const net::FrameHeader header = net::decode_header(frame.data());
  EXPECT_EQ(header.type, net::FrameType::kAppendClasses);
  const net::AppendRequest back =
      net::decode_append_request_payload(frame.data() + net::kHeaderBytes,
                                         header.payload_bytes);
  EXPECT_EQ(back.model_key, "m0");
  EXPECT_EQ(back.request_id, 42u);
  EXPECT_EQ(back.seen_flags, req.seen_flags);
  EXPECT_EQ(tensor::max_abs_diff(back.attributes, req.attributes), 0.0f);

  // Every strict prefix fails by name, never by crash or partial object.
  for (std::size_t cut = 0; cut < header.payload_bytes; cut += 7)
    EXPECT_THROW(net::decode_append_request_payload(frame.data() + net::kHeaderBytes, cut),
                 net::ProtocolError);

  net::AppendResult res;
  res.request_id = 42;
  res.status = serve::InferStatus::kOk;
  res.version = 3;
  res.n_classes = 21;
  const std::vector<char> rframe = net::encode_append_response_frame(res);
  const net::FrameHeader rheader = net::decode_header(rframe.data());
  EXPECT_EQ(rheader.type, net::FrameType::kAppendResponse);
  const net::AppendResult rback = net::decode_append_response_payload(
      rframe.data() + net::kHeaderBytes, rheader.payload_bytes);
  EXPECT_EQ(rback.version, 3u);
  EXPECT_EQ(rback.n_classes, 21u);
}

TEST(Evolution, WireAppendGrowsServedModelAndRejectsBadShapes) {
  auto snapshot = make_snapshot(10);
  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_delay_ms = 0.2;
  serve::ModelRegistry registry(cfg);
  registry.load("m0", snapshot, ScoringMode::kFloatCosine);

  net::NetServerConfig ncfg;
  ncfg.port = 0;
  net::NetServer server(registry, ncfg);
  server.start();
  net::NetClient client("127.0.0.1", server.port());

  // A mismatched attribute width is a named status with nothing published.
  util::Rng bad_rng(0x17ULL);
  net::AppendRequest bad;
  bad.model_key = "m0";
  bad.attributes = Tensor::randn({2, kAlpha + 1}, bad_rng);
  const net::AppendResult bad_res = client.append_classes(std::move(bad));
  EXPECT_NE(bad_res.status, serve::InferStatus::kOk);
  EXPECT_EQ(registry.engine("m0")->store_version(), 0u);

  net::AppendRequest good;
  good.model_key = "m0";
  good.attributes = rand_attrs(4, 0x44ULL);
  good.seen_flags = {0, 1, 0, 0};
  const net::AppendResult res = client.append_classes(std::move(good));
  EXPECT_EQ(res.status, serve::InferStatus::kOk) << res.message;
  EXPECT_EQ(res.version, 1u);
  EXPECT_EQ(res.n_classes, 14u);
  EXPECT_EQ(registry.engine("m0")->n_classes(), 14u);

  // An unknown key resolves to kBadModel, connection intact.
  net::AppendRequest ghost;
  ghost.model_key = "nope";
  ghost.attributes = rand_attrs(1, 0x45ULL);
  EXPECT_EQ(client.append_classes(std::move(ghost)).status, serve::InferStatus::kBadModel);
  EXPECT_TRUE(client.connected());

  // Inference over the grown space works on the same connection.
  serve::InferRequest req;
  req.model_key = "m0";
  req.input = probe_embeddings(1);
  req.k = 14;
  const serve::InferResult r = client.infer(std::move(req));
  EXPECT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.topk.size(), 14u);

  client.close();
  server.stop();
  registry.stop_all();
}

}  // namespace
}  // namespace hdczsc
