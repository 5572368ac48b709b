// Sharded scatter/gather retrieval: the gathered top-k must equal the flat
// store's full argsort exactly — labels AND scores — on both scoring paths,
// for balanced and ragged shard layouts, k > C, S > C, and through the
// engine / registry / snapshot-format layers (old version-1 .hdcsnap files
// load as S = 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "core/zsc_model.hpp"
#include "data/attribute_space.hpp"
#include "serve/model_registry.hpp"
#include "serve/sharded_store.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace hdczsc {
namespace {

using serve::PrototypeStore;
using serve::ShardedPrototypeStore;
using serve::TopK;
using tensor::Tensor;

/// The ordering contract shared by the sharded gather and this file's flat
/// reference: score descending, label ascending on exact ties.
bool better(const TopK& a, const TopK& b) {
  return a.score > b.score || (a.score == b.score && a.label < b.label);
}

/// Flat reference: full argsort of a [B, C] logit matrix, cut to k.
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
      EXPECT_EQ(got[b][i].label, want[b][i].label)
          << what << " query " << b << " rank " << i;
      // Bit-identical, not approximately equal: the sharded scan must
      // produce the same float the flat path materializes.
      EXPECT_EQ(got[b][i].score, want[b][i].score)
          << what << " query " << b << " rank " << i;
    }
  }
}

PrototypeStore make_store(std::size_t classes, std::size_t dim, std::size_t expansion = 1,
                          std::uint64_t seed = 7, float scale = 4.0f) {
  util::Rng rng(seed);
  return PrototypeStore(Tensor::randn({classes, dim}, rng), scale, expansion);
}

// -- exactness against the flat argsort --------------------------------------

TEST(ShardedStore, FloatTopkMatchesFlatArgsort) {
  const PrototypeStore store = make_store(100, 64);
  util::Rng rng(11);
  const Tensor emb = Tensor::randn({5, 64}, rng);
  const auto want = flat_topk(store.score_float(emb), 7);
  for (std::size_t shards : {1u, 2u, 3u, 5u, 16u, 100u}) {
    const ShardedPrototypeStore sharded(store, shards);
    expect_identical(sharded.topk_float(emb, 7), want,
                     "float S=" + std::to_string(shards));
  }
}

TEST(ShardedStore, BinaryTopkMatchesFlatArgsort) {
  // The binary path selects in the integer Hamming domain, so exact
  // equality holds at any scale; 999 rows / 7 shards is deliberately
  // ragged (142×6 + 147... i.e. non-uniform shard heights).
  const PrototypeStore store = make_store(999, 128, /*expansion=*/2);
  util::Rng rng(13);
  const Tensor emb = Tensor::randn({4, 128}, rng);
  const auto want = flat_topk(store.score_binary(emb), 10);
  for (std::size_t shards : {1u, 4u, 7u, 64u}) {
    const ShardedPrototypeStore sharded(store, shards);
    expect_identical(sharded.topk_binary(emb, 10), want,
                     "binary S=" + std::to_string(shards));
  }
}

TEST(ShardedStore, FloatRankingSurvivesBlockedGemmScale) {
  // Every product runs the one blocked GEMM kernel, whose scores do not
  // depend on how many rows a shard hands it: labels and scores agree with
  // the flat scan at every shard count.
  const PrototypeStore store = make_store(600, 128);
  util::Rng rng(17);
  const Tensor emb = Tensor::randn({4, 128}, rng);
  const auto want = flat_topk(store.score_float(emb), 8);
  for (std::size_t shards : {1u, 4u, 16u, 64u}) {
    const ShardedPrototypeStore sharded(store, shards);
    expect_identical(sharded.topk_float(emb, 8), want, "float S=" + std::to_string(shards));
  }
}

TEST(ShardedStore, FloatScoresOfAQueryDoNotDependOnItsBatch) {
  // image-cub's store shape. Each query scored alone must get the bits it
  // gets inside a batch of any size, flat and sharded.
  const PrototypeStore store = make_store(50, 256);
  util::Rng rng(19);
  const std::size_t n = 16, k = 5;
  const Tensor emb = Tensor::randn({n, 256}, rng);
  const auto rows = [&](std::size_t first, std::size_t count) {
    Tensor out({count, 256});
    std::copy(emb.data() + first * 256, emb.data() + (first + count) * 256, out.data());
    return out;
  };
  const ShardedPrototypeStore sharded(store, 4);
  std::vector<Tensor> alone_logits;
  std::vector<std::vector<TopK>> alone_topk;
  for (std::size_t q = 0; q < n; ++q) {
    alone_logits.push_back(store.score_float(rows(q, 1)));
    alone_topk.push_back(sharded.topk_float(rows(q, 1), k)[0]);
  }
  for (std::size_t batch = 2; batch <= n; ++batch) {
    for (std::size_t first = 0; first < n; first += batch) {
      const std::size_t count = std::min(batch, n - first);
      const Tensor x = rows(first, count);
      const Tensor logits = store.score_float(x);
      const auto topk = sharded.topk_float(x, k);
      for (std::size_t i = 0; i < count; ++i) {
        const std::string what =
            "query " + std::to_string(first + i) + " in a batch of " + std::to_string(count);
        for (std::size_t c = 0; c < store.n_classes(); ++c)
          ASSERT_EQ(logits.at(i, c), alone_logits[first + i].at(0, c)) << what << " class " << c;
        expect_identical({topk[i]}, {alone_topk[first + i]}, what);
      }
    }
  }
}

TEST(ShardedStore, MultiQueryKernelMatchesPerQueryKernel) {
  // The query-blocked sweep must agree with the single-query kernel for
  // every block-remainder shape (1..6 queries) and every width class of
  // the avx512 layout: rows in lanes (1, 2, 4, 8 words), the popcnt loop
  // (3), and one register per row (9, 32).
  util::Rng rng(5);
  for (std::size_t words : {1u, 2u, 3u, 4u, 8u, 9u, 32u}) {
    for (std::size_t n_queries : {1u, 2u, 3u, 4u, 5u, 6u}) {
      const std::size_t n_rows = 37;
      std::vector<std::uint64_t> rows(n_rows * words), queries(n_queries * words);
      for (auto& w : rows) w = rng.next_u64();
      for (auto& w : queries) w = rng.next_u64();
      std::vector<std::uint32_t> got(n_queries * n_rows), want(n_queries * n_rows);
      hdc::hamming_many_packed_multi(queries.data(), n_queries, rows.data(), n_rows, words,
                                     got.data());
      for (std::size_t q = 0; q < n_queries; ++q)
        hdc::hamming_many_packed(queries.data() + q * words, rows.data(), n_rows, words,
                                 want.data() + q * n_rows);
      EXPECT_EQ(got, want) << "words=" << words << " queries=" << n_queries;
    }
  }
}

// -- shard layout and edge cases ---------------------------------------------

TEST(ShardedStore, RaggedShardLayoutPartitionsRows) {
  const PrototypeStore store = make_store(101, 32);
  const ShardedPrototypeStore sharded(store, 7);
  ASSERT_EQ(sharded.n_shards(), 7u);
  std::size_t next = 0, min_rows = 101, max_rows = 0;
  for (std::size_t s = 0; s < sharded.n_shards(); ++s) {
    EXPECT_EQ(sharded.shard_begin(s), next);
    const std::size_t rows = sharded.shard_end(s) - sharded.shard_begin(s);
    min_rows = std::min(min_rows, rows);
    max_rows = std::max(max_rows, rows);
    next = sharded.shard_end(s);
  }
  EXPECT_EQ(next, 101u);          // exact cover, no gaps or overlap
  EXPECT_EQ(max_rows - min_rows, 1u);  // balanced: heights differ by ≤ 1
}

TEST(ShardedStore, KLargerThanClassesReturnsFullRanking) {
  const PrototypeStore store = make_store(12, 48);
  util::Rng rng(19);
  const Tensor emb = Tensor::randn({3, 48}, rng);
  const ShardedPrototypeStore sharded(store, 5);
  const auto got_f = sharded.topk_float(emb, 50);
  const auto got_b = sharded.topk_binary(emb, 50);
  expect_identical(got_f, flat_topk(store.score_float(emb), 50), "float k>C");
  expect_identical(got_b, flat_topk(store.score_binary(emb), 50), "binary k>C");
  ASSERT_EQ(got_f[0].size(), 12u);  // min(k, C) entries
}

TEST(ShardedStore, MoreShardsThanClassesClampsToOneRowEach) {
  const PrototypeStore store = make_store(12, 48);
  const ShardedPrototypeStore sharded(store, 40);
  EXPECT_EQ(sharded.n_shards(), 12u);
  util::Rng rng(23);
  const Tensor emb = Tensor::randn({2, 48}, rng);
  expect_identical(sharded.topk_binary(emb, 3), flat_topk(store.score_binary(emb), 3),
                   "binary S>C");
  expect_identical(sharded.topk_float(emb, 3), flat_topk(store.score_float(emb), 3),
                   "float S>C");
}

TEST(ShardedStore, KZeroYieldsEmptyResults) {
  const PrototypeStore store = make_store(10, 32);
  util::Rng rng(29);
  const Tensor emb = Tensor::randn({3, 32}, rng);
  const ShardedPrototypeStore sharded(store, 3);
  for (const auto& hits : sharded.topk_float(emb, 0)) EXPECT_TRUE(hits.empty());
  for (const auto& hits : sharded.topk_binary(emb, 0)) EXPECT_TRUE(hits.empty());
}

TEST(ShardedStore, ShardStatsCountScans) {
  const PrototypeStore store = make_store(100, 32);
  util::Rng rng(31);
  const Tensor emb = Tensor::randn({4, 32}, rng);
  const ShardedPrototypeStore sharded(store, 3);
  sharded.topk_binary(emb, 5);
  sharded.topk_float(emb, 5);
  const auto stats = sharded.shard_stats();
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.scans, 8u);  // 4 queries × 2 scoring paths
    EXPECT_EQ(s.rows_swept, 8u * s.rows);
  }
}

TEST(ShardedStore, BinaryPruneCountReplaysTheBlockRuleOnOneWorker) {
  // With one worker the shards scan in order, and each query's heap starts
  // from the smallest k-th best key the earlier shards published. The rows
  // a shard prunes are then the full 16-row blocks (counted from the
  // shard's first row) whose every (h + Δ) count is above the heap's
  // threshold sampled at the block's start. Replay that rule from per-row
  // Hamming counts and require each shard's rows_pruned to match, with and
  // without an integer-exact GZSL offset.
  struct RestoreWorkers {
    ~RestoreWorkers() { util::set_worker_count(0); }
  } restore;
  util::set_worker_count(1);
  struct Shape {
    std::size_t classes, dim, expansion, shards, k;
  };
  for (const Shape sh : {Shape{2000, 64, 4, 4, 10}, Shape{777, 48, 3, 5, 7},
                         Shape{600, 64, 16, 3, 5}}) {
    const PrototypeStore store = make_store(sh.classes, sh.dim, sh.expansion);
    const std::size_t words = store.words_per_row();
    std::vector<std::uint8_t> seen(sh.classes);
    for (std::size_t c = 0; c < sh.classes; ++c) seen[c] = c % 3 == 0;
    // penalty = 2s·Δ/D at scale 4 and Δ = D/16: integer-exact.
    const serve::SeenPenalty p = store.resolve_penalty(0.5f, seen);
    ASSERT_TRUE(p.integer_exact);
    util::Rng rng(37);
    const Tensor emb = Tensor::randn({6, sh.dim}, rng);
    for (const serve::SeenPenalty* pen : {static_cast<const serve::SeenPenalty*>(nullptr), &p}) {
      const ShardedPrototypeStore sharded(store, sh.shards);
      sharded.topk_binary(emb, sh.k, pen);
      const auto stats = sharded.shard_stats();

      std::vector<std::uint64_t> hint(emb.size(0), ~std::uint64_t{0});
      std::uint64_t total = 0;
      for (std::size_t s = 0; s < sharded.n_shards(); ++s) {
        const std::size_t begin = sharded.shard_begin(s), end = sharded.shard_end(s);
        std::uint64_t pruned = 0;
        for (std::size_t b = 0; b < emb.size(0); ++b) {
          const hdc::BinaryHV q = store.encode_query(emb.data() + b * sh.dim);
          std::uint64_t bound = hint[b];
          std::vector<std::uint64_t> kept;  // ascending
          const auto key_of = [&](std::size_t row) {
            const std::uint64_t* code = store.packed_data() + row * words;
            std::uint64_t h = 0;
            for (std::size_t w = 0; w < words; ++w)
              h += static_cast<std::uint64_t>(std::popcount(q.words()[w] ^ code[w]));
            if (pen) h += pen->row_offset[row];
            return (h << 32) | row;
          };
          const auto offer = [&](std::uint64_t key) {
            if (key >= bound) return;
            kept.insert(std::lower_bound(kept.begin(), kept.end(), key), key);
            if (kept.size() > sh.k) kept.pop_back();
            if (kept.size() == sh.k) bound = std::min(bound, kept.back());
          };
          std::size_t i = begin;
          for (; i + 16 <= end; i += 16) {
            const std::uint64_t t = bound >> 32;
            bool open = false;
            for (std::size_t j = 0; j < 16; ++j) open = open || (key_of(i + j) >> 32) <= t;
            if (!open) {
              pruned += 16;
              continue;
            }
            for (std::size_t j = 0; j < 16; ++j) offer(key_of(i + j));
          }
          for (; i < end; ++i) offer(key_of(i));
          if (kept.size() == sh.k) hint[b] = std::min(hint[b], kept.back());
        }
        EXPECT_EQ(stats[s].rows_pruned, pruned)
            << "C=" << sh.classes << " shard " << s << (pen ? " penalized" : "");
        total += pruned;
      }
      EXPECT_GT(total, 0u) << "C=" << sh.classes;  // the replay is not vacuous
    }
  }
}

// -- engine / registry / snapshot layers -------------------------------------

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

std::shared_ptr<const serve::ModelSnapshot> make_snapshot(std::size_t classes,
                                                          std::size_t preferred_shards = 1) {
  const std::size_t n_attributes = 24, dim = 64;
  util::Rng rng(0xFACEULL);
  return std::make_shared<const serve::ModelSnapshot>(
      make_model(n_attributes, dim), Tensor::randn({classes, n_attributes}, rng),
      /*binary_expansion=*/1, preferred_shards);
}

TEST(ShardedEngine, TopkBatchMatchesFlatLogits) {
  auto snapshot = make_snapshot(40);
  util::Rng rng(37);
  const Tensor images = Tensor::randn({6, 3, 32, 32}, rng);
  for (serve::ScoringMode mode :
       {serve::ScoringMode::kFloatCosine, serve::ScoringMode::kBinaryHamming}) {
    const serve::InferenceEngine engine(snapshot, mode, /*n_shards=*/3);
    EXPECT_EQ(engine.n_shards(), 3u);
    expect_identical(engine.topk_batch(images, 5), flat_topk(engine.logits(images), 5),
                     scoring_mode_name(mode));
  }
}

TEST(ShardedEngine, ClassifyBatchAgreesAcrossShardCounts) {
  auto snapshot = make_snapshot(40);
  util::Rng rng(41);
  const Tensor images = Tensor::randn({5, 3, 32, 32}, rng);
  const serve::InferenceEngine flat(snapshot, serve::ScoringMode::kBinaryHamming, 1);
  const serve::InferenceEngine sharded(snapshot, serve::ScoringMode::kBinaryHamming, 4);
  const auto a = flat.classify_batch(images);
  const auto b = sharded.classify_batch(images);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "image " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "image " << i;
  }
}

TEST(ShardedEngine, ZeroShardsUsesSnapshotPreference) {
  auto snapshot = make_snapshot(40, /*preferred_shards=*/5);
  const serve::InferenceEngine engine(snapshot, serve::ScoringMode::kFloatCosine, 0);
  EXPECT_EQ(engine.n_shards(), 5u);
  const serve::InferenceEngine overridden(snapshot, serve::ScoringMode::kFloatCosine, 2);
  EXPECT_EQ(overridden.n_shards(), 2u);
}

TEST(ShardedRegistry, ShardKnobAndPerShardStats) {
  serve::ServerConfig cfg;
  cfg.batch.max_delay_ms = 1.0;
  cfg.n_shards = 3;
  serve::ModelRegistry registry(cfg);
  registry.load("m", make_snapshot(40), serve::ScoringMode::kBinaryHamming);
  util::Rng rng(43);
  for (int i = 0; i < 4; ++i) {
    serve::InferRequest req;
    req.model_key = "m";
    req.input = Tensor::randn({3, 32, 32}, rng);
    req.k = 1;
    ASSERT_EQ(registry.submit(std::move(req)).get().status, serve::InferStatus::kOk);
  }
  const auto stats = registry.shard_stats("m");
  ASSERT_EQ(stats.size(), 3u);
  std::uint64_t scans = 0;
  for (const auto& s : stats) scans += s.scans;
  EXPECT_GT(scans, 0u);
  registry.to_table().print();  // shards column renders
  registry.stop_all();
  EXPECT_THROW(registry.shard_stats("nope"), serve::ModelNotFound);
}

// -- snapshot format: v2 shard record, v1 backward compatibility -------------

TEST(ShardedSnapshotIo, V2RoundTripPreservesPreferredShards) {
  auto snapshot = make_snapshot(40, /*preferred_shards=*/4);
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  const auto info = serve::inspect_snapshot(ss);
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_EQ(info.preferred_shards, 4u);
  ss.seekg(0);
  auto loaded = serve::load_snapshot(ss);
  EXPECT_EQ(loaded->preferred_shards(), 4u);
  // n_shards = 0 ⇒ the engine adopts the artifact's layout.
  const serve::InferenceEngine engine(loaded, serve::ScoringMode::kFloatCosine);
  EXPECT_EQ(engine.n_shards(), 4u);
}

TEST(ShardedSnapshotIo, V1FileLoadsAsFlatStore) {
  auto snapshot = make_snapshot(40, /*preferred_shards=*/4);
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  std::string bytes = ss.str();
  // Reconstruct the version-1 layout byte-for-byte: v2 appended one u64
  // shard record, v3 one u64 seen count + ⌈C/64⌉ u64 mask words, v4 one
  // u8 has_quant flag, v5 one u8 has_ivf flag, and v6 the 20-byte lineage
  // block (u64 version + f32 penalty + u64 checksum), all immediately
  // before the end marker — so for C = 40 dropping those
  // 8 + 8 + 8 + 1 + 1 + 20 bytes and rewriting the u32 version field
  // yields a genuine v1 file.
  ASSERT_EQ(bytes.substr(bytes.size() - 4), "PANS");
  bytes.erase(bytes.size() - 4 - 46, 46);
  const std::uint32_t v1 = 1;
  bytes.replace(4, 4, reinterpret_cast<const char*>(&v1), 4);

  std::istringstream v1_file(bytes);
  auto loaded = serve::load_snapshot(v1_file);
  EXPECT_EQ(loaded->preferred_shards(), 1u);

  std::istringstream v1_again(bytes);
  const auto info = serve::inspect_snapshot(v1_again);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.preferred_shards, 1u);

  // And the v1 artifact still scores bit-identically to the v2 one.
  util::Rng rng(47);
  const Tensor probe = Tensor::randn({4, 3, 32, 32}, rng);
  std::stringstream v2_file(ss.str());
  auto v2_loaded = serve::load_snapshot(v2_file);
  EXPECT_EQ(tensor::max_abs_diff(
                loaded->prototypes().score_float(loaded->embed(probe)),
                v2_loaded->prototypes().score_float(v2_loaded->embed(probe))),
            0.0f);
}

TEST(ShardedSnapshotIo, FutureVersionRejectedNamingSupportedRange) {
  auto snapshot = make_snapshot(12);
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  std::string bytes = ss.str();
  const std::uint32_t future = serve::kSnapshotVersion + 1;
  bytes.replace(4, 4, reinterpret_cast<const char*>(&future), 4);
  std::istringstream f(bytes);
  try {
    serve::load_snapshot(f);
    FAIL() << "future version must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version"), std::string::npos);
  }
}

}  // namespace
}  // namespace hdczsc
