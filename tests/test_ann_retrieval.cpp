// Approximate retrieval property suite: the IVF + fused scan + cascade tier
// (serve/ann_store.hpp) must *degenerate to the exact sharded scan
// bit-for-bit* when its approximation knobs are opened up (nprobe == Cc,
// unbounded rerank) — on both scoring paths, across code widths, ragged
// code widths and GZSL penalty forms — and at its defaults must hold
// recall@10 ≥ 0.99 on clustered label spaces. The index persists through
// the .hdcsnap v5 record pair (older versions load exact-only), rebuilds
// deterministically, rejects truncated/corrupt records by name, and stays
// safe under concurrent probe/hot-swap storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "core/zsc_model.hpp"
#include "data/attribute_space.hpp"
#include "obs/metrics.hpp"
#include "serve/ann_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/snapshot_io.hpp"
#include "serve/store_version.hpp"
#include "tensor/ops.hpp"

namespace hdczsc {
namespace {

using serve::IvfIndex;
using serve::PrototypeStore;
using serve::RetrievalMode;
using serve::SeenPenalty;
using serve::ShardedPrototypeStore;
using serve::TopK;
using tensor::Tensor;

/// The ordering contract shared by every retrieval tier: score descending,
/// label ascending on exact ties.
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
      EXPECT_EQ(got[b][i].label, want[b][i].label) << what << " query " << b << " rank " << i;
      // Bit-identical, not approximately equal: opening the approximation
      // knobs must reproduce the exact scan's floats, not resemble them.
      EXPECT_EQ(got[b][i].score, want[b][i].score) << what << " query " << b << " rank " << i;
    }
  }
}

PrototypeStore make_store(std::size_t classes, std::size_t dim, std::size_t expansion = 1,
                          std::uint64_t seed = 7, float scale = 4.0f) {
  util::Rng rng(seed);
  return PrototypeStore(Tensor::randn({classes, dim}, rng), scale, expansion);
}

/// Mask with every third class seen — interleaved, never contiguous.
std::vector<std::uint8_t> striped_mask(std::size_t classes) {
  std::vector<std::uint8_t> mask(classes, 0);
  for (std::size_t c = 0; c < classes; c += 3) mask[c] = 1;
  return mask;
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

std::shared_ptr<serve::ModelSnapshot> make_snapshot(std::size_t classes,
                                                    bool with_ivf = false) {
  const std::size_t n_attributes = 24, dim = 64;
  util::Rng rng(0xFACEULL);
  auto snap = std::make_shared<serve::ModelSnapshot>(
      make_model(n_attributes, dim), Tensor::randn({classes, n_attributes}, rng),
      /*binary_expansion=*/1, /*preferred_shards=*/1);
  if (with_ivf) snap->build_ivf();
  return snap;
}

serve::InferResult submit_one(serve::ModelRegistry& registry, const std::string& key,
                              Tensor input) {
  serve::InferRequest req;
  req.model_key = key;
  req.input = std::move(input);
  req.k = 1;
  return registry.submit(std::move(req)).get();
}

// -- mode plumbing -----------------------------------------------------------

TEST(AnnRetrieval, ModeNamesRoundTrip) {
  for (RetrievalMode m : {RetrievalMode::kExact, RetrievalMode::kIvf, RetrievalMode::kCascade})
    EXPECT_EQ(serve::retrieval_mode_from_name(serve::retrieval_mode_name(m)), m);
  EXPECT_EQ(serve::retrieval_mode_name(RetrievalMode::kExact), "exact");
  EXPECT_EQ(serve::retrieval_mode_name(RetrievalMode::kIvf), "ivf");
  EXPECT_EQ(serve::retrieval_mode_name(RetrievalMode::kCascade), "cascade");
  EXPECT_THROW(serve::retrieval_mode_from_name("annoy"), std::invalid_argument);
}

// -- coarse quantizer build --------------------------------------------------

TEST(IvfBuild, KMeansPartitionCoversEveryRowOnce) {
  const PrototypeStore store = make_store(300, 64);
  const IvfIndex ivf(store);
  // Auto centroid count ~√C, clamped into [1, C].
  EXPECT_GE(ivf.n_centroids(), 2u);
  EXPECT_LE(ivf.n_centroids(), 300u);
  ASSERT_EQ(ivf.assignments().size(), 300u);
  std::size_t listed = 0;
  for (std::size_t c = 0; c < ivf.n_centroids(); ++c) listed += ivf.list_size(c);
  EXPECT_EQ(listed, 300u);  // the inverted lists partition the rows exactly
  for (std::uint32_t a : ivf.assignments()) EXPECT_LT(a, ivf.n_centroids());
  // Spherical k-means: every centroid row is unit-norm.
  const Tensor& cm = ivf.centroids();
  ASSERT_EQ(cm.size(0), ivf.n_centroids());
  ASSERT_EQ(cm.size(1), 64u);
  for (std::size_t c = 0; c < ivf.n_centroids(); ++c) {
    double n2 = 0.0;
    const float* row = cm.data() + c * 64;
    for (std::size_t j = 0; j < 64; ++j) n2 += double(row[j]) * row[j];
    EXPECT_NEAR(n2, 1.0, 1e-4) << "centroid " << c;
  }
}

TEST(IvfBuild, RebuildIsDeterministic) {
  // Pre-v5 snapshots rebuild the index on load; the rebuild must equal the
  // index a v5 writer would have persisted — seeded k-means, bit-for-bit.
  const PrototypeStore store = make_store(257, 48, /*expansion=*/2);
  const IvfIndex a(store);
  const IvfIndex b(store);
  EXPECT_EQ(a.n_centroids(), b.n_centroids());
  EXPECT_EQ(a.assignments(), b.assignments());
  EXPECT_EQ(tensor::max_abs_diff(a.centroids(), b.centroids()), 0.0f);
}

TEST(IvfBuild, ExtendingNoRowsReassignsEveryRowAsTheBuildDid) {
  // Appends assign their rows with the routine k-means' final pass used, so
  // re-assigning a whole store over the built centroids reproduces the
  // built assignments.
  for (const std::size_t classes : {300u, 3000u}) {  // one and three assignment chunks
    const PrototypeStore store = make_store(classes, 48);
    const IvfIndex ivf(store);
    EXPECT_EQ(serve::extend_ivf_assignments(ivf.centroids(), {}, store, 0), ivf.assignments())
        << classes << " classes";
  }
}

TEST(IvfBuild, FromPartsRejectsMismatchedGeometry) {
  const PrototypeStore store = make_store(50, 32);
  const IvfIndex built(store);
  // Wrong centroid width.
  util::Rng rng(3);
  EXPECT_THROW(IvfIndex::from_parts(store, Tensor::randn({4, 16}, rng),
                                    std::vector<std::uint32_t>(50, 0)),
               std::invalid_argument);
  // Wrong assignment count.
  EXPECT_THROW(
      IvfIndex::from_parts(store, built.centroids(), std::vector<std::uint32_t>(49, 0)),
      std::invalid_argument);
  // Assignment out of centroid range.
  std::vector<std::uint32_t> bad = built.assignments();
  bad[7] = static_cast<std::uint32_t>(built.n_centroids());
  EXPECT_THROW(IvfIndex::from_parts(store, built.centroids(), bad), std::invalid_argument);
  // And the good parts round-trip into an identical index.
  const IvfIndex adopted =
      IvfIndex::from_parts(store, built.centroids(), built.assignments());
  EXPECT_EQ(adopted.assignments(), built.assignments());
  EXPECT_EQ(tensor::max_abs_diff(adopted.centroids(), built.centroids()), 0.0f);
}

// -- full-probe degeneracy: the tier's central property ----------------------

/// The stores the full-probe float tests run on: a small one, and one whose
/// probed lists span several re-score chunks.
struct FloatShape {
  std::size_t classes, dim, expansion;
};
constexpr FloatShape kFloatShapes[] = {{100, 64, 1}, {5000, 64, 4}};

TEST(IvfExact, FloatFullProbeMatchesShardedBitwise) {
  // The rerank scores rows through the exact scans' GEMM, so a full probe
  // reproduces the sharded scores bit for bit at any store size.
  for (const FloatShape s : kFloatShapes) {
    const PrototypeStore store = make_store(s.classes, s.dim, s.expansion);
    const ShardedPrototypeStore sharded(store, 1);
    const IvfIndex ivf(store);
    util::Rng rng(11);
    const Tensor emb = Tensor::randn({5, s.dim}, rng);
    for (std::size_t k : {1u, 7u, 100u})
      expect_identical(ivf.topk_float(emb, k, ivf.n_centroids()), sharded.topk_float(emb, k),
                       "float full-probe C=" + std::to_string(s.classes) +
                           " k=" + std::to_string(k));
  }
}

TEST(IvfExact, BinaryFullProbeMatchesShardedBitwise) {
  // Integer-domain selection holds exactly at any scale; sweep ragged code
  // widths (2, 4 and 7 words per row) and both expansion regimes.
  struct Shape {
    std::size_t classes, dim, expansion;
  };
  for (const Shape s : {Shape{999, 128, 2}, Shape{300, 40, 5}, Shape{101, 96, 1}}) {
    const PrototypeStore store = make_store(s.classes, s.dim, s.expansion);
    const ShardedPrototypeStore sharded(store, 3);
    const IvfIndex ivf(store);
    util::Rng rng(13);
    const Tensor emb = Tensor::randn({4, s.dim}, rng);
    expect_identical(ivf.topk_binary(emb, 10, ivf.n_centroids()),
                     sharded.topk_binary(emb, 10),
                     "binary full-probe C=" + std::to_string(s.classes));
  }
}

TEST(IvfExact, CascadeUnboundedRerankMatchesExactFloat) {
  for (const FloatShape s : kFloatShapes) {
    const PrototypeStore store = make_store(s.classes, s.dim, s.expansion);
    const ShardedPrototypeStore sharded(store, 1);
    const IvfIndex ivf(store);
    util::Rng rng(17);
    const Tensor emb = Tensor::randn({5, s.dim}, rng);
    const auto want = sharded.topk_float(emb, 7);
    // rerank == 0 (unbounded) and any rerank whose budget covers every
    // probed row both skip nothing — exact float top-k either way.
    const std::string where = " C=" + std::to_string(s.classes);
    expect_identical(ivf.topk_cascade(emb, 7, ivf.n_centroids(), 0), want,
                     "cascade rerank=0" + where);
    expect_identical(ivf.topk_cascade(emb, 7, ivf.n_centroids(), 1000), want,
                     "cascade rerank=1000" + where);
  }
}

// -- fused scan across code widths -------------------------------------------

/// The code widths the sweeps below cover: expansion e over d = 64 gives
/// e words per row — the rows-in-lanes layouts (1, 2, 4, 8), the popcnt
/// widths between them, and the wide rows (9 and up) whose blocks take the
/// first-register test.
constexpr std::size_t kMaxExpansion = 32;

TEST(EarlyExit, FullProbeMatchesExactAtEveryCodeWidth) {
  // The IVF list scans run the exact sharded scan's fused kernel over the
  // list-ordered code plane, so a full probe must return the same bits at
  // every width. The block test may prune or not — it must never change
  // the answer, and it must fire on 8- and 32-word codes.
  for (std::size_t e = 1; e <= kMaxExpansion; ++e) {
    const PrototypeStore store = make_store(400, 64, e);
    ASSERT_EQ(store.words_per_row(), e);
    const ShardedPrototypeStore sharded(store, 3);
    const IvfIndex ivf(store);
    util::Rng rng(19);
    const Tensor emb = Tensor::randn({3, 64}, rng);
    expect_identical(ivf.topk_binary(emb, 5, ivf.n_centroids()), sharded.topk_binary(emb, 5),
                     "words=" + std::to_string(e));
    if (e == 8 || e == 32) {
      EXPECT_GT(ivf.probe_stats().rows_pruned, 0u) << "words=" << e;
    }
  }
}

TEST(EarlyExit, GzslIntegerOffsetStaysExactAtEveryCodeWidth) {
  // Integer-exact handicap (scale 4, D = 64e ⇒ penalty 1/8 is Δ = e bits):
  // the block test and the offset fold both live in the integer Hamming
  // domain, so the penalized list scan must equal the penalized exact scan
  // bitwise at every width.
  for (std::size_t e = 1; e <= kMaxExpansion; ++e) {
    const PrototypeStore store = make_store(500, 64, e);
    const SeenPenalty p = store.resolve_penalty(0.125f, striped_mask(500));
    ASSERT_TRUE(p.integer_exact) << "words=" << e;
    const ShardedPrototypeStore sharded(store, 2);
    const IvfIndex ivf(store);
    util::Rng rng(23);
    const Tensor emb = Tensor::randn({4, 64}, rng);
    expect_identical(ivf.topk_binary(emb, 8, ivf.n_centroids(), &p),
                     sharded.topk_binary(emb, 8, &p), "gzsl words=" + std::to_string(e));
  }
}

TEST(EarlyExit, NonIntegerPenaltyFallsBackAtEveryCodeWidth) {
  // A fractional handicap can't fold into integer keys; the scan must take
  // the full-count float-domain path (no block test, nothing pruned) and
  // still match the exact sharded fallback bitwise at every width.
  for (std::size_t e = 1; e <= kMaxExpansion; ++e) {
    const PrototypeStore store = make_store(300, 64, e);
    const SeenPenalty p = store.resolve_penalty(0.1f, striped_mask(300));
    ASSERT_FALSE(p.integer_exact) << "words=" << e;
    const ShardedPrototypeStore sharded(store, 2);
    const IvfIndex ivf(store);
    util::Rng rng(29);
    const Tensor emb = Tensor::randn({3, 64}, rng);
    expect_identical(ivf.topk_binary(emb, 6, ivf.n_centroids(), &p),
                     sharded.topk_binary(emb, 6, &p), "float-domain words=" + std::to_string(e));
    EXPECT_EQ(ivf.probe_stats().rows_pruned, 0u) << "words=" << e;
  }
}

TEST(Cascade, PenaltyAppliedInRerank) {
  // The cascade's float rerank always applies the exact row_penalty
  // subtraction, so the penalized unbounded cascade equals the penalized
  // exact float scan — even when the handicap is not integer-exact and the
  // binary prefilter ranked unpenalized.
  const PrototypeStore store = make_store(80, 64);
  const ShardedPrototypeStore sharded(store, 1);
  const IvfIndex ivf(store);
  util::Rng rng(31);
  const Tensor emb = Tensor::randn({6, 64}, rng);
  for (float penalty : {6.0f / 32.0f, 0.1f}) {
    const SeenPenalty p = store.resolve_penalty(penalty, striped_mask(80));
    expect_identical(ivf.topk_cascade(emb, 7, ivf.n_centroids(), 0, &p),
                     sharded.topk_float(emb, 7, &p),
                     "cascade penalty=" + std::to_string(penalty));
  }
}

// -- probing behaviour -------------------------------------------------------

TEST(IvfProbe, ResultsComeFromProbedLists) {
  const PrototypeStore store = make_store(400, 32);
  const IvfIndex ivf(store);
  const std::size_t nprobe = 2;
  util::Rng rng(37);
  const Tensor emb = Tensor::randn({4, 32}, rng);
  const Tensor e_hat = tensor::l2_normalize_rows(emb);
  const Tensor& cm = ivf.centroids();
  const auto hits = ivf.topk_float(emb, 50, nprobe);
  for (std::size_t b = 0; b < 4; ++b) {
    // Reference probe: nprobe nearest centroids by (dot desc, id asc).
    std::vector<std::pair<float, std::size_t>> dots(ivf.n_centroids());
    for (std::size_t c = 0; c < ivf.n_centroids(); ++c) {
      float d = 0.0f;
      for (std::size_t j = 0; j < 32; ++j)
        d += e_hat.data()[b * 32 + j] * cm.data()[c * 32 + j];
      dots[c] = {d, c};
    }
    std::sort(dots.begin(), dots.end(), [](const auto& x, const auto& y) {
      return x.first > y.first || (x.first == y.first && x.second < y.second);
    });
    std::set<std::uint32_t> probed;
    std::size_t expect_rows = 0;
    for (std::size_t i = 0; i < nprobe; ++i) {
      probed.insert(static_cast<std::uint32_t>(dots[i].second));
      expect_rows += ivf.list_size(dots[i].second);
    }
    EXPECT_EQ(hits[b].size(), std::min<std::size_t>(50, expect_rows)) << "query " << b;
    for (const TopK& h : hits[b])
      EXPECT_TRUE(probed.count(ivf.assignments()[h.label]))
          << "query " << b << " label " << h.label << " outside the probed lists";
  }
}

TEST(IvfProbe, NprobeResolutionClampsIntoRange) {
  const PrototypeStore store = make_store(256, 32);
  const IvfIndex ivf(store);
  const std::size_t cc = ivf.n_centroids();
  EXPECT_EQ(ivf.default_nprobe(), std::max<std::size_t>(1, cc / 8));
  EXPECT_EQ(ivf.resolve_nprobe(0), ivf.default_nprobe());
  EXPECT_EQ(ivf.resolve_nprobe(1), 1u);
  EXPECT_EQ(ivf.resolve_nprobe(cc), cc);
  EXPECT_EQ(ivf.resolve_nprobe(cc + 100), cc);  // over-asking clamps to Cc
}

TEST(IvfProbe, KEdgesBehaveLikeExactPaths) {
  const PrototypeStore store = make_store(60, 64);
  const ShardedPrototypeStore sharded(store, 1);
  const IvfIndex ivf(store);
  util::Rng rng(41);
  const Tensor emb = Tensor::randn({3, 64}, rng);
  for (const auto& hits : ivf.topk_float(emb, 0, ivf.n_centroids()))
    EXPECT_TRUE(hits.empty());
  for (const auto& hits : ivf.topk_binary(emb, 0, ivf.n_centroids()))
    EXPECT_TRUE(hits.empty());
  // k > C with a full probe returns the complete exact ranking.
  const auto all = ivf.topk_float(emb, 100, ivf.n_centroids());
  expect_identical(all, sharded.topk_float(emb, 100), "k>C full ranking");
  ASSERT_EQ(all[0].size(), 60u);
}

TEST(IvfProbe, StatsAccountForSweepAndPrune) {
  const PrototypeStore store = make_store(300, 64, /*expansion=*/8);
  const IvfIndex ivf(store);
  const std::size_t nprobe = ivf.resolve_nprobe(3);
  util::Rng rng(43);
  const Tensor emb = Tensor::randn({5, 64}, rng);
  ivf.topk_binary(emb, 4, nprobe);
  auto s = ivf.probe_stats();
  EXPECT_EQ(s.queries, 5u);
  EXPECT_EQ(s.centroids_probed, 5u * nprobe);
  EXPECT_GT(s.rows_swept, 0u);
  EXPECT_LE(s.rows_pruned, s.rows_swept);
  EXPECT_EQ(s.rows_reranked, 0u);  // no cascade ran yet
  ivf.topk_cascade(emb, 4, nprobe, 2);
  s = ivf.probe_stats();
  EXPECT_EQ(s.queries, 10u);
  EXPECT_GT(s.rows_reranked, 0u);
  // The process-wide serve_ivf_* counters mirror the per-index telemetry.
  EXPECT_GT(obs::default_registry()
                .counter("serve_ivf_rows_swept_total", {},
                         "prototype rows scored by IVF list scans")
                ->value(),
            0u);
}

// -- recall at the serving defaults ------------------------------------------

TEST(Recall, ClusteredLabelSpaceRecallAtDefaults) {
  // Clustered prototypes (the regime IVF is built for): 45 well-separated
  // unit centers, rows = center + small noise, queries near true rows.
  // At the serving defaults (nprobe = Cc/8, rerank = 4) both approximate
  // tiers must hold recall@10 ≥ 0.99 against the exact float top-10.
  const std::size_t n_centers = 45, per = 45, dim = 64, classes = n_centers * per;
  util::Rng rng(0xC1u);
  const Tensor centers = tensor::l2_normalize_rows(Tensor::randn({n_centers, dim}, rng));
  Tensor protos({classes, dim});
  for (std::size_t c = 0; c < classes; ++c) {
    const float* mu = centers.data() + (c % n_centers) * dim;
    for (std::size_t j = 0; j < dim; ++j)
      protos.data()[c * dim + j] = mu[j] + 0.05f * static_cast<float>(rng.normal());
  }
  const PrototypeStore store(protos, 4.0f, /*expansion=*/4);
  const IvfIndex ivf(store);

  const std::size_t n_queries = 64, k = 10;
  Tensor emb({n_queries, dim});
  for (std::size_t q = 0; q < n_queries; ++q) {
    const std::size_t row = rng.next_below(classes);
    for (std::size_t j = 0; j < dim; ++j)
      emb.data()[q * dim + j] =
          protos.data()[row * dim + j] + 0.01f * static_cast<float>(rng.normal());
  }
  const auto want = flat_topk(store.score_float(emb), k);

  auto recall = [&](const std::vector<std::vector<TopK>>& got) {
    std::size_t inter = 0;
    for (std::size_t q = 0; q < n_queries; ++q) {
      std::set<std::size_t> truth;
      for (const TopK& h : want[q]) truth.insert(h.label);
      for (const TopK& h : got[q]) inter += truth.count(h.label);
    }
    return double(inter) / double(n_queries * k);
  };
  const double r_ivf = recall(ivf.topk_float(emb, k, /*nprobe=*/0));
  const double r_cascade = recall(ivf.topk_cascade(emb, k, /*nprobe=*/0, /*rerank=*/4));
  EXPECT_GE(r_ivf, 0.99) << "ivf-float recall@10";
  EXPECT_GE(r_cascade, 0.99) << "cascade recall@10";
}

// -- engine routing ----------------------------------------------------------

TEST(AnnEngine, RoutesEveryRetrievalMode) {
  auto snapshot = make_snapshot(40, /*with_ivf=*/true);
  const std::size_t cc = snapshot->ivf()->n_centroids();
  util::Rng rng(47);
  const Tensor images = Tensor::randn({6, 3, 32, 32}, rng);

  const serve::InferenceEngine exact_f(snapshot, serve::ScoringMode::kFloatCosine);
  const serve::InferenceEngine exact_b(snapshot, serve::ScoringMode::kBinaryHamming);
  EXPECT_EQ(exact_f.retrieval(), RetrievalMode::kExact);
  EXPECT_EQ(exact_f.ivf(), nullptr);

  // kIvf scans in the engine's scoring mode; a full probe equals exact.
  const serve::InferenceEngine ivf_b(snapshot, serve::ScoringMode::kBinaryHamming, 0, 0.0f,
                                     serve::Precision::kFloat32, RetrievalMode::kIvf, cc);
  ASSERT_NE(ivf_b.ivf(), nullptr);
  EXPECT_EQ(ivf_b.retrieval(), RetrievalMode::kIvf);
  EXPECT_EQ(ivf_b.nprobe(), cc);
  expect_identical(ivf_b.topk_batch(images, 5), exact_b.topk_batch(images, 5),
                   "engine ivf binary full probe");

  // kCascade with an unbounded rerank equals the exact float ranking.
  const serve::InferenceEngine casc(snapshot, serve::ScoringMode::kFloatCosine, 0, 0.0f,
                                    serve::Precision::kFloat32, RetrievalMode::kCascade, cc,
                                    /*rerank=*/0);
  EXPECT_EQ(casc.rerank(), 0u);
  expect_identical(casc.topk_batch(images, 5), exact_f.topk_batch(images, 5),
                   "engine cascade full probe");
  // classify_batch routes through the same tier.
  const auto a = casc.classify_batch(images);
  const auto b = exact_f.classify_batch(images);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "image " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "image " << i;
  }
  // logits() stays exact regardless of the retrieval tier.
  EXPECT_EQ(tensor::max_abs_diff(casc.logits(images), exact_f.logits(images)), 0.0f);
}

TEST(AnnEngine, DefaultsServeWithoutPersistedIndex) {
  // A snapshot without an IVF record (any pre-v5 artifact): the engine
  // clusters one deterministically at construction and serves.
  auto snapshot = make_snapshot(40);
  ASSERT_FALSE(snapshot->has_ivf());
  const serve::InferenceEngine engine(snapshot, serve::ScoringMode::kFloatCosine, 0, 0.0f,
                                      serve::Precision::kFloat32, RetrievalMode::kIvf);
  ASSERT_NE(engine.ivf(), nullptr);
  util::Rng rng(53);
  const auto hits = engine.topk_batch(Tensor::randn({2, 3, 32, 32}, rng), 3);
  ASSERT_EQ(hits.size(), 2u);
  for (const auto& h : hits) {
    ASSERT_EQ(h.size(), 3u);
    for (const TopK& t : h) EXPECT_LT(t.label, 40u);
  }
}

// -- snapshot format: v5 record pair -----------------------------------------

TEST(AnnSnapshotIo, V5RoundTripPreservesIndexBitwise) {
  auto snapshot = make_snapshot(40, /*with_ivf=*/true);
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  const auto info = serve::inspect_snapshot(ss);
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_TRUE(info.has_ivf);
  EXPECT_EQ(info.n_centroids, snapshot->ivf()->n_centroids());
  ss.seekg(0);
  auto loaded = serve::load_snapshot(ss);
  ASSERT_TRUE(loaded->has_ivf());
  EXPECT_EQ(loaded->ivf()->assignments(), snapshot->ivf()->assignments());
  EXPECT_EQ(tensor::max_abs_diff(loaded->ivf()->centroids(), snapshot->ivf()->centroids()),
            0.0f);
  // A loaded index probes identically to the one that was saved.
  util::Rng rng(59);
  const Tensor emb = Tensor::randn({3, 64}, rng);
  expect_identical(loaded->ivf()->topk_binary(emb, 5, 2),
                   snapshot->ivf()->topk_binary(emb, 5, 2), "loaded probe");
}

TEST(AnnSnapshotIo, PreV5FilesLoadExactOnlyAndRebuildMatchesPersisted) {
  auto snapshot = make_snapshot(40, /*with_ivf=*/true);
  std::stringstream with;
  serve::save_snapshot(with, *snapshot);

  // Byte-genuine v4: save the same snapshot without the index, drop the
  // v6 lineage block (20 bytes) plus the v5 has_ivf flag byte and rewrite
  // the version field.
  auto bare = make_snapshot(40);
  std::stringstream ss;
  serve::save_snapshot(ss, *bare);
  std::string bytes = ss.str();
  ASSERT_EQ(bytes.substr(bytes.size() - 4), "PANS");
  bytes.erase(bytes.size() - 4 - 21, 21);
  const std::uint32_t v4 = 4;
  bytes.replace(4, 4, reinterpret_cast<const char*>(&v4), 4);

  std::istringstream v4_file(bytes);
  auto loaded = serve::load_snapshot(v4_file);
  EXPECT_FALSE(loaded->has_ivf());
  std::istringstream v4_again(bytes);
  EXPECT_FALSE(serve::inspect_snapshot(v4_again).has_ivf);

  // An approximate engine over the v4 artifact rebuilds deterministically
  // and must serve the same results as one over the persisted v5 index.
  std::istringstream v5_file(with.str());
  auto persisted = serve::load_snapshot(v5_file);
  const serve::InferenceEngine rebuilt(loaded, serve::ScoringMode::kBinaryHamming, 0, 0.0f,
                                       serve::Precision::kFloat32, RetrievalMode::kIvf, 2);
  const serve::InferenceEngine adopted(persisted, serve::ScoringMode::kBinaryHamming, 0,
                                       0.0f, serve::Precision::kFloat32, RetrievalMode::kIvf,
                                       2);
  util::Rng rng(61);
  const Tensor images = Tensor::randn({3, 3, 32, 32}, rng);
  expect_identical(rebuilt.topk_batch(images, 4), adopted.topk_batch(images, 4),
                   "rebuilt vs persisted");
}

TEST(AnnSnapshotIo, TruncationInsideIvfRecordsAlwaysThrows) {
  // Bracket the IVF region by saving with and without the index; a cut
  // anywhere inside it must throw — for load_snapshot AND inspect_snapshot
  // — never read short.
  auto bare = make_snapshot(40);
  std::stringstream without;
  serve::save_snapshot(without, *bare);
  const std::size_t ivf_begin = without.str().size() - 4 - 1;  // at the has_ivf flag

  auto snapshot = make_snapshot(40, /*with_ivf=*/true);
  std::stringstream with;
  serve::save_snapshot(with, *snapshot);
  const std::string bytes = with.str();
  ASSERT_GT(bytes.size(), without.str().size());

  for (std::size_t cut = ivf_begin; cut < bytes.size(); cut += 97) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_THROW(serve::load_snapshot(in), std::runtime_error) << "cut at " << cut;
    std::istringstream in2(bytes.substr(0, cut));
    EXPECT_THROW(serve::inspect_snapshot(in2), std::runtime_error) << "inspect at " << cut;
  }
}

TEST(AnnSnapshotIo, CorruptIvfRecordsRejectedByName) {
  auto snapshot = make_snapshot(40, /*with_ivf=*/true);
  std::stringstream ss;
  serve::save_snapshot(ss, *snapshot);
  const std::string bytes = ss.str();
  ASSERT_EQ(bytes.substr(bytes.size() - 4), "PANS");
  // Tail layout (back to front): "PANS" | v6 lineage block (20 bytes) |
  // 40 u32 assignments | u64 count.
  const std::size_t assign_off = bytes.size() - 4 - 20 - 40 * 4;
  const std::size_t count_off = assign_off - 8;

  {  // Out-of-range assignment value → named reject, not a bad index.
    std::string bad = bytes;
    const std::uint32_t huge = 0xFFFFFFFFu;
    bad.replace(assign_off, 4, reinterpret_cast<const char*>(&huge), 4);
    std::istringstream in(bad);
    try {
      serve::load_snapshot(in);
      FAIL() << "out-of-range assignment must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ivf assignments"), std::string::npos)
          << e.what();
    }
  }
  {  // Assignment count disagreeing with the class count → named reject.
    std::string bad = bytes;
    const std::uint64_t wrong = 39;
    bad.replace(count_off, 8, reinterpret_cast<const char*>(&wrong), 8);
    std::istringstream in(bad);
    try {
      serve::load_snapshot(in);
      FAIL() << "assignment-count mismatch must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ivf assignment count"), std::string::npos)
          << e.what();
    }
  }
}

// -- registry surface and concurrency ----------------------------------------

TEST(AnnRegistry, RetrievalColumnAndAnnStats) {
  serve::ServerConfig cfg;
  cfg.batch.max_delay_ms = 0.5;
  cfg.retrieval = RetrievalMode::kIvf;
  serve::ModelRegistry registry(cfg);
  registry.load("approx", make_snapshot(40, /*with_ivf=*/true),
                serve::ScoringMode::kBinaryHamming);

  serve::ServerConfig exact_cfg;
  exact_cfg.batch.max_delay_ms = 0.5;
  serve::ModelRegistry exact_registry(exact_cfg);
  exact_registry.load("plain", make_snapshot(40));

  util::Rng rng(67);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(submit_one(registry, "approx", Tensor::randn({3, 32, 32}, rng)).status,
              serve::InferStatus::kOk);

  const auto stats = registry.ann_stats("approx");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->queries, 3u);
  EXPECT_GT(stats->centroids_probed, 0u);
  EXPECT_FALSE(exact_registry.ann_stats("plain").has_value());  // exact: no index
  EXPECT_THROW(registry.ann_stats("nope"), serve::ModelNotFound);
  registry.to_table().print();  // the retr column renders
  registry.stop_all();
  exact_registry.stop_all();
}

TEST(AnnRegistry, ConcurrentProbeAndSwapStorm) {
  // Client threads storm an approximate-tier model while the control thread
  // hot-swaps the snapshot behind it. Requests racing a swap may come back
  // kShutdown / kOverloaded, but every future must resolve with a named
  // status and the probes must never touch a freed index.
  serve::ServerConfig cfg;
  cfg.batch.max_delay_ms = 0.5;
  cfg.batch.max_queue_depth = 1024;
  cfg.retrieval = RetrievalMode::kCascade;
  cfg.rerank = 2;
  serve::ModelRegistry registry(cfg);
  auto snap_a = make_snapshot(40, /*with_ivf=*/true);
  auto snap_b = make_snapshot(40);  // forces an engine-side rebuild on swap
  registry.load("hot", snap_a);

  const std::size_t per_client = 40;
  std::atomic<std::size_t> ok{0}, rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(100 + c);
      for (std::size_t r = 0; r < per_client; ++r) {
        const serve::InferResult res =
            submit_one(registry, "hot", Tensor::randn({3, 32, 32}, rng));
        if (res.ok()) {
          EXPECT_FALSE(res.topk.empty());
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
  for (int i = 0; i < 6; ++i) registry.load("hot", i % 2 ? snap_a : snap_b);
  for (auto& c : clients) c.join();

  EXPECT_EQ(ok.load() + rejected.load(), 2 * per_client);
  EXPECT_GT(ok.load(), 0u);
  util::Rng rng(71);
  EXPECT_EQ(submit_one(registry, "hot", Tensor::randn({3, 32, 32}, rng)).status,
            serve::InferStatus::kOk);
  registry.stop_all();
}

}  // namespace
}  // namespace hdczsc
