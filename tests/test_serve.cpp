// Serving subsystem: the batched engine must reproduce the training-time
// forward bit-for-bit, a concurrent request storm must complete with the
// same top-1 decisions as direct batch inference, and the bit-packed binary
// prototype path must agree with float cosine in argmax.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/pipeline.hpp"
#include "hdc/hypervector.hpp"
#include "serve/server.hpp"
#include "serve/snapshot_io.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace hdczsc {
namespace {

using nn::Tensor;

/// Copy image `b` of a [N, 3, S, S] batch into its own [3, S, S] tensor.
Tensor slice_image(const Tensor& images, std::size_t b) {
  const std::size_t per = images.numel() / images.size(0);
  Tensor out({images.size(1), images.size(2), images.size(3)});
  const float* src = images.data() + b * per;
  std::copy(src, src + per, out.data());
  return out;
}

/// One cheap trained pipeline + frozen snapshots shared by all serving
/// tests (phase II included: binary/float agreement needs a model whose
/// embeddings actually align with the prototypes).
struct SharedServe {
  core::TrainedPipeline tp;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;           // expansion 1
  std::shared_ptr<const serve::ModelSnapshot> snapshot_expanded;  // sign-LSH x8

  static const SharedServe& get() {
    static SharedServe s;
    return s;
  }

 private:
  SharedServe() {
    core::PipelineConfig cfg;
    cfg.n_classes = 16;
    cfg.images_per_class = 6;
    cfg.train_instances = 4;
    cfg.image_size = 32;
    cfg.split = "zs";
    cfg.zs_train_classes = 12;
    cfg.model.image.arch = "resnet_micro_flat";
    cfg.model.image.proj_dim = 256;
    cfg.model.temp_scale = 4.0f;
    cfg.run_phase1 = false;
    cfg.phase2 = {8, 16, 1e-2f, 1e-4f, 5.0f, true, false};
    cfg.phase3 = {10, 16, 1e-2f, 1e-4f, 5.0f, true, false};
    cfg.augment.enabled = false;
    tp = core::run_pipeline_trained(cfg);
    snapshot = std::make_shared<serve::ModelSnapshot>(tp.model, tp.test_class_attributes);
    snapshot_expanded =
        std::make_shared<serve::ModelSnapshot>(tp.model, tp.test_class_attributes, 8);
  }
};

// -- hamming_many kernel -----------------------------------------------------

TEST(HammingMany, MatchesPairwiseHamming) {
  util::Rng rng(42);
  for (std::size_t d : {64u, 100u, 257u, 1536u}) {
    auto q = hdc::BinaryHV::random(d, rng);
    std::vector<hdc::BinaryHV> protos;
    for (int i = 0; i < 7; ++i) protos.push_back(hdc::BinaryHV::random(d, rng));
    auto h = hdc::hamming_many(q, protos);
    ASSERT_EQ(h.size(), protos.size());
    for (std::size_t i = 0; i < protos.size(); ++i)
      EXPECT_EQ(h[i], q.hamming(protos[i])) << "d=" << d << " i=" << i;
  }
}

TEST(HammingMany, DimensionMismatchThrows) {
  util::Rng rng(43);
  auto q = hdc::BinaryHV::random(128, rng);
  std::vector<hdc::BinaryHV> protos{hdc::BinaryHV::random(64, rng)};
  EXPECT_THROW(hdc::hamming_many(q, protos), std::invalid_argument);
}

/// Naive per-bit Hamming reference, independent of every packed kernel.
std::uint32_t naive_hamming(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
  std::uint32_t h = 0;
  for (std::size_t w = 0; w < words; ++w)
    for (std::uint64_t x = a[w] ^ b[w]; x != 0; x >>= 1) h += x & 1;
  return h;
}

TEST(HammingMany, RaggedTailsMatchNaiveReferenceOnEveryDispatchPath) {
  // The query-blocked kernels peel queries in blocks of 4, the avx512
  // variant takes rows in blocks of 16 (two halves of 8) laid out by code
  // width, and the packed rows carry a masked tail word whenever the code
  // width is not a multiple of 64 — sweep every remainder shape (widths
  // around each register layout, row counts around the 8-row halves and
  // 16-row blocks, 1..9 queries)
  // against a per-bit reference, pinned to each kernel variant the
  // runtime dispatch can select. Buffers are exactly sized, so a read past
  // the last row or query is an ASan error. The pin is process-global, so
  // restore runtime dispatch unconditionally — even when an assertion
  // bails out of the test body early.
  struct RestoreDispatch {
    ~RestoreDispatch() { hdc::set_hamming_kernel("auto"); }
  } restore;
  std::vector<std::string> kernels{"portable"}, skipped;
  for (const char* name : {"popcnt", "avx512"})
    (hdc::set_hamming_kernel(name) ? kernels : skipped).push_back(name);
  hdc::set_hamming_kernel("auto");
  EXPECT_FALSE(hdc::set_hamming_kernel("no-such-kernel"));
  std::cout << "[ kernels  ] ran:";
  for (const std::string& k : kernels) std::cout << ' ' << k;
  std::cout << "; unsupported here:";
  for (const std::string& k : skipped) std::cout << ' ' << k;
  std::cout << (skipped.empty() ? " none\n" : "\n");

  util::Rng rng(44);
  for (std::size_t words : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 31u, 32u, 33u}) {
    // Ragged code widths on two widths in three; BinaryHV::random masks the
    // tail bits — exactly what the packed store's rows and encoded queries
    // look like.
    const std::size_t dim = 64 * words - (words % 3) * 13;
    const auto random_codes = [&](std::size_t n) {
      std::vector<std::uint64_t> codes(n * words);
      for (std::size_t i = 0; i < n; ++i) {
        const auto hv = hdc::BinaryHV::random(dim, rng);
        std::copy(hv.words().begin(), hv.words().end(), codes.begin() + i * words);
      }
      return codes;
    };
    for (std::size_t n_rows : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 33u, 65u}) {
      const std::vector<std::uint64_t> rows = random_codes(n_rows);
      for (std::size_t n_queries = 1; n_queries <= 9; ++n_queries) {
        const std::vector<std::uint64_t> queries = random_codes(n_queries);
        std::vector<std::uint32_t> want(n_queries * n_rows);
        for (std::size_t q = 0; q < n_queries; ++q)
          for (std::size_t i = 0; i < n_rows; ++i)
            want[q * n_rows + i] =
                naive_hamming(queries.data() + q * words, rows.data() + i * words, words);
        for (const std::string& kernel : kernels) {
          ASSERT_TRUE(hdc::set_hamming_kernel(kernel.c_str())) << kernel;
          ASSERT_STREQ(hdc::hamming_kernel_name(), kernel.c_str());
          std::vector<std::uint32_t> multi(n_queries * n_rows), single(n_queries * n_rows);
          hdc::hamming_many_packed_multi(queries.data(), n_queries, rows.data(), n_rows, words,
                                         multi.data());
          for (std::size_t q = 0; q < n_queries; ++q)
            hdc::hamming_many_packed(queries.data() + q * words, rows.data(), n_rows, words,
                                     single.data() + q * n_rows);
          ASSERT_EQ(multi, want) << kernel << " multi words=" << words << " rows=" << n_rows
                                 << " queries=" << n_queries;
          ASSERT_EQ(single, want) << kernel << " single words=" << words
                                  << " rows=" << n_rows << " queries=" << n_queries;
        }
      }
    }
  }
}

/// Scalar replay of one query's selection under hamming_topk_packed's
/// block rule, independent of hdc::HammingTopK: the kept keys as a sorted
/// list, the bound the smaller of the starting hint and the k-th kept key.
struct BlockRuleReplay {
  std::size_t k;
  std::uint64_t bound;
  std::vector<std::uint64_t> kept;  // ascending
  std::uint64_t pruned = 0;

  void offer(std::uint64_t key) {
    if (key >= bound) return;
    kept.insert(std::lower_bound(kept.begin(), kept.end(), key), key);
    if (kept.size() > k) kept.pop_back();
    if (kept.size() == k) bound = std::min(bound, kept.back());
  }
  /// Rows' keys in row order: a full block of 16 whose every count is
  /// above the threshold sampled at its start is pruned, every other row
  /// is offered.
  void scan(const std::vector<std::uint64_t>& keys) {
    for (std::size_t i = 0; i < keys.size(); i += 16) {
      const std::size_t n = std::min<std::size_t>(16, keys.size() - i);
      const std::uint64_t t = bound >> 32;
      bool open = false;
      for (std::size_t j = 0; j < n; ++j) open = open || (keys[i + j] >> 32) <= t;
      if (!open && n == 16) {
        pruned += 16;
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) offer(keys[i + j]);
    }
  }
};

TEST(HammingTopK, FusedScanMatchesBruteForceAndBlockRuleOnEveryDispatchPath) {
  // hamming_topk_packed must keep, per query, exactly the k smallest
  // (h + Δ, label) keys below the starting bound, and report exactly the
  // rows a scalar replay of the 16-row block rule prunes — on every
  // variant, for every remainder shape: widths around each register layout
  // and the 8-word first-register test, ragged code widths, row counts
  // around the 16-row blocks, 1..9 queries (blocks of 4), k from 1 to
  // past the row count, with and without integer offsets, with contiguous
  // and list-indirect labels, with and without a starting bound. Buffers
  // are exactly sized, so a read past the last row, query, label, offset
  // or heap slot is an ASan error.
  struct RestoreDispatch {
    ~RestoreDispatch() { hdc::set_hamming_kernel("auto"); }
  } restore;
  std::vector<std::string> kernels{"portable"}, skipped;
  for (const char* name : {"popcnt", "avx512"})
    (hdc::set_hamming_kernel(name) ? kernels : skipped).push_back(name);
  hdc::set_hamming_kernel("auto");
  std::cout << "[ kernels  ] fused top-k ran:";
  for (const std::string& k : kernels) std::cout << ' ' << k;
  std::cout << "; unsupported here:";
  for (const std::string& k : skipped) std::cout << ' ' << k;
  std::cout << (skipped.empty() ? " none\n" : "\n");

  util::Rng rng(45);
  std::uint64_t pruned_total = 0;
  for (std::size_t words : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 31u, 32u, 33u}) {
    const std::size_t dim = 64 * words - (words % 3) * 13;
    const auto random_codes = [&](std::size_t n) {
      std::vector<std::uint64_t> codes(n * words);
      for (std::size_t i = 0; i < n; ++i) {
        const auto hv = hdc::BinaryHV::random(dim, rng);
        std::copy(hv.words().begin(), hv.words().end(), codes.begin() + i * words);
      }
      return codes;
    };
    for (std::size_t n_rows : {1u, 15u, 16u, 17u, 33u, 65u, 300u}) {
      const std::vector<std::uint64_t> rows = random_codes(n_rows);
      for (std::size_t n_queries = 1; n_queries <= 9; ++n_queries) {
        const std::vector<std::uint64_t> queries = random_codes(n_queries);
        for (const bool indirect : {false, true}) {
          // List-indirect labels are distinct ids out of twice the rows;
          // contiguous ones start past zero.
          const std::size_t first = indirect ? 0 : 1000;
          const std::size_t n_labels = indirect ? 2 * n_rows : first + n_rows;
          std::vector<std::uint32_t> ids;
          if (indirect) {
            for (std::size_t id : rng.permutation(n_labels))
              if (ids.size() < n_rows) ids.push_back(static_cast<std::uint32_t>(id));
          }
          for (const bool with_offsets : {false, true}) {
            std::vector<std::uint32_t> offsets;
            if (with_offsets)
              for (std::size_t l = 0; l < n_labels; ++l)
                offsets.push_back(static_cast<std::uint32_t>(rng.next_below(24)));
            const hdc::RowLabels labels{indirect ? ids.data() : nullptr, first,
                                        with_offsets ? offsets.data() : nullptr};
            // Every row's key per query, in row order.
            std::vector<std::vector<std::uint64_t>> keys(n_queries);
            for (std::size_t q = 0; q < n_queries; ++q)
              for (std::size_t i = 0; i < n_rows; ++i) {
                const std::uint64_t label = indirect ? ids[i] : first + i;
                const std::uint64_t h =
                    naive_hamming(queries.data() + q * words, rows.data() + i * words, words) +
                    (with_offsets ? offsets[label] : 0);
                keys[q].push_back((h << 32) | label);
              }
            for (std::size_t k : {1u, 10u, 40u}) {
              for (const bool hinted : {false, true}) {
                const std::string what =
                    "words=" + std::to_string(words) + " rows=" + std::to_string(n_rows) +
                    " queries=" + std::to_string(n_queries) + " k=" + std::to_string(k) +
                    (indirect ? " indirect" : " contiguous") +
                    (with_offsets ? " offsets" : "") + (hinted ? " hinted" : "");
                std::vector<std::uint64_t> hints(n_queries, ~std::uint64_t{0});
                std::vector<std::vector<std::uint64_t>> want(n_queries);
                std::uint64_t want_pruned = 0;
                for (std::size_t q = 0; q < n_queries; ++q) {
                  std::vector<std::uint64_t> sorted = keys[q];
                  std::sort(sorted.begin(), sorted.end());
                  if (hinted) hints[q] = sorted[sorted.size() / 3];
                  for (std::uint64_t key : sorted)
                    if (key < hints[q] && want[q].size() < k) want[q].push_back(key);
                  BlockRuleReplay replay{k, hints[q], {}};
                  replay.scan(keys[q]);
                  ASSERT_EQ(replay.kept, want[q]) << "replay " << what;
                  want_pruned += replay.pruned;
                }
                pruned_total += want_pruned;
                for (const std::string& kernel : kernels) {
                  ASSERT_TRUE(hdc::set_hamming_kernel(kernel.c_str())) << kernel;
                  std::vector<std::uint64_t> slots(n_queries * k);
                  std::vector<hdc::HammingTopK> heaps;
                  for (std::size_t q = 0; q < n_queries; ++q)
                    heaps.emplace_back(slots.data() + q * k, k, hints[q]);
                  const std::uint64_t pruned = hdc::hamming_topk_packed(
                      queries.data(), n_queries, rows.data(), n_rows, words, labels, heaps.data());
                  for (std::size_t q = 0; q < n_queries; ++q) {
                    std::vector<std::uint64_t> got(slots.begin() + q * k,
                                                   slots.begin() + q * k + heaps[q].size());
                    std::sort(got.begin(), got.end());
                    ASSERT_EQ(got, want[q]) << kernel << ' ' << what << " query " << q;
                  }
                  ASSERT_EQ(pruned, want_pruned) << kernel << ' ' << what;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(pruned_total, 0u);  // the block rule did fire
}

// -- prototype store ---------------------------------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(PrototypeStore, BinaryEqualsFloatExactlyOnBipolarData) {
  // For ±1-valued prototypes and queries, cosine == 1 - 2·hamming/d exactly,
  // so the two scoring paths must coincide (and share their argmax).
  util::Rng rng(7);
  const std::size_t d = 256, n_classes = 10, n_queries = 20;
  Tensor protos = Tensor::rademacher({n_classes, d}, rng);
  Tensor queries = Tensor::rademacher({n_queries, d}, rng);
  serve::PrototypeStore store(protos, /*scale=*/1.0f);

  Tensor pf = store.score_float(queries);
  Tensor pb = store.score_binary(queries);
  EXPECT_LT(tensor::max_abs_diff(pf, pb), 1e-4f);
  EXPECT_EQ(tensor::argmax_rows(pf), tensor::argmax_rows(pb));
}

TEST(PrototypeStore, BinaryRowsMatchSignBits) {
  util::Rng rng(8);
  Tensor protos = Tensor::randn({5, 130}, rng);
  serve::PrototypeStore store(protos, 1.0f);
  EXPECT_EQ(store.words_per_row(), 3u);
  for (std::size_t c = 0; c < 5; ++c) {
    auto row = store.binary_prototype(c);
    for (std::size_t j = 0; j < 130; ++j)
      EXPECT_EQ(row.get(j), protos.at(c, j) < 0.0f);
  }
  // Packed binary is ~32x smaller than fp32.
  EXPECT_LT(store.binary_bytes() * 16, store.float_bytes());
}

/// A fresh load of `snap` through the .hdcsnap format: a new store lineage
/// whose sign-LSH projection has not been built yet.
std::shared_ptr<const serve::ModelSnapshot> reload(const serve::ModelSnapshot& snap) {
  std::stringstream ss;
  serve::save_snapshot(ss, snap);
  return serve::load_snapshot(ss);
}

TEST(PrototypeStore, ConcurrentFirstBinaryScoresOnALoadedStoreBuildOneProjection) {
  // Four threads race the first score_binary on a freshly loaded
  // expansion-8 store: each must get the logits of the in-process build,
  // bit for bit, from one R that is bitwise the building constructor's.
  const auto& s = SharedServe::get();
  const serve::PrototypeStore& built = s.snapshot_expanded->prototypes();
  const auto loaded = reload(*s.snapshot_expanded);
  const serve::PrototypeStore& store = loaded->prototypes();
  ASSERT_EQ(store.expansion(), 8u);
  ASSERT_FALSE(store.projection_built());
  util::Rng rng(0x1A2BULL);
  const Tensor emb = Tensor::randn({3, store.dim()}, rng);
  const Tensor want = built.score_binary(emb);

  constexpr std::size_t kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<Tensor> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      got[t] = store.score_binary(emb);
    });
  go = true;
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_TRUE(bitwise_equal(got[t], want)) << t;
  EXPECT_TRUE(store.projection_built());
  EXPECT_TRUE(bitwise_equal(store.projection(), built.projection()));
}

TEST(PrototypeStore, LoadedProjectionIsBuiltOnlyForEnginesThatEncodeQueries) {
  // A float engine never needs R, so serving one from a loaded snapshot
  // never builds it; a binary engine builds it in its constructor, on the
  // loading thread, so no served batch pays for it.
  const auto& s = SharedServe::get();
  const auto loaded = reload(*s.snapshot_expanded);
  util::Rng rng(0x1A2CULL);
  const Tensor emb = Tensor::randn({2, loaded->dim()}, rng);
  const serve::InferenceEngine float_engine(loaded, serve::ScoringMode::kFloatCosine);
  float_engine.classify_batch(emb);
  float_engine.topk_batch(emb, 3);
  EXPECT_FALSE(loaded->prototypes().projection_built());

  const serve::InferenceEngine binary_engine(loaded, serve::ScoringMode::kBinaryHamming);
  EXPECT_TRUE(loaded->prototypes().projection_built());
  const serve::InferenceEngine reference(s.snapshot_expanded, serve::ScoringMode::kBinaryHamming);
  EXPECT_TRUE(bitwise_equal(binary_engine.logits(emb), reference.logits(emb)));
}

// -- engine vs. model: bit-identical batched inference -----------------------

TEST(InferenceEngine, BatchedLogitsBitIdenticalToModelClassLogits) {
  const auto& s = SharedServe::get();
  serve::InferenceEngine engine(s.snapshot, serve::ScoringMode::kFloatCosine);

  const Tensor& images = s.tp.test_set.images;
  Tensor from_model =
      s.tp.model->class_logits(images, s.tp.test_class_attributes, /*train=*/false);
  Tensor from_engine = engine.logits(images);
  ASSERT_EQ(from_model.shape(), from_engine.shape());
  EXPECT_EQ(tensor::max_abs_diff(from_model, from_engine), 0.0f)
      << "snapshot scoring must be bit-identical to the training-time forward";
}

TEST(InferenceEngine, SingleImageRowsBitIdenticalToBatch) {
  const auto& s = SharedServe::get();
  serve::InferenceEngine engine(s.snapshot, serve::ScoringMode::kFloatCosine);

  const Tensor& images = s.tp.test_set.images;
  const std::size_t n = std::min<std::size_t>(images.size(0), 8);
  Tensor batched = engine.logits(images);
  const std::size_t classes = batched.size(1);
  for (std::size_t b = 0; b < n; ++b) {
    Tensor one = slice_image(images, b).reshape(
        {1, images.size(1), images.size(2), images.size(3)});
    Tensor row = engine.logits(one);
    for (std::size_t c = 0; c < classes; ++c)
      ASSERT_EQ(row.at(0, c), batched.at(b, c)) << "row " << b << " col " << c;
  }
}

// -- binary vs. float argmax on the trained model ----------------------------

TEST(InferenceEngine, BinaryArgmaxAgreesWithFloatOnTrainedModel) {
  // Sign-LSH codes estimate the angle with error ~1/(2·sqrt(D)); Hamming
  // ranking therefore reproduces the cosine argmax except on queries whose
  // float top-2 margin is inside that noise floor. Assert (1) overall
  // agreement, (2) *exact* agreement on every confidently-scored query,
  // (3) served accuracy is preserved.
  const auto& s = SharedServe::get();
  serve::InferenceEngine feng(s.snapshot_expanded, serve::ScoringMode::kFloatCosine);
  serve::InferenceEngine beng(s.snapshot_expanded, serve::ScoringMode::kBinaryHamming);

  const Tensor& images = s.tp.test_set.images;
  Tensor fp = feng.logits(images);
  auto fl = tensor::argmax_rows(fp);
  auto bl = tensor::argmax_rows(beng.logits(images));
  ASSERT_EQ(fl.size(), bl.size());

  const float scale = s.snapshot_expanded->scale();
  std::size_t agree = 0, high_margin = 0, high_margin_agree = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    agree += fl[i] == bl[i];
    // Float top-2 cosine margin of query i.
    float m1 = -2.0f, m2 = -2.0f;
    for (std::size_t c = 0; c < fp.size(1); ++c) {
      const float v = fp.at(i, c) / scale;
      if (v > m1) {
        m2 = m1;
        m1 = v;
      } else if (v > m2) {
        m2 = v;
      }
    }
    if (m1 - m2 > 0.08f) {
      ++high_margin;
      high_margin_agree += fl[i] == bl[i];
    }
  }
  const double rate = static_cast<double>(agree) / static_cast<double>(fl.size());
  EXPECT_GE(rate, 0.6) << "binarized prototype scoring diverged from float cosine";
  ASSERT_GT(high_margin, 0u);
  EXPECT_EQ(high_margin_agree, high_margin)
      << "binary argmax flipped a confidently-scored query";

  // Serving metric: top-1 accuracy must survive binarization.
  const auto& labels = s.tp.test_set.labels;
  std::size_t facc = 0, bacc = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    facc += fl[i] == labels[i];
    bacc += bl[i] == labels[i];
  }
  const double gap = (static_cast<double>(facc) - static_cast<double>(bacc)) /
                     static_cast<double>(labels.size());
  EXPECT_LE(gap, 0.15) << "binary path lost too much accuracy";
}

// -- ModelSnapshot freezes (and packs) the image projection -----------------

/// Rows [0, n) of a batch.
Tensor first_rows(const Tensor& t, std::size_t n) {
  tensor::Shape shape = t.shape();
  shape[0] = n;
  Tensor out(shape);
  std::copy(t.data(), t.data() + out.numel(), out.data());
  return out;
}

/// An image encoder holding `src`'s weights and BatchNorm statistics whose
/// projection was never frozen, so its eval forward runs through matmul_nt.
std::unique_ptr<core::ImageEncoder> unfrozen_copy(core::ImageEncoder& src,
                                                  const core::ImageEncoderConfig& cfg) {
  util::Rng rng(0);
  auto copy = std::make_unique<core::ImageEncoder>(cfg, rng);
  const auto dst_p = copy->parameters(), src_p = src.parameters();
  for (std::size_t i = 0; i < dst_p.size(); ++i) dst_p[i]->value = src_p[i]->value.clone();
  const auto dst_b = copy->buffers(), src_b = src.buffers();
  for (std::size_t i = 0; i < dst_b.size(); ++i) *dst_b[i].tensor = src_b[i].tensor->clone();
  return copy;
}

/// Eval forward layer by layer: each backbone layer, then the projection.
Tensor layer_by_layer(core::ImageEncoder& enc, const Tensor& images) {
  Tensor x = images;
  for (std::size_t i = 0; i < enc.backbone().size(); ++i) x = enc.backbone()[i].forward(x, false);
  return enc.projection()->forward(x, false);
}

/// A fresh untrained model with a packable projection (2048 x 64).
struct FreshModel {
  data::AttributeSpace space = data::AttributeSpace::toy(6, 3, 9);
  core::ZscModelConfig cfg;
  std::shared_ptr<core::ZscModel> model;
  Tensor attributes;

  explicit FreshModel(std::uint64_t seed) {
    cfg.image.arch = "resnet_micro_flat";
    cfg.image.proj_dim = 64;
    util::Rng rng(seed);
    model = core::make_zsc_model(cfg, space, rng);
    attributes = Tensor::rand_uniform({5, space.n_attributes()}, rng);
  }
};

TEST(InferenceEngine, ImagesAloneGetTheTopkListsOfOneBatchOf16) {
  // image-cub's serving path: resnet_micro_flat embeds, then float scores
  // against 50 classes at d = 256. An image's top-k labels and scores must
  // not depend on the batch it is served in, at any shard count.
  const data::AttributeSpace space = data::AttributeSpace::toy(6, 3, 9);
  core::ZscModelConfig cfg;
  cfg.image.arch = "resnet_micro_flat";
  cfg.image.proj_dim = 256;
  util::Rng rng(0x1C0BULL);
  const auto snapshot = std::make_shared<serve::ModelSnapshot>(
      core::make_zsc_model(cfg, space, rng),
      Tensor::rand_uniform({50, space.n_attributes()}, rng));
  const Tensor images = Tensor::randn({16, 3, 32, 32}, rng);
  for (std::size_t shards : {1u, 4u}) {
    serve::InferenceEngine engine(snapshot, serve::ScoringMode::kFloatCosine, shards);
    const auto batched = engine.topk_batch(images, 5);
    ASSERT_EQ(batched.size(), 16u);
    for (std::size_t b = 0; b < 16; ++b) {
      const auto alone = engine.topk_batch(slice_image(images, b).reshape({1, 3, 32, 32}), 5);
      ASSERT_EQ(alone[0].size(), batched[b].size()) << "image " << b << " S=" << shards;
      for (std::size_t r = 0; r < alone[0].size(); ++r) {
        EXPECT_EQ(alone[0][r].label, batched[b][r].label)
            << "image " << b << " rank " << r << " S=" << shards;
        EXPECT_EQ(alone[0][r].score, batched[b][r].score)
            << "image " << b << " rank " << r << " S=" << shards;
      }
    }
  }
}

TEST(ModelSnapshot, EmbedIsBitwiseTheUnfrozenLayerForwardAtEveryBatchAndWorkerCount) {
  const auto& s = SharedServe::get();
  core::ImageEncoder& served = s.tp.model->image_encoder();
  ASSERT_TRUE(served.projection()->frozen_for_serving());
  core::ImageEncoderConfig cfg;
  cfg.arch = "resnet_micro_flat";
  cfg.proj_dim = 256;
  const auto reference = unfrozen_copy(served, cfg);
  ASSERT_FALSE(reference->projection()->frozen_for_serving());

  util::Rng rng(0x5EB0ULL);
  const Tensor images = Tensor::randn({33, 3, 32, 32}, rng);
  for (std::size_t batch : {1u, 2u, 3u, 16u, 33u}) {
    const Tensor x = first_rows(images, batch);
    util::set_worker_count(1);
    const Tensor want = layer_by_layer(*reference, x);
    for (std::size_t workers : {1u, 2u, 4u}) {
      util::set_worker_count(workers);
      EXPECT_TRUE(bitwise_equal(s.snapshot->embed(x), want))
          << "B=" << batch << " workers=" << workers;
    }
  }
  util::set_worker_count(0);
}

TEST(ModelSnapshot, ConcurrentFirstEmbedsBuildOnePack) {
  // The pack is built by the first embed; threads racing into it must all
  // serve the same, complete pack.
  FreshModel f(0xF1A7ULL);
  const auto reference = unfrozen_copy(f.model->image_encoder(), f.cfg.image);
  const serve::ModelSnapshot snap(f.model, f.attributes);
  util::Rng rng(0xF1A8ULL);
  const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
  const Tensor want = layer_by_layer(*reference, x);

  constexpr std::size_t kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<Tensor> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      got[t] = snap.embed(x);
    });
  go = true;
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_TRUE(bitwise_equal(got[t], want)) << t;
}

TEST(ModelSnapshot, FrozenProjectionRejectsTrainModeForwardByName) {
  FreshModel f(0xF1A9ULL);
  const serve::ModelSnapshot snap(f.model, f.attributes);
  core::ImageEncoder& enc = f.model->image_encoder();
  try {
    enc.projection()->forward(Tensor({1, enc.backbone_feature_dim()}), /*train=*/true);
    FAIL() << "train-mode forward on a frozen Linear must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("Linear::forward"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("frozen"), std::string::npos) << e.what();
  }
  // The encoder refuses before its backbone runs, so the BatchNorm
  // statistics the snapshot serves with do not move.
  std::vector<Tensor> stats;
  for (const nn::BufferRef& b : enc.buffers()) stats.push_back(b.tensor->clone());
  util::Rng rng(0xF1AAULL);
  const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
  EXPECT_THROW(enc.forward(x, /*train=*/true), std::logic_error);
  const auto after = enc.buffers();
  for (std::size_t i = 0; i < stats.size(); ++i)
    EXPECT_TRUE(bitwise_equal(*after[i].tensor, stats[i])) << after[i].name;
  EXPECT_EQ(snap.embed(x).size(0), 2u);
}

TEST(ModelSnapshot, SnapshotBuiltAfterFurtherTrainingEmbedsTheNewWeights) {
  // Eval forwards before the freeze point (an evaluation between training
  // phases) must not capture the weights the snapshot later serves.
  FreshModel f(0xF1ABULL);
  core::ImageEncoder& enc = f.model->image_encoder();
  util::Rng rng(0xF1ACULL);
  const Tensor x = Tensor::randn({3, 3, 32, 32}, rng);
  const Tensor before = enc.forward(x, /*train=*/false);

  enc.forward(x, /*train=*/true);
  enc.backward(Tensor::randn({3, f.cfg.image.proj_dim}, rng), /*through_backbone=*/false);
  for (nn::Parameter* p : enc.projection_parameters()) p->value.add_scaled(p->grad, -0.5f);

  const auto reference = unfrozen_copy(enc, f.cfg.image);
  const serve::ModelSnapshot snap(f.model, f.attributes);
  const Tensor served = snap.embed(x);
  EXPECT_TRUE(bitwise_equal(served, layer_by_layer(*reference, x)));
  EXPECT_FALSE(bitwise_equal(served, before));
}

// -- dynamic batcher ---------------------------------------------------------

using Admit = serve::DynamicBatcher::Admit;

/// Enqueue one request with a no-op completion (batcher-level tests never
/// drain through a worker).
Admit submit_one(serve::DynamicBatcher& batcher, Tensor input = Tensor({3, 2, 2})) {
  serve::InferRequest req;
  req.input = std::move(input);
  serve::InferDone done = [](serve::InferResult&&) {};
  return batcher.submit(req, done);
}

TEST(DynamicBatcher, CoalescesUpToMaxBatch) {
  serve::BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_delay_ms = 0.0;  // don't wait in a single-threaded test
  serve::DynamicBatcher batcher(policy);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(submit_one(batcher), Admit::kAccepted);
  EXPECT_EQ(batcher.depth(), 5u);

  std::vector<serve::DynamicBatcher::Item> items;
  ASSERT_TRUE(batcher.collect(items));
  EXPECT_EQ(items.size(), 4u);
  ASSERT_TRUE(batcher.collect(items));
  EXPECT_EQ(items.size(), 1u);

  batcher.shutdown();
  EXPECT_FALSE(batcher.collect(items));
  EXPECT_EQ(submit_one(batcher), Admit::kShutdown);
}

TEST(DynamicBatcher, AdmissionControlBoundsQueueDepth) {
  serve::BatchPolicy policy;
  policy.max_queue_depth = 3;
  serve::DynamicBatcher batcher(policy);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(submit_one(batcher), Admit::kAccepted);
  EXPECT_EQ(submit_one(batcher), Admit::kQueueFull);
  // A rejected submit must leave the request intact for the caller to
  // resolve (the batcher consumes it only on kAccepted).
  serve::InferRequest rejected;
  rejected.input = Tensor({3, 2, 2});
  rejected.request_id = 77;
  serve::InferDone done = [](serve::InferResult&&) {};
  EXPECT_EQ(batcher.submit(rejected, done), Admit::kQueueFull);
  EXPECT_EQ(rejected.request_id, 77u);
  EXPECT_EQ(rejected.input.numel(), 12u);
  EXPECT_TRUE(static_cast<bool>(done));
  batcher.shutdown();
}

TEST(DynamicBatcher, ShutdownWhileQueuedDrainsEveryItem) {
  // shutdown() rejects new submits immediately but must NOT drop what is
  // already queued: collect() keeps handing out the backlog (completions
  // intact, so the worker can resolve every accepted future) and only
  // reports end-of-stream once the queue is empty.
  serve::BatchPolicy policy;
  policy.max_batch = 3;
  policy.max_delay_ms = 0.0;
  serve::DynamicBatcher batcher(policy);
  for (int i = 0; i < 7; ++i) ASSERT_EQ(submit_one(batcher), Admit::kAccepted);

  batcher.shutdown();
  EXPECT_EQ(submit_one(batcher), Admit::kShutdown);
  EXPECT_EQ(batcher.depth(), 7u);  // the backlog survives the shutdown

  std::size_t drained = 0;
  std::vector<serve::DynamicBatcher::Item> items;
  while (batcher.collect(items)) {
    ASSERT_LE(items.size(), 3u);
    for (const auto& item : items) {
      EXPECT_TRUE(static_cast<bool>(item.done)) << "completion lost in shutdown drain";
      ++drained;
    }
  }
  EXPECT_EQ(drained, 7u);
  EXPECT_EQ(batcher.depth(), 0u);
  EXPECT_FALSE(batcher.collect(items));  // stays terminal once drained
}

TEST(DynamicBatcher, LoneRequestIsReleasedWithinTheDelayBound) {
  // Latency-bound regression: with the batch nowhere near full, a lone
  // request must be held for ~max_delay_ms (the coalescing window) and
  // then released — not a multiple of it. The container clock is noisy, so
  // the upper bound is generous; the buggy failure modes this guards
  // against (wait re-armed off the wrong timestamp, wakeup re-starting
  // the window) overshoot by whole windows, not fractions.
  serve::BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_delay_ms = 50.0;
  serve::DynamicBatcher batcher(policy);

  std::vector<serve::DynamicBatcher::Item> items;
  const auto t0 = serve::DynamicBatcher::Clock::now();
  ASSERT_EQ(submit_one(batcher), Admit::kAccepted);
  std::thread collector([&] { ASSERT_TRUE(batcher.collect(items)); });
  collector.join();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(serve::DynamicBatcher::Clock::now() - t0)
          .count();

  ASSERT_EQ(items.size(), 1u);
  EXPECT_GE(waited_ms, 0.5 * policy.max_delay_ms)
      << "a lone request should be held for the coalescing window";
  EXPECT_LE(waited_ms, 10.0 * policy.max_delay_ms)
      << "a lone request must be released once its delay bound expires";
  batcher.shutdown();
}

TEST(DynamicBatcher, LateArrivalsDoNotExtendTheOldestRequestsDeadline) {
  // The regression this file exists for: the coalescing wait must stay
  // armed off the *oldest* queued request. A feeder keeps injecting fresh
  // requests (each submit also wakes the collector — covering the
  // spurious-wakeup path) well past the first request's deadline; if any
  // wake re-arms the window off a newer enqueue time, the batch release
  // slips indefinitely while the feeder runs.
  serve::BatchPolicy policy;
  policy.max_batch = 1024;  // never fills — only the deadline can release
  policy.max_delay_ms = 60.0;
  policy.max_queue_depth = 4096;
  serve::DynamicBatcher batcher(policy);

  const auto t0 = serve::DynamicBatcher::Clock::now();
  ASSERT_EQ(submit_one(batcher), Admit::kAccepted);

  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    while (!stop.load()) {
      submit_one(batcher);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  std::vector<serve::DynamicBatcher::Item> items;
  ASSERT_TRUE(batcher.collect(items));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(serve::DynamicBatcher::Clock::now() - t0)
          .count();
  stop.store(true);
  feeder.join();

  ASSERT_GE(items.size(), 1u);
  // The batch must contain the oldest request and be released near *its*
  // deadline — the feeder ran for seconds' worth of windows, so any
  // re-arm bug shows up as an order-of-magnitude overshoot.
  EXPECT_LE(waited_ms, 10.0 * policy.max_delay_ms)
      << "late arrivals extended the oldest request's deadline";
  for (std::size_t i = 1; i < items.size(); ++i)
    EXPECT_LE(items[0].enqueued, items[i].enqueued) << "FIFO order lost";
  batcher.shutdown();
}

// -- server runtime ----------------------------------------------------------

TEST(ServerRuntime, MultiThreadedStormCompletesWithCorrectTop1) {
  const auto& s = SharedServe::get();
  auto engine = std::make_shared<serve::InferenceEngine>(s.snapshot,
                                                         serve::ScoringMode::kFloatCosine);
  const Tensor& images = s.tp.test_set.images;
  const std::size_t n_images = images.size(0);
  auto expected = engine->classify_batch(images);

  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 8;
  cfg.batch.max_delay_ms = 1.0;
  cfg.batch.max_queue_depth = 4096;
  serve::ServerRuntime server(engine, cfg);

  // Phase 1: storm *before* start() so the queue is fully loaded — the
  // drain is then guaranteed to coalesce (deterministic batch histogram).
  // The storm speaks the unified submit(InferRequest) surface: admission
  // failures would come back as statuses on the futures, not exceptions.
  const std::size_t n_threads = 4, reps = 3;
  std::vector<std::vector<std::pair<std::size_t, std::future<serve::InferResult>>>> futs(
      n_threads);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < n_threads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = 0; r < reps; ++r)
        for (std::size_t i = 0; i < n_images; ++i) {
          serve::InferRequest req;
          req.input = slice_image(images, i);
          req.request_id = i + 1;
          futs[t].emplace_back(i, server.submit(std::move(req)));
        }
    });
  }
  for (auto& c : clients) c.join();

  server.start();
  std::size_t checked = 0;
  for (auto& per_thread : futs)
    for (auto& [idx, fut] : per_thread) {
      serve::InferResult r = fut.get();
      ASSERT_EQ(r.status, serve::InferStatus::kOk)
          << serve::infer_status_name(r.status) << ": " << r.message;
      ASSERT_EQ(r.request_id, idx + 1);
      ASSERT_EQ(r.top().label, expected[idx].label);
      ASSERT_FLOAT_EQ(r.top().score, expected[idx].score);
      ++checked;
    }
  EXPECT_EQ(checked, n_threads * reps * n_images);
  server.stop();

  const auto stats = server.stats().summary();
  EXPECT_EQ(stats.completed, checked);
  EXPECT_EQ(stats.rejected, 0u);
  // A fully loaded queue must have coalesced into (mostly) full batches.
  EXPECT_GE(stats.mean_batch_size, 4.0);
  std::uint64_t hist_total = 0;
  for (auto c : stats.batch_histogram) hist_total += c;
  EXPECT_EQ(hist_total, stats.batches);
}

TEST(ServerRuntime, MalformedRequestFailsAloneWithoutPoisoningItsBatch) {
  const auto& s = SharedServe::get();
  auto engine = std::make_shared<serve::InferenceEngine>(s.snapshot,
                                                         serve::ScoringMode::kFloatCosine);
  const Tensor& images = s.tp.test_set.images;
  auto expected = engine->classify_batch(images);

  serve::ServerConfig cfg;
  cfg.batch.max_batch = 8;
  serve::ServerRuntime server(engine, cfg);

  auto submit_one = [&](Tensor in) {
    serve::InferRequest req;
    req.input = std::move(in);
    return server.submit(std::move(req));
  };

  // Wrong dimensionality is rejected synchronously, before batching.
  EXPECT_EQ(submit_one(Tensor({4, 4})).get().status, serve::InferStatus::kBadShape);

  // A wrong-sized (but 3-d) image coalesced between valid requests must
  // fail alone; the valid requests around it still complete correctly.
  // [3,16,64] holds as many floats as a valid [3,32,32] image, so a batch
  // grouped by element count alone would take it, and the flat backbone
  // would read its pixels — and its batch-mates' — as [3,32,32].
  ASSERT_EQ(images.size(2), 32u);
  std::vector<std::future<serve::InferResult>> valid, bad;
  bad.push_back(submit_one(Tensor({3, 16, 64})));
  valid.push_back(submit_one(slice_image(images, 0)));
  bad.push_back(submit_one(Tensor({3, 4, 4})));
  bad.push_back(submit_one(Tensor({3, 16, 64})));
  valid.push_back(submit_one(slice_image(images, 1)));
  server.start();
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const serve::InferResult r = valid[i].get();
    ASSERT_EQ(r.status, serve::InferStatus::kOk) << r.message;
    EXPECT_EQ(r.top().label, expected[i].label);
    EXPECT_EQ(r.top().score, expected[i].score);
  }
  for (auto& f : bad) EXPECT_EQ(f.get().status, serve::InferStatus::kBadShape);
}

TEST(ServerRuntime, StopIsTerminal) {
  const auto& s = SharedServe::get();
  auto engine = std::make_shared<serve::InferenceEngine>(s.snapshot,
                                                         serve::ScoringMode::kFloatCosine);
  serve::ServerRuntime server(engine, serve::ServerConfig{});
  server.start();
  server.stop();
  EXPECT_THROW(server.start(), std::logic_error);
  serve::InferRequest req;
  req.input = Tensor({3, 2, 2});
  EXPECT_EQ(server.submit(std::move(req)).get().status, serve::InferStatus::kShutdown);
}

TEST(ServerRuntime, RejectsWhenQueueFullThenDrainsAfterStart) {
  const auto& s = SharedServe::get();
  auto engine = std::make_shared<serve::InferenceEngine>(s.snapshot,
                                                         serve::ScoringMode::kBinaryHamming);
  const Tensor& images = s.tp.test_set.images;
  auto expected = engine->classify_batch(images);

  serve::ServerConfig cfg;
  cfg.batch.max_batch = 4;
  cfg.batch.max_queue_depth = 4;
  serve::ServerRuntime server(engine, cfg);

  auto submit_one = [&](Tensor in) {
    serve::InferRequest req;
    req.input = std::move(in);
    return server.submit(std::move(req));
  };
  std::vector<std::future<serve::InferResult>> accepted;
  for (std::size_t i = 0; i < 4; ++i) accepted.push_back(submit_one(slice_image(images, i)));
  EXPECT_EQ(submit_one(slice_image(images, 0)).get().status, serve::InferStatus::kOverloaded);
  EXPECT_EQ(server.stats().summary().rejected, 1u);

  server.start();
  for (std::size_t i = 0; i < accepted.size(); ++i)
    EXPECT_EQ(accepted[i].get().top().label, expected[i].label);
}

}  // namespace
}  // namespace hdczsc
