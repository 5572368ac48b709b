// Traced layer replay: the workload's inputs, at the batch size the server
// formed, fed through each layer's public calls with one span per call
// under its parent. Runs after the load phases, while the server is idle.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>

#include "bench.hpp"
#include "hdc/hypervector.hpp"
#include "nn/resnet.hpp"
#include "serve/ann_store.hpp"
#include "serve/snapshot_io.hpp"
#include "serve/store_version.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace servebench {

namespace serve = hdczsc::serve;
namespace nn = hdczsc::nn;
using hdczsc::tensor::Tensor;

namespace {

constexpr std::size_t kReps = 15;     ///< repetitions per timed call; medians are reported
constexpr std::size_t kAppends = 6;   ///< appends per replay chain

/// Runs `fn` inside a span; returns the span index.
template <typename Fn>
std::size_t spanned(SpanLog& log, const std::string& name, std::int64_t parent, Fn&& fn) {
  const std::size_t i = log.open(name, parent);
  fn();
  log.close(i);
  return i;
}

/// A child span of known duration placed at its parent's start — used for a
/// part timed in its own call that the parent call also performs.
void derived_child(SpanLog& log, std::size_t parent, const std::string& name, double offset_ms,
                   double ms) {
  const double start = log.spans()[parent].start_ms + offset_ms;
  log.add(Span{name, start, start + ms, static_cast<std::int64_t>(parent), 0});
}

double ms_of(const SpanLog& log, std::size_t span) { return log.spans()[span].duration_ms(); }

/// Rows [lo, lo + n) of `t`, wrapping around.
Tensor rows_from(const Tensor& t, std::size_t lo, std::size_t n) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = (lo + i) % t.size(0);
  return take_rows(t, rows);
}

struct ConvShape {
  std::string name;
  std::size_t m = 0, n = 0, k = 0;  // GEMM of the conv at batch 16
};

/// nn + tensor: the backbone walked layer by layer through its public
/// structure (Sequential::operator[], the BasicBlock accessors, the
/// projection), mirroring BasicBlock::forward.
void replay_backbone(const Workload& w, const Serving& sv, std::size_t batch, SpanLog& log,
                     Replay& out) {
  const auto& snap = *sv.snapshot;
  std::vector<double> b1, b16;
  const Tensor img1 = rows_from(w.replay_images, 0, 1);
  const Tensor img16 = rows_from(w.replay_images, 0, 16);
  for (std::size_t r = 0; r < kReps; ++r) {
    b1.push_back(ms_of(log, spanned(log, "embed.b1", -1, [&] { snap.embed(img1); })));
    b16.push_back(ms_of(log, spanned(log, "embed.b16", -1, [&] { snap.embed(img16); })));
  }
  out.metrics["embed.batch_ms.b1"] = median(b1);
  out.metrics["embed.batch_ms.b16"] = median(b16);

  auto& encoder = snap.model_ptr()->image_encoder();
  nn::Sequential& net = encoder.backbone();
  nn::Linear* fc = encoder.projection();
  nn::ReLU relu;
  const Tensor images = rows_from(w.replay_images, 0, batch);
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<ConvShape> convs;
  Tensor emb;
  for (std::size_t r = 0; r < kReps; ++r) {
    const std::size_t first = log.spans().size();
    const std::size_t root = log.open("embed");
    const auto p = static_cast<std::int64_t>(root);
    auto conv = [&](const std::string& name, nn::Layer& layer, const Tensor& x,
                    std::int64_t parent) {
      Tensor y;
      spanned(log, "conv." + name, parent, [&] { y = layer.forward(x, false); });
      if (r == 0) {
        auto& c = dynamic_cast<nn::Conv2d&>(layer);
        const std::size_t ho = c.out_size(x.size(2)), wo = c.out_size(x.size(3));
        convs.push_back({name, c.out_channels(), 16 * ho * wo,
                         c.in_channels() * c.kernel() * c.kernel()});
      }
      return y;
    };
    auto simple = [&](const std::string& name, nn::Layer& layer, const Tensor& x,
                      std::int64_t parent) {
      Tensor y;
      spanned(log, name, parent, [&] { y = layer.forward(x, false); });
      return y;
    };
    Tensor x = conv("stem", net[0], images, p);
    x = simple("bn", net[1], x, p);
    x = simple("relu", net[2], x, p);
    for (std::size_t b = 0; b < 3; ++b) {
      auto& block = dynamic_cast<nn::BasicBlock&>(net[3 + b]);
      const std::string name = "block" + std::to_string(b + 1);
      const std::size_t bs = log.open("block", p);
      const auto bp = static_cast<std::int64_t>(bs);
      Tensor identity = x;
      if (block.down_conv()) {
        identity = conv(name + ".down", *block.down_conv(), x, bp);
        identity = simple("bn", *block.down_bn(), identity, bp);
      }
      Tensor h = conv(name + ".conv1", block.conv1(), x, bp);
      h = simple("bn", block.bn1(), h, bp);
      h = simple("relu", relu, h, bp);
      h = conv(name + ".conv2", block.conv2(), h, bp);
      h = simple("bn", block.bn2(), h, bp);
      h.add_scaled(identity, 1.0f);
      x = simple("relu", relu, h, bp);
      log.close(bs);
    }
    x = net[6].forward(x, false);  // Flatten
    if (fc) x = simple("fc", *fc, x, p);
    log.close(root);
    if (r == 0) emb = x;

    // This repetition's spans, parents re-indexed into the slice.
    std::vector<Span> rep(log.spans().begin() + static_cast<std::ptrdiff_t>(first),
                          log.spans().end());
    for (Span& s : rep)
      if (s.parent >= 0) s.parent -= static_cast<std::int64_t>(first);
    for (const auto& [name, self] : self_times_by_name(rep))
      per_rep[name].push_back(std::accumulate(self.begin(), self.end(), 0.0));
  }
  out.faithful = emb.numel() == snap.embed(images).numel();
  if (out.faithful) {
    const Tensor ref = snap.embed(images);
    out.faithful = std::equal(ref.data(), ref.data() + ref.numel(), emb.data());
  }
  for (const ConvShape& c : convs)
    out.metrics["embed.conv_ms." + c.name] = median(per_rep["conv." + c.name]);
  out.metrics["embed.bn_ms"] = median(per_rep["bn"]);
  out.metrics["embed.relu_ms"] = median(per_rep["relu"]);
  out.metrics["embed.residual_ms"] = median(per_rep["block"]);
  out.metrics["embed.fc_ms"] = fc ? median(per_rep["fc"]) : 0.0;
  double layers = 0.0;
  for (const auto& [name, v] : per_rep) layers += median(v);
  out.metrics["embed.layers_ms"] = layers;
  out.notes.push_back("backbone replayed at batch " + std::to_string(batch) +
                      (out.faithful ? "; output bit-identical to ModelSnapshot::embed"
                                    : "; OUTPUT DIFFERS from ModelSnapshot::embed"));

  // tensor: the GEMM at the largest conv's im2col shape (batch 16).
  const ConvShape big = *std::max_element(convs.begin(), convs.end(), [](const auto& a, const auto& b) {
    return a.m * a.n * a.k < b.m * b.n * b.k;
  });
  hdczsc::util::Rng rng(0x6E33ULL);
  const Tensor A = Tensor::randn({big.m, big.k}, rng), B = Tensor::randn({big.k, big.n}, rng);
  Tensor C({big.m, big.n});
  std::vector<double> gemm_ms;
  for (std::size_t r = 0; r < kReps; ++r) {
    std::fill(C.data(), C.data() + C.numel(), 0.0f);
    gemm_ms.push_back(ms_of(log, spanned(log, "gemm", -1, [&] {
      hdczsc::tensor::gemm_accumulate(hdczsc::tensor::Trans::N, hdczsc::tensor::Trans::N, big.m,
                                      big.n, big.k, A.data(), big.k, B.data(), big.n, C.data(),
                                      big.n);
    })));
  }
  const double flops = 2.0 * static_cast<double>(big.m * big.n * big.k);
  out.metrics["gemm.gflops"] = flops / (median(gemm_ms) * 1e-3) / 1e9;
  char note[200];
  std::snprintf(note, sizeof note,
                "gemm at %s (m=%zu n=%zu k=%zu, kernel %s): %.3g flop, %.3g bytes computed",
                big.name.c_str(), big.m, big.n, big.k, hdczsc::tensor::gemm_kernel_name(), flops,
                4.0 * static_cast<double>(big.m * big.k + big.k * big.n + big.m * big.n));
  out.notes.push_back(note);
}

/// Query embeddings for the store-side replays.
Tensor replay_embeddings(const Workload& w, const Serving& sv) {
  if (w.pool_batch.dim() == 2) return w.pool_batch;
  return sv.snapshot->embed(rows_from(w.pool_batch, 0, 64));
}

/// serve::PrototypeStore encode, ShardedPrototypeStore scan + hdc popcount,
/// and the IVF cascade, on the first endpoint's (or the cascade
/// endpoint's) pinned store version, each at the batch size its endpoint
/// served.
void replay_store(const Workload& w, const Serving& sv,
                  const std::map<std::string, std::size_t>& served_batch, SpanLog& log,
                  Replay& out) {
  const Tensor emb = replay_embeddings(w, sv);
  const std::size_t batch = served_batch.at(w.endpoints.front().key);
  const auto engine = sv.registry->engine(w.endpoints.front().key);
  const auto ver = engine->pin();
  const serve::PrototypeStore& store = *ver->store;
  const std::size_t n_batches = std::max<std::size_t>(kReps, emb.size(0) / batch);

  std::vector<double> encode_ms, binary_self, float_ms, words_per_s;
  const auto shard0 = ver->sharded->shard_stats();
  std::vector<std::uint32_t> dist;
  for (std::size_t r = 0; r < n_batches; ++r) {
    const Tensor q = rows_from(emb, r * batch, batch);
    std::vector<hdczsc::hdc::BinaryHV> codes;
    const std::size_t enc = spanned(log, "encode", -1, [&] {
      for (std::size_t b = 0; b < batch; ++b) codes.push_back(store.encode_query(q.data() + b * store.dim()));
    });
    encode_ms.push_back(ms_of(log, enc));
    const std::size_t scan = spanned(log, "scan.topk_binary", -1, [&] {
      ver->sharded->topk_binary(q, w.k, ver->penalty_ptr());
    });
    derived_child(log, scan, "encode", 0.0, encode_ms.back());
    binary_self.push_back(ms_of(log, scan) - encode_ms.back());
    float_ms.push_back(ms_of(log, spanned(log, "scan.topk_float", -1, [&] {
      ver->sharded->topk_float(q, w.k, ver->penalty_ptr());
    })));
    std::vector<std::uint64_t> packed;
    for (const auto& c : codes) packed.insert(packed.end(), c.words().begin(), c.words().end());
    dist.resize(batch * store.n_classes());
    const std::size_t ham = spanned(log, "hamming_many_packed_multi", -1, [&] {
      hdczsc::hdc::hamming_many_packed_multi(packed.data(), batch, store.packed_data(),
                                             store.n_classes(), store.words_per_row(), dist.data());
    });
    words_per_s.push_back(static_cast<double>(batch * store.n_classes() * store.words_per_row()) /
                          (ms_of(log, ham) * 1e-3));
  }
  const double d = static_cast<double>(store.dim()), D = static_cast<double>(store.code_bits());
  out.metrics["encode.us_per_query"] = median(encode_ms) * 1e3 / static_cast<double>(batch);
  out.metrics["encode.flops_per_query"] = store.expansion() > 1 ? 2.0 * D * d : 0.0;
  out.metrics["encode.bytes_per_query"] = store.expansion() > 1 ? D * d * 4.0 : 0.0;
  out.metrics["scan.binary_ms"] = median(binary_self);
  out.metrics["scan.float_ms"] = median(float_ms);
  out.metrics["scan.hamming_gwords_per_s"] = median(words_per_s) / 1e9;
  std::uint64_t swept = 0, pruned = 0;
  const auto shard1 = ver->sharded->shard_stats();
  for (std::size_t s = 0; s < shard1.size(); ++s) {
    swept += shard1[s].rows_swept - shard0[s].rows_swept;
    pruned += shard1[s].rows_pruned - shard0[s].rows_pruned;
  }
  out.metrics["scan.prune_share"] = swept ? static_cast<double>(pruned) / swept : 0.0;
  out.metrics["encode.batch_ms"] = median(encode_ms);

  // IVF cascade: the served index where an endpoint serves one, else an
  // index built here over the same store.
  std::shared_ptr<const serve::IvfIndex> ivf;
  std::size_t nprobe = 0, rerank = 4, cascade_batch = batch;
  for (const Endpoint& e : w.endpoints)
    if (e.retrieval == serve::RetrievalMode::kCascade) {
      const auto eng = sv.registry->engine(e.key);
      ivf = eng->pin()->ivf;
      nprobe = eng->nprobe();
      rerank = eng->rerank();
      cascade_batch = served_batch.at(e.key);
    }
  if (!ivf) ivf = std::make_shared<const serve::IvfIndex>(store);
  const std::size_t cascade_batches = std::max<std::size_t>(kReps, emb.size(0) / cascade_batch);
  const auto before = ivf->probe_stats();
  std::vector<double> cascade_ms;
  std::size_t hit = 0, total = 0;
  for (std::size_t r = 0; r < cascade_batches; ++r) {
    const Tensor q = rows_from(emb, r * cascade_batch, cascade_batch);
    cascade_ms.push_back(ms_of(log, spanned(log, "ann.topk_cascade", -1, [&] {
      ivf->topk_cascade(q, w.k, nprobe, rerank, ver->penalty_ptr());
    })));
  }
  const auto after = ivf->probe_stats();
  for (std::size_t r = 0; r < cascade_batches; ++r) {
    const Tensor q = rows_from(emb, r * cascade_batch, cascade_batch);
    const auto got = ivf->topk_cascade(q, 10, nprobe, rerank, ver->penalty_ptr());
    const auto want = ver->sharded->topk_float(q, 10, ver->penalty_ptr());
    for (std::size_t b = 0; b < want.size(); ++b) {
      std::set<std::size_t> truth;
      for (const auto& h : want[b]) truth.insert(h.label);
      for (const auto& h : got[b]) hit += truth.count(h.label);
      total += want[b].size();
    }
  }
  const double queries = static_cast<double>(after.queries - before.queries);
  out.metrics["ann.cascade_ms"] = median(cascade_ms);
  out.metrics["ann.centroids_per_query"] =
      static_cast<double>(after.centroids_probed - before.centroids_probed) / queries;
  out.metrics["ann.rows_swept_per_query"] =
      static_cast<double>(after.rows_swept - before.rows_swept) / queries;
  out.metrics["ann.pruned_share"] =
      static_cast<double>(after.rows_pruned - before.rows_pruned) /
      static_cast<double>(std::max<std::uint64_t>(1, after.rows_swept - before.rows_swept));
  out.metrics["ann.reranked_per_query"] =
      static_cast<double>(after.rows_reranked - before.rows_reranked) / queries;
  out.metrics["ann.recall_at_10"] = static_cast<double>(hit) / static_cast<double>(total);
  out.notes.push_back("store replay at batch " + std::to_string(batch) + " over " +
                      std::to_string(n_batches) + " batches, cascade at batch " +
                      std::to_string(cascade_batch) + "; IVF " +
                      std::to_string(ivf->n_centroids()) + " centroids");
}

/// Live evolution: ModelRegistry::append_classes on a private registry, and
/// its parts as a chain on a second private copy of the artifact (both
/// loaded afresh, so the served slabs stay unclaimed).
void replay_appends(const Workload& w, const Settings& s, SpanLog& log, Replay& out) {
  const Endpoint& ep = w.endpoints.back();
  Endpoint priv = ep;
  priv.retrieval = serve::RetrievalMode::kCascade;  // so the chain has an IVF part
  auto snap_a = serve::load_snapshot_file(w.artifact);
  auto snap_b = serve::load_snapshot_file(w.artifact);
  const Tensor rows = w.append_rows.numel() ? w.append_rows
                                            : rows_from(snap_a->class_attributes(), 0, kAppendRows);

  serve::ModelRegistry reg;
  reg.load("append", snap_a, priv.mode, endpoint_config(priv, s));
  std::vector<std::size_t> totals;
  for (std::size_t i = 0; i < kAppends; ++i)
    totals.push_back(spanned(log, "append", -1, [&] { reg.append_classes("append", rows); }));

  const serve::InferenceEngine engine(snap_b, priv.mode, priv.shards, 0.0f,
                                      serve::Precision::kFloat32, priv.retrieval);
  std::shared_ptr<const serve::StoreVersion> cur = engine.pin();
  std::map<std::string, std::vector<double>> parts;
  std::vector<double> total_ms, self_ms;
  const std::size_t n = rows.size(0);
  for (std::size_t i = 0; i < kAppends; ++i) {
    auto next = std::make_shared<serve::StoreVersion>();
    Tensor phi;
    std::map<std::string, double> t;
    auto part = [&](const std::string& name, auto&& fn) {
      t[name] = ms_of(log, spanned(log, "append." + name, -1, fn));
    };
    part("encode", [&] { phi = snap_b->encode_attributes(rows); });
    part("rows", [&] {
      next->store = std::make_shared<const serve::PrototypeStore>(cur->store->append_rows(phi));
    });
    next->seen_mask = serve::extend_seen_mask(cur->seen_mask, cur->n_classes(), {}, n);
    part("shards", [&] {
      next->sharded =
          std::make_shared<const serve::ShardedPrototypeStore>(*next->store, cur->sharded->n_shards());
    });
    part("ivf", [&] {
      auto assign = serve::extend_ivf_assignments(cur->ivf->centroids(), cur->ivf->assignments(),
                                                  *next->store, cur->n_classes());
      next->ivf = std::make_shared<const serve::IvfIndex>(
          serve::IvfIndex::from_parts(*next->store, cur->ivf->centroids(), std::move(assign)));
    });
    part("penalty", [&] {
      next->penalty = next->store->resolve_penalty(cur->penalty.penalty, next->seen_mask);
    });
    part("checksum", [&] {
      next->content_checksum = serve::extend_content_checksum(
          cur->content_checksum, *next->store, next->seen_mask, cur->n_classes());
    });
    next->version = cur->version + 1;
    cur = next;

    const double total = ms_of(log, totals[i]);
    double offset = 0.0, sum = 0.0;
    for (const auto& [name, ms] : t) {
      derived_child(log, totals[i], "append." + name, offset, ms);
      offset += ms;
      sum += ms;
    }
    total_ms.push_back(total);
    if (i == 0) {
      out.metrics["append.realloc_ms"] = t["rows"];
      continue;
    }
    for (const auto& [name, ms] : t) parts[name].push_back(ms);
    self_ms.push_back(total - sum);
  }
  out.metrics["append.total_ms.p50"] = median(total_ms);
  for (const auto& [name, v] : parts) out.metrics["append." + name + "_ms"] = median(v);
  out.metrics["append.self_ms"] = median(self_ms);
  out.notes.push_back("appends of " + std::to_string(n) + " classes on a private copy of " +
                      ep.key + " (first append reallocates the exact-fit slabs)");
}

}  // namespace

Replay replay_layers(const Workload& w, const Settings& s, const Serving& sv,
                     const std::map<std::string, std::size_t>& served_batch, SpanLog& log) {
  Replay out;
  std::size_t batch = 1;
  for (const auto& [key, b] : served_batch) batch = std::max(batch, b);
  replay_backbone(w, sv, batch, log, out);
  replay_store(w, sv, served_batch, log, out);
  replay_appends(w, s, log, out);
  return out;
}

}  // namespace servebench
