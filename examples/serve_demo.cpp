// Serving demo: freeze an HDC-ZSC model into an inference snapshot (float +
// bit-packed binary prototypes), host it in the multi-model registry, and
// storm it with synthetic requests, printing per-model telemetry.
//
// Two ways to obtain the model:
//   * train in-process (default):
//       ./serve_demo [--classes=24] [--save-snapshot=model.hdcsnap]
//   * cold-start from a .hdcsnap artifact written by snapshot_tool or
//     run_pipeline_trained — no training, the production path:
//       ./serve_demo --snapshot=model.hdcsnap
//
// Multi-model serving: --models=N registers the snapshot under N keys
// (m0..mN-1), each with its own batcher/workers/stats, and round-robins the
// request storm across them.
//
// Sharded retrieval: --shards=S splits the prototype store into S row-range
// shards (0 = the snapshot's preferred layout) and prints per-shard scan
// telemetry after the storm; --topk=K prints the top-K (label, score) hits
// for a few sample requests via the scatter/gather scan.
//
// GZSL serving: --seen-penalty=P serves the *joint* seen+unseen label
// space with calibrated stacking — in training mode the snapshot is built
// over both domains (training classes first, partition recorded; the
// request pool mixes held-out seen-class images with unseen-class ones),
// in --snapshot mode the artifact's persisted v3 partition is used. The
// penalty is subtracted from every seen-class logit on both scoring
// paths; the storm report adds per-domain accuracy and the seen/unseen
// decision balance.
//
// Observability: --stats-interval=S prints the live registry table every S
// seconds while the storm runs (obs::PeriodicReporter); --metrics-out=PATH
// dumps every registered metric after the storm (.json → JSON, anything
// else → Prometheus text format); --profile additionally enables the
// kernel profiling hooks (gemm / Hamming-scan / shard-scan histograms).
// The final report includes the per-stage latency breakdown (queue-wait /
// collect / embed / score / reply) and the slowest traced requests.
//
// Int8 serving: --precision=int8 routes the embed stage through the
// post-training-quantized backbone. In training mode the demo calibrates
// and quantizes in-process (--calib-method=minmax|entropy); in --snapshot
// mode the artifact must be a v4 file carrying quantization records
// (snapshot_tool --quantize).
//
// Approximate retrieval: --retrieval=ivf probes --nprobe coarse IVF lists
// instead of scanning every prototype row; --retrieval=cascade adds the
// binary-prefilter → float-rerank stage with a rerank·k candidate budget
// (--rerank, 0 = unbounded). The engines adopt the snapshot's persisted
// v5 index or cluster one deterministically at load; the storm report adds
// the probe/prune telemetry line.
//
//   ./serve_demo [--requests=240] [--clients=4] [--batch=8] [--workers=1]
//                [--mode=float|binary] [--precision=float32|int8]
//                [--calib-method=minmax] [--expansion=8] [--models=1]
//                [--shards=0] [--topk=0] [--seen-penalty=0]
//                [--retrieval=exact|ivf|cascade] [--nprobe=0] [--rerank=4]
//                [--stats-interval=0] [--metrics-out=] [--profile]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "demo_pipeline_config.hpp"
#include "obs/export.hpp"
#include "serve/model_registry.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using namespace hdczsc;

namespace {
nn::Tensor slice_image(const nn::Tensor& images, std::size_t b) {
  const std::size_t per = images.numel() / images.size(0);
  nn::Tensor out({images.size(1), images.size(2), images.size(3)});
  const float* src = images.data() + b * per;
  std::copy(src, src + per, out.data());
  return out;
}

int run(int argc, char** argv) {
  util::ArgMap args(argc, argv);
  const std::size_t n_requests = static_cast<std::size_t>(args.get_int("requests", 240));
  const std::size_t clients = static_cast<std::size_t>(args.get_int("clients", 4));
  const std::size_t expansion = static_cast<std::size_t>(args.get_int("expansion", 8));
  const std::size_t n_models =
      static_cast<std::size_t>(std::max<long>(1, args.get_int("models", 1)));
  const std::size_t n_shards = static_cast<std::size_t>(args.get_int("shards", 0));
  const std::size_t topk = static_cast<std::size_t>(args.get_int("topk", 0));
  const float seen_penalty = static_cast<float>(args.get_double("seen-penalty", 0.0));
  const bool gzsl = args.has("seen-penalty");
  const double stats_interval = args.get_double("stats-interval", 0.0);
  const std::string metrics_out = args.get_str("metrics-out", "");
  if (args.has("profile")) obs::set_profiling_enabled(true);
  const auto flags = examples::parse_serving_flags(args, "serve_demo");
  if (!flags) return 2;
  const auto [mode, precision, calib, retrieval] = *flags;

  // -- 1. obtain a snapshot: load the artifact, or train and freeze ----------
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  nn::Tensor images;                 // request pool
  std::vector<std::size_t> labels;   // ground truth (empty in --snapshot mode)
  if (args.has("snapshot")) {
    const std::string path = args.get_str("snapshot", "");
    snapshot = examples::load_serving_snapshot(path, precision, "serve_demo");
    if (!snapshot) return 2;
    std::printf("serve_demo: cold-started from %s (%zu classes, d=%zu, x%zu codes%s) — "
                "no retraining\n",
                path.c_str(), snapshot->n_classes(), snapshot->dim(),
                snapshot->prototypes().expansion(),
                snapshot->has_quantized() ? ", int8-capable" : "");
    if (snapshot->has_partition())
      std::printf("serve_demo: GZSL partition: %zu seen + %zu unseen classes\n",
                  snapshot->n_seen(), snapshot->n_unseen());
    // No dataset in this process: storm with a seeded synthetic request pool.
    util::Rng rng(0x9507BEULL);
    images = nn::Tensor::randn({64, 3, 32, 32}, rng);
  } else {
    core::PipelineConfig cfg = examples::demo_pipeline_config(args);
    cfg.snapshot_path = args.get_str("save-snapshot", "");
    cfg.snapshot_expansion = expansion;
    cfg.snapshot_shards = std::max<std::size_t>(1, n_shards);
    cfg.snapshot_gzsl = gzsl;

    if (gzsl)
      std::printf("serve_demo: training on %zu classes, serving the joint %zu-class "
                  "seen+unseen space (calibrated stacking, penalty %g)\n",
                  cfg.zs_train_classes, cfg.n_classes,
                  static_cast<double>(seen_penalty));
    else
      std::printf("serve_demo: training on %zu classes, serving the %zu unseen ones\n",
                  cfg.zs_train_classes, cfg.n_classes - cfg.zs_train_classes);
    auto tp = core::run_pipeline_trained(cfg);
    std::printf("trained: zero-shot top-1 %.1f %% on unseen classes\n",
                100.0 * tp.result.zsc.top1);
    if (!cfg.snapshot_path.empty())
      std::printf("wrote snapshot artifact: %s\n", cfg.snapshot_path.c_str());
    std::shared_ptr<serve::ModelSnapshot> built;
    if (gzsl) {
      // Joint label space, training classes first; the request pool mixes
      // the seen domain's held-out images with the unseen domain's, with
      // ground-truth labels in joint ids.
      built = serve::make_gzsl_snapshot(tp.model, tp.seen_class_attributes,
                                        tp.test_class_attributes, expansion,
                                        std::max<std::size_t>(1, n_shards));
      data::Batch joint = core::joint_gzsl_eval_set(tp);
      images = std::move(joint.images);
      labels = std::move(joint.labels);
    } else {
      built = std::make_shared<serve::ModelSnapshot>(
          tp.model, tp.test_class_attributes, expansion, std::max<std::size_t>(1, n_shards));
      images = tp.test_set.images;
      labels = tp.test_set.labels;
    }
    if (precision == serve::Precision::kInt8) {
      // Calibrate on the request pool itself: PTQ only needs unlabeled
      // images drawn from the serving distribution.
      const auto qi = built->quantize(images, calib)->info();
      std::printf("serve_demo: int8 backbone calibrated (%s) on %zu images "
                  "(%zu conv + %zu linear, %zu weight bytes)\n",
                  nn::calib_method_name(qi.method), images.size(0), qi.n_conv, qi.n_linear,
                  qi.weight_bytes);
    }
    snapshot = built;
  }

  const auto& store = snapshot->prototypes();
  util::Table mem("frozen prototype store (" + std::to_string(store.n_classes()) +
                  " classes, d=" + std::to_string(store.dim()) + ")");
  mem.set_header({"form", "bytes"});
  mem.add_row({"float rows (fp32)", std::to_string(store.float_bytes())});
  mem.add_row({"packed binary rows (" + std::to_string(store.code_bits()) + " bits)",
               std::to_string(store.binary_bytes())});
  mem.print();

  // -- 2. host it in the registry (N aliases = N independent model slots) ----
  serve::ServerConfig scfg = examples::serving_config(args, *flags);
  scfg.batch.max_queue_depth = 4096;
  scfg.n_shards = n_shards;  // 0 = adopt the snapshot's preferred layout
  scfg.seen_penalty = seen_penalty;
  if (retrieval != serve::RetrievalMode::kExact)
    std::printf("serve_demo: %s retrieval (%s IVF index, nprobe=%zu%s)\n",
                serve::retrieval_mode_name(retrieval).c_str(),
                snapshot->has_ivf() ? "persisted" : "load-time",
                scfg.nprobe, retrieval == serve::RetrievalMode::kCascade
                                 ? (", rerank=" + std::to_string(scfg.rerank)).c_str()
                                 : "");
  serve::ModelRegistry registry(scfg);
  std::vector<std::string> keys;
  for (std::size_t m = 0; m < n_models; ++m) {
    keys.push_back("m" + std::to_string(m));
    registry.load(keys.back(), snapshot, mode);
  }

  // Reference decisions for the whole request pool, computed directly. A
  // served answer must match its label and its score: one image's scores
  // do not depend on the batch it lands in.
  const auto engine0 = registry.engine(keys[0]);
  const auto expected = engine0->classify_batch(images);

  // -- top-k retrieval preview (scatter/gather over the sharded store) -------
  if (topk > 0) {
    const std::size_t n_preview = std::min<std::size_t>(3, images.size(0));
    nn::Tensor preview({n_preview, images.size(1), images.size(2), images.size(3)});
    std::copy(images.data(), images.data() + preview.numel(), preview.data());
    const auto hits = engine0->topk_batch(preview, topk);
    util::Table tk("top-" + std::to_string(topk) + " retrieval (" +
                   std::to_string(engine0->n_shards()) + " shard(s), " +
                   scoring_mode_name(mode) + ")");
    tk.set_header({"request", "rank", "label", "score"});
    for (std::size_t b = 0; b < hits.size(); ++b)
      for (std::size_t r = 0; r < hits[b].size(); ++r)
        tk.add_row({std::to_string(b), std::to_string(r + 1),
                    std::to_string(hits[b][r].label), util::Table::num(hits[b][r].score, 4)});
    tk.print();
  }

  std::printf("\nserving %zu requests from %zu client threads across %zu model(s) "
              "(%s scoring, max_batch=%zu)...\n",
              n_requests, clients, n_models, scoring_mode_name(mode).c_str(),
              scfg.batch.max_batch);

  // -- 3. request storm, round-robined across model keys ---------------------
  // Live telemetry while the storm runs: every --stats-interval seconds the
  // reporter thread prints the per-model registry table.
  std::unique_ptr<obs::PeriodicReporter> reporter;
  if (stats_interval > 0.0)
    reporter = std::make_unique<obs::PeriodicReporter>(
        stats_interval, [&registry] { registry.to_table("serving telemetry (live)").print(); });

  // The storm speaks the unified submit(InferRequest) surface (the same
  // contract the network front-end serves): failures come back as named
  // statuses on the results, and a status != kOk counts as a mismatch.
  const std::size_t n_images = images.size(0);
  std::vector<std::size_t> hits(clients, 0), matches(clients, 0), sent(clients, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t per_client = n_requests / clients;
      std::vector<std::pair<std::size_t, std::future<serve::InferResult>>> inflight;
      auto settle = [&] {
        for (auto& [i, f] : inflight) {
          const serve::InferResult r = f.get();
          if (!r.ok() || r.topk.empty()) continue;
          matches[t] += r.top().label == expected[i].label && r.top().score == expected[i].score;
          if (!labels.empty()) hits[t] += r.top().label == labels[i];
        }
        sent[t] += inflight.size();
        inflight.clear();
      };
      for (std::size_t r = 0; r < per_client; ++r) {
        const std::size_t req = t * per_client + r;
        const std::size_t idx = req % n_images;
        serve::InferRequest ir;
        ir.model_key = keys[req % n_models];
        ir.input = slice_image(images, idx);
        ir.request_id = req + 1;
        inflight.emplace_back(idx, registry.submit(std::move(ir)));
        if (inflight.size() >= 16) settle();
      }
      settle();
    });
  }
  for (auto& th : threads) th.join();
  if (reporter) reporter->stop();

  std::size_t total_hits = 0, total_matches = 0, total_sent = 0;
  for (std::size_t t = 0; t < clients; ++t) {
    total_hits += hits[t];
    total_matches += matches[t];
    total_sent += sent[t];
  }

  std::printf("\n");
  registry.to_table("serving telemetry (per model)").print();

  // Per-stage latency breakdown: where a request's time actually went
  // (queue-wait / collect / embed / score / reply), plus the slowest traced
  // requests for postmortems.
  {
    util::Table stages("per-stage latency (" + keys[0] + ")");
    stages.set_header({"stage", "count", "mean ms", "p50 ms", "p99 ms", "p999 ms", "max ms"});
    for (const auto& s : registry.stage_stats(keys[0]))
      stages.add_row({s.stage, std::to_string(s.count), util::Table::num(s.mean_ms, 3),
                      util::Table::num(s.p50_ms, 3), util::Table::num(s.p99_ms, 3),
                      util::Table::num(s.p999_ms, 3), util::Table::num(s.max_ms, 3)});
    stages.print();
    const auto slow = registry.slow_traces(keys[0]);
    const std::size_t n_slow = std::min<std::size_t>(4, slow.size());
    if (n_slow > 0) std::printf("slowest traced requests (%s):\n", keys[0].c_str());
    for (std::size_t i = 0; i < n_slow; ++i) {
      const auto& sp = slow[i];
      std::printf("  trace #%llu total=%.3fms queue-wait=%.3f collect=%.3f embed=%.3f "
                  "score=%.3f reply=%.3f\n",
                  static_cast<unsigned long long>(sp.id), sp.total_ms,
                  sp.stage(obs::Stage::kQueueWait), sp.stage(obs::Stage::kCollect),
                  sp.stage(obs::Stage::kEmbed), sp.stage(obs::Stage::kScore),
                  sp.stage(obs::Stage::kReply));
    }
  }

  if (engine0->n_shards() > 1) {
    const auto shards = registry.shard_stats(keys[0]);
    util::Table st("prototype scan telemetry (" + keys[0] + ", " +
                   std::to_string(shards.size()) + " shards)");
    st.set_header({"shard", "rows", "row range", "scans", "rows swept", "rows pruned"});
    for (std::size_t s = 0; s < shards.size(); ++s)
      st.add_row({std::to_string(s), std::to_string(shards[s].rows),
                  "[" + std::to_string(shards[s].begin) + ", " +
                      std::to_string(shards[s].begin + shards[s].rows) + ")",
                  std::to_string(shards[s].scans), std::to_string(shards[s].rows_swept),
                  std::to_string(shards[s].rows_pruned)});
    st.print();
  }

  // Approximate-tier telemetry: how much of the label space the probes
  // actually touched, and how many of those rows the fused scan's block
  // test skipped.
  if (const auto ann = registry.ann_stats(keys[0])) {
    std::printf("ivf probes (%s): %llu queries, %llu lists opened, %llu rows swept "
                "(%llu pruned, %llu reranked)\n",
                keys[0].c_str(), static_cast<unsigned long long>(ann->queries),
                static_cast<unsigned long long>(ann->centroids_probed),
                static_cast<unsigned long long>(ann->rows_swept),
                static_cast<unsigned long long>(ann->rows_pruned),
                static_cast<unsigned long long>(ann->rows_reranked));
  }

  // Machine-readable dump of every registered metric (model series, stage
  // histograms, kernel profiles): .json → JSON, anything else → Prometheus.
  if (!metrics_out.empty()) {
    obs::dump_metrics_file(metrics_out);
    std::printf("wrote metrics dump: %s\n", metrics_out.c_str());
  }
  // Aggregate the GZSL decision counters across model slots before the
  // registry tears the runtimes down.
  std::uint64_t dec_seen = 0, dec_unseen = 0;
  for (const auto& key : keys) {
    const auto s = registry.stats(key);
    dec_seen += s.seen_hits;
    dec_unseen += s.unseen_hits;
  }
  registry.stop_all();

  std::printf("\nserved == direct inference: %zu/%zu requests (%s)\n", total_matches,
              total_sent, total_matches == total_sent ? "PASS" : "FAIL");
  if (!labels.empty())
    std::printf("served top-1 accuracy: %.1f %% (%zu/%zu requests)\n",
                100.0 * static_cast<double>(total_hits) / static_cast<double>(total_sent),
                total_hits, total_sent);

  // -- GZSL report: where the decisions landed, and per-domain accuracy ------
  // (partitioned snapshots only: without a partition every class is seen,
  // the penalty is a uniform shift, and there are no domains to report.)
  if (snapshot->has_partition()) {
    const double dec_total = static_cast<double>(dec_seen + dec_unseen);
    const double fs = dec_total > 0 ? static_cast<double>(dec_seen) / dec_total : 0.0;
    const double fu = dec_total > 0 ? static_cast<double>(dec_unseen) / dec_total : 0.0;
    std::printf("gzsl decisions: penalty=%g seen=%llu unseen=%llu H(dom)=%.3f "
                "(%zu seen + %zu unseen classes)\n",
                static_cast<double>(seen_penalty),
                static_cast<unsigned long long>(dec_seen),
                static_cast<unsigned long long>(dec_unseen),
                fs > 0.0 && fu > 0.0 ? 2.0 * fs * fu / (fs + fu) : 0.0,
                snapshot->n_seen(), snapshot->n_unseen());
    if (!labels.empty()) {
      // Ground truth available (training mode): the actual GZSL metric —
      // per-domain accuracy of the *served* decisions and their harmonic
      // mean (predictions were asserted identical to direct inference
      // above, so scoring the expected decisions scores the served ones).
      std::size_t seen_n = 0, seen_ok = 0, unseen_n = 0, unseen_ok = 0;
      for (std::size_t i = 0; i < labels.size(); ++i) {
        const bool seen_domain = snapshot->is_seen(labels[i]);
        (seen_domain ? seen_n : unseen_n) += 1;
        (seen_domain ? seen_ok : unseen_ok) += expected[i].label == labels[i];
      }
      const double sa = seen_n ? static_cast<double>(seen_ok) / seen_n : 0.0;
      const double ua = unseen_n ? static_cast<double>(unseen_ok) / unseen_n : 0.0;
      std::printf("gzsl accuracy: seen %.1f %% (%zu/%zu), unseen %.1f %% (%zu/%zu), "
                  "harmonic mean %.1f %%\n",
                  100.0 * sa, seen_ok, seen_n, 100.0 * ua, unseen_ok, unseen_n,
                  sa + ua > 0.0 ? 100.0 * 2.0 * sa * ua / (sa + ua) : 0.0);
    }
  }
  return total_matches == total_sent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Any failure (a missing or corrupt artifact, a rejected delta) ends with
  // the library's named error and exit 1; a bad flag spelling still exits 2.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_demo: %s\n", e.what());
    return 1;
  }
}
