#include "serve/server.hpp"

#include <algorithm>
#include <numeric>

#include "util/log.hpp"

namespace hdczsc::serve {

ServerRuntime::ServerRuntime(std::shared_ptr<const InferenceEngine> engine, ServerConfig cfg)
    : engine_(std::move(engine)), cfg_(std::move(cfg)), batcher_(cfg_.batch), stats_(cfg_.name),
      trace_(cfg_.name) {
  if (!engine_) throw std::invalid_argument("ServerRuntime: null engine");
  if (cfg_.n_workers == 0) cfg_.n_workers = 1;
  trace_.set_enabled(cfg_.tracing);
  // Expose the backbone numeric path alongside the serve_* series so an
  // exporter scrape distinguishes int8 replicas from float32 ones. The
  // engine's precision is authoritative (construction already validated the
  // snapshot carries a quantized artifact when int8 was requested).
  if (!cfg_.name.empty()) {
    obs::default_registry()
        .gauge("serve_embed_precision", {{"model", cfg_.name}},
               "backbone numeric path (0 = float32, 1 = int8)")
        ->set(static_cast<double>(static_cast<unsigned>(engine_->precision())));
    obs::default_registry()
        .gauge("serve_retrieval_mode", {{"model", cfg_.name}},
               "top-k retrieval tier (0 = exact, 1 = ivf, 2 = cascade)")
        ->set(static_cast<double>(static_cast<unsigned>(engine_->retrieval())));
  }
}

ServerRuntime::~ServerRuntime() { stop(); }

void ServerRuntime::start() {
  if (stopped_.load())
    throw std::logic_error("ServerRuntime::start: runtime already stopped (one-shot)");
  if (running_.exchange(true)) return;
  workers_.reserve(cfg_.n_workers);
  for (std::size_t i = 0; i < cfg_.n_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ServerRuntime::stop() {
  stopped_.store(true);
  batcher_.shutdown();
  for (auto& w : workers_) w.join();
  workers_.clear();
  running_.store(false);
}

std::optional<InferResult> ServerRuntime::validate(const InferRequest& req) const {
  const tensor::Tensor& in = req.input;
  const bool image = in.dim() == 3 || (in.dim() == 4 && in.size(0) == 1);
  const bool embedding = in.dim() == 1 || (in.dim() == 2 && in.size(0) == 1);
  if (!(image || embedding) || in.numel() == 0)
    return make_error_result(req.request_id, InferStatus::kBadShape,
                             "input must be an image [3,S,S] / [1,3,S,S] or an embedding "
                             "[d] / [1,d]");
  if (image) {
    // The batch assembles images by element count, so one whose shape the
    // backbone cannot embed must not get that far: a flat tail would read a
    // [3,16,64] image's pixels as [3,32,32], and its batch-mates' with them.
    const core::ImageEncoder& enc = engine_->snapshot().model().image_encoder();
    const std::size_t c = in.size(in.dim() - 3), h = in.size(in.dim() - 2),
                      w = in.size(in.dim() - 1);
    const std::size_t want_c = enc.image_channels(), want_s = enc.image_size();
    if (c != want_c || h != w || (want_s != 0 && h != want_s))
      return make_error_result(
          req.request_id, InferStatus::kBadShape,
          "image " + tensor::shape_str(in.shape()) + " does not match the backbone's input [" +
              std::to_string(want_c) + "," + (want_s ? std::to_string(want_s) : "S") + "," +
              (want_s ? std::to_string(want_s) : "S") + "]");
  }
  if (embedding) {
    const std::size_t d = in.dim() == 1 ? in.size(0) : in.size(1);
    if (d != engine_->snapshot().dim())
      return make_error_result(req.request_id, InferStatus::kBadShape,
                               "embedding width " + std::to_string(d) +
                                   " does not match the model dim " +
                                   std::to_string(engine_->snapshot().dim()));
  }
  if (req.k == 0 && !req.want_logits)
    return make_error_result(req.request_id, InferStatus::kBadRequest,
                             "k == 0 with want_logits false requests nothing");
  if (req.scoring != ScoringSelect::kModelDefault) {
    const bool want_float = req.scoring == ScoringSelect::kFloatCosine;
    const bool is_float = engine_->mode() == ScoringMode::kFloatCosine;
    if (want_float != is_float)
      return make_error_result(req.request_id, InferStatus::kBadScoring,
                               "request pinned " +
                                   scoring_mode_name(want_float ? ScoringMode::kFloatCosine
                                                                : ScoringMode::kBinaryHamming) +
                                   " but the model serves " + scoring_mode_name(engine_->mode()));
  }
  return std::nullopt;
}

void ServerRuntime::submit(InferRequest req, InferDone done) {
  const std::uint64_t id = req.request_id;
  const auto shutdown = [&] {
    stats_.record_reject();
    done(make_error_result(id, InferStatus::kShutdown, "runtime stopped"));
  };
  // A stopped runtime answers kShutdown whatever the request holds.
  if (stopped_.load()) return shutdown();
  if (auto err = validate(req)) {
    done(std::move(*err));
    return;
  }
  switch (batcher_.submit(req, done)) {
    case DynamicBatcher::Admit::kAccepted:
      return;
    case DynamicBatcher::Admit::kQueueFull:
      stats_.record_reject();
      done(make_error_result(id, InferStatus::kOverloaded,
                             "queue full (max_queue_depth=" +
                                 std::to_string(batcher_.policy().max_queue_depth) + ")"));
      return;
    case DynamicBatcher::Admit::kShutdown:
      return shutdown();
  }
}

std::future<InferResult> ServerRuntime::submit(InferRequest req) {
  auto prom = std::make_shared<std::promise<InferResult>>();
  std::future<InferResult> fut = prom->get_future();
  submit(std::move(req), [prom](InferResult&& r) { prom->set_value(std::move(r)); });
  return fut;
}

void ServerRuntime::worker_loop() {
  using Clock = DynamicBatcher::Clock;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };

  std::vector<DynamicBatcher::Item> items;
  while (batcher_.collect(items)) {
    if (items.empty()) continue;
    const bool tracing = trace_.enabled();
    const auto collected = Clock::now();
    stats_.observe_queue_depth(batcher_.depth() + items.size());

    // The first request of the batch sets its input kind (image vs
    // pre-computed embedding) and element count; requests that don't match
    // both fail individually instead of poisoning the batch. validate()
    // already pinned every embedding to the model dim and every image to
    // [C,S,S] with the backbone's C, so images of one element count share
    // one shape, and an embedding can only be split from the batch by an
    // image whose numel coincides — which the kind check catches.
    const tensor::Tensor& first = items[0].req.input;
    const bool embed_kind = first.dim() <= 2;
    const std::size_t per_input = first.numel();
    std::vector<std::size_t> good;
    good.reserve(items.size());
    for (std::size_t b = 0; b < items.size(); ++b) {
      const tensor::Tensor& in = items[b].req.input;
      if ((in.dim() <= 2) == embed_kind && in.numel() == per_input) {
        good.push_back(b);
      } else {
        util::log_warn("serve: request input differs from the rest of the batch (",
                       in.numel(), " elements vs ", per_input, "), failing it");
        items[b].done(make_error_result(items[b].req.request_id, InferStatus::kBadShape,
                                        "request input differs from the rest of the batch"));
      }
    }

    tensor::Shape shape;
    if (embed_kind) {
      shape = {0, per_input};
    } else {
      shape = first.dim() == 3 ? tensor::Shape{0, first.size(0), first.size(1), first.size(2)}
                               : tensor::Shape{0, first.size(1), first.size(2), first.size(3)};
    }
    shape[0] = good.size();
    tensor::Tensor input(shape);
    float* dst = input.data();
    for (std::size_t g = 0; g < good.size(); ++g) {
      const float* src = items[good[g]].req.input.data();
      std::copy(src, src + per_input, dst + g * per_input);
    }
    const auto assembled = Clock::now();

    std::size_t kmax = 0;
    bool any_logits = false;
    for (std::size_t g : good) {
      kmax = std::max<std::size_t>(kmax, items[g].req.k);
      any_logits |= items[g].req.want_logits;
    }

    try {
      InferenceEngine::BatchTimings timings;
      std::vector<std::vector<TopK>> hits;
      tensor::Tensor lg;
      if (any_logits) {
        // One flat-scan forward serves the whole batch; per-item top-k is
        // derived from each row by (score desc, label asc) — the exact
        // ordering the sharded scatter/gather retrieval produces, so the
        // two execution paths stay bit-identical (tests/test_infer_api).
        lg = engine_->logits(input, &timings);
      } else {
        hits = engine_->topk_batch(input, kmax, &timings);
      }
      const auto done_ts = Clock::now();

      std::vector<InferResult> results(good.size());
      for (std::size_t g = 0; g < good.size(); ++g) {
        const InferRequest& req = items[good[g]].req;
        InferResult& r = results[g];
        r.request_id = req.request_id;
        if (any_logits) {
          const std::size_t classes = lg.size(1);
          const float* row = lg.data() + g * classes;
          const std::size_t k = std::min<std::size_t>(req.k, classes);
          if (k > 0) {
            std::vector<std::size_t> idx(classes);
            std::iota(idx.begin(), idx.end(), std::size_t{0});
            std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                              [row](std::size_t a, std::size_t b) {
                                if (row[a] != row[b]) return row[a] > row[b];
                                return a < b;
                              });
            r.topk.reserve(k);
            for (std::size_t i = 0; i < k; ++i) r.topk.push_back(TopK{idx[i], row[idx[i]]});
          }
          if (req.want_logits) r.logits.assign(row, row + classes);
        } else {
          r.topk = std::move(hits[g]);
          if (r.topk.size() > req.k) r.topk.resize(req.k);
        }
        r.timings.queue_wait_ms = ms(collected - items[good[g]].enqueued);
        r.timings.collect_ms = ms(assembled - collected);
        r.timings.embed_ms = timings.embed_ms;
        r.timings.score_ms = timings.score_ms;
        r.timings.total_ms = ms(done_ts - items[good[g]].enqueued);
      }

      stats_.record_batch(good.size());
      // GZSL telemetry: count where the top-1 decisions landed in the
      // seen/unseen partition. Only recorded for partitioned versions —
      // without one every label counts as seen, and an all-seen counter
      // would be indistinguishable from the one-domain collapse the
      // balance metric exists to flag. The partition is read off a freshly
      // pinned StoreVersion, not the snapshot: appended classes live past
      // the snapshot's fixed-size mask, and any version at least as new as
      // the one that scored the batch classifies its labels correctly
      // (appends only extend the space, never re-partition existing rows).
      const std::shared_ptr<const StoreVersion> ver = engine_->pin();
      if (ver->has_partition()) {
        std::size_t seen = 0, decided = 0;
        for (const InferResult& r : results) {
          if (r.topk.empty()) continue;
          ++decided;
          seen += r.topk[0].label < ver->n_classes() && ver->is_seen(r.topk[0].label);
        }
        if (decided > 0) stats_.record_domains(seen, decided - seen);
      }
      // All telemetry is recorded *before* the completions run: a client
      // that sees its result is guaranteed its request is already counted,
      // so shutdown reads of the stats/traces are coherent.
      for (std::size_t g : good) {
        stats_.record_request(ms(done_ts - items[g].enqueued),
                              ms(collected - items[g].enqueued));
      }
      if (tracing) {
        // Batch-shared stages (collect/embed/score/reply) are identical for
        // every member — the batch is the unit of that work; queue-wait and
        // total are per request. The reply span covers the post-compute
        // bookkeeping (result assembly, domain counting, stats) up to the
        // completion handoff.
        const auto replied = Clock::now();
        const double collect_ms = ms(assembled - collected);
        const double reply_ms = ms(replied - done_ts);
        for (std::size_t g : good) {
          obs::TraceSpan span;
          span.stage(obs::Stage::kQueueWait) = ms(collected - items[g].enqueued);
          span.stage(obs::Stage::kCollect) = collect_ms;
          span.stage(obs::Stage::kEmbed) = timings.embed_ms;
          span.stage(obs::Stage::kScore) = timings.score_ms;
          span.stage(obs::Stage::kReply) = reply_ms;
          span.total_ms = ms(replied - items[g].enqueued);
          trace_.record(span);
        }
      }
      for (std::size_t g = 0; g < good.size(); ++g) {
        items[good[g]].done(std::move(results[g]));
      }
    } catch (const std::exception& e) {
      util::log_warn("serve: batch of ", good.size(), " failed: ", e.what());
      for (std::size_t g : good)
        items[g].done(
            make_error_result(items[g].req.request_id, InferStatus::kInternal, e.what()));
    } catch (...) {
      util::log_warn("serve: batch of ", good.size(), " failed with a non-std exception");
      for (std::size_t g : good)
        items[g].done(make_error_result(items[g].req.request_id, InferStatus::kInternal,
                                        "non-std exception"));
    }
  }
}

}  // namespace hdczsc::serve
