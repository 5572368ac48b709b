// The versioned InferRequest/InferResult surface: every failure mode is a
// named status (never an ad-hoc exception), embedding inputs score
// bit-identically to the image path they shortcut, want_logits derives the
// same ranking as topk, and the registry validates endpoint names.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/model_registry.hpp"

namespace hdczsc {
namespace {

using nn::Tensor;

/// One cheap trained pipeline + snapshot shared by every test in this file.
struct SharedApi {
  core::TrainedPipeline tp;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;

  static const SharedApi& get() {
    static SharedApi s;
    return s;
  }

 private:
  SharedApi() {
    core::PipelineConfig cfg;
    cfg.n_classes = 8;
    cfg.images_per_class = 4;
    cfg.train_instances = 3;
    cfg.image_size = 32;
    cfg.split = "zs";
    cfg.zs_train_classes = 4;
    cfg.model.image.proj_dim = 64;
    cfg.run_phase1 = false;
    cfg.run_phase2 = false;
    cfg.phase3 = {2, 16, 1e-2f, 1e-4f, 5.0f, true, false};
    cfg.augment.enabled = false;
    tp = core::run_pipeline_trained(cfg);
    snapshot = std::make_shared<serve::ModelSnapshot>(tp.model, tp.test_class_attributes);
  }
};

serve::ServerConfig small_config(std::size_t queue_depth = 256) {
  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_delay_ms = 1.0;
  cfg.batch.max_queue_depth = queue_depth;
  return cfg;
}

Tensor one_image(std::size_t i = 0) {
  const Tensor& images = SharedApi::get().tp.test_set.images;
  const std::size_t per = images.numel() / images.size(0);
  Tensor out({images.size(1), images.size(2), images.size(3)});
  std::copy(images.data() + i * per, images.data() + (i + 1) * per, out.data());
  return out;
}

TEST(InferApi, StatusNamesAreStable) {
  EXPECT_STREQ(serve::infer_status_name(serve::InferStatus::kOk), "ok");
  EXPECT_STREQ(serve::infer_status_name(serve::InferStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(serve::infer_status_name(serve::InferStatus::kTransport), "transport-error");
}

TEST(InferApi, ModelKeyValidation) {
  EXPECT_TRUE(serve::is_valid_model_key("m0"));
  EXPECT_TRUE(serve::is_valid_model_key("bench.binary-v2_A"));
  EXPECT_FALSE(serve::is_valid_model_key(""));
  EXPECT_FALSE(serve::is_valid_model_key("has space"));
  EXPECT_FALSE(serve::is_valid_model_key("sla/sh"));
  EXPECT_FALSE(serve::is_valid_model_key(std::string(serve::kMaxModelKeyBytes + 1, 'a')));
  EXPECT_TRUE(serve::is_valid_model_key(std::string(serve::kMaxModelKeyBytes, 'a')));
}

TEST(InferApi, SubmitImageEchoesIdAndFillsTimings) {
  const auto& s = SharedApi::get();
  auto engine =
      std::make_shared<const serve::InferenceEngine>(s.snapshot, serve::ScoringMode::kFloatCosine);
  serve::ServerRuntime server(engine, small_config());
  server.start();

  serve::InferRequest req;
  req.input = one_image();
  req.k = 3;
  req.request_id = 4242;
  const serve::InferResult r = server.submit(std::move(req)).get();
  server.stop();

  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.request_id, 4242u);
  ASSERT_EQ(r.topk.size(), 3u);
  EXPECT_EQ(r.top().label, r.topk[0].label);
  EXPECT_GE(r.timings.queue_wait_ms, 0.0);
  EXPECT_GT(r.timings.total_ms, 0.0);
  EXPECT_GT(r.timings.score_ms, 0.0);
  EXPECT_GT(r.timings.embed_ms, 0.0);  // image input pays the backbone
}

TEST(InferApi, EmbeddingInputBitIdenticalToEngineOnBothPaths) {
  const auto& s = SharedApi::get();
  for (const auto mode :
       {serve::ScoringMode::kFloatCosine, serve::ScoringMode::kBinaryHamming}) {
    auto engine = std::make_shared<const serve::InferenceEngine>(s.snapshot, mode);
    serve::ServerRuntime server(engine, small_config());
    server.start();

    const Tensor emb = s.snapshot->embed(
        one_image(1).reshape({1, 3, one_image().size(1), one_image().size(2)}));
    const auto expected = engine->topk_batch(emb, 4);

    // Both admissible embedding shapes: [d] and [1, d].
    for (const bool rank1 : {true, false}) {
      serve::InferRequest req;
      req.input = rank1 ? emb.reshape({emb.size(1)}) : emb;
      req.k = 4;
      const serve::InferResult r = server.submit(std::move(req)).get();
      ASSERT_TRUE(r.ok()) << r.message;
      ASSERT_EQ(r.topk.size(), expected[0].size());
      for (std::size_t j = 0; j < r.topk.size(); ++j) {
        EXPECT_EQ(r.topk[j].label, expected[0][j].label);
        EXPECT_EQ(r.topk[j].score, expected[0][j].score);  // bit-identical
      }
      EXPECT_EQ(r.timings.embed_ms, 0.0);  // scoring-only path
    }
    server.stop();
  }
}

TEST(InferApi, WantLogitsReturnsFullRowWithConsistentTopk) {
  const auto& s = SharedApi::get();
  auto engine =
      std::make_shared<const serve::InferenceEngine>(s.snapshot, serve::ScoringMode::kFloatCosine);
  serve::ServerRuntime server(engine, small_config());
  server.start();

  serve::InferRequest req;
  req.input = one_image(2);
  req.k = 3;
  req.want_logits = true;
  const serve::InferResult r = server.submit(std::move(req)).get();
  server.stop();

  ASSERT_TRUE(r.ok()) << r.message;
  ASSERT_EQ(r.logits.size(), s.snapshot->n_classes());
  ASSERT_EQ(r.topk.size(), 3u);
  // The hits must be the logit row's own (score desc, label asc) ranking.
  std::vector<std::size_t> order(r.logits.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (r.logits[a] != r.logits[b]) return r.logits[a] > r.logits[b];
    return a < b;
  });
  for (std::size_t j = 0; j < r.topk.size(); ++j) {
    EXPECT_EQ(r.topk[j].label, order[j]);
    EXPECT_EQ(r.topk[j].score, r.logits[order[j]]);
  }
}

TEST(InferApi, WantLogitsWithKZeroIsAdmissible) {
  const auto& s = SharedApi::get();
  auto engine =
      std::make_shared<const serve::InferenceEngine>(s.snapshot, serve::ScoringMode::kFloatCosine);
  serve::ServerRuntime server(engine, small_config());
  server.start();

  serve::InferRequest req;
  req.input = one_image();
  req.k = 0;
  req.want_logits = true;
  const serve::InferResult r = server.submit(std::move(req)).get();
  server.stop();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(r.topk.empty());
  EXPECT_EQ(r.logits.size(), s.snapshot->n_classes());
  EXPECT_THROW(r.top(), std::logic_error);
}

TEST(InferApi, NamedStatusesForBadRequests) {
  const auto& s = SharedApi::get();
  auto engine =
      std::make_shared<const serve::InferenceEngine>(s.snapshot, serve::ScoringMode::kFloatCosine);
  serve::ServerRuntime server(engine, small_config());
  server.start();

  auto status_of = [&](serve::InferRequest req) {
    return server.submit(std::move(req)).get().status;
  };

  {  // rank-2 with a batch of 5: neither an image nor a single embedding
    serve::InferRequest req;
    req.input = Tensor({5, 7});
    EXPECT_EQ(status_of(std::move(req)), serve::InferStatus::kBadShape);
  }
  {  // empty tensor
    serve::InferRequest req;
    req.input = Tensor();
    EXPECT_EQ(status_of(std::move(req)), serve::InferStatus::kBadShape);
  }
  // Images the backbone cannot embed: a channel count other than the
  // stem's, and (flat tail) any size but the one it was built for, even at
  // the right element count.
  for (const tensor::Shape& shape :
       {tensor::Shape{4, 32, 32}, tensor::Shape{3, 16, 64}, tensor::Shape{3, 64, 64}}) {
    serve::InferRequest req;
    req.input = Tensor(shape);
    const serve::InferResult r = server.submit(std::move(req)).get();
    EXPECT_EQ(r.status, serve::InferStatus::kBadShape) << tensor::shape_str(shape);
    EXPECT_NE(r.message.find("[3,32,32]"), std::string::npos) << r.message;
  }
  {  // embedding with the wrong width
    serve::InferRequest req;
    req.input = Tensor({s.snapshot->dim() + 1});
    const serve::InferResult r = server.submit(std::move(req)).get();
    EXPECT_EQ(r.status, serve::InferStatus::kBadShape);
    EXPECT_NE(r.message.find("does not match the model dim"), std::string::npos);
  }
  {  // k == 0 without logits: semantically empty
    serve::InferRequest req;
    req.input = one_image();
    req.k = 0;
    EXPECT_EQ(status_of(std::move(req)), serve::InferStatus::kBadRequest);
  }
  {  // scoring pin that contradicts the engine's mode
    serve::InferRequest req;
    req.input = one_image();
    req.scoring = serve::ScoringSelect::kBinaryHamming;
    EXPECT_EQ(status_of(std::move(req)), serve::InferStatus::kBadScoring);
  }
  {  // matching pin is fine
    serve::InferRequest req;
    req.input = one_image();
    req.scoring = serve::ScoringSelect::kFloatCosine;
    EXPECT_EQ(status_of(std::move(req)), serve::InferStatus::kOk);
  }
  server.stop();
}

TEST(InferApi, OverloadedAndShutdownStatuses) {
  const auto& s = SharedApi::get();
  auto engine =
      std::make_shared<const serve::InferenceEngine>(s.snapshot, serve::ScoringMode::kFloatCosine);
  {  // a zero-depth queue rejects every admission with kOverloaded
    serve::ServerRuntime server(engine, small_config(/*queue_depth=*/0));
    server.start();
    serve::InferRequest req;
    req.input = one_image();
    const serve::InferResult r = server.submit(std::move(req)).get();
    EXPECT_EQ(r.status, serve::InferStatus::kOverloaded);
    EXPECT_NE(r.message.find("queue full"), std::string::npos);
    server.stop();
  }
  {  // a stopped runtime answers kShutdown, not kOverloaded
    serve::ServerRuntime server(engine, small_config());
    server.start();
    server.stop();
    serve::InferRequest req;
    req.input = one_image();
    EXPECT_EQ(server.submit(std::move(req)).get().status, serve::InferStatus::kShutdown);
  }
}

TEST(InferApi, CallbackFormRunsExactlyOnce) {
  const auto& s = SharedApi::get();
  auto engine =
      std::make_shared<const serve::InferenceEngine>(s.snapshot, serve::ScoringMode::kFloatCosine);
  serve::ServerRuntime server(engine, small_config());
  server.start();

  std::promise<serve::InferResult> prom;
  auto fut = prom.get_future();
  serve::InferRequest req;
  req.input = one_image();
  req.request_id = 9;
  server.submit(std::move(req),
                [&prom](serve::InferResult&& r) { prom.set_value(std::move(r)); });
  const serve::InferResult r = fut.get();
  server.stop();
  EXPECT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.request_id, 9u);
}

TEST(InferApi, RegistryRoutesByKeyAndNamesBadModels) {
  const auto& s = SharedApi::get();
  serve::ModelRegistry registry(small_config());
  registry.load("prod.v1", s.snapshot, serve::ScoringMode::kFloatCosine);

  {  // routed fine
    serve::InferRequest req;
    req.model_key = "prod.v1";
    req.input = one_image();
    EXPECT_TRUE(registry.submit(std::move(req)).get().ok());
  }
  {  // unknown key: named status, no exception
    serve::InferRequest req;
    req.model_key = "prod.v2";
    req.input = one_image();
    const serve::InferResult r = registry.submit(std::move(req)).get();
    EXPECT_EQ(r.status, serve::InferStatus::kBadModel);
    EXPECT_NE(r.message.find("prod.v2"), std::string::npos);
  }
  {  // invalid key charset: also kBadModel on the request path
    serve::InferRequest req;
    req.model_key = "not a key!";
    req.input = one_image();
    EXPECT_EQ(registry.submit(std::move(req)).get().status, serve::InferStatus::kBadModel);
  }
  // ...but load() throws: registering an unservable endpoint name is a
  // caller bug, not a request-time condition.
  EXPECT_THROW(registry.load("bad key", s.snapshot), std::invalid_argument);
  EXPECT_THROW(registry.load("", s.snapshot), std::invalid_argument);
  registry.stop_all();
}

}  // namespace
}  // namespace hdczsc
