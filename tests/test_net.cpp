// The HDCN wire protocol and its epoll front-end: codec round-trips, a
// fuzz-style truncation sweep (a malformed or cut-short frame must fail
// with a named ProtocolError, never a crash or a partial read), and
// client/server loopback — network-served predictions bit-identical to the
// in-process engine on both scoring paths, overload surfacing as
// kOverloaded over the wire, and abrupt-disconnect survival.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <vector>

#include "core/pipeline.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/model_registry.hpp"
#include "util/rng.hpp"

namespace hdczsc {
namespace {

using nn::Tensor;

/// One cheap trained pipeline + a live loopback server (float + binary
/// endpoints over the same snapshot) shared by every test in this file.
struct SharedNet {
  core::TrainedPipeline tp;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<net::NetServer> server;

  static SharedNet& get() {
    static SharedNet s;
    return s;
  }

 private:
  SharedNet() {
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

    serve::ServerConfig scfg;
    scfg.n_workers = 1;
    scfg.batch.max_batch = 4;
    scfg.batch.max_delay_ms = 1.0;
    scfg.batch.max_queue_depth = 256;
    registry = std::make_unique<serve::ModelRegistry>(scfg);
    registry->load("float", snapshot, serve::ScoringMode::kFloatCosine);
    registry->load("binary", snapshot, serve::ScoringMode::kBinaryHamming);
    server = std::make_unique<net::NetServer>(*registry, net::NetServerConfig{});
    server->start();
  }
};

serve::InferRequest sample_request() {
  util::Rng rng(11);
  serve::InferRequest req;
  req.model_key = "some.model-v1";
  req.input = Tensor::randn({6}, rng);
  req.k = 3;
  req.scoring = serve::ScoringSelect::kBinaryHamming;
  req.want_logits = true;
  req.request_id = 0xDEADBEEFCAFEULL;
  return req;
}

serve::InferResult sample_result() {
  serve::InferResult res;
  res.request_id = 77;
  res.status = serve::InferStatus::kOk;
  res.topk = {{4, 0.75f}, {1, 0.5f}};
  res.logits = {0.1f, 0.5f, -0.25f, 0.0f, 0.75f};
  res.timings.queue_wait_ms = 0.25;
  res.timings.collect_ms = 0.01;
  res.timings.embed_ms = 1.5;
  res.timings.score_ms = 0.125;
  res.timings.total_ms = 2.0;
  return res;
}

/// Offset of a tensor record's first u64 dim from the start of the record
/// ("HDCT" magic, u32 version, u32 rank, then the dims).
constexpr std::size_t kTensorDimsOffset = 4 + 4 + 4;

/// A 67-byte request payload whose image record declares
/// [3, 2^63 + 1, 2^63 + 1] but carries 3 floats: the dims' product wraps to
/// 3 in 64 bits, so only a per-multiply overflow check can tell.
std::vector<char> wrapped_dims_request_frame(const std::string& key) {
  serve::InferRequest req;
  req.model_key = key;
  req.k = 1;
  req.request_id = 7;
  req.input = Tensor({3, 1, 1});
  std::vector<char> frame = net::encode_request_frame(req);
  // model key (u32 length + bytes), u32 k, u8 scoring, u8 want_logits,
  // u64 request id, then the tensor record.
  const std::size_t tensor_off = net::kHeaderBytes + 4 + key.size() + 4 + 1 + 1 + 8;
  const std::uint64_t dims[3] = {3, (std::uint64_t{1} << 63) + 1, (std::uint64_t{1} << 63) + 1};
  std::memcpy(frame.data() + tensor_off + kTensorDimsOffset, dims, sizeof(dims));
  return frame;
}

/// A kAppendClasses frame whose attribute record declares [2^61 + 1, 312]
/// but carries 312 floats (the product wraps to 312).
std::vector<char> wrapped_dims_append_frame(const std::string& key) {
  net::AppendRequest req;
  req.model_key = key;
  req.request_id = 9;
  req.attributes = Tensor({1, 312});
  std::vector<char> frame = net::encode_append_request_frame(req);
  // model key, u64 request id, u32 seen-flag count (0), then the record.
  const std::size_t tensor_off = net::kHeaderBytes + 4 + key.size() + 8 + 4;
  const std::uint64_t rows = (std::uint64_t{1} << 61) + 1;
  std::memcpy(frame.data() + tensor_off + kTensorDimsOffset, &rows, sizeof(rows));
  return frame;
}

TEST(NetProtocol, HeaderCodecRoundTrip) {
  char buf[net::kHeaderBytes];
  net::encode_header(buf, net::FrameType::kInferRequest, 1234);
  const net::FrameHeader h = net::decode_header(buf);
  EXPECT_EQ(h.type, net::FrameType::kInferRequest);
  EXPECT_EQ(h.payload_bytes, 1234u);
}

TEST(NetProtocol, HeaderRejectsBadMagicVersionTypeAndSize) {
  char good[net::kHeaderBytes];
  net::encode_header(good, net::FrameType::kPing, 0);

  auto expect_status = [&](char* buf, serve::InferStatus want) {
    try {
      net::decode_header(buf);
      FAIL() << "decode_header accepted a malformed header";
    } catch (const net::ProtocolError& e) {
      EXPECT_EQ(e.status(), want);
    }
  };

  char bad[net::kHeaderBytes];
  std::memcpy(bad, good, sizeof(bad));
  bad[0] ^= 0x7F;  // magic
  expect_status(bad, serve::InferStatus::kBadProtocol);

  std::memcpy(bad, good, sizeof(bad));
  bad[4] = 99;  // version
  expect_status(bad, serve::InferStatus::kBadProtocol);

  std::memcpy(bad, good, sizeof(bad));
  bad[5] = 0;  // frame type 0: not assigned
  expect_status(bad, serve::InferStatus::kBadFrame);

  std::memcpy(bad, good, sizeof(bad));
  bad[6] = 1;  // reserved bits must be zero
  expect_status(bad, serve::InferStatus::kBadFrame);

  std::memcpy(bad, good, sizeof(bad));
  const std::uint32_t huge = static_cast<std::uint32_t>(net::kMaxPayloadBytes + 1);
  std::memcpy(bad + 8, &huge, 4);  // oversized payload
  expect_status(bad, serve::InferStatus::kBadFrame);
}

TEST(NetProtocol, RequestPayloadRoundTrip) {
  const serve::InferRequest req = sample_request();
  const std::vector<char> frame = net::encode_request_frame(req);
  const net::FrameHeader h = net::decode_header(frame.data());
  ASSERT_EQ(h.type, net::FrameType::kInferRequest);
  ASSERT_EQ(frame.size(), net::kHeaderBytes + h.payload_bytes);

  const serve::InferRequest back =
      net::decode_request_payload(frame.data() + net::kHeaderBytes, h.payload_bytes);
  EXPECT_EQ(back.model_key, req.model_key);
  EXPECT_EQ(back.k, req.k);
  EXPECT_EQ(back.scoring, req.scoring);
  EXPECT_EQ(back.want_logits, req.want_logits);
  EXPECT_EQ(back.request_id, req.request_id);
  ASSERT_EQ(back.input.shape(), req.input.shape());
  for (std::size_t i = 0; i < req.input.numel(); ++i)
    EXPECT_EQ(back.input.data()[i], req.input.data()[i]);
}

TEST(NetProtocol, ResponsePayloadRoundTrip) {
  const serve::InferResult res = sample_result();
  const std::vector<char> frame = net::encode_response_frame(res);
  const net::FrameHeader h = net::decode_header(frame.data());
  ASSERT_EQ(h.type, net::FrameType::kInferResponse);

  const serve::InferResult back =
      net::decode_response_payload(frame.data() + net::kHeaderBytes, h.payload_bytes);
  EXPECT_EQ(back.request_id, res.request_id);
  EXPECT_EQ(back.status, res.status);
  ASSERT_EQ(back.topk.size(), res.topk.size());
  for (std::size_t i = 0; i < res.topk.size(); ++i) {
    EXPECT_EQ(back.topk[i].label, res.topk[i].label);
    EXPECT_EQ(back.topk[i].score, res.topk[i].score);
  }
  EXPECT_EQ(back.logits, res.logits);
  EXPECT_EQ(back.timings.queue_wait_ms, res.timings.queue_wait_ms);
  EXPECT_EQ(back.timings.total_ms, res.timings.total_ms);
}

TEST(NetProtocol, ErrorResponseRoundTripsMessage) {
  serve::InferResult err = serve::make_error_result(
      12, serve::InferStatus::kOverloaded, "queue full (max_queue_depth=64)");
  const std::vector<char> frame = net::encode_response_frame(err);
  const net::FrameHeader h = net::decode_header(frame.data());
  const serve::InferResult back =
      net::decode_response_payload(frame.data() + net::kHeaderBytes, h.payload_bytes);
  EXPECT_EQ(back.status, serve::InferStatus::kOverloaded);
  EXPECT_EQ(back.message, err.message);
  EXPECT_TRUE(back.topk.empty());
}

/// The satellite's fuzz-style sweep: every strict prefix of a valid
/// payload must decode to a named ProtocolError — no crash, no partial
/// result, no oversized allocation. Trailing bytes are equally malformed.
template <typename Decode>
void truncation_sweep(const std::vector<char>& frame, Decode&& decode) {
  const net::FrameHeader h = net::decode_header(frame.data());
  const char* payload = frame.data() + net::kHeaderBytes;
  for (std::size_t n = 0; n < h.payload_bytes; ++n) {
    try {
      decode(payload, n);
      FAIL() << "decoded a payload truncated to " << n << " of " << h.payload_bytes
             << " bytes";
    } catch (const net::ProtocolError&) {
      // named failure: exactly what a hostile/cut-short frame must produce
    }
  }
  std::vector<char> padded(payload, payload + h.payload_bytes);
  padded.push_back('\0');
  EXPECT_THROW(decode(padded.data(), padded.size()), net::ProtocolError)
      << "trailing bytes after a complete payload must be rejected";
}

TEST(NetProtocol, RequestTruncationSweepFailsNamed) {
  truncation_sweep(net::encode_request_frame(sample_request()),
                   [](const char* d, std::size_t n) { net::decode_request_payload(d, n); });
}

TEST(NetProtocol, ResponseTruncationSweepFailsNamed) {
  truncation_sweep(net::encode_response_frame(sample_result()),
                   [](const char* d, std::size_t n) { net::decode_response_payload(d, n); });
}

TEST(NetProtocol, DeclaredLengthLiesAreRejectedBeforeAllocation) {
  std::vector<char> frame = net::encode_request_frame(sample_request());
  const net::FrameHeader h = net::decode_header(frame.data());
  // The payload opens with the model_key string length (u32): claim a
  // 4 GiB string and make sure the reader refuses up front instead of
  // trying to allocate or read it.
  std::uint32_t huge = ~std::uint32_t{0};
  std::memcpy(frame.data() + net::kHeaderBytes, &huge, sizeof(huge));
  EXPECT_THROW(net::decode_request_payload(frame.data() + net::kHeaderBytes, h.payload_bytes),
               net::ProtocolError);

  // Same for a corrupted scoring byte past the end of the enum.
  frame = net::encode_request_frame(sample_request());
  const std::size_t scoring_off =
      net::kHeaderBytes + 4 + sample_request().model_key.size() + 4;
  frame[scoring_off] = 17;
  EXPECT_THROW(net::decode_request_payload(frame.data() + net::kHeaderBytes, h.payload_bytes),
               net::ProtocolError);

  // Tensor dims whose product wraps past 2^64 to the element count the
  // frame really carries: rejected, not decoded as a huge image or a huge
  // append over a few floats.
  frame = wrapped_dims_request_frame("m");
  ASSERT_EQ(frame.size(), net::kHeaderBytes + 67);
  EXPECT_THROW(net::decode_request_payload(frame.data() + net::kHeaderBytes,
                                           frame.size() - net::kHeaderBytes),
               net::ProtocolError);
  frame = wrapped_dims_append_frame("m");
  EXPECT_THROW(net::decode_append_request_payload(frame.data() + net::kHeaderBytes,
                                                  frame.size() - net::kHeaderBytes),
               net::ProtocolError);
}

// ---------------------------------------------------------------------------
// Loopback: the live client/server pair.
// ---------------------------------------------------------------------------

TEST(NetLoopback, PingPong) {
  auto& s = SharedNet::get();
  net::NetClient client("127.0.0.1", s.server->port());
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.connected());
  client.close();
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.ping());
}

TEST(NetLoopback, ServedTopkBitIdenticalToInProcessOnBothPaths) {
  auto& s = SharedNet::get();
  util::Rng rng(23);
  const std::size_t d = s.snapshot->dim();
  for (const std::string key : {"float", "binary"}) {
    const auto engine = s.registry->engine(key);
    net::NetClient client("127.0.0.1", s.server->port());
    for (std::size_t i = 0; i < 8; ++i) {
      Tensor emb = Tensor::randn({1, d}, rng);
      const auto expected = engine->topk_batch(emb, 4);

      serve::InferRequest req;
      req.model_key = key;
      req.input = emb.reshape({d});
      req.k = 4;
      const serve::InferResult r = client.infer(std::move(req));
      ASSERT_TRUE(r.ok()) << r.message;
      ASSERT_EQ(r.topk.size(), expected[0].size());
      for (std::size_t j = 0; j < r.topk.size(); ++j) {
        EXPECT_EQ(r.topk[j].label, expected[0][j].label);
        EXPECT_EQ(r.topk[j].score, expected[0][j].score) << "wire must not perturb scores";
      }
    }
    client.close();
  }
}

TEST(NetLoopback, PipelinedSubmitsResolveByRequestId) {
  auto& s = SharedNet::get();
  util::Rng rng(31);
  const std::size_t d = s.snapshot->dim();
  net::NetClient client("127.0.0.1", s.server->port());
  std::vector<std::future<serve::InferResult>> futures;
  for (std::uint64_t i = 0; i < 48; ++i) {
    serve::InferRequest req;
    req.model_key = (i % 2 == 0) ? "float" : "binary";
    req.input = Tensor::randn({d}, rng);
    req.request_id = 1000 + i;
    futures.push_back(client.submit(std::move(req)));
  }
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    const serve::InferResult r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.request_id, 1000 + i);
  }
  // A duplicate in-flight id is rejected client-side.
  serve::InferRequest a, b;
  a.model_key = b.model_key = "float";
  a.input = Tensor::randn({d}, rng);
  b.input = Tensor::randn({d}, rng);
  a.request_id = b.request_id = 5;
  auto fa = client.submit(std::move(a));
  auto fb = client.submit(std::move(b));
  EXPECT_EQ(fb.get().status, serve::InferStatus::kBadRequest);
  EXPECT_TRUE(fa.get().ok());
  client.close();
}

TEST(NetLoopback, PerRequestFailuresAreOrdinaryResponses) {
  auto& s = SharedNet::get();
  net::NetClient client("127.0.0.1", s.server->port());
  util::Rng rng(37);

  serve::InferRequest req;
  req.model_key = "no.such.model";
  req.input = Tensor::randn({s.snapshot->dim()}, rng);
  EXPECT_EQ(client.infer(std::move(req)).status, serve::InferStatus::kBadModel);

  req = {};
  req.model_key = "float";
  req.input = Tensor::randn({s.snapshot->dim() + 3}, rng);
  EXPECT_EQ(client.infer(std::move(req)).status, serve::InferStatus::kBadShape);

  // The connection is still healthy after both failures.
  EXPECT_TRUE(client.ping());
  client.close();
}

TEST(NetLoopback, OverloadSurfacesAsKOverloadedOverTheWire) {
  auto& s = SharedNet::get();
  // A dedicated zero-depth registry: every admission is rejected.
  serve::ServerConfig scfg;
  scfg.n_workers = 1;
  scfg.batch.max_batch = 4;
  scfg.batch.max_queue_depth = 0;
  serve::ModelRegistry rejecting(scfg);
  rejecting.load("m0", s.snapshot, serve::ScoringMode::kFloatCosine);
  net::NetServer server(rejecting, net::NetServerConfig{});
  server.start();

  util::Rng rng(41);
  net::NetClient client("127.0.0.1", server.port());
  serve::InferRequest req;
  req.model_key = "m0";
  req.input = Tensor::randn({s.snapshot->dim()}, rng);
  const serve::InferResult r = client.infer(std::move(req));
  EXPECT_EQ(r.status, serve::InferStatus::kOverloaded);
  EXPECT_NE(r.message.find("queue full"), std::string::npos);
  client.close();
  server.stop();
  rejecting.stop_all();
}

TEST(NetLoopback, MalformedFrameAnswersBadFrameAndServerSurvives) {
  auto& s = SharedNet::get();
  net::Fd raw = net::tcp_connect("127.0.0.1", s.server->port());
  char header[net::kHeaderBytes];
  net::encode_header(header, net::FrameType::kInferRequest, 4);
  ASSERT_TRUE(net::send_all(raw.get(), header, sizeof(header)));
  ASSERT_TRUE(net::send_all(raw.get(), "zzzz", 4));

  // The server answers with a named kBadFrame error response...
  char resp_header[net::kHeaderBytes];
  ASSERT_TRUE(net::recv_all(raw.get(), resp_header, sizeof(resp_header)));
  const net::FrameHeader h = net::decode_header(resp_header);
  ASSERT_EQ(h.type, net::FrameType::kInferResponse);
  std::vector<char> payload(h.payload_bytes);
  ASSERT_TRUE(net::recv_all(raw.get(), payload.data(), payload.size()));
  const serve::InferResult r = net::decode_response_payload(payload.data(), payload.size());
  EXPECT_EQ(r.status, serve::InferStatus::kBadFrame);
  // ...then hangs up (framing sync is gone).
  char byte;
  EXPECT_FALSE(net::recv_all(raw.get(), &byte, 1));
  raw.reset();

  // A client frame that is not a request at all gets the same treatment.
  net::Fd pong = net::tcp_connect("127.0.0.1", s.server->port());
  net::encode_header(header, net::FrameType::kPong, 0);
  ASSERT_TRUE(net::send_all(pong.get(), header, sizeof(header)));
  ASSERT_TRUE(net::recv_all(pong.get(), resp_header, sizeof(resp_header)));
  EXPECT_EQ(net::decode_header(resp_header).type, net::FrameType::kInferResponse);
  pong.reset();

  // Frames whose tensor dims wrap to the few floats they carry, addressed
  // to a served model: an image request (decoded, it would send the stem
  // conv far past its 3-float buffer) and an append. Both answer kBadFrame.
  for (const bool append : {false, true}) {
    net::Fd conn = net::tcp_connect("127.0.0.1", s.server->port());
    const std::vector<char> frame =
        append ? wrapped_dims_append_frame("float") : wrapped_dims_request_frame("float");
    ASSERT_TRUE(net::send_all(conn.get(), frame.data(), frame.size()));
    ASSERT_TRUE(net::recv_all(conn.get(), resp_header, sizeof(resp_header)));
    const net::FrameHeader rh = net::decode_header(resp_header);
    std::vector<char> body(rh.payload_bytes);
    ASSERT_TRUE(net::recv_all(conn.get(), body.data(), body.size()));
    if (append) {
      ASSERT_EQ(rh.type, net::FrameType::kAppendResponse);
      EXPECT_EQ(net::decode_append_response_payload(body.data(), body.size()).status,
                serve::InferStatus::kBadFrame);
    } else {
      ASSERT_EQ(rh.type, net::FrameType::kInferResponse);
      EXPECT_EQ(net::decode_response_payload(body.data(), body.size()).status,
                serve::InferStatus::kBadFrame);
    }
  }
  EXPECT_EQ(s.registry->engine("float")->store_version(), 0u) << "nothing was appended";

  // The server is intact: a fresh well-behaved connection still serves.
  net::NetClient client("127.0.0.1", s.server->port());
  EXPECT_TRUE(client.ping());
  serve::InferRequest req;
  req.model_key = "float";
  util::Rng rng(59);
  req.input = Tensor::randn({s.snapshot->dim()}, rng);
  EXPECT_TRUE(client.infer(std::move(req)).ok());
  client.close();
}

TEST(NetLoopback, AbruptClientDisconnectLeavesServerServing) {
  auto& s = SharedNet::get();
  util::Rng rng(43);
  {
    // Half a frame, then vanish mid-message.
    net::Fd raw = net::tcp_connect("127.0.0.1", s.server->port());
    char header[net::kHeaderBytes];
    net::encode_header(header, net::FrameType::kInferRequest, 4096);
    ASSERT_TRUE(net::send_all(raw.get(), header, sizeof(header)));
    ASSERT_TRUE(net::send_all(raw.get(), "partial", 7));
    raw.reset();
  }
  {
    // A full request, then vanish before the response can be written.
    net::NetClient client("127.0.0.1", s.server->port());
    serve::InferRequest req;
    req.model_key = "float";
    req.input = Tensor::randn({s.snapshot->dim()}, rng);
    auto fut = client.submit(std::move(req));
    client.close();  // in-flight future resolves with kTransport (or the
                     // response won, in which case it is simply kOk)
    const serve::InferResult r = fut.get();
    EXPECT_TRUE(r.status == serve::InferStatus::kTransport || r.ok());
  }
  // Either way the server keeps serving everyone else.
  net::NetClient client("127.0.0.1", s.server->port());
  serve::InferRequest req;
  req.model_key = "binary";
  req.input = Tensor::randn({s.snapshot->dim()}, rng);
  EXPECT_TRUE(client.infer(std::move(req)).ok());
  client.close();
}

TEST(NetLoopback, ServerStopResolvesClientsWithTransport) {
  auto& s = SharedNet::get();
  serve::ServerConfig scfg;
  scfg.n_workers = 1;
  scfg.batch.max_batch = 4;
  scfg.batch.max_queue_depth = 256;
  serve::ModelRegistry registry(scfg);
  registry.load("m0", s.snapshot, serve::ScoringMode::kFloatCosine);
  auto server = std::make_unique<net::NetServer>(registry, net::NetServerConfig{});
  server->start();

  net::NetClient client("127.0.0.1", server->port());
  ASSERT_TRUE(client.ping());
  server->stop();
  // Whatever is sent after the teardown resolves with a named transport
  // status — never a hang, never an exception.
  util::Rng rng(47);
  serve::InferRequest req;
  req.model_key = "m0";
  req.input = Tensor::randn({s.snapshot->dim()}, rng);
  EXPECT_EQ(client.infer(std::move(req)).status, serve::InferStatus::kTransport);
  client.close();
  registry.stop_all();
}

}  // namespace
}  // namespace hdczsc
