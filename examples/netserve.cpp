// netserve: host HDC-ZSC model snapshots behind the HDCN binary wire
// protocol (docs/protocol.md) — the network face of the serving stack.
//
// Server mode (default): obtain a model, register it in a ModelRegistry,
// start the epoll front-end and serve until SIGINT/SIGTERM (or for
// --run-seconds). Two ways to obtain the model, mirroring serve_demo:
//
//   * cold-start from a frozen artifact (production path, no training):
//       ./netserve --snapshot=model.hdcsnap [--port=7411] [--mode=binary]
//   * train a small model in-process (demo path; the shared demo pipeline
//     flags --classes/--image-size/--seed/... apply):
//       ./netserve [--port=7411] [--save-snapshot=model.hdcsnap]
//
//   The bound port is printed as "netserve: listening on PORT" (scripts
//   grep this line; --port=0 picks an ephemeral port).
//
// Client mode: connect to a running server, probe liveness and stream a
// few requests through the pipelined client, printing statuses:
//       ./netserve --connect=HOST:PORT [--requests=8] [--dim=256]
//                  [--key=m0] [--k=1] [--send-images] [--image-size=32]
//                  [--append-classes=N --alpha=A [--append-seen=K]]
//   --append-classes sends one admin-plane kAppendClasses frame first:
//   N random attribute rows of width --alpha (the model's attribute
//   dimension) grow the served label space live — the response carries
//   the newly published store version, and the inference stream that
//   follows can rank the appended labels.
//   Requests carry random embeddings of width --dim (the model's projection
//   dimension); a width mismatch comes back as a named kBadShape status —
//   useful for checking a deployment end to end without a dataset.
//   --send-images sends random [3, S, S] images instead, which drives the
//   server's backbone (the way to smoke-test an int8 deployment: an
//   embedding request skips the quantized path entirely).
//
//   ./netserve [--port=0] [--io-threads=1] [--workers=1] [--batch=8]
//              [--queue-depth=4096] [--mode=float|binary] [--models=1]
//              [--precision=float32|int8] [--calib-method=minmax|entropy]
//              [--retrieval=exact|ivf|cascade] [--nprobe=0] [--rerank=4]
//              [--run-seconds=0]
//
//   --precision=int8 serves the backbone through the quantized int8 path:
//   with --snapshot the artifact must be a v4 file carrying quantization
//   records (snapshot_tool --quantize produces one); the in-process demo
//   path calibrates and quantizes the freshly trained model itself.
//
//   --retrieval=ivf|cascade serves top-k through the approximate IVF tier
//   (probing --nprobe coarse lists; cascade float-reranks rerank·k binary
//   survivors). A v5 artifact's persisted index is adopted; otherwise the
//   engines cluster one deterministically at load (snapshot_tool
//   --build-ivf moves that cost offline).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "demo_pipeline_config.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/model_registry.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

using namespace hdczsc;

namespace {

std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

int run_client(const util::ArgMap& args, const std::string& connect) {
  const auto colon = connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "netserve: --connect wants HOST:PORT, got '%s'\n", connect.c_str());
    return 2;
  }
  const std::string host = connect.substr(0, colon);
  const int port = std::atoi(connect.c_str() + colon + 1);
  const std::size_t n_requests = static_cast<std::size_t>(args.get_int("requests", 8));
  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim", 256));
  const std::size_t k = static_cast<std::size_t>(args.get_int("k", 1));
  const std::string key = args.get_str("key", "m0");
  const bool send_images = args.has("send-images");
  const std::size_t image_size = static_cast<std::size_t>(args.get_int("image-size", 32));

  net::NetClient client(host, static_cast<std::uint16_t>(port));
  if (!client.ping()) {
    std::fprintf(stderr, "netserve: ping to %s failed\n", connect.c_str());
    return 1;
  }
  std::printf("netserve: connected to %s (ping ok)\n", connect.c_str());

  // Admin plane: grow the served model before streaming inference at it.
  const std::size_t n_append = static_cast<std::size_t>(args.get_int("append-classes", 0));
  if (n_append > 0) {
    const std::size_t alpha = static_cast<std::size_t>(args.get_int("alpha", 0));
    if (alpha == 0) {
      std::fprintf(stderr, "netserve: --append-classes needs --alpha=A (the model's "
                           "attribute dimension; a mismatch comes back as a named status)\n");
      return 2;
    }
    const std::size_t n_seen = static_cast<std::size_t>(args.get_int("append-seen", 0));
    util::Rng arng(0xAD0BEULL);
    net::AppendRequest areq;
    areq.model_key = key;
    areq.attributes = nn::Tensor::randn({n_append, alpha}, arng);
    if (n_seen > 0) {
      areq.seen_flags.assign(n_append, 0);
      for (std::size_t i = 0; i < std::min(n_seen, n_append); ++i) areq.seen_flags[i] = 1;
    }
    const net::AppendResult ar = client.append_classes(std::move(areq));
    if (ar.status == serve::InferStatus::kOk) {
      std::printf("netserve: appended %zu classes -> store version %llu (%llu classes)\n",
                  n_append, static_cast<unsigned long long>(ar.version),
                  static_cast<unsigned long long>(ar.n_classes));
    } else {
      std::printf("netserve: append failed: %s: %s\n", serve::infer_status_name(ar.status),
                  ar.message.c_str());
      return 1;
    }
  }

  // Pipelined streaming: every request is in flight before the first
  // response is awaited; the reader thread matches them by request_id.
  util::Rng rng(0xC11E47ULL);
  std::vector<std::future<serve::InferResult>> futures;
  futures.reserve(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) {
    serve::InferRequest req;
    req.model_key = key;
    // Images drive the server-side backbone (float or int8); embeddings
    // skip it and exercise only the scoring path.
    req.input = send_images ? nn::Tensor::randn({3, image_size, image_size}, rng)
                            : nn::Tensor::randn({dim}, rng);
    req.k = k;
    futures.push_back(client.submit(std::move(req)));
  }
  std::size_t ok = 0;
  for (auto& fut : futures) {
    const serve::InferResult r = fut.get();
    if (r.ok()) {
      ++ok;
      std::printf("  request %llu: top-1 label %zu (score %.4f)\n",
                  static_cast<unsigned long long>(r.request_id),
                  r.top().label, static_cast<double>(r.top().score));
    } else {
      std::printf("  request %llu: %s: %s\n",
                  static_cast<unsigned long long>(r.request_id),
                  serve::infer_status_name(r.status), r.message.c_str());
    }
  }
  std::printf("netserve: %zu/%zu requests ok\n", ok, n_requests);
  return ok == n_requests ? 0 : 1;
}

int run(int argc, char** argv) {
  util::ArgMap args(argc, argv);
  if (args.has("connect")) return run_client(args, args.get_str("connect", ""));

  const std::size_t n_models =
      static_cast<std::size_t>(std::max<long>(1, args.get_int("models", 1)));
  const auto flags = examples::parse_serving_flags(args, "netserve");
  if (!flags) return 2;
  const auto [mode, precision, calib, retrieval] = *flags;

  // -- 1. obtain a snapshot: load the artifact, or train and freeze ----------
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  if (args.has("snapshot")) {
    const std::string path = args.get_str("snapshot", "");
    snapshot = examples::load_serving_snapshot(path, precision, "netserve");
    if (!snapshot) return 2;
    std::printf("netserve: cold-started from %s (%zu classes, d=%zu%s)\n", path.c_str(),
                snapshot->n_classes(), snapshot->dim(),
                snapshot->has_quantized() ? ", int8-capable" : "");
  } else {
    core::PipelineConfig cfg = examples::demo_pipeline_config(args);
    cfg.snapshot_path = args.get_str("save-snapshot", "");
    cfg.snapshot_expansion = static_cast<std::size_t>(args.get_int("expansion", 8));
    std::printf("netserve: no --snapshot, training a %zu-class demo model in-process...\n",
                cfg.n_classes);
    auto tp = core::run_pipeline_trained(cfg);
    std::printf("netserve: trained (zero-shot top-1 %.1f %% on unseen classes)\n",
                100.0 * tp.result.zsc.top1);
    if (!cfg.snapshot_path.empty())
      std::printf("netserve: wrote snapshot artifact: %s\n", cfg.snapshot_path.c_str());
    auto built = std::make_shared<serve::ModelSnapshot>(
        tp.model, tp.test_class_attributes, cfg.snapshot_expansion, 1);
    if (precision == serve::Precision::kInt8) {
      // PTQ against the held-out eval images (unlabeled data is all
      // calibration needs) before the snapshot is frozen behind const.
      const auto artifact = built->quantize(tp.test_set.images, calib);
      const auto qi = artifact->info();
      std::printf("netserve: int8 backbone calibrated (%s) on %zu images "
                  "(%zu conv + %zu linear, %zu weight bytes)\n",
                  nn::calib_method_name(qi.method), tp.test_set.images.size(0), qi.n_conv,
                  qi.n_linear, qi.weight_bytes);
    }
    snapshot = built;
  }

  // -- 2. registry + network front-end ---------------------------------------
  serve::ServerConfig scfg = examples::serving_config(args, *flags);
  scfg.batch.max_queue_depth = static_cast<std::size_t>(args.get_int("queue-depth", 4096));
  if (retrieval != serve::RetrievalMode::kExact)
    std::printf("netserve: %s retrieval (%s IVF index, nprobe=%zu, rerank=%zu)\n",
                serve::retrieval_mode_name(retrieval).c_str(),
                snapshot->has_ivf() ? "persisted" : "load-time", scfg.nprobe, scfg.rerank);
  serve::ModelRegistry registry(scfg);
  std::vector<std::string> keys;
  for (std::size_t m = 0; m < n_models; ++m) {
    keys.push_back("m" + std::to_string(m));
    registry.load(keys.back(), snapshot, mode);
  }

  net::NetServerConfig ncfg;
  ncfg.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  ncfg.n_io_threads = static_cast<std::size_t>(args.get_int("io-threads", 1));
  net::NetServer server(registry, ncfg);
  server.start();
  std::printf("netserve: serving %zu model(s) [%s] with %s scoring, %s backbone (d=%zu)\n",
              n_models, keys.front().c_str(), scoring_mode_name(mode).c_str(),
              serve::precision_name(precision).c_str(), snapshot->dim());
  std::printf("netserve: listening on %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  // -- 3. serve until a signal (or --run-seconds elapses) ---------------------
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const double run_seconds = args.get_double("run-seconds", 0.0);
  const auto started = std::chrono::steady_clock::now();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (run_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count() >=
            run_seconds)
      break;
  }

  server.stop();
  registry.to_table("netserve telemetry").print();
  if (const auto ann = registry.ann_stats(keys.front()))
    std::printf("netserve: ivf probes: %llu queries, %llu lists opened, %llu rows swept "
                "(%llu pruned, %llu reranked)\n",
                static_cast<unsigned long long>(ann->queries),
                static_cast<unsigned long long>(ann->centroids_probed),
                static_cast<unsigned long long>(ann->rows_swept),
                static_cast<unsigned long long>(ann->rows_pruned),
                static_cast<unsigned long long>(ann->rows_reranked));
  registry.stop_all();
  std::printf("netserve: shut down cleanly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Any failure (a missing or corrupt artifact, a rejected delta) ends with
  // the library's named error and exit 1; a bad flag spelling still exits 2.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netserve: %s\n", e.what());
    return 1;
  }
}
