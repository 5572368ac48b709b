// The three workloads and the serving stack they run against.
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "net/client.hpp"
#include "serve/snapshot_io.hpp"
#include "util/rng.hpp"

namespace servebench {

namespace serve = hdczsc::serve;
namespace net = hdczsc::net;
using hdczsc::tensor::Tensor;

namespace {

void set_pool(Workload& w, Tensor batch) {
  w.pool.clear();
  const hdczsc::tensor::Shape row(batch.shape().begin() + 1, batch.shape().end());
  for (std::size_t i = 0; i < batch.size(0); ++i) w.pool.push_back(take_rows(batch, {i}).reshape(row));
  w.pool_batch = std::move(batch);
}

/// Float answers may differ from the reference in the last bits of a
/// score when the server batched the request differently; labels may not.
constexpr float kFloatScoreTol = 1e-4f;

/// Catalog queries: an embedding near a seeded random class prototype
/// (its ground truth), N(0, 0.02²) per component around the unit row.
constexpr std::size_t kCatalogQueries = 512;
constexpr float kCatalogQueryNoise = 0.02f;

/// Admission bound of every endpoint: deep enough that a fixed rate above
/// capacity misses the latency limit before any request is refused.
constexpr std::size_t kQueueDepth = 4096;

}  // namespace

Workload make_workload(const Settings& s) {
  Workload w;
  w.name = s.workload;
  w.k = s.k;
  if (w.name == "edge-hd" || w.name == "image-cub") {
    CubInputs cub = ensure_cub_inputs(s.cache_dir);
    w.replay_images = cub.unseen_images;
    if (w.name == "edge-hd") {
      w.artifact = cub.joint_path;
      w.endpoints.push_back({"edge-hd", serve::ScoringMode::kBinaryHamming,
                             serve::RetrievalMode::kExact, 1, Agreement{true, 0.0f}});
      set_pool(w, cub.joint_queries);
      w.truth = cub.joint_labels;
    } else {
      w.artifact = cub.unseen_path;
      w.endpoints.push_back({"image-cub", serve::ScoringMode::kFloatCosine,
                             serve::RetrievalMode::kExact, 1, Agreement{false, kFloatScoreTol}});
      set_pool(w, cub.unseen_images);
      w.truth = cub.unseen_labels;
    }
  } else if (w.name == "catalog") {
    const CatalogSpec spec;
    w.artifact = ensure_catalog_inputs(s.cache_dir, spec);
    w.endpoints.push_back({"catalog.exact", serve::ScoringMode::kBinaryHamming,
                           serve::RetrievalMode::kExact, spec.shards, Agreement{true, 0.0f}});
    w.endpoints.push_back({"catalog.cascade", serve::ScoringMode::kFloatCosine,
                           serve::RetrievalMode::kCascade, spec.shards,
                           Agreement{false, kFloatScoreTol}});
    const auto snap = serve::load_snapshot_file(w.artifact);
    const serve::PrototypeStore& store = snap->prototypes();
    hdczsc::util::Rng rng(s.seed ^ 0x0DE11A5EULL);
    Tensor queries({kCatalogQueries, spec.dim});
    for (std::size_t q = 0; q < kCatalogQueries; ++q) {
      const std::size_t c = rng.next_below(store.n_classes());
      const float* row = store.float_rows() + c * spec.dim;
      for (std::size_t j = 0; j < spec.dim; ++j)
        queries.data()[q * spec.dim + j] =
            row[j] + kCatalogQueryNoise * static_cast<float>(rng.normal());
      w.truth.push_back(c);
    }
    set_pool(w, std::move(queries));
    w.replay_images = Tensor::randn({16, 3, 32, 32}, rng);
    w.append_rows = catalog_attribute_rows(kAppendRows, spec.alpha, s.seed);
    w.live_appends = true;
  } else {
    throw std::invalid_argument("unknown workload '" + w.name + "'");
  }
  return w;
}

serve::ServerConfig endpoint_config(const Endpoint& e, const Settings& s) {
  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = kMaxBatch;
  cfg.batch.max_delay_ms = s.max_delay_ms;
  cfg.batch.max_queue_depth = kQueueDepth;
  cfg.n_shards = e.shards;
  cfg.retrieval = e.retrieval;
  return cfg;
}

Serving::~Serving() {
  if (server) server->stop();
  if (registry) registry->stop_all();
}

std::unique_ptr<Serving> start_serving(const Workload& w, const Settings& s) {
  auto sv = std::make_unique<Serving>();
  const Clock::time_point t0 = Clock::now();
  sv->snapshot = serve::load_snapshot_file(w.artifact);
  const Clock::time_point loaded = Clock::now();
  sv->read_s = std::chrono::duration<double>(loaded - t0).count();
  sv->registry = std::make_unique<serve::ModelRegistry>();
  for (const Endpoint& e : w.endpoints) {
    const Clock::time_point t = Clock::now();
    sv->registry->load(e.key, sv->snapshot, e.mode, endpoint_config(e, s));
    sv->engine_s.push_back(std::chrono::duration<double>(Clock::now() - t).count());
  }
  net::NetServerConfig ncfg;
  ncfg.n_io_threads = 1;
  sv->server = std::make_unique<net::NetServer>(*sv->registry, ncfg);
  sv->server->start();
  const Clock::time_point started = Clock::now();
  net::NetClient client("127.0.0.1", sv->server->port());
  serve::InferRequest req;
  req.model_key = w.endpoints.front().key;
  req.input = w.pool.front();
  req.k = w.k;
  const serve::InferResult r = client.infer(std::move(req));
  const Clock::time_point first_ok = Clock::now();
  client.close();
  if (!r.ok())
    throw std::runtime_error(std::string("first request failed: ") +
                             serve::infer_status_name(r.status) + " " + r.message);
  sv->first_ok_ms = std::chrono::duration<double, std::milli>(first_ok - started).count();
  sv->setup_s = std::chrono::duration<double>(first_ok - t0).count();
  return sv;
}

}  // namespace servebench
