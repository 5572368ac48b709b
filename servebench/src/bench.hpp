// Shared types of the benchmark program: the workload definition, the
// hosted serving stack, and the traced layer replay.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "net/server.hpp"
#include "serve/model_registry.hpp"

namespace servebench {

/// One served endpoint over the workload's artifact.
struct Endpoint {
  std::string key;
  hdczsc::serve::ScoringMode mode = hdczsc::serve::ScoringMode::kFloatCosine;
  hdczsc::serve::RetrievalMode retrieval = hdczsc::serve::RetrievalMode::kExact;
  std::size_t shards = 0;  ///< 0 = the artifact's preferred layout
  Agreement rule;          ///< how served answers must agree with the reference
};

/// Everything one workload serves and sends, built from the seed.
struct Workload {
  std::string name;
  std::string artifact;
  std::vector<Endpoint> endpoints;
  std::vector<hdczsc::tensor::Tensor> pool;  ///< one request input each
  hdczsc::tensor::Tensor pool_batch;         ///< the pool stacked [P, ...]
  std::vector<std::size_t> truth;            ///< ground-truth class per pool input
  std::uint32_t k = 1;
  hdczsc::tensor::Tensor replay_images;  ///< backbone replay inputs [N, 3, S, S]
  /// Attribute rows the replay appends (and, on catalog, the wire appends
  /// draw from the same distribution).
  hdczsc::tensor::Tensor append_rows;
  bool live_appends = false;  ///< catalog: kAppendClasses frames beside reads
};

/// Serving and load settings shared by every workload.
inline constexpr std::size_t kMaxBatch = 16;        ///< server batch cap
inline constexpr std::size_t kConnections = 2;      ///< generator data connections
inline constexpr std::size_t kWindow = 16;          ///< peak phase: in flight per connection
inline constexpr std::size_t kSetupReps = 9;        ///< at least this many cold starts,
inline constexpr double kSetupSeconds = 2.0;        ///< and this long; setup_s is their median
inline constexpr double kAppendEverySeconds = 0.5;  ///< catalog: one append frame this often
inline constexpr std::size_t kAppendRows = 8;       ///< catalog: classes per append frame

/// The workload's knobs, as servebench/workloads.json records them.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;  ///< queries, draws, appended rows and arrival schedules
  double seconds = 10.0;
  bool trace = false;
  bool inputs_only = false;  ///< build the served artifacts into the cache and exit
  std::string cache_dir;
  std::string out_dir;
  double nominal_rps = 100.0;
  std::vector<double> slo_rates;  ///< fixed rates above the nominal one, ascending
  double limit_ms = 50.0;         ///< p99 latency limit of slo_rps
  std::uint32_t k = 1;
  double max_delay_ms = 1.0;
  std::size_t pool_threads = 2;
};

/// The serving stack hosted in-process: artifact → registry → HDCN server.
struct Serving {
  std::shared_ptr<hdczsc::serve::ModelSnapshot> snapshot;
  std::unique_ptr<hdczsc::serve::ModelRegistry> registry;
  std::unique_ptr<hdczsc::net::NetServer> server;
  double read_s = 0.0;                ///< load_snapshot_file
  std::vector<double> engine_s;       ///< ModelRegistry::load, per endpoint
  double first_ok_ms = 0.0;           ///< server started → first OK over the wire
  double setup_s = 0.0;               ///< open artifact → first OK over the wire
  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving();
};

Workload make_workload(const Settings& s);
std::unique_ptr<Serving> start_serving(const Workload& w, const Settings& s);
hdczsc::serve::ServerConfig endpoint_config(const Endpoint& e, const Settings& s);

/// Per-layer results of the replay, by metric name.
struct Replay {
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< lines for the human-readable report
  bool faithful = true;            ///< replayed backbone == ModelSnapshot::embed
};

/// Feed the workload's inputs, at the served batch size, through each
/// layer's public calls, one span per call under its parent.
Replay replay_layers(const Workload& w, const Settings& s, const Serving& serving,
                     const std::map<std::string, std::size_t>& served_batch, SpanLog& log);

}  // namespace servebench
