// Serving benchmark program: one workload per invocation.
//
//   servebench --workload=edge-hd --seed=1 --seconds=30 --trace=0 --cache=DIR [knobs]
//
// The serving stack (ModelRegistry behind net::NetServer) runs in this
// process and is driven over loopback HDCN by one generator thread.
// Phases of an untraced run:
//   setup    at least kSetupReps cold starts and kSetupSeconds of them
//            (artifact → first OK over the wire); the last stack stays up
//            for the rest of the run
//   check    unloaded batch-of-one pass: every answer bit-identical to
//            the in-process engine, on every endpoint
//   peak     closed loop, kWindow requests in flight per connection
//   nominal  open loop, Poisson arrivals at the nominal rate (catalog:
//            an append frame beside the reads every kAppendEverySeconds)
//   slo      open loop at each fixed rate above the nominal one, until a
//            rate misses the p99 limit
// Every answer of every phase is checked against the in-process reference.
// The result line holds the metrics that hold still on a shared host:
// set-up time, serving CPU time per answer, top-1 accuracy and resident
// memory; wall-clock latency and rates are printed above it.
//
// A traced run (--trace=1) runs setup, check, peak and nominal with the
// same seed and schedule, builds request spans from the per-request stamps
// every run takes (so tracing adds no work to the load), then replays the
// inputs through each layer's public calls; its result line holds the
// per-layer metrics.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "serve/snapshot_io.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"
#include "wire.hpp"

namespace servebench {
namespace {

namespace serve = hdczsc::serve;
namespace util = hdczsc::util;
using hdczsc::tensor::Tensor;

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  for (std::string item; std::getline(ss, item, ',');)
    if (!item.empty()) out.push_back(std::stod(item));
  return out;
}

Settings parse_settings(const util::ArgMap& a) {
  Settings s;
  s.workload = a.get_str("workload", "");
  s.seed = static_cast<std::uint64_t>(a.get_int("seed", 1));
  s.seconds = a.get_double("seconds", 10.0);
  s.trace = a.get_int("trace", 0) != 0;
  s.inputs_only = a.get_int("inputs-only", 0) != 0;
  s.cache_dir = a.get_str("cache", ".bench_build/servebench-inputs");
  s.out_dir = a.get_str("out", ".bench_build/servebench-out");
  s.nominal_rps = a.get_double("nominal-rps", s.nominal_rps);
  s.slo_rates = parse_list(a.get_str("slo-rates", ""));
  std::sort(s.slo_rates.begin(), s.slo_rates.end());
  s.limit_ms = a.get_double("limit-ms", s.limit_ms);
  s.k = static_cast<std::uint32_t>(a.get_int("k", s.k));
  s.max_delay_ms = a.get_double("max-delay-ms", s.max_delay_ms);
  s.pool_threads = static_cast<std::size_t>(a.get_int("pool-threads", 2));
  if (s.seconds <= 0.0 || s.nominal_rps <= 0.0 || s.k == 0 || s.pool_threads == 0)
    throw std::invalid_argument("bad workload settings");
  return s;
}

/// Resident set of this process (which hosts the server), in MB.
double rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;
  throw std::runtime_error("VmRSS not found in /proc/self/status");
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

/// Restrict the calling thread (and the threads it starts) to `cpus`.
void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0)
    throw std::runtime_error("pthread_setaffinity_np failed");
}

/// Jiffies the hypervisor ran other work on this VM's CPUs (the steal
/// column of /proc/stat) and all jiffies, summed over CPUs.
std::pair<std::uint64_t, std::uint64_t> steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 10 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) throw std::runtime_error("clock_gettime failed");
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of every thread of this process except the calling one (the
/// generator): the serving stack's CPU time while a phase runs. Time the
/// hypervisor runs other guests on our CPUs is steal, not charged here.
double server_cpu_seconds() {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

std::uint64_t net_bytes() {
  auto& reg = hdczsc::obs::default_registry();
  return reg.counter("net_rx_bytes_total")->value() + reg.counter("net_tx_bytes_total")->value();
}

// -- reference answers ----------------------------------------------------------

/// Which store an endpoint serves: its version counter and content checksum.
struct StoreId {
  std::uint64_t version = 0;
  std::uint64_t checksum = 0;
};

/// The in-process answers served ones are checked against:
/// ModelRegistry::engine(key)->topk_batch on the same pool inputs, in
/// batches of the server's max batch. An endpoint's store versions are
/// numbered by the appends it has applied (0 = as loaded). Without live
/// appends the served registry answers. With them, a replica registry over
/// the same artifact replays the served appends in order (an append is
/// bitwise a cold rebuild) and answers at each version in turn, so the
/// serving process holds no store version the server itself has let go.
/// The replica is built when the first loaded phase is checked, after the
/// nominal phase's measurements, and must reach the version counters and
/// content checksums the served stores had as each phase ended.
class Reference {
 public:
  Reference(const Workload& w, const Settings& s, const Serving& sv, std::size_t batch)
      : w_(w), s_(s), sv_(sv), batch_(batch), log_(w.endpoints.size()),
        replica_at_(w.endpoints.size(), 0) {}

  struct Need {
    std::uint32_t endpoint;
    std::size_t version;
    std::uint32_t input;
  };

  /// The served endpoint `e` applied `rows` and published version counter
  /// `published`.
  void served_append(std::uint32_t e, const Tensor& rows, std::uint64_t published) {
    log_[e].push_back({rows, published});
  }
  /// The number of appends endpoint `e` has applied: its current version.
  std::size_t version(std::uint32_t e) const { return log_[e].size(); }

  /// The served engine's answers for pool inputs `idx` at its current version.
  std::vector<std::vector<serve::TopK>> served(std::uint32_t e,
                                               const std::vector<std::uint32_t>& idx) const {
    return sv_.registry->engine(w_.endpoints[e].key)
        ->topk_batch(take_rows(w_.pool_batch, {idx.begin(), idx.end()}), w_.k);
  }

  /// Compute every missing answer, versions in ascending order.
  void ensure(const std::vector<Need>& need) {
    std::map<std::pair<std::uint32_t, std::size_t>, std::vector<std::uint32_t>> groups;
    for (const Need& n : need)
      if (!memo_.count(key(n.endpoint, n.version, n.input)))
        groups[{n.endpoint, n.version}].push_back(n.input);
    for (auto& [ev, idx] : groups) {
      const auto [e, v] = ev;
      const serve::ModelRegistry& reg = at_version(e, v);
      std::sort(idx.begin(), idx.end());
      idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
      const auto engine = reg.engine(w_.endpoints[e].key);
      std::vector<std::vector<std::vector<serve::TopK>>> hits((idx.size() + batch_ - 1) / batch_);
      util::parallel_for(0, hits.size(), [&](std::size_t c) {
        const std::vector<std::size_t> rows(idx.begin() + c * batch_,
                                            idx.begin() + std::min(idx.size(), (c + 1) * batch_));
        hits[c] = engine->topk_batch(take_rows(w_.pool_batch, rows), w_.k);
      }, 1);
      for (std::size_t j = 0; j < idx.size(); ++j)
        memo_[key(e, v, idx[j])] = std::move(hits[j / batch_][j % batch_]);
    }
  }

  const std::vector<serve::TopK>& at(std::uint32_t e, std::size_t v, std::uint32_t i) const {
    return memo_.at(key(e, v, i));
  }

  /// Empty when the replica, advanced through every append logged so far,
  /// published the same version counters and holds the stores `served`
  /// names (per endpoint: version counter and content checksum); else the
  /// first difference.
  std::string verify_replica(const std::vector<StoreId>& served) {
    for (std::uint32_t e = 0; e < w_.endpoints.size(); ++e) {
      const std::string& k = w_.endpoints[e].key;
      const auto mine = at_version(e, version(e)).engine(k)->pin();
      if (problem_.empty() &&
          (mine->version != served[e].version || mine->content_checksum != served[e].checksum))
        problem_ = k + ": replica store differs from the served one";
    }
    return problem_;
  }

 private:
  struct Append {
    Tensor rows;
    std::uint64_t published;
  };

  /// The registry that answers for version `v` of endpoint `e`.
  const serve::ModelRegistry& at_version(std::uint32_t e, std::size_t v) {
    if (!w_.live_appends) return *sv_.registry;
    if (!replica_) {
      replica_ = std::make_unique<serve::ModelRegistry>();
      const auto snap = serve::load_snapshot_file(w_.artifact);
      for (const Endpoint& ep : w_.endpoints)
        replica_->load(ep.key, snap, ep.mode, endpoint_config(ep, s_));
    }
    if (v < replica_at_[e]) throw std::logic_error("reference: store versions go forward only");
    for (; replica_at_[e] < v; ++replica_at_[e]) {
      const Append& a = log_[e][replica_at_[e]];
      const std::uint64_t published = replica_->append_classes(w_.endpoints[e].key, a.rows);
      if (published != a.published && problem_.empty())
        problem_ = w_.endpoints[e].key + ": append " + std::to_string(replica_at_[e]) +
                   " published version " + std::to_string(a.published) + ", replica " +
                   std::to_string(published);
    }
    return *replica_;
  }

  static std::string key(std::uint32_t e, std::size_t v, std::uint32_t i) {
    return std::to_string(e) + ":" + std::to_string(v) + ":" + std::to_string(i);
  }
  const Workload& w_;
  const Settings& s_;
  const Serving& sv_;
  std::size_t batch_;
  std::vector<std::vector<Append>> log_;  ///< per endpoint, in the order applied
  std::unique_ptr<serve::ModelRegistry> replica_;
  std::vector<std::size_t> replica_at_;  ///< the replica's version per endpoint
  std::string problem_;
  std::unordered_map<std::string, std::vector<serve::TopK>> memo_;
};

// -- phases -----------------------------------------------------------------------

struct PhaseSummary {
  std::string name;
  double offered_rps = 0.0;  ///< 0 for closed loops
  double seconds = 0.0;      ///< scheduled length
  Phase phase;
  std::vector<AppendJob> appends;  ///< scheduled; the sent ones lead phase.appends
  std::size_t sent = 0, ok = 0, failed = 0, mismatched = 0, within_limit = 0, top1_hits = 0;
  std::size_t appends_sent = 0, appends_failed = 0;
  double server_cpu_s = 0.0;  ///< serving-stack CPU time over the phase
  double rss_mb = 0.0;        ///< resident set as the phase's load ends
  std::vector<StoreId> served_end;  ///< per endpoint, as the phase's load ends
  std::vector<std::string> notes;
  bool passed_limit() const {
    return !phase.stopped_early && within_limit * 100 >= 99 * phase.jobs.size();
  }
};

class Runner {
 public:
  Runner(Settings s, Workload w, std::unique_ptr<Serving> sv)
      : s_(std::move(s)), w_(std::move(w)), sv_(std::move(sv)),
        ref_(w_, s_, *sv_, kMaxBatch),
        gen_(sv_->server->port(), kConnections, keys(), w_.pool, w_.k) {}

  Settings& settings() { return s_; }
  const Workload& workload() const { return w_; }
  Serving& serving() { return *sv_; }

  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    for (const Endpoint& e : w_.endpoints) out.push_back(e.key);
    return out;
  }

  std::uint64_t phase_seed(std::uint64_t phase) const {
    return s_.seed * 0x9E3779B97F4A7C15ULL + phase * 0x632BE59BD9B4E019ULL + 1;
  }

  /// Seeded input draws, endpoints in turn, not yet scheduled.
  std::vector<Job> drawn_jobs(std::size_t n, std::uint64_t phase) const {
    const std::vector<std::uint32_t> idx =
        draw_indices(n, w_.pool.size(), phase_seed(phase) ^ 0x1D5EEDULL);
    std::vector<Job> jobs(n);
    for (std::size_t i = 0; i < n; ++i)
      jobs[i] = {0.0, static_cast<std::uint32_t>(i % w_.endpoints.size()), idx[i]};
    return jobs;
  }

  std::vector<Job> open_jobs(double rate, double seconds, std::uint64_t phase) const {
    const std::vector<double> due = poisson_schedule(rate, seconds, phase_seed(phase));
    std::vector<Job> jobs = drawn_jobs(due.size(), phase);
    for (std::size_t i = 0; i < due.size(); ++i) jobs[i].due_s = due[i];
    return jobs;
  }

  std::vector<AppendJob> append_jobs(double seconds, std::uint64_t phase) const {
    std::vector<AppendJob> out;
    if (!w_.live_appends) return out;
    const std::size_t alpha = w_.append_rows.size(1);
    std::size_t j = 0;
    for (double t = kAppendEverySeconds / 2; t < seconds; t += kAppendEverySeconds, ++j)
      out.push_back({t, static_cast<std::uint32_t>(j % w_.endpoints.size()),
                     catalog_attribute_rows(kAppendRows, alpha, phase_seed(phase) + j + 1)});
    return out;
  }

  /// Runs one phase and counts its answers; check() compares them with the
  /// reference. With `early_stop` the phase gives up once the rate has
  /// failed the limit.
  PhaseSummary run_open(const std::string& name, double rate, double seconds, std::uint64_t phase,
                        bool early_stop) {
    PhaseSummary ps;
    ps.name = name;
    ps.offered_rps = rate;
    ps.seconds = seconds;
    const std::vector<Job> jobs = open_jobs(rate, seconds, phase);
    ps.appends = append_jobs(seconds, phase);
    const double cpu0 = server_cpu_seconds();
    ps.phase = gen_.open_loop(jobs, ps.appends, early_stop ? s_.limit_ms : 0.0);
    ps.server_cpu_s = server_cpu_seconds() - cpu0;
    ps.rss_mb = rss_mb();
    ps.served_end = served_stores();
    count(ps, s_.limit_ms);
    return ps;
  }

  PhaseSummary run_closed(const std::string& name, double seconds, std::uint64_t phase) {
    PhaseSummary ps;
    ps.name = name;
    ps.seconds = seconds;
    const std::vector<Job> order = drawn_jobs(8192, phase);
    ps.appends = append_jobs(seconds, phase);
    ps.phase = gen_.closed_loop(order, true, kConnections, kWindow, seconds, ps.appends);
    ps.served_end = served_stores();
    count(ps, 0.0);
    return ps;
  }

  /// Checks every answer of a phase; phases are checked in the order they
  /// ran. A request matches when it equals the reference at one of the store
  /// versions possibly current between its send and its receipt: on
  /// endpoint e, version base + v is current from the send of the phase's
  /// v-th append on e to the receipt of its next.
  void check(PhaseSummary& ps) {
    std::vector<std::size_t> base(w_.endpoints.size());
    for (std::uint32_t e = 0; e < base.size(); ++e) base[e] = ref_.version(e);
    std::vector<std::vector<const AppendOutcome*>> applied(w_.endpoints.size());
    for (std::size_t a = 0; a < ps.phase.appends.size(); ++a) {
      const AppendOutcome& o = ps.phase.appends[a];
      if (o.status != serve::InferStatus::kOk) continue;
      applied[ps.appends[a].endpoint].push_back(&o);
      ref_.served_append(ps.appends[a].endpoint, ps.appends[a].attributes, o.version);
    }
    std::vector<std::vector<std::size_t>> cand(ps.phase.jobs.size());
    std::vector<Reference::Need> need;
    for (std::size_t j = 0; j < ps.phase.jobs.size(); ++j) {
      const Outcome& o = ps.phase.outcomes[j];
      if (!o.ok()) continue;
      const Job& job = ps.phase.jobs[j];
      const auto& mine = applied[job.endpoint];
      for (std::size_t v = 0; v <= mine.size(); ++v) {
        const double from = v == 0 ? -1e300 : mine[v - 1]->sent_s;
        const double to = v < mine.size() ? mine[v]->recv_s : 1e300;
        if (from > o.recv_s || o.sent_s > to) continue;
        cand[j].push_back(base[job.endpoint] + v);
        need.push_back({job.endpoint, base[job.endpoint] + v, job.input});
      }
    }
    const std::size_t saved = util::worker_count();
    util::set_worker_count(std::max<unsigned>(1, std::thread::hardware_concurrency()));
    ref_.ensure(need);
    const std::string replica = w_.live_appends ? ref_.verify_replica(ps.served_end) : "";
    util::set_worker_count(saved);
    for (std::size_t j = 0; j < ps.phase.jobs.size(); ++j) {
      const Outcome& o = ps.phase.outcomes[j];
      if (!o.ok()) continue;
      const Job& job = ps.phase.jobs[j];
      std::string diff = "no candidate store version";
      for (std::size_t v : cand[j]) {
        diff = compare_topk(o.topk, ref_.at(job.endpoint, v, job.input),
                            w_.endpoints[job.endpoint].rule);
        if (diff.empty()) break;
      }
      if (!diff.empty()) note_mismatch(ps, j, diff);
    }
    if (!replica.empty()) {
      ++ps.appends_failed;
      ps.notes.push_back("appends: " + replica);
    }
  }

  /// Unloaded pass: each endpoint's first inputs one at a time; every
  /// answer must equal the engine's batch-of-one answer bit for bit.
  PhaseSummary run_check(std::size_t per_endpoint) {
    PhaseSummary ps;
    ps.name = "check";
    std::vector<Job> order;
    for (std::uint32_t e = 0; e < w_.endpoints.size(); ++e)
      for (std::uint32_t i = 0; i < std::min<std::size_t>(per_endpoint, w_.pool.size()); ++i)
        order.push_back({0.0, e, i});
    ps.phase = gen_.closed_loop(order, false, 1, 1, 1e9, {});
    count(ps, 0.0);
    for (std::size_t j = 0; j < order.size(); ++j) {
      const Outcome& o = ps.phase.outcomes[j];
      if (!o.ok()) continue;
      const auto want = ref_.served(order[j].endpoint, {order[j].input});
      const std::string diff = compare_topk(o.topk, want[0], Agreement{true, 0.0f});
      if (!diff.empty()) note_mismatch(ps, j, diff);
    }
    return ps;
  }

  /// Live appends: one append per endpoint before the measured phases, so
  /// the one-time reallocation of a freshly loaded (exact-fit) store is not
  /// part of them; the replay times it as append.realloc_ms.
  void warm_appends() {
    if (!w_.live_appends) return;
    hdczsc::net::NetClient client("127.0.0.1", sv_->server->port());
    for (std::uint32_t e = 0; e < w_.endpoints.size(); ++e) {
      hdczsc::net::AppendRequest req;
      req.model_key = w_.endpoints[e].key;
      req.attributes = w_.append_rows;
      const hdczsc::net::AppendResult r = client.append_classes(std::move(req));
      if (r.status != serve::InferStatus::kOk)
        throw std::runtime_error("warm-up append failed: " + r.message);
      ref_.served_append(e, w_.append_rows, r.version);
    }
    client.close();
  }

  std::map<std::string, std::size_t> served_batch_size() const { return batch_sizes_; }
  void snapshot_stats() {
    for (const Endpoint& e : w_.endpoints) stats0_[e.key] = sv_->registry->stats(e.key);
  }
  /// Mean batch size per endpoint since snapshot_stats().
  std::map<std::string, double> batch_mean_since() {
    std::map<std::string, double> out;
    for (const Endpoint& e : w_.endpoints) {
      const auto now = sv_->registry->stats(e.key);
      const auto& then = stats0_[e.key];
      const double batches = static_cast<double>(now.batches - then.batches);
      out[e.key] = batches > 0 ? static_cast<double>(now.completed - then.completed) / batches : 0;
      rejected_ += now.rejected - then.rejected;
      batch_sizes_[e.key] = std::max<std::size_t>(1, static_cast<std::size_t>(out[e.key] + 0.5));
    }
    return out;
  }
  std::uint64_t rejected() const { return rejected_; }

 private:
  std::vector<StoreId> served_stores() const {
    std::vector<StoreId> out;
    for (const Endpoint& e : w_.endpoints) {
      const auto v = sv_->registry->engine(e.key)->pin();
      out.push_back({v->version, v->content_checksum});
    }
    return out;
  }

  void count(PhaseSummary& ps, double limit_ms) {
    ps.sent = 0;
    for (std::size_t j = 0; j < ps.phase.jobs.size(); ++j) {
      const Outcome& o = ps.phase.outcomes[j];
      if (o.sent_s < 0) continue;
      ++ps.sent;
      if (!o.ok()) {
        ++ps.failed;
        continue;
      }
      ++ps.ok;
      if (limit_ms <= 0.0 || o.latency_ms() <= limit_ms) ++ps.within_limit;
      if (!o.topk.empty() && o.topk[0].label == w_.truth[ps.phase.jobs[j].input]) ++ps.top1_hits;
    }
    for (const AppendOutcome& a : ps.phase.appends) {
      ++ps.appends_sent;
      if (a.status != serve::InferStatus::kOk) ++ps.appends_failed;
    }
  }

  void note_mismatch(PhaseSummary& ps, std::size_t j, const std::string& diff) {
    ++ps.mismatched;
    if (ps.notes.size() < 5)
      ps.notes.push_back("request " + std::to_string(j) + " (endpoint " +
                         w_.endpoints[ps.phase.jobs[j].endpoint].key + ", input " +
                         std::to_string(ps.phase.jobs[j].input) + "): " + diff);
  }

  Settings s_;
  Workload w_;
  std::unique_ptr<Serving> sv_;
  Reference ref_;
  LoadGenerator gen_;
  std::map<std::string, serve::ServingStats::Summary> stats0_;
  std::map<std::string, std::size_t> batch_sizes_;
  std::uint64_t rejected_ = 0;
};

// -- report -------------------------------------------------------------------------

/// The per-layer metrics a traced run prints, in order, with units.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"net.wire_ms.p50", "ms"},
    {"net.wire_ms.p99", "ms"},
    {"net.bytes_per_req", "bytes"},
    {"batcher.queue_wait_ms.p50", "ms"},
    {"batcher.queue_wait_ms.p99", "ms"},
    {"batcher.batch_size.mean", "count"},
    {"batcher.rejected", "count"},
    {"engine.embed_ms.p50", "ms"},
    {"engine.score_ms.p50", "ms"},
    {"embed.batch_ms.b1", "ms"},
    {"embed.batch_ms.b16", "ms"},
    {"embed.conv_ms.stem", "ms"},
    {"embed.conv_ms.block1.conv1", "ms"},
    {"embed.conv_ms.block1.conv2", "ms"},
    {"embed.conv_ms.block2.down", "ms"},
    {"embed.conv_ms.block2.conv1", "ms"},
    {"embed.conv_ms.block2.conv2", "ms"},
    {"embed.conv_ms.block3.down", "ms"},
    {"embed.conv_ms.block3.conv1", "ms"},
    {"embed.conv_ms.block3.conv2", "ms"},
    {"embed.bn_ms", "ms"},
    {"embed.relu_ms", "ms"},
    {"embed.residual_ms", "ms"},
    {"embed.fc_ms", "ms"},
    {"gemm.gflops", "GFLOP/s"},
    {"encode.us_per_query", "us"},
    {"encode.flops_per_query", "flop"},
    {"encode.bytes_per_query", "bytes"},
    {"scan.binary_ms", "ms"},
    {"scan.float_ms", "ms"},
    {"scan.hamming_gwords_per_s", "Gword/s"},
    {"scan.prune_share", "share"},
    {"ann.cascade_ms", "ms"},
    {"ann.centroids_per_query", "count"},
    {"ann.rows_swept_per_query", "count"},
    {"ann.pruned_share", "share"},
    {"ann.reranked_per_query", "count"},
    {"ann.recall_at_10", "share"},
    {"append.total_ms.p50", "ms"},
    {"append.realloc_ms", "ms"},
    {"append.encode_ms", "ms"},
    {"append.rows_ms", "ms"},
    {"append.shards_ms", "ms"},
    {"append.ivf_ms", "ms"},
    {"append.penalty_ms", "ms"},
    {"append.checksum_ms", "ms"},
    {"append.self_ms", "ms"},
    {"load.read_s", "s"},
    {"load.engine_s", "s"},
    {"load.first_ok_ms", "ms"},
    {"load.artifact_mb", "MB"},
    {"mem.store_mb", "MB"},
    {"mem.projection_mb", "MB"},
    {"loadgen.late_ms.p99", "ms"},
};

struct Totals {
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  void add(const PhaseSummary& ps) {
    attempted += ps.sent + ps.appends_sent;
    failed += ps.failed + ps.mismatched + ps.appends_failed;
    if (ps.failed || ps.mismatched || ps.appends_failed) correct = false;
  }
};

void print_phase(const PhaseSummary& ps, double limit_ms) {
  std::vector<double> late;
  for (std::size_t j = 0; j < ps.phase.outcomes.size(); ++j)
    if (ps.phase.outcomes[j].sent_s >= 0)
      late.push_back((ps.phase.outcomes[j].sent_s - ps.phase.outcomes[j].due_s) * 1e3);
  std::printf("phase %-8s", ps.name.c_str());
  if (ps.offered_rps > 0) std::printf(" offered %.0f req/s over %.1f s:", ps.offered_rps, ps.seconds);
  else if (ps.seconds > 0) std::printf(" closed loop over %.1f s:", ps.seconds);
  else std::printf(":");
  std::printf(" sent %zu ok %zu failed %zu mismatched %zu", ps.sent, ps.ok, ps.failed,
              ps.mismatched);
  if (limit_ms > 0)
    std::printf(" within %.0f ms %zu (%.2f%%)%s", limit_ms, ps.within_limit,
                ps.sent ? 100.0 * static_cast<double>(ps.within_limit) / static_cast<double>(ps.phase.jobs.size()) : 0.0,
                ps.phase.stopped_early ? " stopped early" : "");
  if (ps.appends_sent) std::printf(" appends %zu failed %zu", ps.appends_sent, ps.appends_failed);
  if (ps.offered_rps > 0 && !late.empty()) {
    const Percentile p = percentile(late, 0.99);
    std::printf(" late p99 %.3f ms", p.value);
  }
  std::printf("\n");
  for (const std::string& n : ps.notes) std::printf("  mismatch: %s\n", n.c_str());
}

std::vector<double> latencies(const PhaseSummary& ps) {
  std::vector<double> out;
  for (const Outcome& o : ps.phase.outcomes)
    if (o.ok()) out.push_back(o.latency_ms());
  return out;
}

void print_metric(const Metric& m, const std::string& extra = "") {
  std::printf("  %-30s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(), extra.c_str());
}

/// Per-batch engine stage times: requests of one batch share the stage
/// triple, so distinct (collect, embed, score) triples are distinct batches.
std::vector<std::array<double, 2>> batch_stage_ms(const PhaseSummary& ps, std::uint32_t endpoint) {
  std::set<std::array<double, 3>> seen;
  std::vector<std::array<double, 2>> out;
  for (std::size_t j = 0; j < ps.phase.jobs.size(); ++j) {
    const Outcome& o = ps.phase.outcomes[j];
    if (!o.ok() || ps.phase.jobs[j].endpoint != endpoint) continue;
    const std::array<double, 3> t{o.timings.collect_ms, o.timings.embed_ms, o.timings.score_ms};
    if (seen.insert(t).second) out.push_back({o.timings.embed_ms, o.timings.score_ms});
  }
  return out;
}

int run(const Settings& settings) {
  // The generator polls on the last CPU; every server thread (io, workers,
  // the intra-op pool, created now so it inherits the mask) runs on the
  // others, so the two never share a core.
  const std::vector<int> cpus = allowed_cpus();
  const bool split = cpus.size() >= 2;
  if (split) pin_self({cpus.begin(), cpus.end() - 1});
  util::set_worker_count(std::max<std::size_t>(1, cpus.size()));
  util::parallel_for(0, 4 * cpus.size(), [](std::size_t) {}, 1);
  util::set_worker_count(settings.pool_threads);
  std::printf("servebench: workload %s, seed %llu, %.1f s, trace %d\n", settings.workload.c_str(),
              static_cast<unsigned long long>(settings.seed), settings.seconds,
              settings.trace ? 1 : 0);
  Workload w = make_workload(settings);
  if (settings.inputs_only) return 0;

  // Set-up: cold starts, as many as fit kSetupSeconds so that the median of
  // a small artifact's short ones holds still; the last one serves the rest
  // of the run.
  std::vector<double> setup_s, read_s, engine_s, first_ok_ms;
  std::unique_ptr<Serving> sv;
  double setup_total = 0.0;
  for (std::size_t r = 0; r < kSetupReps || setup_total < kSetupSeconds; ++r) {
    sv.reset();
    sv = start_serving(w, settings);
    setup_s.push_back(sv->setup_s);
    setup_total += sv->setup_s;
    read_s.push_back(sv->read_s);
    double eng = 0.0;
    for (double e : sv->engine_s) eng += e;
    engine_s.push_back(eng / static_cast<double>(sv->engine_s.size()));
    first_ok_ms.push_back(sv->first_ok_ms);
  }
  // The discarded stacks' freed memory goes back to the system before the
  // load phases, so rss_mb holds what the serving stack keeps rather than
  // what the allocator cached from however many cold starts set-up took.
  malloc_trim(0);
  const std::size_t artifact_bytes = std::filesystem::file_size(w.artifact);
  Runner d(settings, std::move(w), std::move(sv));
  const Settings& s = d.settings();
  if (split) pin_self({cpus.back()});
  Totals totals;

  d.warm_appends();
  PhaseSummary check = d.run_check(32);
  print_phase(check, 0.0);
  totals.add(check);

  const double nominal_s = 0.5 * s.seconds;
  const double slo_s = 0.1 * s.seconds;
  const double peak_s = 0.25 * s.seconds;
  std::vector<Metric> out;

  const auto checked = [&](PhaseSummary& ps, double limit_ms) {
    d.check(ps);
    print_phase(ps, limit_ms);
    totals.add(ps);
  };
  // The closed loop goes first: it forms full batches on every server
  // thread, so what the server allocates per batch is at its full size
  // before the nominal phase measures CPU time and memory. Both phases are
  // checked after that, so the reference's work and memory are in neither.
  PhaseSummary peak = d.run_closed("peak", peak_s, 100);
  d.snapshot_stats();
  const std::uint64_t bytes0 = net_bytes();
  const auto steal0 = steal_jiffies();
  PhaseSummary nominal = d.run_open("nominal", s.nominal_rps, nominal_s, 1, false);
  const auto steal1 = steal_jiffies();
  const std::uint64_t bytes = net_bytes() - bytes0;
  const std::map<std::string, double> batch_mean = d.batch_mean_since();
  checked(peak, 0.0);
  checked(nominal, s.limit_ms);

  if (!s.trace) {
    // slo_rps: the highest fixed rate met, as the goodput measured there.
    double slo_rps = nominal.passed_limit()
                         ? static_cast<double>(nominal.within_limit) / nominal_s
                         : 0.0;
    double slo_rate = nominal.passed_limit() ? s.nominal_rps : 0.0;
    for (std::size_t i = 0; i < s.slo_rates.size() && slo_rate > 0; ++i) {
      PhaseSummary ps = d.run_open("slo", s.slo_rates[i], slo_s, 2 + i, true);
      checked(ps, s.limit_ms);
      if (!ps.passed_limit()) break;
      slo_rps = static_cast<double>(ps.within_limit) / slo_s;
      slo_rate = s.slo_rates[i];
    }

    std::size_t peak_ok = 0;  // answers received within the measured window
    for (const Outcome& o : peak.phase.outcomes) peak_ok += o.ok() && o.recv_s < peak_s;
    const std::vector<double> lat = latencies(nominal);
    const Percentile p50 = percentile(lat, 0.50), p99 = percentile(lat, 0.99);
    if (!p99.supported())
      throw std::runtime_error("nominal phase too short: p99 has " + std::to_string(p99.beyond) +
                               " samples beyond it");
    const double error_rate =
        static_cast<double>(nominal.failed + nominal.mismatched) / static_cast<double>(nominal.sent);
    const double steal_pct = 100.0 * static_cast<double>(steal1.first - steal0.first) /
                             static_cast<double>(std::max<std::uint64_t>(1, steal1.second - steal0.second));

    out = {{"setup_s", percentile(setup_s, 0.5).value, "s"},
           {"cpu_ms_per_req", 1e3 * nominal.server_cpu_s / static_cast<double>(nominal.ok), "ms"},
           {"top1_acc", static_cast<double>(nominal.top1_hits) / static_cast<double>(nominal.ok),
            "share"},
           {"rss_mb", nominal.rss_mb, "MB"}};
    std::printf("\nend-to-end metrics (%s):\n", d.workload().name.c_str());
    print_metric(out[0], "median of " + std::to_string(setup_s.size()) + " cold starts");
    print_metric(out[1], "serving-stack CPU time per answer, nominal phase, n=" +
                             std::to_string(nominal.ok));
    print_metric(out[2], "nominal phase, n=" + std::to_string(nominal.ok));
    print_metric(out[3], "serving process, as the nominal phase's load ends");
    // Wall-clock latency and rate track how much CPU the host grants this
    // VM at the time, so they are reported here but not in the result line.
    std::printf("wall-clock metrics (host steal %.2f%% during the nominal phase):\n", steal_pct);
    print_metric({"p50_ms", p50.value, "ms"}, "nominal phase, from the scheduled send, n=" +
                                                  std::to_string(p50.n));
    print_metric({"p99_ms", p99.value, "ms"}, "n=" + std::to_string(p99.n) + ", " +
                                                  std::to_string(p99.beyond) + " beyond");
    char buf[160];
    std::snprintf(buf, sizeof buf, "highest fixed rate met: %.0f req/s (p99 limit %.0f ms)",
                  slo_rate, s.limit_ms);
    print_metric({"slo_rps", slo_rps, "req/s"}, buf);
    print_metric({"peak_rps", static_cast<double>(peak_ok) / peak_s, "req/s"},
                 std::to_string(peak_ok) + " answers in " + std::to_string(peak_s) + " s, " +
                     std::to_string(kWindow) + " in flight x " + std::to_string(kConnections) +
                     " connections");
    print_metric({"error_rate", error_rate, "share"},
                 std::to_string(nominal.failed + nominal.mismatched) + " of " +
                     std::to_string(nominal.sent));
    if (!nominal.phase.appends.empty()) {
      std::vector<double> rtt;
      for (const AppendOutcome& a : nominal.phase.appends)
        if (a.recv_s >= 0) rtt.push_back(a.rtt_ms());
      print_metric({"append_p50_ms", median(rtt), "ms"}, "n=" + std::to_string(rtt.size()));
    }
  }
  if (s.trace) {
    std::printf("nominal p50 %.4f ms (tracing adds no work to the load phases; compare with the "
                "untraced run's p50_ms)\n",
                percentile(latencies(nominal), 0.5).value);

    // Request spans: client (scheduled → received) with the generator's
    // lateness and the server-reported stages as children. Only durations
    // come from the server; its stages are placed centred in the round trip.
    SpanLog log;
    std::vector<double> wire, queue_wait, late;
    for (std::size_t j = 0; j < nominal.phase.outcomes.size(); ++j) {
      const Outcome& o = nominal.phase.outcomes[j];
      late.push_back((o.sent_s - o.due_s) * 1e3);
      if (!o.ok()) continue;
      const auto root = static_cast<std::int64_t>(
          log.add(Span{"request", o.due_s * 1e3, o.recv_s * 1e3, -1, j + 1}));
      log.add(Span{"loadgen.late", o.due_s * 1e3, o.sent_s * 1e3, root, j + 1});
      double at = o.sent_s * 1e3 + std::max(0.0, o.rtt_ms() - o.timings.total_ms) / 2;
      const std::pair<const char*, double> stages[] = {{"server.queue_wait", o.timings.queue_wait_ms},
                                                       {"server.collect", o.timings.collect_ms},
                                                       {"server.embed", o.timings.embed_ms},
                                                       {"server.score", o.timings.score_ms}};
      for (const auto& [name, ms] : stages) {
        log.add(Span{name, at, at + ms, root, j + 1});
        at += ms;
      }
      wire.push_back(o.rtt_ms() - o.timings.total_ms);
      queue_wait.push_back(o.timings.queue_wait_ms);
    }
    std::map<std::string, double> m;
    m["net.wire_ms.p50"] = percentile(wire, 0.5).value;
    m["net.wire_ms.p99"] = percentile(wire, 0.99).value;
    m["net.bytes_per_req"] = static_cast<double>(bytes) / static_cast<double>(nominal.sent);
    m["batcher.queue_wait_ms.p50"] = percentile(queue_wait, 0.5).value;
    m["batcher.queue_wait_ms.p99"] = percentile(queue_wait, 0.99).value;
    double batch_sum = 0.0;
    for (const auto& [key, b] : batch_mean) batch_sum += b;
    m["batcher.batch_size.mean"] = batch_sum / static_cast<double>(batch_mean.size());
    std::vector<double> score_all, embed_all;
    std::map<std::string, double> score_by_endpoint;
    for (std::uint32_t e = 0; e < d.workload().endpoints.size(); ++e) {
      std::vector<double> score;
      for (const auto& t : batch_stage_ms(nominal, e)) {
        embed_all.push_back(t[0]);
        score_all.push_back(t[1]);
        score.push_back(t[1]);
      }
      score_by_endpoint[d.workload().endpoints[e].key] = median(score);
    }
    m["engine.embed_ms.p50"] = median(embed_all);
    m["engine.score_ms.p50"] = median(score_all);
    m["batcher.rejected"] = static_cast<double>(d.rejected());
    m["loadgen.late_ms.p99"] = percentile(late, 0.99).value;
    m["load.read_s"] = median(read_s);
    m["load.engine_s"] = median(engine_s);
    m["load.first_ok_ms"] = median(first_ok_ms);
    m["load.artifact_mb"] = static_cast<double>(artifact_bytes) / 1e6;
    const auto& store = d.serving().snapshot->prototypes();
    m["mem.store_mb"] = static_cast<double>(store.float_bytes() + store.binary_bytes()) / 1e6;
    m["mem.projection_mb"] =
        store.expansion() > 1
            ? static_cast<double>(store.code_bits() * store.dim() * sizeof(float)) / 1e6
            : 0.0;

    const Replay replay = replay_layers(d.workload(), s, d.serving(), d.served_batch_size(), log);
    for (const auto& [name, v] : replay.metrics) m[name] = v;
    if (!replay.faithful) totals.correct = false;

    std::filesystem::create_directories(s.out_dir);
    const std::string spans_path =
        s.out_dir + "/" + s.workload + "-s" + std::to_string(s.seed) + "-spans.csv";
    write_spans_csv(spans_path, log.spans());

    std::printf("\nper-layer metrics (%s; %zu spans written to %s):\n", s.workload.c_str(),
                log.spans().size(), spans_path.c_str());
    for (const auto& [name, unit] : kLayerMetrics) {
      if (!m.count(name)) throw std::runtime_error("per-layer metric " + name + " not measured");
      out.push_back({name, m.at(name), unit});
      print_metric(out.back());
    }
    std::printf("also measured:\n");
    for (const auto& [key, ms] : score_by_endpoint)
      print_metric({"engine.score_ms.p50[" + key + "]", ms, "ms"}, "per batch");
    for (const std::string& n : replay.notes) std::printf("  note: %s\n", n.c_str());
    // Attribution: the share of each endpoint's served stage time (per
    // batch, median) that the replayed calls account for at the served
    // batch size.
    std::printf("attribution (replayed / served):\n");
    if (m["engine.embed_ms.p50"] > 0)
      std::printf("  embed layers / engine.embed_ms.p50            %.3f\n",
                  m["embed.layers_ms"] / m["engine.embed_ms.p50"]);
    for (const Endpoint& e : d.workload().endpoints) {
      const double score = score_by_endpoint[e.key];
      if (e.retrieval == serve::RetrievalMode::kCascade)
        std::printf("  ann.cascade / score[%s]  %.3f\n", e.key.c_str(), m["ann.cascade_ms"] / score);
      else if (e.mode == serve::ScoringMode::kBinaryHamming)
        std::printf("  encode / score[%s]  %.3f   encode + scan.binary / score  %.3f\n",
                    e.key.c_str(), m["encode.batch_ms"] / score,
                    (m["encode.batch_ms"] + m["scan.binary_ms"]) / score);
      else
        std::printf("  scan.float / score[%s]  %.3f\n", e.key.c_str(), m["scan.float_ms"] / score);
    }
  }

  std::printf("%s\n", result_json(totals.correct, totals.attempted, totals.failed, out).c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    const hdczsc::util::ArgMap args(argc, argv);
    return servebench::run(servebench::parse_settings(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
