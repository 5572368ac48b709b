// Loopback HDCN load generator. One thread drives every connection through
// one polled epoll set: it sends each request at its scheduled time (sends
// never wait on responses), and stamps each response when its bytes are
// read, so latency is measured per request rather than in the order
// futures happen to be drained.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/socket.hpp"
#include "serve/infer.hpp"

namespace servebench {

/// One inference request of a phase.
struct Job {
  double due_s = 0.0;          ///< scheduled send, seconds after the phase starts
  std::uint32_t endpoint = 0;  ///< index into the generator's endpoint keys
  std::uint32_t input = 0;     ///< index into the input pool
};

/// What happened to one request. Times are seconds after the phase start;
/// -1 means it never happened.
struct Outcome {
  double due_s = 0.0;
  double sent_s = -1.0;
  double recv_s = -1.0;
  hdczsc::serve::InferStatus status = hdczsc::serve::InferStatus::kTransport;
  std::vector<hdczsc::serve::TopK> topk;
  hdczsc::serve::InferTimings timings;
  bool answered() const { return recv_s >= 0.0; }
  bool ok() const { return answered() && status == hdczsc::serve::InferStatus::kOk; }
  /// Latency from the scheduled send time.
  double latency_ms() const { return (recv_s - due_s) * 1e3; }
  /// Round trip from the actual send.
  double rtt_ms() const { return (recv_s - sent_s) * 1e3; }
};

/// One admin-plane append (a kAppendClasses frame) and its round trip.
struct AppendJob {
  double due_s = 0.0;
  std::uint32_t endpoint = 0;
  hdczsc::tensor::Tensor attributes;  ///< [n, α]
};
struct AppendOutcome {
  double due_s = 0.0;
  double sent_s = -1.0;
  double recv_s = -1.0;
  hdczsc::serve::InferStatus status = hdczsc::serve::InferStatus::kTransport;
  std::uint64_t version = 0;
  double rtt_ms() const { return (recv_s - sent_s) * 1e3; }
};

struct Phase {
  std::vector<Job> jobs;  ///< the requests sent, in schedule / send order
  std::vector<Outcome> outcomes;  ///< aligned with jobs
  std::vector<AppendOutcome> appends;
  bool stopped_early = false;  ///< open loop gave up on the latency limit
};

class LoadGenerator {
 public:
  /// Connects `connections` data connections (and one admin connection for
  /// appends) to 127.0.0.1:`port`. `inputs` must outlive the generator.
  LoadGenerator(std::uint16_t port, std::size_t connections, std::vector<std::string> keys,
                const std::vector<hdczsc::tensor::Tensor>& inputs, std::uint32_t k);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop: job i is sent at its due time on connection i mod n,
  /// whatever the server is doing. With `limit_ms` > 0 the phase stops
  /// sending once more than 1% of the schedule has missed the limit (the
  /// rate is then decided; the outstanding requests are still drained).
  Phase open_loop(const std::vector<Job>& jobs, const std::vector<AppendJob>& appends,
                  double limit_ms);

  /// Closed loop: keep `window` requests in flight on each of the first
  /// `connections` connections for `seconds` (or until `order` is used up
  /// when `cycle` is false), taking jobs from `order` in turn.
  Phase closed_loop(const std::vector<Job>& order, bool cycle, std::size_t connections,
                    std::size_t window, double seconds, const std::vector<AppendJob>& appends);

 private:
  struct Conn;
  struct Run;
  Phase run(Run& r, const std::vector<AppendJob>& appends);
  void send_job(Run& r, std::size_t index, Conn& c);
  void send_frame(Conn& c, std::vector<char> frame);
  void flush(Conn& c);
  void receive(Conn& c, Run& r);

  std::vector<std::string> keys_;
  const std::vector<hdczsc::tensor::Tensor>& inputs_;
  std::uint32_t k_;
  std::vector<std::unique_ptr<Conn>> conns_;  // data connections, then the admin one
  hdczsc::net::Fd epoll_;
};

}  // namespace servebench
