#include "wire.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/protocol.hpp"

namespace servebench {

namespace net = hdczsc::net;
namespace serve = hdczsc::serve;

namespace {

/// Request ids of appends live above every inference id of a phase.
constexpr std::uint64_t kAppendIdBase = std::uint64_t{1} << 62;
/// A phase whose responses have not all arrived this long after its last
/// send is a broken server, not a slow one.
constexpr double kDrainTimeoutS = 60.0;

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string("loadgen: ") + what + ": " + std::strerror(errno));
}

}  // namespace

struct LoadGenerator::Conn {
  net::Fd fd;
  std::size_t index = 0;
  std::vector<char> out;  // bytes not yet accepted by the kernel
  std::size_t out_off = 0;
  std::vector<char> in;  // bytes of incomplete frames
  std::size_t in_flight = 0;
  bool writing = false;  // EPOLLOUT armed
};

struct LoadGenerator::Run {
  const std::vector<Job>* order = nullptr;
  bool open = true;
  bool cycle = false;
  std::size_t connections = 1;
  std::size_t window = 1;
  double seconds = 0.0;
  double limit_ms = 0.0;

  Phase phase;
  Clock::time_point t0;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::size_t next_append = 0;
  bool append_in_flight = false;
  std::vector<char> missed;
  std::size_t misses = 0;
  std::size_t miss_scan = 0;

  double secs(Clock::time_point t) const {
    return std::chrono::duration<double>(t - t0).count();
  }
  void mark_miss(std::size_t i) {
    if (missed[i]) return;
    missed[i] = 1;
    // Once more than 1% of the schedule has missed, the rate has failed.
    if (++misses * 100 > order->size()) phase.stopped_early = true;
  }
};

LoadGenerator::LoadGenerator(std::uint16_t port, std::size_t connections,
                             std::vector<std::string> keys,
                             const std::vector<hdczsc::tensor::Tensor>& inputs, std::uint32_t k)
    : keys_(std::move(keys)), inputs_(inputs), k_(k) {
  epoll_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) fail_errno("epoll_create1");
  epoll_event ev{};
  for (std::size_t i = 0; i <= connections; ++i) {  // the last one is the admin connection
    auto c = std::make_unique<Conn>();
    c->fd = net::tcp_connect("127.0.0.1", port);
    net::set_nonblocking(c->fd.get(), true);
    c->index = i;
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, c->fd.get(), &ev) != 0) fail_errno("epoll_ctl");
    conns_.push_back(std::move(c));
  }
}

LoadGenerator::~LoadGenerator() = default;

Phase LoadGenerator::open_loop(const std::vector<Job>& jobs,
                               const std::vector<AppendJob>& appends, double limit_ms) {
  Run r;
  r.order = &jobs;
  r.open = true;
  r.connections = conns_.size() - 1;
  r.limit_ms = limit_ms;
  r.phase.jobs = jobs;
  r.phase.outcomes.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) r.phase.outcomes[i].due_s = jobs[i].due_s;
  r.missed.assign(jobs.size(), 0);
  return run(r, appends);
}

Phase LoadGenerator::closed_loop(const std::vector<Job>& order, bool cycle,
                                 std::size_t connections, std::size_t window, double seconds,
                                 const std::vector<AppendJob>& appends) {
  if (order.empty() || window == 0 || connections == 0 || connections >= conns_.size())
    throw std::invalid_argument("closed_loop: bad order, window or connection count");
  Run r;
  r.order = &order;
  r.open = false;
  r.cycle = cycle;
  r.connections = connections;
  r.window = window;
  r.seconds = seconds;
  return run(r, appends);
}

void LoadGenerator::send_job(Run& r, std::size_t index, Conn& c) {
  const Job& job = r.phase.jobs[index];
  serve::InferRequest req;
  req.model_key = keys_.at(job.endpoint);
  req.input = inputs_.at(job.input);
  req.k = k_;
  req.request_id = index + 1;
  std::vector<char> frame = net::encode_request_frame(req);
  r.phase.outcomes[index].sent_s = r.secs(Clock::now());
  send_frame(c, std::move(frame));
  ++c.in_flight;
  ++r.outstanding;
}

void LoadGenerator::send_frame(Conn& c, std::vector<char> frame) {
  if (c.out_off < c.out.size()) {  // earlier bytes still queued: keep order
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    return;
  }
  c.out = std::move(frame);
  c.out_off = 0;
  flush(c);
}

void LoadGenerator::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd.get(), c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      fail_errno("send");
    }
  }
  const bool pending = c.out_off < c.out.size();
  if (!pending) {
    c.out.clear();
    c.out_off = 0;
  }
  if (pending != c.writing) {
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.u64 = c.index;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev) != 0) fail_errno("epoll_ctl");
    c.writing = pending;
  }
}

void LoadGenerator::receive(Conn& c, Run& r) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(c.fd.get(), buf, sizeof buf);
    if (n == 0) throw std::runtime_error("loadgen: server closed a connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail_errno("read");
    }
    // Every frame completed by this read is stamped with its time.
    const double stamp = r.secs(Clock::now());
    c.in.insert(c.in.end(), buf, buf + n);
    std::size_t off = 0;
    while (c.in.size() - off >= net::kHeaderBytes) {
      const net::FrameHeader h = net::decode_header(c.in.data() + off);
      const std::size_t frame = net::kHeaderBytes + h.payload_bytes;
      if (c.in.size() - off < frame) break;
      const char* payload = c.in.data() + off + net::kHeaderBytes;
      if (h.type == net::FrameType::kInferResponse) {
        serve::InferResult res = net::decode_response_payload(payload, h.payload_bytes);
        const std::size_t i = res.request_id - 1;
        if (res.request_id == 0 || i >= r.phase.outcomes.size() || r.phase.outcomes[i].answered())
          throw std::runtime_error("loadgen: response for an unknown request id");
        Outcome& o = r.phase.outcomes[i];
        o.recv_s = stamp;
        o.status = res.status;
        o.topk = std::move(res.topk);
        o.timings = res.timings;
        --c.in_flight;
        --r.outstanding;
        if (r.open && r.limit_ms > 0.0 && (!o.ok() || o.latency_ms() > r.limit_ms))
          r.mark_miss(i);
      } else if (h.type == net::FrameType::kAppendResponse) {
        const net::AppendResult res = net::decode_append_response_payload(payload, h.payload_bytes);
        const std::size_t i = res.request_id - kAppendIdBase;
        if (res.request_id < kAppendIdBase || i >= r.phase.appends.size())
          throw std::runtime_error("loadgen: append response for an unknown request id");
        AppendOutcome& a = r.phase.appends[i];
        a.recv_s = stamp;
        a.status = res.status;
        a.version = res.version;
        --c.in_flight;
        r.append_in_flight = false;
      } else {
        throw std::runtime_error("loadgen: unexpected frame type from the server");
      }
      off += frame;
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

Phase LoadGenerator::run(Run& r, const std::vector<AppendJob>& appends) {
  Conn& admin = *conns_.back();
  r.phase.appends.resize(appends.size());
  for (std::size_t i = 0; i < appends.size(); ++i) r.phase.appends[i].due_s = appends[i].due_s;
  const std::vector<Job>& order = *r.order;
  std::vector<epoll_event> events(conns_.size() + 1);
  double last_send_s = 0.0;
  r.t0 = Clock::now();

  for (;;) {
    const Clock::time_point now = Clock::now();
    const double now_s = r.secs(now);

    // Sends due now.
    if (r.open) {
      while (!r.phase.stopped_early && r.next < order.size() && order[r.next].due_s <= now_s) {
        send_job(r, r.next, *conns_[r.next % r.connections]);
        ++r.next;
      }
    } else {
      for (std::size_t ci = 0; ci < r.connections; ++ci) {
        Conn& c = *conns_[ci];
        while (c.in_flight < r.window && now_s < r.seconds &&
               (r.cycle || r.next < order.size())) {
          Job job = order[r.next % order.size()];
          job.due_s = now_s;  // a closed loop has no schedule: latency runs from the send
          r.phase.jobs.push_back(job);
          r.phase.outcomes.emplace_back().due_s = now_s;
          send_job(r, r.phase.jobs.size() - 1, c);
          ++r.next;
        }
      }
    }
    const bool sending_done =
        r.open ? (r.phase.stopped_early || r.next == order.size())
               : (now_s >= r.seconds || (!r.cycle && r.next == order.size()));
    if (!sending_done) last_send_s = now_s;
    if (!r.append_in_flight && !sending_done && r.next_append < appends.size() &&
        appends[r.next_append].due_s <= now_s) {
      const AppendJob& job = appends[r.next_append];
      net::AppendRequest req;
      req.model_key = keys_.at(job.endpoint);
      req.request_id = kAppendIdBase + r.next_append;
      req.attributes = job.attributes;
      std::vector<char> frame = net::encode_append_request_frame(req);
      r.phase.appends[r.next_append].sent_s = r.secs(Clock::now());
      send_frame(admin, std::move(frame));
      ++admin.in_flight;
      r.append_in_flight = true;
      ++r.next_append;
    }

    // Requests still unanswered past their limit count as misses now.
    if (r.open && r.limit_ms > 0.0) {
      while (r.miss_scan < r.next &&
             order[r.miss_scan].due_s + r.limit_ms * 1e-3 < now_s) {
        if (!r.phase.outcomes[r.miss_scan].answered()) r.mark_miss(r.miss_scan);
        ++r.miss_scan;
      }
    }

    if (sending_done && r.outstanding == 0 && !r.append_in_flight) break;
    if (now_s - last_send_s > kDrainTimeoutS)
      throw std::runtime_error("loadgen: responses still missing long after the last send");

    // Poll without sleeping: a vCPU that halts in epoll_wait can take
    // milliseconds to be woken on a virtualized host, which would show up
    // as generator lateness. The generator owns one core for the run.
    const int n = ::epoll_wait(epoll_.get(), events.data(), static_cast<int>(events.size()), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("epoll_wait");
    }
    for (int e = 0; e < n; ++e) {
      Conn& c = *conns_.at(events[e].data.u64);
      if (events[e].events & (EPOLLERR | EPOLLHUP))
        throw std::runtime_error("loadgen: connection error");
      if (events[e].events & EPOLLOUT) flush(c);
      if (events[e].events & EPOLLIN) receive(c, r);
    }
  }
  r.phase.appends.resize(r.next_append);  // appends never sent were not attempted
  return std::move(r.phase);
}

}  // namespace servebench
