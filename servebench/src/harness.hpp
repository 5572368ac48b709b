// The benchmark's own logic, kept free of the serving stack so it can be
// unit-tested: percentiles with their sample support, the seeded arrival
// schedule, row gathers, spans with self time, the output comparator and
// the result line the benchmark ends with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/sharded_store.hpp"

namespace servebench {

using Clock = std::chrono::steady_clock;

// -- percentiles --------------------------------------------------------------

/// A tail percentile is reported only with at least this many samples
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the sample at rank ceil(q·n), with the count
/// of samples strictly beyond that rank.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  bool supported() const { return n > 0 && beyond >= kMinBeyond; }
};
Percentile percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);


// -- arrival schedule -----------------------------------------------------------

/// Poisson arrivals at `rate` per second over [0, seconds): ascending
/// offsets in seconds, a pure function of (rate, seconds, seed).
std::vector<double> poisson_schedule(double rate, double seconds, std::uint64_t seed);

/// `n` pool indices drawn uniformly from [0, pool), a pure function of the
/// arguments.
std::vector<std::uint32_t> draw_indices(std::size_t n, std::size_t pool, std::uint64_t seed);

/// The given rows of a row-major tensor [N, ...], in order.
hdczsc::tensor::Tensor take_rows(const hdczsc::tensor::Tensor& t,
                                 const std::vector<std::size_t>& rows);

// -- spans ----------------------------------------------------------------------

/// One timed interval. `parent` indexes the span that caused it (-1 for a
/// root); spans of one request share `key` (its request_id).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t parent = -1;
  std::uint64_t key = 0;
  double duration_ms() const { return end_ms - start_ms; }
};

/// In-memory span recorder; times are milliseconds since construction.
class SpanLog {
 public:
  std::size_t open(std::string name, std::int64_t parent = -1, std::uint64_t key = 0);
  void close(std::size_t span);
  std::size_t add(Span span);
  double now_ms() const;
  double to_ms(Clock::time_point t) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self times grouped by span name.
std::map<std::string, std::vector<double>> self_times_by_name(const std::vector<Span>& spans);

/// Write spans as CSV (index, name, start_ms, end_ms, parent, key, self_ms).
void write_spans_csv(const std::string& path, const std::vector<Span>& spans);

// -- output check ---------------------------------------------------------------

/// How a served top-k must agree with the in-process reference. Integer
/// (binary) scoring does not depend on the batch the server formed, so it
/// must match bit for bit; float accumulation order does, so float
/// endpoints match label for label with scores within `score_tol`.
struct Agreement {
  bool bitwise = true;
  float score_tol = 0.0f;
};

/// Empty when `got` agrees with `want`, else a description of the first
/// difference.
std::string compare_topk(const std::vector<hdczsc::serve::TopK>& got,
                         const std::vector<hdczsc::serve::TopK>& want, const Agreement& rule);

// -- result line ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The one-line JSON object the benchmark prints last.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace servebench
