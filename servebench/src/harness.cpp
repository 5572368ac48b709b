#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace servebench {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (p.n == 0) return p;
  std::sort(samples.begin(), samples.end());
  // The epsilon keeps q·n that lands on an integer (0.99 · 1000) on it.
  const double exact = q * static_cast<double>(p.n);
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  p.value = samples[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5).value; }

std::vector<double> poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  if (!(rate > 0.0) || !(seconds > 0.0))
    throw std::invalid_argument("poisson_schedule: rate and seconds must be positive");
  hdczsc::util::Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::vector<std::uint32_t> draw_indices(std::size_t n, std::size_t pool, std::uint64_t seed) {
  if (pool == 0) throw std::invalid_argument("draw_indices: empty pool");
  hdczsc::util::Rng rng(seed);
  std::vector<std::uint32_t> out(n);
  for (auto& v : out) v = static_cast<std::uint32_t>(rng.next_below(pool));
  return out;
}

hdczsc::tensor::Tensor take_rows(const hdczsc::tensor::Tensor& t,
                                 const std::vector<std::size_t>& rows) {
  hdczsc::tensor::Shape shape = t.shape();
  const std::size_t per = t.numel() / shape.at(0);
  shape[0] = rows.size();
  hdczsc::tensor::Tensor out(shape);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= t.size(0)) throw std::out_of_range("take_rows: row out of range");
    std::copy(t.data() + rows[i] * per, t.data() + (rows[i] + 1) * per, out.data() + i * per);
  }
  return out;
}

std::size_t SpanLog::open(std::string name, std::int64_t parent, std::uint64_t key) {
  const double now = now_ms();
  return add(Span{std::move(name), now, now, parent, key});
}

void SpanLog::close(std::size_t span) { spans_.at(span).end_ms = now_ms(); }

std::size_t SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

double SpanLog::now_ms() const { return to_ms(Clock::now()); }

double SpanLog::to_ms(Clock::time_point t) const {
  return std::chrono::duration<double, std::milli>(t - origin_).count();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(s.parent);
    if (parent >= spans.size()) throw std::invalid_argument("self_times: parent out of range");
    const double lo = std::max(s.start_ms, spans[parent].start_ms);
    const double hi = std::min(s.end_ms, spans[parent].end_ms);
    if (hi > lo) covered[parent].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double union_ms = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ms += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ms += run_hi - run_lo;
    out[i] = spans[i].duration_ms() - union_ms;
  }
  return out;
}

std::map<std::string, std::vector<double>> self_times_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name].push_back(self[i]);
  return out;
}

void write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::vector<double> self = self_times(spans);
  os << "index,name,start_ms,end_ms,parent,key,self_ms\n";
  char line[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line, "%zu,%s,%.6f,%.6f,%lld,%llu,%.6f\n", i, s.name.c_str(),
                  s.start_ms, s.end_ms, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.key), self[i]);
    os << line;
  }
}

std::string compare_topk(const std::vector<hdczsc::serve::TopK>& got,
                         const std::vector<hdczsc::serve::TopK>& want, const Agreement& rule) {
  if (got.size() != want.size())
    return "got " + std::to_string(got.size()) + " hits, want " + std::to_string(want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].label != want[i].label)
      return "hit " + std::to_string(i) + ": label " + std::to_string(got[i].label) +
             ", want " + std::to_string(want[i].label);
    const bool same = rule.bitwise ? got[i].score == want[i].score
                                   : std::fabs(got[i].score - want[i].score) <= rule.score_tol;
    if (!same) {
      char msg[128];
      std::snprintf(msg, sizeof msg, "hit %zu: score %.9g, want %.9g", i,
                    static_cast<double>(got[i].score), static_cast<double>(want[i].score));
      return msg;
    }
  }
  return {};
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not a finite number");
    std::snprintf(num, sizeof num, "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace servebench
