// Unit tests of the benchmark's own logic: the percentile rule, seeded
// schedules and inputs, span self times, the output comparator and the
// result line.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "harness.hpp"
#include "inputs.hpp"

namespace servebench {
namespace {

using hdczsc::serve::TopK;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankWithSamplesBeyond) {
  const Percentile p = percentile(ramp(1000), 0.99);
  EXPECT_EQ(p.n, 1000u);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.supported());
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 0.5).value, 500.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  const Percentile p = percentile(ramp(999), 0.99);
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(p.supported());
  EXPECT_FALSE(percentile({}, 0.99).supported());
  EXPECT_TRUE(percentile(ramp(2000), 0.995).supported());
  EXPECT_FALSE(percentile(ramp(1999), 0.995).supported());
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = poisson_schedule(1000.0, 2.0, 42);
  const auto b = poisson_schedule(1000.0, 2.0, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, poisson_schedule(1000.0, 2.0, 43));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 200.0);  // ~4.5 sigma
  EXPECT_EQ(draw_indices(500, 77, 9), draw_indices(500, 77, 9));
  EXPECT_NE(draw_indices(500, 77, 9), draw_indices(500, 77, 10));
  for (std::uint32_t i : draw_indices(500, 77, 9)) EXPECT_LT(i, 77u);
}

TEST(Inputs, SameSeedSameAppendRows) {
  const auto a = catalog_attribute_rows(8, 24, 5);
  const auto b = catalog_attribute_rows(8, 24, 5);
  ASSERT_EQ(a.shape(), (hdczsc::tensor::Shape{8, 24}));
  EXPECT_TRUE(std::equal(a.data(), a.data() + a.numel(), b.data()));
  const auto c = catalog_attribute_rows(8, 24, 6);
  EXPECT_FALSE(std::equal(a.data(), a.data() + a.numel(), c.data()));
}

TEST(Rows, TakeRowsGathersInOrder) {
  const hdczsc::tensor::Tensor t({3, 2}, {0, 1, 10, 11, 20, 21});
  const auto g = take_rows(t, {2, 0, 2});
  ASSERT_EQ(g.shape(), (hdczsc::tensor::Shape{3, 2}));
  EXPECT_EQ(std::vector<float>(g.data(), g.data() + g.numel()),
            (std::vector<float>{20, 21, 0, 1, 20, 21}));
  EXPECT_THROW(take_rows(t, {3}), std::out_of_range);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 1},
      {"a", 1.0, 3.0, 0, 1},
      {"b", 2.0, 5.0, 0, 1},    // overlaps a: the union counts once
      {"c", 8.0, 12.0, 0, 1},   // runs past its parent: clipped to 10
      {"a.x", 1.5, 2.5, 1, 1},  // grandchild: only a's self time shrinks
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  const auto by_name = self_times_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root")[0], 4.0);
  spans.push_back({"bad", 0.0, 1.0, 99, 1});
  EXPECT_THROW(self_times(spans), std::invalid_argument);
}

TEST(Spans, LogRecordsNesting) {
  SpanLog log;
  const std::size_t root = log.open("root");
  const std::size_t child = log.open("child", static_cast<std::int64_t>(root));
  log.close(child);
  log.close(root);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_LE(log.spans()[0].start_ms, log.spans()[1].start_ms);
  EXPECT_GE(log.spans()[0].end_ms, log.spans()[1].end_ms);
  EXPECT_GE(self_times(log.spans())[0], 0.0);
}

TEST(Comparator, BinaryAnswersMatchBitForBit) {
  const std::vector<TopK> want = {{3, 0.5f}, {7, 0.25f}};
  const Agreement bitwise{true, 0.0f};
  EXPECT_EQ(compare_topk(want, want, bitwise), "");
  std::vector<TopK> got = want;
  got[1].score = std::nextafter(0.25f, 1.0f);  // one ulp off
  EXPECT_NE(compare_topk(got, want, bitwise), "");
}

TEST(Comparator, FloatAnswersMatchLabelForLabelWithinTolerance) {
  const std::vector<TopK> want = {{3, 0.5f}, {7, 0.25f}};
  const Agreement tolerant{false, 1e-4f};
  std::vector<TopK> got = want;
  got[0].score += 5e-5f;
  EXPECT_EQ(compare_topk(got, want, tolerant), "");
  got[0].score += 1e-3f;
  EXPECT_NE(compare_topk(got, want, tolerant).find("score"), std::string::npos);
  got = {{7, 0.5f}, {3, 0.25f}};  // labels swapped: a mismatch whatever the scores
  EXPECT_NE(compare_topk(got, want, tolerant).find("label"), std::string::npos);
  got = {{3, 0.5f}};
  EXPECT_NE(compare_topk(got, want, tolerant).find("hits"), std::string::npos);
}

TEST(Result, OneJsonObjectWithAllDigits) {
  const std::string line = result_json(true, 10, 0, {{"p50_ms", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": "
            "{\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, {{"x", std::numeric_limits<double>::infinity(), "s"}}),
               std::runtime_error);
}

}  // namespace
}  // namespace servebench
