// Tests for the benchmark harness's own arithmetic.
#include "harness.h"

#include <gtest/gtest.h>

namespace hmd::perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the report must sort
}

TEST(PercentileReport, MedianHighestPercentileWithTenBeyondAndCount) {
  const PercentileReport r = percentile_report(one_to(1000));
  EXPECT_EQ(r.count, 1000U);
  EXPECT_DOUBLE_EQ(r.median, 500.5);
  // p99 leaves exactly ten samples beyond it; p99.9 would leave one.
  EXPECT_DOUBLE_EQ(r.high_pct, 99.0);
  EXPECT_NEAR(r.high, 990.01, 1e-9);
}

TEST(PercentileReport, FallsBackAsTheSampleShrinks) {
  EXPECT_DOUBLE_EQ(percentile_report(one_to(200)).high_pct, 95.0);
  EXPECT_DOUBLE_EQ(percentile_report(one_to(100)).high_pct, 90.0);
  EXPECT_DOUBLE_EQ(percentile_report(one_to(40)).high_pct, 75.0);
  EXPECT_DOUBLE_EQ(percentile_report(one_to(20)).high_pct, 50.0);
}

TEST(PercentileReport, TooFewSamplesReportOnlyTheMedian) {
  const PercentileReport r = percentile_report(one_to(19));
  EXPECT_EQ(r.count, 19U);
  EXPECT_DOUBLE_EQ(r.median, 10.0);
  EXPECT_DOUBLE_EQ(r.high_pct, 50.0);
  EXPECT_DOUBLE_EQ(r.high, r.median);
  EXPECT_EQ(percentile_report({}).count, 0U);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  const std::vector<Span> spans = {
      {"root", -1, 0.0, 10.0}, {"a", 0, 1.0, 3.0}, {"b", 0, 5.0, 6.0}};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 7.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 2.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parallel children cover [1, 5] and [4.5, 4.8] inside it: 4 s covered.
  const std::vector<Span> spans = {{"grid", -1, 0.0, 10.0},
                                   {"cell", 0, 1.0, 3.0},
                                   {"cell", 0, 2.0, 5.0},
                                   {"cell", 0, 4.5, 4.8}};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 6.0);
}

TEST(SelfTime, ClipsChildrenToTheParentAndIgnoresGrandchildren) {
  const std::vector<Span> spans = {{"root", -1, 0.0, 10.0},
                                   {"late", 0, 8.0, 12.0},
                                   {"inner", 1, 8.5, 9.0},
                                   {"other", -1, 0.0, 10.0}};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 8.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 3.5);
  EXPECT_DOUBLE_EQ(self_time(spans, 3), 10.0);
}

TEST(Tracer, NestsSpansUnderTheirParent) {
  Tracer t;
  int parent = -1;
  int child = -1;
  EXPECT_EQ(t.span("p", -1,
                   [&] { return t.span("c", parent, [] { return 3; }, &child); },
                   &parent),
            3);
  ASSERT_EQ(t.spans().size(), 2U);
  EXPECT_EQ(parent, 0);
  EXPECT_EQ(child, 1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_LE(t.spans()[0].start_s, t.spans()[1].start_s);
  EXPECT_GE(t.spans()[0].end_s, t.spans()[1].end_s);
  EXPECT_GE(self_time(t.spans(), 0), 0.0);
}

serve::ServeCounters counters(std::uint64_t verdict_hash) {
  serve::ServeCounters c;
  c.hosts = 600;
  c.ticks = 300;
  c.offered = 180000;
  c.model_swaps = 1;
  c.verdict_hash = verdict_hash;
  return c;
}

TEST(Agreement, HoldsWhenEveryRepetitionMatches) {
  const std::vector<std::vector<std::uint64_t>> runs = {
      counter_fields(counters(42)), counter_fields(counters(42)),
      counter_fields(counters(42))};
  EXPECT_TRUE(all_agree(runs));
  EXPECT_TRUE(all_agree(std::vector<int>{}));
}

TEST(Agreement, FailsWhenOneVerdictHashDiffers) {
  const std::vector<std::vector<std::uint64_t>> runs = {
      counter_fields(counters(42)), counter_fields(counters(43)),
      counter_fields(counters(42))};
  EXPECT_FALSE(all_agree(runs));
}

TEST(Agreement, CoversEveryCounterField) {
  serve::ServeCounters c = counters(42);
  const std::vector<std::uint64_t> before = counter_fields(c);
  c.final_model_epoch = 2;
  EXPECT_NE(counter_fields(c), before);
}

TEST(ResultLine, CarriesExactlyTheContractKeys) {
  Checks checks;
  checks.operation();
  checks.operation();
  EXPECT_EQ(result_line(checks, {{"setup_s", 0.5, "s"}}),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  checks.expect(false, "deliberate");
  EXPECT_EQ(checks.failed(), 2U);
  EXPECT_EQ(result_line(checks, {}),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 2, "
            "\"metrics\": {}}");
}

}  // namespace
}  // namespace hmd::perfbench
