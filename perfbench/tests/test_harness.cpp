//===- test_harness.cpp - unit tests of the benchmark harness -------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include <gtest/gtest.h>

using namespace perfbench;

TEST(Percentile, NearestRankLeavesTenBeyondP99At1000) {
  EXPECT_EQ(percentileIndex(1000, 990), 989u);
  EXPECT_EQ(samplesBeyond(1000, 990), 10u);
  EXPECT_GE(samplesBeyond(10000, 990), 100u);
  EXPECT_LT(samplesBeyond(999, 990), MinSamplesBeyond);
}

TEST(Percentile, SelectsByRankNotByPosition) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I); // unsorted input: 100 .. 1
  EXPECT_EQ(percentile(V, 500), 50);
  EXPECT_EQ(percentile(V, 990), 99);
  EXPECT_EQ(percentile(V, 1000), 100);
  EXPECT_EQ(percentile({7.0}, 990), 7);
  EXPECT_EQ(percentileIndex(3, 500), 1u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(SpanRecorder, SelfTimeSubtractsCoveredChildTime) {
  SpanRecorder R(true);
  int32_t Root = R.add({"root", 0, 10, -1});
  R.add({"a", 1, 3, Root});
  R.add({"b", 2, 5, Root}); // overlaps a: union of children is [1,5]
  int32_t C = R.add({"c", 6, 12, Root}); // runs past the parent's end
  R.add({"c.inner", 7, 8, C});
  std::vector<double> Self = R.selfTimes();
  EXPECT_DOUBLE_EQ(Self[0], 10 - 4 - 4); // [1,5] and [6,10] covered
  EXPECT_DOUBLE_EQ(Self[1], 2);
  EXPECT_DOUBLE_EQ(Self[3], 6 - 1);
  EXPECT_DOUBLE_EQ(Self[4], 1);

  std::map<std::string, double> ByName = R.selfTimeByName();
  EXPECT_DOUBLE_EQ(ByName["c"], 5);
  EXPECT_DOUBLE_EQ(ByName["root"], 2);
}

TEST(SpanRecorder, NestsLiveSpansAndDisabledRecordsNothing) {
  SpanRecorder R(true);
  {
    ScopedSpan Outer(R, "outer");
    ScopedSpan Inner(R, "inner");
  }
  ASSERT_EQ(R.spans().size(), 2u);
  EXPECT_EQ(R.spans()[0].Parent, -1);
  EXPECT_EQ(R.spans()[1].Parent, 0);
  EXPECT_LE(R.spans()[0].Start, R.spans()[1].Start);
  EXPECT_GE(R.spans()[0].End, R.spans()[1].End);

  SpanRecorder Off(false);
  {
    ScopedSpan S(Off, "x");
  }
  EXPECT_TRUE(Off.spans().empty());
}

TEST(FetchOutcome, ClassifiesByCacheStatsDelta) {
  cjpack::serve::CacheStats A;
  A.Hits = 5;
  A.Misses = 2;
  cjpack::serve::CacheStats Hit = A, Miss = A, Both = A;
  ++Hit.Hits;
  ++Miss.Misses;
  ++Miss.Evictions; // an eviction rides along with a miss
  ++Both.Hits;
  ++Both.Misses;
  EXPECT_EQ(classifyFetch(A, Hit), FetchOutcome::Hit);
  EXPECT_EQ(classifyFetch(A, Miss), FetchOutcome::Miss);
  EXPECT_EQ(classifyFetch(A, A), FetchOutcome::Unclassified);
  EXPECT_EQ(classifyFetch(A, Both), FetchOutcome::Unclassified);
}

TEST(MetricName, AllowsOnlyTheContractAlphabet) {
  EXPECT_TRUE(isValidMetricName("pack_mb_s"));
  EXPECT_TRUE(isValidMetricName("classfile.parse_s"));
  EXPECT_TRUE(isValidMetricName("9-lives.x"));
  EXPECT_FALSE(isValidMetricName(""));
  EXPECT_FALSE(isValidMetricName("_leading"));
  EXPECT_FALSE(isValidMetricName(".leading"));
  EXPECT_FALSE(isValidMetricName("has space"));
  EXPECT_FALSE(isValidMetricName("slash/name"));
  EXPECT_FALSE(isValidMetricName("quote\""));
  EXPECT_TRUE(isValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(isValidMetricName(std::string(65, 'a')));
}

TEST(Report, RejectsBadNamesAndNonFiniteValues) {
  Report R;
  R.operation(true);
  R.metric("ok_metric", 1.5, "ms");
  EXPECT_TRUE(R.correct());
  EXPECT_EQ(R.json(), "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                      "\"metrics\": {\"ok_metric\": {\"value\": 1.5, "
                      "\"unit\": \"ms\"}}}");
  R.metric("bad name", 1, "ms");
  EXPECT_FALSE(R.correct());

  Report N;
  N.operation(true);
  N.metric("nan_metric", 0.0 / 0.0, "ms");
  EXPECT_FALSE(N.correct());

  Report F;
  F.operation(false, "mismatch");
  EXPECT_FALSE(F.correct());
  EXPECT_EQ(F.failed(), 1u);
}
