#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "metrics/latency.hpp"

namespace gcopss::test {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_GT(s.ci95HalfWidth(), 0.0);
}

TEST(SampleSet, PercentilesInterpolate) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0.95), 95.05, 0.1);
}

TEST(SampleSet, CdfPointsAreMonotone) {
  Rng rng(5);
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.add(rng.exponential(10.0));
  const auto pts = s.cdfPoints(20);
  ASSERT_EQ(pts.size(), 20u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GT(pts[i].second, pts[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(SampleSet, InterleavedAddAndQuery) {
  SampleSet s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 2.0);  // re-sorts after mutation
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(25.0);
  EXPECT_NEAR(sum / n, 25.0, 1.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(8);
  std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.weightedIndex(w)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(9);
  Rng childA = parent.fork();
  Rng childB = parent.fork();
  EXPECT_NE(childA.next(), childB.next());
}

TEST(LatencyRecorder, PerPublicationSpread) {
  metrics::LatencyRecorder rec;
  rec.record(0, 0, ms(10));
  rec.record(0, 0, ms(30));
  rec.record(1, ms(5), ms(10));
  const auto& pubs = rec.perPublication();
  ASSERT_EQ(pubs.size(), 2u);
  EXPECT_DOUBLE_EQ(pubs[0].minMs, 10.0);
  EXPECT_DOUBLE_EQ(pubs[0].maxMs, 30.0);
  EXPECT_DOUBLE_EQ(pubs[0].avgMs(), 20.0);
  EXPECT_DOUBLE_EQ(pubs[1].avgMs(), 5.0);
  EXPECT_EQ(rec.deliveries(), 3u);
  const auto series = rec.series(2);
  ASSERT_FALSE(series.empty());
}

TEST(ConvergenceRecorder, BucketsByType) {
  metrics::ConvergenceRecorder rec(3);
  rec.record(0, 0, ms(100));
  rec.record(0, 0, ms(200));
  rec.record(2, ms(50), ms(60));
  EXPECT_DOUBLE_EQ(rec.typeStats(0).mean(), 150.0);
  EXPECT_EQ(rec.typeStats(1).count(), 0u);
  EXPECT_DOUBLE_EQ(rec.typeStats(2).mean(), 10.0);
  EXPECT_EQ(rec.total().count(), 3u);
}

}  // namespace
}  // namespace gcopss::test

#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/report.hpp"

namespace gcopss::test {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Report, SummaryCsvRoundTrips) {
  gc::RunSummary r;
  r.label = "G-COPSS, \"3 RPs\"";
  r.meanMs = 8.51;
  r.deliveries = 42;
  r.networkGB = 0.5;
  const std::string path = ::testing::TempDir() + "/summary.csv";
  ASSERT_TRUE(metrics::writeSummaryCsv(path, {r}));
  const std::string content = slurp(path);
  EXPECT_NE(content.find("label,mean_ms"), std::string::npos);
  EXPECT_NE(content.find("8.5100"), std::string::npos);
  EXPECT_NE(content.find("\"G-COPSS, \"\"3 RPs\"\"\""), std::string::npos)
      << "labels with commas/quotes must be escaped";
}

TEST(Report, CdfAndSeriesCsv) {
  gc::RunSummary r;
  r.latencyCdfMs = {{1.0, 0.5}, {2.0, 1.0}};
  r.series = {{0, 1.0, 2.0, 3.0}, {10, 1.5, 2.5, 3.5}};
  const std::string base = ::testing::TempDir();
  ASSERT_TRUE(metrics::writeCdfCsv(base + "/cdf.csv", r));
  ASSERT_TRUE(metrics::writeSeriesCsv(base + "/series.csv", r));
  EXPECT_NE(slurp(base + "/cdf.csv").find("2.000000,1.000000"), std::string::npos);
  EXPECT_NE(slurp(base + "/series.csv").find("10,1.500000"), std::string::npos);
}

TEST(Report, FailsCleanlyOnBadPath) {
  EXPECT_FALSE(metrics::writeCdfCsv("/nonexistent-dir-xyz/f.csv", gc::RunSummary{}));
}

}  // namespace
}  // namespace gcopss::test
