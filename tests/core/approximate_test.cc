#include "core/approximate.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "divergence/factory.h"
#include "test_util.h"

namespace brep {
namespace {

class ApproximateTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr size_t kK = 10;
  Matrix data_ = testing::MakeDataFor("squared_l2", 1500, kDim);
  Matrix queries_ = testing::MakeQueriesFor("squared_l2", data_, 20);
  BregmanDivergence div_ = MakeDivergence("squared_l2", kDim);
  MemPager pager_{4096};
  BrePartitionConfig config_ = [] {
    BrePartitionConfig c;
    c.num_partitions = 4;
    return c;
  }();
  BrePartition exact_{&pager_, data_, div_, config_};
  LinearScan scan_{data_, div_};

  ApproximateBrePartition MakeAbp(double p) {
    ApproximateConfig config;
    config.probability = p;
    return ApproximateBrePartition(&exact_, config);
  }

  double MeanOverallRatio(const ApproximateBrePartition& abp) {
    double acc = 0.0;
    for (size_t q = 0; q < queries_.rows(); ++q) {
      const auto approx = abp.KnnSearch(queries_.Row(q), kK);
      const auto exact = scan_.KnnSearch(queries_.Row(q), kK);
      acc += OverallRatio(approx, exact);
    }
    return acc / double(queries_.rows());
  }
};

TEST_F(ApproximateTest, ReturnsKResults) {
  const auto abp = MakeAbp(0.9);
  for (size_t q = 0; q < 5; ++q) {
    EXPECT_EQ(abp.KnnSearch(queries_.Row(q), kK).size(), kK);
  }
}

TEST_F(ApproximateTest, OverallRatioNearOneAtHighProbability) {
  const auto abp = MakeAbp(0.9);
  const double ratio = MeanOverallRatio(abp);
  EXPECT_GE(ratio, 1.0 - 1e-9);
  EXPECT_LT(ratio, 1.3);
}

TEST_F(ApproximateTest, CoefficientAtMostOneAndRadiusShrinks) {
  const auto abp = MakeAbp(0.8);
  for (size_t q = 0; q < 5; ++q) {
    Stats exact_stats, approx_stats;
    exact_.KnnSearch(queries_.Row(q), kK, &exact_stats);
    abp.KnnSearch(queries_.Row(q), kK, &approx_stats);
    EXPECT_LE(approx_stats.radius_total, exact_stats.radius_total + 1e-9);
  }
}

TEST_F(ApproximateTest, LowerProbabilityMeansSmallerOrEqualBound) {
  const auto strict = MakeAbp(0.95);
  const auto loose = MakeAbp(0.6);
  double strict_radius = 0.0, loose_radius = 0.0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    Stats s, l;
    strict.KnnSearch(queries_.Row(q), kK, &s);
    loose.KnnSearch(queries_.Row(q), kK, &l);
    strict_radius += s.radius_total;
    loose_radius += l.radius_total;
  }
  EXPECT_LE(loose_radius, strict_radius + 1e-9);
}

TEST_F(ApproximateTest, ApproximateNeverCostsMoreIoThanExact) {
  const auto abp = MakeAbp(0.7);
  uint64_t exact_io = 0, approx_io = 0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    Stats es, as;
    exact_.KnnSearch(queries_.Row(q), kK, &es);
    abp.KnnSearch(queries_.Row(q), kK, &as);
    exact_io += es.io_reads;
    approx_io += as.io_reads;
  }
  EXPECT_LE(approx_io, exact_io);
}

TEST_F(ApproximateTest, RecallAtHighProbabilityIsHigh) {
  const auto abp = MakeAbp(0.9);
  size_t hits = 0, total = 0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto approx = abp.KnnSearch(queries_.Row(q), kK);
    const auto exact = scan_.KnnSearch(queries_.Row(q), kK);
    std::set<uint32_t> approx_ids;
    for (const auto& nb : approx) approx_ids.insert(nb.id);
    for (const auto& nb : exact) hits += approx_ids.count(nb.id);
    total += kK;
  }
  // The guarantee is per-point with p=0.9 under the fitted model; demand a
  // slightly looser empirical recall to keep the test robust.
  EXPECT_GT(double(hits) / double(total), 0.75);
}

TEST(OverallRatioTest, ExactResultsGiveOne) {
  const std::vector<Neighbor> r{{1.0, 0}, {2.0, 1}};
  EXPECT_DOUBLE_EQ(OverallRatio(r, r), 1.0);
}

TEST(OverallRatioTest, InflatedDistancesGrowRatio) {
  const std::vector<Neighbor> exact{{1.0, 0}, {2.0, 1}};
  const std::vector<Neighbor> approx{{2.0, 5}, {2.0, 1}};
  EXPECT_DOUBLE_EQ(OverallRatio(approx, exact), (2.0 / 1.0 + 1.0) / 2.0);
}

TEST(OverallRatioTest, ZeroDistancePairsCountAsOne) {
  const std::vector<Neighbor> exact{{0.0, 0}};
  const std::vector<Neighbor> approx{{0.0, 0}};
  EXPECT_DOUBLE_EQ(OverallRatio(approx, exact), 1.0);
}

}  // namespace
}  // namespace brep
