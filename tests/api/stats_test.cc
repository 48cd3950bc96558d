/// The per-call Stats contract: a batch call reports exactly the += sum of
/// the per-row calls' records on every logical counter and radius_total,
/// with `queries` counting rows once (the wrapper owns that lane), on every
/// layer that sums records -- the sequential facade, Parallel(n), a
/// ShardedIndex scatter and a fallback backend's per-row loop. The facade
/// also carries the query's bound/filter/refine split.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "api/index.h"
#include "api/search_index.h"
#include "divergence/factory.h"
#include "shard/sharded_index.h"
#include "storage/pager.h"
#include "test_util.h"

namespace brep {
namespace {

using ::brep::testing::MakeDataFor;
using ::brep::testing::MakeQueriesFor;

constexpr size_t kDim = 12;
constexpr size_t kN = 500;
constexpr size_t kK = 7;

void ExpectSameLogicalLanes(const Stats& got, const Stats& want) {
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.nodes_visited, want.nodes_visited);
  EXPECT_EQ(got.leaves_visited, want.leaves_visited);
  EXPECT_EQ(got.points_evaluated, want.points_evaluated);
  EXPECT_EQ(got.radius_total, want.radius_total);
}

/// KnnBatch/RangeBatch against the += sum of per-row Knn/Range calls.
void ExpectBatchIsSumOfRows(const SearchIndex& index, const Matrix& queries,
                            double radius) {
  SCOPED_TRACE(index.Describe());
  Stats knn_batch;
  ASSERT_TRUE(index.KnnBatch(queries, kK, &knn_batch).ok());
  Stats range_batch;
  ASSERT_TRUE(index.RangeBatch(queries, radius, &range_batch).ok());

  Stats knn_rows;
  Stats range_rows;
  for (size_t q = 0; q < queries.rows(); ++q) {
    Stats one;
    ASSERT_TRUE(index.Knn(queries.Row(q), kK, &one).ok());
    EXPECT_EQ(one.queries, 1u);
    knn_rows += one;
    ASSERT_TRUE(index.Range(queries.Row(q), radius, &one).ok());
    EXPECT_EQ(one.queries, 1u);
    range_rows += one;
  }

  EXPECT_EQ(knn_batch.queries, queries.rows());
  EXPECT_EQ(knn_rows.queries, queries.rows());
  EXPECT_GT(knn_batch.candidates, 0u);
  ExpectSameLogicalLanes(knn_batch, knn_rows);

  EXPECT_EQ(range_batch.queries, queries.rows());
  EXPECT_EQ(range_rows.queries, queries.rows());
  ExpectSameLogicalLanes(range_batch, range_rows);
}

class StatsLaneTest : public ::testing::Test {
 protected:
  Matrix data_ = MakeDataFor("squared_l2", kN, kDim);
  Matrix queries_ = MakeQueriesFor("squared_l2", data_, 9);

  static IndexOptions Options() {
    IndexOptions options;
    options.config.num_partitions = 3;  // M > 1: Parallel fans out
    return options;
  }

  /// A radius around the first query's 5th neighbor (non-trivial results).
  double Radius(const SearchIndex& index) const {
    auto nn = index.Knn(queries_.Row(0), 5);
    EXPECT_TRUE(nn.ok());
    return nn->back().distance;
  }
};

TEST_F(StatsLaneTest, IndexBatchIsSumOfRows) {
  auto built = Index::Build(data_, "squared_l2", Options());
  ASSERT_TRUE(built.ok()) << built.status().message();
  ExpectBatchIsSumOfRows(*built, queries_, Radius(*built));
}

TEST_F(StatsLaneTest, ParallelBatchIsSumOfRows) {
  auto built = Index::Build(data_, "squared_l2", Options());
  ASSERT_TRUE(built.ok()) << built.status().message();
  auto parallel = built->Parallel(2);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  ExpectBatchIsSumOfRows(*parallel, queries_, Radius(*built));
}

TEST_F(StatsLaneTest, ShardedBatchIsSumOfRows) {
  ShardedIndexOptions options;
  options.num_shards = 2;
  options.shard = Options();
  auto sharded = ShardedIndex::Build(data_, "squared_l2", options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  ExpectBatchIsSumOfRows(**sharded, queries_, Radius(**sharded));
}

TEST_F(StatsLaneTest, ScanBatchIsSumOfRows) {
  const BregmanDivergence div = MakeDivergence("squared_l2", kDim);
  auto scan = MakeSearchIndex("scan", /*pager=*/nullptr, data_, div);
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  ExpectBatchIsSumOfRows(**scan, queries_, Radius(**scan));
}

TEST_F(StatsLaneTest, IndexKnnCarriesStageSplit) {
  auto built = Index::Build(data_, "squared_l2", Options());
  ASSERT_TRUE(built.ok()) << built.status().message();
  Stats stats;
  ASSERT_TRUE(built->Knn(queries_.Row(0), kK, &stats).ok());
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GT(stats.filter_ms, 0.0);
  EXPECT_GE(stats.bound_ms, 0.0);
  EXPECT_GE(stats.refine_ms, 0.0);
  EXPECT_LE(stats.bound_ms + stats.filter_ms + stats.refine_ms,
            stats.wall_ms);
}

}  // namespace
}  // namespace brep
