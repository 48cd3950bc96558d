#include "engine/query_engine.h"

#include <thread>

#include "common/check.h"
#include "common/timer.h"

namespace brep {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Run `run_one(qi, pool, &qstats)` for every query of a batch on `view`:
/// a lone query fans its filter out over `pool`, wider batches run one
/// query per task. `stats` receives the per-query QueryStats summed in
/// query order (so the floating-point radius_total does not depend on the
/// schedule) plus the batch's pager/pool deltas and wall clock.
template <typename Result, typename RunOne>
std::vector<Result> RunBatch(const BrePartition& index, ThreadPool& pool,
                             const BrePartition::ReadView& view, size_t n,
                             EngineStats* stats, const RunOne& run_one) {
  std::vector<Result> results(n);
  std::vector<QueryStats> per_query(n);
  const IoStats io_before = index.pager()->stats();
  const BBForest::PoolTraffic pool_before = view.forest().pool_traffic();
  Timer wall;
  if (n == 1) {
    results[0] = run_one(0, &pool, &per_query[0]);
  } else {
    pool.ParallelFor(n, [&](size_t qi, size_t) {
      results[qi] = run_one(qi, nullptr, &per_query[qi]);
    });
  }
  if (stats != nullptr) {
    EngineStats out;
    for (const QueryStats& q : per_query) {
      ++out.queries;
      out.candidates += q.candidates;
      out.nodes_visited += q.nodes_visited;
      out.leaves_visited += q.leaves_visited;
      out.points_evaluated += q.points_evaluated;
      out.radius_total += q.radius_total;
    }
    out.io_reads = (index.pager()->stats() - io_before).reads;
    const BBForest::PoolTraffic pool_after = view.forest().pool_traffic();
    out.pool_hits = pool_after.hits - pool_before.hits;
    out.pool_misses = pool_after.misses - pool_before.misses;
    out.wall_ms = wall.ElapsedMillis();
    *stats = out;
  }
  return results;
}

}  // namespace

QueryEngine::QueryEngine(const BrePartition& index,
                         const QueryEngineOptions& options)
    : index_(&index), pool_(ResolveThreads(options.num_threads) - 1) {}

std::vector<Neighbor> QueryEngine::KnnSearch(std::span<const double> y,
                                             size_t k,
                                             QueryStats* stats) const {
  // One pinned version for the whole call; no lock taken (a churning
  // writer keeps publishing without stalling this query).
  const BrePartition::ReadView view = index_->OpenReadView();
  return index_->KnnSearch(view, y, k, &pool_, stats);
}

std::vector<uint32_t> QueryEngine::RangeSearch(std::span<const double> y,
                                               double radius,
                                               QueryStats* stats) const {
  const BrePartition::ReadView view = index_->OpenReadView();
  return index_->RangeSearch(view, y, radius, &pool_, stats);
}

std::vector<std::vector<Neighbor>> QueryEngine::KnnSearchBatch(
    const Matrix& queries, size_t k, EngineStats* stats) const {
  // One pinned version for the WHOLE batch: every query observes the same
  // published state (prefix consistency against a concurrent writer).
  const BrePartition::ReadView view = index_->OpenReadView();
  BREP_CHECK(queries.cols() == index_->divergence().dim());
  BREP_CHECK(k >= 1);
  // A writer may have emptied the index between the caller's validation
  // and the pin: nothing to search (a benign race, not an abort).
  if (view.num_points() == 0) {
    if (stats != nullptr) *stats = EngineStats{};
    return std::vector<std::vector<Neighbor>>(queries.rows());
  }
  return RunBatch<std::vector<Neighbor>>(
      *index_, pool_, view, queries.rows(), stats,
      [&](size_t qi, ThreadPool* pool, QueryStats* qs) {
        return index_->KnnSearch(view, queries.Row(qi), k, pool, qs);
      });
}

std::vector<std::vector<uint32_t>> QueryEngine::RangeSearchBatch(
    const Matrix& queries, double radius, EngineStats* stats) const {
  // One pinned version for the WHOLE batch (prefix consistency).
  const BrePartition::ReadView view = index_->OpenReadView();
  BREP_CHECK(queries.cols() == index_->divergence().dim());
  return RunBatch<std::vector<uint32_t>>(
      *index_, pool_, view, queries.rows(), stats,
      [&](size_t qi, ThreadPool* pool, QueryStats* qs) {
        return index_->RangeSearch(view, queries.Row(qi), radius, pool, qs);
      });
}

}  // namespace brep
