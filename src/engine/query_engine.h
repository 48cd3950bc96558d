#ifndef BREP_ENGINE_QUERY_ENGINE_H_
#define BREP_ENGINE_QUERY_ENGINE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/top_k.h"
#include "core/brepartition.h"
#include "core/stats.h"
#include "dataset/matrix.h"
#include "engine/thread_pool.h"

namespace brep {

struct QueryEngineOptions {
  /// Total threads serving a call (workers + the calling thread).
  /// 0 means hardware_concurrency; 1 means strictly sequential execution
  /// on the caller (the reference mode every parallel result is checked
  /// against).
  size_t num_threads = 0;
};

/// Concurrent serving layer over a BrePartition index. The engine only
/// schedules: every query runs BrePartition's own bound -> filter -> refine
/// pipeline (KnnSearch / RangeSearch on a pinned view), and the engine
/// decides which threads run it.
///
///  * KnnSearch / RangeSearch (single query) and one-row batches: the
///    query's per-subspace filter fans out over the pool, one task per
///    subspace tree.
///  * KnnSearchBatch / RangeSearchBatch: one task per query, each running
///    its filter serially, which scales better than per-subspace fan-out
///    once the batch is at least as wide as the pool. Batch stats are the
///    per-query Stats summed (+=) in query order after the join.
///
/// Results and logical counters are identical to the sequential
/// BrePartition calls for every thread count: per-tree search is
/// deterministic, the candidate sets are sorted before refinement, and
/// TopK breaks distance ties by id.
///
/// Consistency: every entry point pins ONE BrePartition::ReadView for the
/// whole call -- batches included -- so all queries of a batch observe one
/// published index version without taking the writer's mutex.
class QueryEngine {
 public:
  /// `index` must outlive the engine.
  explicit QueryEngine(const BrePartition& index,
                       const QueryEngineOptions& options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Threads serving a call, including the caller.
  size_t num_threads() const { return pool_.num_lanes(); }
  const BrePartition& index() const { return *index_; }
  /// The engine's worker pool, for callers that schedule their own
  /// independent tasks over it (the kNN-join's R-subtree descents).
  ThreadPool& thread_pool() const { return pool_; }

  /// Exact kNN, identical to BrePartition::KnnSearch.
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  Stats* stats = nullptr) const;

  /// Exact kNN for every row of `queries`, parallel across queries.
  /// `stats`, when supplied, receives the batch aggregate (the per-query
  /// records summed, with the batch's wall clock and pager/pool deltas).
  std::vector<std::vector<Neighbor>> KnnSearchBatch(
      const Matrix& queries, size_t k, Stats* stats = nullptr) const;

  /// Exact range query, identical to BrePartition::RangeSearch.
  std::vector<uint32_t> RangeSearch(std::span<const double> y, double radius,
                                    Stats* stats = nullptr) const;

  /// Range query for every row of `queries`, parallel across queries.
  std::vector<std::vector<uint32_t>> RangeSearchBatch(
      const Matrix& queries, double radius, Stats* stats = nullptr) const;

 private:
  const BrePartition* index_;
  mutable ThreadPool pool_;
};

}  // namespace brep

#endif  // BREP_ENGINE_QUERY_ENGINE_H_
