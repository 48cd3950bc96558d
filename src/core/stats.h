#ifndef BREP_CORE_STATS_H_
#define BREP_CORE_STATS_H_

#include <cstdint>

namespace brep {

/// Per-call measurements, the one record every serving layer reports in:
/// a BrePartition query, a QueryEngine batch, a SearchIndex call and a
/// ShardedIndex scatter all fill a Stats, and every sum of records goes
/// through operator+=. For batches the counters and stage spans are sums
/// over the batch, while `wall_ms` is the batch's wall clock (so Qps() is
/// the serving throughput and the spans may exceed it under parallelism).
///
/// The logical counters (candidates, nodes, leaves, points, radius_total)
/// are deterministic -- identical for every thread count, because every
/// query performs exactly the sequential algorithm's work and batches sum
/// them in query order. `io_reads` and the pool lanes are deltas over
/// shared counters, hence approximate when calls overlap.
///
/// Contract:
///  * Public entry points (the SearchIndex wrappers; the BrePartition,
///    QueryEngine and ApproximateBrePartition searches) overwrite `*stats`
///    with this call's numbers.
///  * The protected SearchIndex `*Impl` hooks add (+=) into the wrapper's
///    zeroed sink. Every hook call gets a sink of its own (the per-row
///    batch defaults give each row a fresh one), so a hook that makes one
///    inner call may hand the sink straight to an overwriting entry point.
///  * The wrapper assigns the lanes it owns -- `queries`, `inserts`,
///    `deletes`, `wall_ms` -- after the hook returns, so a hook that adds
///    a whole inner call's record (a shard's, a batch row's) cannot
///    double-count them.
struct Stats {
  uint64_t queries = 0;
  /// Write lanes: completed Insert/Delete calls.
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// Durability lanes (brep::Index with a WAL; 0 elsewhere): redo records
  /// appended and fsync barriers issued by this call, and records replayed
  /// at recovery (Index::UpdateStats).
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_replayed = 0;
  /// Pager page reads issued (index + data); 0 for memory-only backends.
  uint64_t io_reads = 0;
  /// Candidate points fetched and exactly evaluated (refine).
  uint64_t candidates = 0;
  /// Index nodes visited and leaves scanned across the subspace trees.
  uint64_t nodes_visited = 0;
  uint64_t leaves_visited = 0;
  /// Divergence evaluations inside the index structures (filter-phase
  /// pruning; the refine phase's exact evaluations are `candidates`).
  uint64_t points_evaluated = 0;
  /// Buffer-pool traffic (node-cache hits/misses).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  /// Total searching bound (sum of per-subspace radii; diagnostic).
  double radius_total = 0.0;
  /// Stage spans in milliseconds (BrePartition family; 0 elsewhere).
  double bound_ms = 0.0;   // query transform + QBDetermine
  double filter_ms = 0.0;  // range queries over the BB-forest
  double refine_ms = 0.0;  // candidate fetch + exact evaluation
  /// Wall clock of the whole call.
  double wall_ms = 0.0;

  double Qps() const {
    return wall_ms > 0.0 ? double(queries) * 1e3 / wall_ms : 0.0;
  }

  Stats& operator+=(const Stats& o) {
    queries += o.queries;
    inserts += o.inserts;
    deletes += o.deletes;
    wal_appends += o.wal_appends;
    wal_fsyncs += o.wal_fsyncs;
    wal_replayed += o.wal_replayed;
    io_reads += o.io_reads;
    candidates += o.candidates;
    nodes_visited += o.nodes_visited;
    leaves_visited += o.leaves_visited;
    points_evaluated += o.points_evaluated;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    radius_total += o.radius_total;
    bound_ms += o.bound_ms;
    filter_ms += o.filter_ms;
    refine_ms += o.refine_ms;
    wall_ms += o.wall_ms;
    return *this;
  }
};

}  // namespace brep

#endif  // BREP_CORE_STATS_H_
