#ifndef BREP_ENGINE_ENGINE_STATS_H_
#define BREP_ENGINE_ENGINE_STATS_H_

#include <cstddef>
#include <cstdint>

namespace brep {

/// Aggregate measurements over a batch served by the QueryEngine: the
/// logical work counters summed across every query plus the batch-level
/// I/O and wall-clock numbers. The logical counters (candidates, nodes,
/// leaves, points) are deterministic -- identical for every thread count --
/// because each query performs exactly the sequential algorithm's work;
/// `io_reads` is not, because concurrent queries share the per-tree node
/// caches and evict each other in schedule-dependent order.
struct EngineStats {
  uint64_t queries = 0;
  /// Write lanes: completed Insert/Delete calls (façade mutations routed
  /// through the serving layer's exclusive lock).
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// Durability lanes: WAL records appended / fsync barriers issued for
  /// this index's write stream, and records replayed when it was opened
  /// (0 after a clean checkpoint -- recovery did zero redundant work).
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_replayed = 0;
  uint64_t io_reads = 0;
  uint64_t candidates = 0;
  uint64_t nodes_visited = 0;
  uint64_t leaves_visited = 0;
  uint64_t points_evaluated = 0;
  /// Buffer-pool traffic over the batch (node-cache hits/misses). Like
  /// io_reads, a delta over shared counters: batch-level, not
  /// schedule-independent.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  /// Sum of the queries' total searching bounds (diagnostic; summed in
  /// query order, so identical for every thread count).
  double radius_total = 0.0;
  double wall_ms = 0.0;

  double Qps() const { return wall_ms > 0.0 ? queries * 1e3 / wall_ms : 0.0; }
};

}  // namespace brep

#endif  // BREP_ENGINE_ENGINE_STATS_H_
