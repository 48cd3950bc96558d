#ifndef BREP_JOIN_JOIN_TYPES_H_
#define BREP_JOIN_JOIN_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/top_k.h"

/// \file
/// The kNN-join vocabulary shared by the facade (SearchIndex::KnnJoin) and
/// the dual-tree core (join/dual_tree.h): per-join options, work counters,
/// and the result container. Kept free of api/ dependencies so src/join can
/// be used standalone over raw matrices.

namespace brep {

/// Per-call knobs for SearchIndex::KnnJoin.
struct JoinOptions {
  /// Leaf capacity of the transient join trees (R always; S when the
  /// backend builds a transient S tree).
  size_t max_leaf_size = 64;
  /// Target number of independent R-subtree tasks the descent is split
  /// into. The decomposition depends only on the R tree (never on the
  /// thread count), which is what makes parallel results byte-identical
  /// to sequential ones.
  size_t max_tasks = 64;
};

/// Work counters for one join call. The dual-tree counters are the
/// acceptance instrument: node_pairs_visited under the dual-tree descent
/// versus the same dataset's N-single-queries node visits is the measured
/// amortization win.
struct JoinStats {
  /// (R-node, S-node) pairs the dual-tree descent expanded (every pair a
  /// bound was computed for).
  uint64_t node_pairs_visited = 0;
  /// Pairs cut by the pair lower bound exceeding every R-point's current
  /// k-th distance in the R subtree.
  uint64_t node_pairs_pruned = 0;
  /// Leaf-vs-leaf blocks routed through the batched DivergenceScan kernel.
  uint64_t leaf_blocks = 0;
  /// Exact (r, s) divergence evaluations inside leaf blocks.
  uint64_t pairs_evaluated = 0;
  /// Transient tree shapes (diagnostic).
  uint64_t r_tree_nodes = 0;
  uint64_t s_tree_nodes = 0;
  /// Span breakdown, milliseconds.
  double build_ms = 0.0;    // transient tree construction
  double descent_ms = 0.0;  // dual-tree descent + leaf scans
};

/// One kNN-join answer: neighbors[i] is the sorted (distance, id) top-k of
/// R's row i against the indexed set S.
struct JoinResult {
  std::vector<std::vector<Neighbor>> neighbors;
  JoinStats stats;
};

}  // namespace brep

#endif  // BREP_JOIN_JOIN_TYPES_H_
