/// Quickstart: build a brep::Index over a small synthetic dataset and run
/// an exact kNN query under the Itakura-Saito distance.
///
///   $ ./quickstart
///
/// Walks through the whole public API surface: dataset, builder-style
/// construction, Status-based error handling, search, and per-query stats.

#include <cstdio>

#include "api/index.h"
#include "common/rng.h"
#include "dataset/synthetic.h"

int main() {
  using namespace brep;

  // 1. A dataset: 5000 strictly positive 64-dimensional points (font-like
  //    energy features). Any Matrix works -- load your own with ReadFvecs /
  //    ReadCsv from dataset/io.h.
  Rng rng(42);
  const Matrix data = MakeFontsLike(rng, 5000, 64);

  // 2. Build the index. The divergence is named ("squared_l2",
  //    "exponential", "lp:3", ... also work; KL is rejected with a typed
  //    error because it does not decompose under partitioning). With no
  //    Partitions() call the optimal M is derived from the fitted cost
  //    model (Theorem 4) and dimensions are assigned to subspaces by PCCP.
  //    Every failure -- unknown divergence, bad config, empty data --
  //    surfaces as a Status instead of an abort.
  auto built = IndexBuilder("itakura_saito").PageSize(32 * 1024).Build(data);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Index& index = *built;
  std::printf("built %s\n", index.Describe().c_str());

  // 3. Query: exact 10-NN of a perturbed data point. Knn validates the
  //    query (dimensionality, k) and reports per-query work in brep::Stats
  //    (SearchIndex::Stats), including the paper's three stages: bound
  //    (query transform + searching-bound determination), filter (range
  //    queries over the BB-forest) and refine (exact evaluation).
  Rng query_rng(7);
  const Matrix queries = MakeQueries(query_rng, data, 1, 0.1,
                                     /*keep_positive=*/true);
  SearchIndex::Stats stats;
  const auto result = index.Knn(queries.Row(0), 10, &stats);
  if (!result.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n10-NN results (exact):\n");
  for (const Neighbor& nb : *result) {
    std::printf("  id=%5u  distance=%.6f\n", nb.id, nb.distance);
  }
  std::printf("\nper-query stats: io_reads=%llu candidates=%llu nodes=%llu "
              "radius_total=%.4g\n",
              static_cast<unsigned long long>(stats.io_reads),
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.nodes_visited),
              stats.radius_total);
  std::printf("stages: bound=%.3fms filter=%.3fms refine=%.3fms "
              "(wall %.3fms)\n",
              stats.bound_ms, stats.filter_ms, stats.refine_ms,
              stats.wall_ms);

  // 4. Errors are values: a dim-mismatched query comes back as a Status.
  const double short_query[3] = {1.0, 2.0, 3.0};
  const auto bad = index.Knn(short_query, 10);
  std::printf("\na 3-d query against the 64-d index -> %s\n",
              bad.status().ToString().c_str());
  return 0;
}
