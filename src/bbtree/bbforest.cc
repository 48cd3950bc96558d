#include "bbtree/bbforest.h"

#include <algorithm>
#include <iterator>

#include "common/build_counters.h"
#include "common/check.h"
#include "engine/thread_pool.h"

namespace brep {

BBForest::BBForest(Pager* pager, const Matrix& data,
                   const BregmanDivergence& div,
                   std::vector<std::vector<size_t>> partitions,
                   const BBForestConfig& config)
    : filter_mode_(config.filter_mode),
      pool_pages_(config.pool_pages),
      partitions_(std::move(partitions)) {
  BREP_CHECK(pager != nullptr);
  BREP_CHECK(!partitions_.empty());
  BREP_CHECK(data.cols() == div.dim());
  internal::GetBuildCounters().forest_builds.fetch_add(
      1, std::memory_order_relaxed);

  // Build the first subspace's tree in memory to obtain the leaf order that
  // defines the on-disk point layout (paper Section 6).
  const Matrix sub0 = data.GatherColumns(partitions_[0]);
  const BregmanDivergence div0 = div.Restrict(partitions_[0]);
  const BBTree tree0(sub0, div0, config.tree);
  const std::vector<uint32_t> order = tree0.LeafOrder();
  BREP_CHECK(order.size() == data.rows());

  store_ = std::make_unique<PointStore>(pager, data, order);

  trees_.reserve(partitions_.size());
  trees_.push_back(
      std::make_unique<DiskBBTree>(pager, tree0, config.pool_pages));
  for (size_t m = 1; m < partitions_.size(); ++m) {
    const Matrix sub = data.GatherColumns(partitions_[m]);
    const BregmanDivergence sub_div = div.Restrict(partitions_[m]);
    const BBTree tree(sub, sub_div, config.tree);
    trees_.push_back(
        std::make_unique<DiskBBTree>(pager, tree, config.pool_pages));
  }
}

BBForest::BBForest(Pager* pager, const BregmanDivergence& div,
                   std::vector<std::vector<size_t>> partitions,
                   FilterMode filter_mode, size_t pool_pages,
                   const PointStoreLayout& store_layout,
                   std::span<const DiskBBTreeLayout> tree_layouts)
    : filter_mode_(filter_mode),
      pool_pages_(pool_pages),
      partitions_(std::move(partitions)) {
  BREP_CHECK(pager != nullptr);
  BREP_CHECK(!partitions_.empty());
  BREP_CHECK(tree_layouts.size() == partitions_.size());

  store_ = std::make_unique<PointStore>(pager, store_layout);
  trees_.reserve(partitions_.size());
  for (size_t m = 0; m < partitions_.size(); ++m) {
    BregmanDivergence sub_div = div.Restrict(partitions_[m]);
    BREP_CHECK(sub_div.dim() == partitions_[m].size());
    trees_.push_back(std::make_unique<DiskBBTree>(
        pager, std::move(sub_div), tree_layouts[m], pool_pages_));
  }
}

BBForest::BBForest(const BBForest& writer, const PageSource* src)
    : filter_mode_(writer.filter_mode_),
      pool_pages_(writer.pool_pages_),
      partitions_(writer.partitions_) {
  store_ = writer.store_->SnapshotClone(src);
  trees_.reserve(writer.trees_.size());
  for (const auto& tree : writer.trees_) {
    trees_.push_back(tree->SnapshotClone(src));
  }
}

std::unique_ptr<BBForest> BBForest::SnapshotClone(const PageSource* src) const {
  BREP_CHECK(src != nullptr);
  return std::unique_ptr<BBForest>(new BBForest(*this, src));
}

void BBForest::Insert(uint32_t id, std::span<const double> x) {
  BREP_CHECK(x.size() == store_->dim());
  store_->Append(id, x);
  std::vector<double> sub;
  for (size_t m = 0; m < partitions_.size(); ++m) {
    const auto& cols = partitions_[m];
    sub.resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) sub[c] = x[cols[c]];
    trees_[m]->Insert(id, sub);
  }
}

bool BBForest::Delete(uint32_t id) {
  if (!store_->Contains(id)) return false;
  // The trees locate the point by its exact stored coordinates (their
  // ball-pruned descent), so fetch before tombstoning.
  std::vector<double> x(store_->dim());
  store_->Fetch(id, x);
  std::vector<double> sub;
  for (size_t m = 0; m < partitions_.size(); ++m) {
    const auto& cols = partitions_[m];
    sub.resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) sub[c] = x[cols[c]];
    BREP_CHECK_MSG(trees_[m]->Delete(id, sub),
                   "stored point missing from a subspace tree");
  }
  store_->Remove(id);
  return true;
}

void BBForest::DebugCheckInvariants() const {
  store_->DebugCheckInvariants();
  for (const auto& tree : trees_) {
    tree->DebugCheckInvariants();
    BREP_CHECK_MSG(tree->num_points() == store_->num_points(),
                   "tree and point store disagree on the live point count");
  }
}

std::vector<PageId> BBForest::LivePages() const {
  std::vector<PageId> pages = store_->LivePages();
  for (const auto& tree : trees_) {
    const std::vector<PageId> t = tree->LivePages();
    pages.insert(pages.end(), t.begin(), t.end());
  }
  return pages;
}

BBForest::PoolTraffic BBForest::pool_traffic() const {
  PoolTraffic out;
  for (const auto& tree : trees_) {
    out.hits += tree->pool().hits();
    out.misses += tree->pool().misses();
  }
  return out;
}

BBForest::PoolCounters BBForest::pool_counters() const {
  PoolCounters out;
  for (const auto& tree : trees_) {
    const BufferPool& pool = tree->pool();
    out.hits += pool.hits();
    out.misses += pool.misses();
    out.evictions += pool.evictions();
    out.resident_pages += pool.size();
    out.capacity_pages += pool.capacity();
  }
  return out;
}

std::vector<std::vector<uint32_t>> BBForest::FilterEachTree(
    std::span<const std::vector<double>> y_subs, std::span<const double> radii,
    SearchStats* stats, ThreadPool* pool) const {
  const size_t m_trees = trees_.size();
  BREP_CHECK(y_subs.size() == m_trees);
  BREP_CHECK(radii.size() == m_trees);
  std::vector<std::vector<uint32_t>> per_tree(m_trees);
  std::vector<SearchStats> per_stats(m_trees);
  auto run_tree = [&](size_t m) {
    per_tree[m] = filter_mode_ == FilterMode::kExactRange
                      ? trees_[m]->RangeSearchExact(y_subs[m], radii[m],
                                                    &per_stats[m])
                      : trees_[m]->RangeCandidates(y_subs[m], radii[m],
                                                   &per_stats[m]);
    std::sort(per_tree[m].begin(), per_tree[m].end());
  };
  if (pool != nullptr && pool->num_workers() > 0 && m_trees > 1) {
    pool->ParallelFor(m_trees, [&](size_t m, size_t) { run_tree(m); });
  } else {
    for (size_t m = 0; m < m_trees; ++m) run_tree(m);
  }
  if (stats != nullptr) {
    for (const SearchStats& s : per_stats) {
      stats->nodes_visited += s.nodes_visited;
      stats->leaves_visited += s.leaves_visited;
      stats->points_evaluated += s.points_evaluated;
    }
  }
  return per_tree;
}

std::vector<uint32_t> BBForest::RangeCandidatesUnion(
    std::span<const std::vector<double>> y_subs, std::span<const double> radii,
    SearchStats* stats, ThreadPool* pool) const {
  auto per_tree = FilterEachTree(y_subs, radii, stats, pool);
  std::vector<uint32_t> all = std::move(per_tree[0]);
  std::vector<uint32_t> next;
  for (size_t m = 1; m < per_tree.size(); ++m) {
    next.clear();
    std::set_union(all.begin(), all.end(), per_tree[m].begin(),
                   per_tree[m].end(), std::back_inserter(next));
    all.swap(next);
  }
  return all;
}

std::vector<uint32_t> BBForest::RangeCandidatesIntersection(
    std::span<const std::vector<double>> y_subs, double radius,
    SearchStats* stats, ThreadPool* pool) const {
  const std::vector<double> radii(trees_.size(), radius);
  auto per_tree = FilterEachTree(y_subs, radii, stats, pool);
  std::vector<uint32_t> candidates = std::move(per_tree[0]);
  std::vector<uint32_t> next;
  for (size_t m = 1; m < per_tree.size() && !candidates.empty(); ++m) {
    next.clear();
    std::set_intersection(candidates.begin(), candidates.end(),
                          per_tree[m].begin(), per_tree[m].end(),
                          std::back_inserter(next));
    candidates.swap(next);
  }
  return candidates;
}

}  // namespace brep
