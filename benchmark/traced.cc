// The traced run: the same inputs as the untraced run, with each kNN
// replayed stage by stage through the public functions the index itself
// calls (bound -> filter -> fetch -> exact evaluation), spans timed from
// here around each call. Every staged answer must be byte-identical to
// Index::Knn on the same query.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bbtree/bbforest.h"
#include "core/bound.h"
#include "core/brepartition.h"
#include "join/dual_tree.h"
#include "storage/point_store.h"
#include "wal/wal.h"

#include "bench.h"

namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-query spans and counts of one staged kNN.
struct Staged {
  std::vector<Neighbor> result;
  double radius_total = 0.0;
  double bound_ms = 0.0;
  double filter_ms = 0.0;
  double fetch_ms = 0.0;
  double eval_ms = 0.0;
  double total_ms = 0.0;
  size_t candidates = 0;
  size_t live = 0;
  size_t nodes = 0;
  size_t leaf_points = 0;
  uint64_t pages = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

Staged StagedKnn(const brep::BrePartition& bp, std::span<const double> q,
                 size_t k) {
  Staged s;
  const auto start = Clock::now();
  const brep::BrePartition::ReadView view = bp.OpenReadView();
  k = std::min(k, view.num_points());
  s.live = view.num_points();

  auto t = Clock::now();
  const auto y_subs = bp.GatherQuery(q);
  const auto triples = bp.TransformQueryAll(y_subs);
  const brep::QueryBounds qb = brep::QBDetermine(view.transformed(), triples, k);
  s.bound_ms = MsSince(t);
  s.radius_total = qb.total;

  const auto pool_before = view.forest().pool_traffic();
  t = Clock::now();
  brep::SearchStats tree;
  const std::vector<uint32_t> candidates =
      view.forest().RangeCandidatesUnion(y_subs, qb.radii, &tree);
  s.filter_ms = MsSince(t);
  s.candidates = candidates.size();
  s.nodes = tree.nodes_visited;
  s.leaf_points = tree.points_evaluated;

  // Fetch with a copy-only callback, so the span holds page reads alone.
  const size_t d = q.size();
  std::vector<uint32_t> ids;
  std::vector<double> rows;
  ids.reserve(candidates.size());
  rows.reserve(candidates.size() * d);
  const uint64_t reads_before = bp.pager()->stats().reads;
  t = Clock::now();
  view.forest().point_store().FetchMany(
      candidates, [&](uint32_t id, std::span<const double> x) {
        ids.push_back(id);
        rows.insert(rows.end(), x.begin(), x.end());
      });
  s.fetch_ms = MsSince(t);
  s.pages = bp.pager()->stats().reads - reads_before;
  const auto pool_after = view.forest().pool_traffic();
  s.pool_hits = pool_after.hits - pool_before.hits;
  s.pool_misses = pool_after.misses - pool_before.misses;

  t = Clock::now();
  brep::TopK topk(k);
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::span<const double> x(rows.data() + i * d, d);
    topk.Push(bp.divergence().Divergence(x, q), ids[i]);
  }
  s.result = topk.SortedResults();
  s.eval_ms = MsSince(t);
  s.total_ms = MsSince(start);
  return s;
}

/// The twin that applies the same writes without a log: an in-memory build
/// for memory-served workloads, a reopened copy of the checkpoint for the
/// file-served one.
brep::StatusOr<brep::Index> MakeTwin(const Spec& spec, const Inputs& in,
                                     const std::string& copy) {
  if (spec.storage == Storage::kFile) return brep::Index::Open(copy);
  return brep::IndexBuilder(DivergenceName(spec.kind))
      .PageSize(32 * 1024)
      .PoolPages(spec.pool_pages)
      .Seed(kBuildSeed)
      .Build(in.data);
}

/// The write phase, traced: each acknowledged write is re-appended to a
/// side log (the WAL layer alone) and re-applied to a non-durable twin
/// (the index layer alone); the side log is then replayed over a copy of
/// the pre-write checkpoint and the recovered index must answer exactly
/// like the live one.
void TracedWrites(brep::Index& index, const Spec& spec, Inputs& in,
                  LiveSet& live, Oracle& oracle, const RunOptions& opt,
                  const Files& files, Report& rep) {
  const std::string base = opt.dir + "/replay_base.brep";
  const std::string side_wal = opt.dir + "/replay.wal";
  const std::string twin_copy = opt.dir + "/twin.brep";
  std::error_code ec;
  std::filesystem::copy_file(files.checkpoint, base,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (!ec && spec.storage == Storage::kFile) {
    std::filesystem::copy_file(
        files.checkpoint, twin_copy,
        std::filesystem::copy_options::overwrite_existing, ec);
  }
  if (ec) {
    rep.Fail("copying the checkpoint: " + ec.message());
    return;
  }
  auto wal = brep::WalWriter::Attach(side_wal, brep::FsyncMode::kNone, 2.0,
                                     /*append_offset=*/0, /*next_lsn=*/1,
                                     /*fresh_base_lsn=*/0);
  auto twin = MakeTwin(spec, in, twin_copy);
  if (!rep.Op("side_wal", wal.ok()) || !rep.Op("twin", twin.ok())) {
    rep.Fail("traced write set-up failed");
    return;
  }

  std::vector<double> append_us;
  std::vector<double> apply_ms;
  std::vector<WriteOp> log;
  for (size_t p = 0; p < spec.write_pairs; ++p) {
    log.clear();
    WritePair(index, live, in, rep, nullptr, &log);
    for (const WriteOp& op : log) {
      const auto t = Clock::now();
      const bool appended =
          op.insert ? (*wal)->AppendInsert(op.id, op.point).ok()
                    : (*wal)->AppendDelete(op.id).ok();
      append_us.push_back(MsSince(t) * 1e3);
      rep.Op("wal_append", appended);
      double ms = 0.0;
      const bool applied = Replay(*twin, op, &ms);
      apply_ms.push_back(ms);
      if (!rep.Op("twin_apply", applied)) {
        rep.Fail("twin diverged from the served index");
      }
    }
  }
  const brep::WalWriter::Stats ws = (*wal)->stats();
  rep.Op("wal_flush", (*wal)->Flush().ok());
  wal->reset();
  CheckAfterWrites(index, spec, in, live, oracle, rep);

  brep::DurabilityOptions durability;
  durability.wal_path = side_wal;
  durability.fsync_mode = brep::FsyncMode::kNone;
  const auto t = Clock::now();
  auto recovered = brep::Index::Open(base, durability);
  const double replay_ms = MsSince(t);
  if (rep.Op("recover", recovered.ok())) {
    if (recovered->num_points() != live.size()) {
      rep.Fail("recovered index holds " +
               std::to_string(recovered->num_points()) + " points, want " +
               std::to_string(live.size()));
    }
    for (size_t qi = 0; qi < std::min<size_t>(16, in.queries.rows()); ++qi) {
      const auto want = index.Knn(in.queries.Row(qi), spec.k);
      const auto got = recovered->Knn(in.queries.Row(qi), spec.k);
      const auto twin_got = twin->Knn(in.queries.Row(qi), spec.k);
      if (rep.Op("check_knn", want.ok() && got.ok() && twin_got.ok()) &&
          (*got != *want || *twin_got != *want)) {
        rep.Fail("recovered or twin index answers differently from the "
                 "served index on query " + std::to_string(qi));
      }
    }
  } else {
    rep.Fail("recovery failed: " + recovered.status().ToString());
  }

  rep.Set("wal.append_us", Median(append_us), "us");
  rep.Set("wal.bytes_per_write",
          ws.appends > 0 ? double(ws.appended_bytes) / double(ws.appends) : 0.0,
          "bytes");
  rep.Set("core.apply_ms", Median(apply_ms), "ms");
  rep.Set("wal.replay_ms", replay_ms, "ms");
}

}  // namespace

Report RunTraced(const Spec& spec, const RunOptions& opt) {
  Report rep;
  rep.workload = spec.name;
  // Each distinct query is run plain, staged and on the scan.
  Inputs in(spec, opt.seed, spec.traced_queries);
  const Files files = FilesFor(spec, opt.dir, 0);
  auto built = SetUp(spec, in.data, files);
  if (!rep.Op("setup", built.ok())) {
    rep.Fail("set-up failed: " + built.status().ToString());
    return rep;
  }
  brep::Index& index = *built;
  const brep::BrePartition& bp = index.impl();
  LiveSet live(spec.kind, spec.d);
  for (uint32_t i = 0; i < in.data.rows(); ++i) live.Insert(i, in.data.Row(i));
  Oracle oracle(live);
  const size_t nq = in.queries.rows();

  // As in the untraced run, the write-heavy workload writes before its
  // reads and the others after them.
  if (spec.write_heavy) {
    TracedWrites(index, spec, in, live, oracle, opt, files, rep);
  }

  // Each query runs through Index::Knn, then staged; the two answers
  // must be byte-identical, and the traced overhead is their paired
  // difference.
  WarmUp(index, spec, in.queries, rep);
  std::vector<double> plain_ms;
  std::vector<std::vector<Neighbor>> plain(nq);
  std::vector<double> bound_ms, radius_ratio, filter_ms, cand_frac, nodes,
      leaf_points, fetch_ms, pages, eval_ms, ns_per_eval, overhead_ms;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  for (size_t qi = 0; qi < nq; ++qi) {
    const auto q = in.queries.Row(qi);
    const auto t = Clock::now();
    auto got = index.Knn(q, spec.k);
    plain_ms.push_back(MsSince(t));
    if (!rep.Op("knn", got.ok())) continue;
    plain[qi] = *std::move(got);
    std::string why;
    if (!oracle.CheckKnn(q, spec.k, plain[qi], &why)) rep.Fail("knn: " + why);

    const Staged s = StagedKnn(bp, q, spec.k);
    rep.Op("staged_knn", true);
    if (s.result != plain[qi]) {
      rep.Fail("staged answer differs from Index::Knn on query " +
               std::to_string(qi));
      continue;
    }
    overhead_ms.push_back(s.total_ms - plain_ms.back());
    bound_ms.push_back(s.bound_ms);
    radius_ratio.push_back(s.radius_total / plain[qi].back().distance);
    filter_ms.push_back(s.filter_ms);
    cand_frac.push_back(double(s.candidates) / double(s.live));
    nodes.push_back(double(s.nodes));
    leaf_points.push_back(double(s.leaf_points));
    fetch_ms.push_back(s.fetch_ms);
    pages.push_back(double(s.pages));
    eval_ms.push_back(s.eval_ms);
    ns_per_eval.push_back(s.candidates > 0
                              ? s.eval_ms * 1e6 / double(s.candidates)
                              : 0.0);
    pool_hits += s.pool_hits;
    pool_misses += s.pool_misses;
  }
  rep.Set("core.bound_ms", Median(bound_ms), "ms");
  rep.Set("core.radius_over_kth", Median(radius_ratio), "ratio");
  rep.Set("bbtree.filter_ms", Median(filter_ms), "ms");
  rep.Set("bbtree.candidates_frac", Median(cand_frac), "ratio");
  rep.Set("bbtree.nodes_per_query", Median(nodes), "count");
  rep.Set("bbtree.leaf_points_per_query", Median(leaf_points), "count");
  rep.Set("storage.fetch_ms", Median(fetch_ms), "ms");
  rep.Set("storage.pages_per_query", Median(pages), "count");
  rep.Set("storage.pool_hit_rate",
          pool_hits + pool_misses > 0
              ? double(pool_hits) / double(pool_hits + pool_misses)
              : 0.0,
          "ratio");
  rep.Set("divergence.eval_ms", Median(eval_ms), "ms");
  rep.Set("divergence.ns_per_eval", Median(ns_per_eval), "ns");
  rep.Set("trace.overhead_ms", Median(overhead_ms), "ms");

  // Batch against the single-query rate measured above.
  {
    auto par = index.Parallel(2);
    if (rep.Op("parallel_handle", par.ok())) {
      const Matrix batch = in.queries.Truncated(std::min(kBatchRows, nq));
      const size_t rows = batch.rows();
      WarmUp(*par, spec, in.queries, rep);
      std::vector<double> qps;
      for (size_t i = 0; i < 3; ++i) {
        const auto t = Clock::now();
        const auto got = par->KnnBatch(batch, spec.k);
        qps.push_back(double(rows) / (MsSince(t) / 1e3));
        if (!rep.Op("batch", got.ok())) continue;
        for (size_t r = 0; r < rows; ++r) {
          if ((*got)[r] != plain[r]) {
            rep.Fail("batch answer differs from Index::Knn on query " +
                     std::to_string(r));
          }
        }
      }
      double plain_sum = 0.0;
      for (double ms : plain_ms) plain_sum += ms;
      const double single_qps = double(plain_ms.size()) / (plain_sum / 1e3);
      rep.Set("engine.batch_speedup", Median(qps) / single_qps, "ratio");
    } else {
      rep.Fail("Parallel(2): " + par.status().ToString());
    }
  }

  // Join: the dual-tree core over the live set, checked against the
  // facade's KnnJoin on the same rows.
  {
    const size_t rows = std::min(kJoinRows, nq);
    const Matrix r = in.queries.Truncated(rows);
    const Matrix s = live.Rows();
    const std::vector<uint32_t> s_ids = live.Ids();
    const auto facade = index.KnnJoin(r, spec.k);
    const brep::JoinResult core = brep::DualTreeKnnJoin(
        r, s, s_ids, bp.divergence(), spec.k, brep::JoinOptions{}, nullptr);
    if (rep.Op("join", facade.ok())) {
      for (size_t row = 0; row < rows; ++row) {
        std::string why;
        if (core.neighbors[row] != facade->neighbors[row]) {
          rep.Fail("join row " + std::to_string(row) +
                   ": DualTreeKnnJoin differs from Index::KnnJoin");
        } else if (!oracle.CheckKnn(in.queries.Row(row), spec.k,
                                    core.neighbors[row], &why)) {
          rep.Fail("join row " + std::to_string(row) + ": " + why);
        }
      }
    }
    rep.Set("join.pairs_frac",
            double(core.stats.pairs_evaluated) /
                (double(rows) * double(s.rows())),
            "ratio");
    rep.Set("join.build_ms", core.stats.build_ms, "ms");
    rep.Set("join.descent_ms", core.stats.descent_ms, "ms");
  }

  // The floor: a linear scan over the same live points and queries.
  {
    const Matrix s = live.Rows();
    const std::vector<uint32_t> s_ids = live.Ids();
    auto scan = brep::MakeSearchIndex("scan", nullptr, s,
                                      DivergenceName(spec.kind));
    if (rep.Op("scan_index", scan.ok())) {
      std::vector<double> scan_ms;
      for (size_t qi = 0; qi < nq; ++qi) {
        const auto t = Clock::now();
        auto got = (*scan)->Knn(in.queries.Row(qi), spec.k);
        scan_ms.push_back(MsSince(t));
        if (!rep.Op("scan_knn", got.ok())) continue;
        for (Neighbor& nb : *got) nb.id = s_ids[nb.id];
        std::string why;
        if (!oracle.CheckKnn(in.queries.Row(qi), spec.k, *got, &why)) {
          rep.Fail("scan: " + why);
        }
      }
      rep.Set("baselines.scan_knn_ms", Percentile(scan_ms, 50), "ms");
    } else {
      rep.Fail("scan backend: " + scan.status().ToString());
    }
  }

  if (!spec.write_heavy) {
    TracedWrites(index, spec, in, live, oracle, opt, files, rep);
  }
  const brep::Status saved = index.Save(files.checkpoint);
  if (!rep.Op("save", saved.ok())) rep.Fail("save: " + saved.ToString());
  rep.Set("storage.pages_total", double(bp.pager()->num_pages()), "count");
  return rep;
}

}  // namespace bench
