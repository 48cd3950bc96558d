#include "shard/replica_index.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "core/brepartition.h"
#include "core/stats.h"
#include "obs/index_metrics.h"
#include "storage/file_pager.h"

namespace brep {

ReplicaIndex::ReplicaIndex(std::unique_ptr<Pager> pager,
                           std::unique_ptr<BrePartition> bp,
                           std::unique_ptr<WalTransport> transport)
    : pager_(std::move(pager)),
      bp_(std::move(bp)),
      reader_(std::move(transport)) {}

ReplicaIndex::~ReplicaIndex() { StopTailing(); }

StatusOr<std::unique_ptr<ReplicaIndex>> ReplicaIndex::Open(
    const std::string& checkpoint_path, const std::string& wal_path) {
  return Open(checkpoint_path, MakeFileTailTransport(wal_path));
}

StatusOr<std::unique_ptr<ReplicaIndex>> ReplicaIndex::Open(
    const std::string& checkpoint_path,
    std::unique_ptr<WalTransport> transport) {
  if (transport == nullptr) {
    return Status::InvalidArgument("transport must not be null");
  }
  std::error_code ec;
  if (!std::filesystem::exists(checkpoint_path, ec)) {
    return Status::NotFound("no index file at \"" + checkpoint_path + "\"");
  }
  std::string error;
  auto file = FilePager::Open(checkpoint_path, &error);
  if (file == nullptr) {
    return Status::DataLoss("cannot open index file \"" + checkpoint_path +
                            "\": " + error);
  }
  // Serve from a memory snapshot of the checkpoint: the primary keeps
  // rewriting its own files, and the replica's state advances only through
  // applied log records.
  auto mem = durable::LoadIntoMemory(*file);
  file.reset();
  auto bp = BrePartition::Open(mem.get(), &error);
  if (bp == nullptr) {
    return Status::DataLoss("index file \"" + checkpoint_path +
                            "\" has no serviceable index: " + error);
  }
  const uint64_t durable_lsn = mem->catalog().durable_lsn;
  auto replica = std::unique_ptr<ReplicaIndex>(new ReplicaIndex(
      std::move(mem), std::move(bp), std::move(transport)));
  replica->applied_lsn_.store(durable_lsn, std::memory_order_relaxed);
  return replica;
}

StatusOr<size_t> ReplicaIndex::Poll() {
  // The reader cursor is single-consumer state: explicit polls and the
  // tail thread serialize here. Serving never touches this mutex.
  std::lock_guard<std::mutex> poll_lock(poll_mutex_);
  polls_.fetch_add(1, std::memory_order_relaxed);
  auto chunk_or = reader_.ReadFrom(applied_lsn());
  if (!chunk_or.ok()) return chunk_or.status();
  WalTailChunk chunk = *std::move(chunk_or);
  if (chunk.reset) resets_.fetch_add(1, std::memory_order_relaxed);
  size_t applied_count = 0;
  if (!chunk.records.empty()) {
    WalRecoveryStats stats;
    uint64_t applied = applied_lsn();
    Status status;
    {
      // Identical discipline to a local writer: apply under the writer
      // mutex, then publish one MVCC version at an operation boundary.
      // Concurrent readers keep serving their pinned snapshots.
      std::lock_guard<std::mutex> lock(bp_->writer_mutex());
      status = durable::ApplyWalRecordsLocked(bp_.get(), chunk.records,
                                              &applied, &stats);
      bp_->PublishVersionLocked();
    }
    applied_count = stats.replayed_inserts + stats.replayed_deletes;
    applied_records_.fetch_add(applied_count, std::memory_order_relaxed);
    applied_lsn_.store(applied, std::memory_order_relaxed);
    BREP_RETURN_IF_ERROR(status);
  }
  // Everything visible was applied; only an append still in flight (torn
  // tail bytes) can be outstanding now.
  lag_.store(chunk.tail_pending ? 1 : 0, std::memory_order_relaxed);
  return applied_count;
}

Status ReplicaIndex::StartTailing(double interval_ms) {
  if (!(interval_ms > 0.0)) {
    return Status::InvalidArgument("interval_ms must be > 0");
  }
  std::lock_guard<std::mutex> lock(tail_mutex_);
  if (tail_thread_.joinable()) {
    return Status::FailedPrecondition(
        "this replica is already tailing; StopTailing() first");
  }
  tail_stop_ = false;
  tail_status_ = Status::Ok();
  tail_thread_ = std::thread([this, interval_ms] { TailLoop(interval_ms); });
  return Status::Ok();
}

void ReplicaIndex::TailLoop(double interval_ms) {
  const auto interval =
      std::chrono::duration<double, std::milli>(interval_ms);
  std::unique_lock<std::mutex> lock(tail_mutex_);
  while (!tail_stop_) {
    lock.unlock();
    auto polled = Poll();
    lock.lock();
    if (!polled.ok()) {
      // Sticky: a replica that fell behind (or read corrupt bytes) stops
      // applying rather than guessing; the state it serves stays a
      // consistent prefix of the primary's history.
      tail_status_ = polled.status();
      return;
    }
    if (tail_stop_) return;
    tail_cv_.wait_for(lock, interval, [this] { return tail_stop_; });
  }
}

void ReplicaIndex::StopTailing() {
  std::thread finished;
  {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    tail_stop_ = true;
    finished = std::move(tail_thread_);
  }
  tail_cv_.notify_all();
  if (finished.joinable()) finished.join();
}

bool ReplicaIndex::tailing() const {
  std::lock_guard<std::mutex> lock(tail_mutex_);
  return tail_thread_.joinable() && tail_status_.ok() && !tail_stop_;
}

Status ReplicaIndex::tail_status() const {
  std::lock_guard<std::mutex> lock(tail_mutex_);
  return tail_status_;
}

std::string ReplicaIndex::Describe() const {
  return "replica(applied_lsn=" + std::to_string(applied_lsn()) +
         ", M=" + std::to_string(bp_->num_partitions()) +
         ", divergence=" + bp_->divergence().Name() +
         ", n=" + std::to_string(bp_->num_points()) +
         ", d=" + std::to_string(bp_->divergence().dim()) +
         ", exact, read-only)";
}

size_t ReplicaIndex::dim() const { return bp_->divergence().dim(); }

const BregmanDivergence* ReplicaIndex::QueryDivergence() const {
  return &bp_->divergence();
}
size_t ReplicaIndex::num_points() const { return bp_->num_points(); }

obs::MetricsSnapshot ReplicaIndex::Metrics() const {
  obs::MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(bp_->writer_mutex());
    out = bp_->CollectMetricsLocked();
  }
  out.AddGauge(obs::kReplicationLagLsnsGauge,
               double(replication_lag_lsns()));
  out.AddCounter(obs::kReplicationAppliedTotal,
                 applied_records_.load(std::memory_order_relaxed));
  out.AddCounter(obs::kReplicationPollsTotal,
                 polls_.load(std::memory_order_relaxed));
  out.AddCounter(obs::kReplicationResetsTotal,
                 resets_.load(std::memory_order_relaxed));
  out.Sort();
  return out;
}

std::vector<obs::QueryTraceEntry> ReplicaIndex::SlowQueries() const {
  return bp_->trace_log().Snapshot();
}

StatusOr<std::vector<Neighbor>> ReplicaIndex::KnnImpl(
    std::span<const double> y, size_t k, Stats* stats) const {
  return bp_->KnnSearch(y, k, stats);
}

StatusOr<std::vector<uint32_t>> ReplicaIndex::RangeImpl(
    std::span<const double> y, double radius, Stats* stats) const {
  return bp_->RangeSearch(y, radius, stats);
}

}  // namespace brep
