#ifndef BREP_ENGINE_THREAD_POOL_H_
#define BREP_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace brep {

/// Fixed-size pool of worker threads used by the query engine.
///
/// The pool is deliberately work-stealing-free: the only scheduling
/// primitive is a shared FIFO plus an atomic index counter inside
/// ParallelFor, which is all the engine's flat fan-outs (one task per
/// subspace tree, one task per query of a batch) need. The thread calling
/// ParallelFor participates as an extra execution lane, so a pool built
/// with `num_workers = 0` degrades to plain sequential execution with zero
/// thread overhead -- that is the engine's single-threaded reference mode.
class ThreadPool {
 public:
  /// Spawns `num_workers` threads (0 is valid and spawns none).
  explicit ThreadPool(size_t num_workers);

  /// Joins all workers; pending Submit() tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Execution lanes visible to ParallelFor bodies: every worker plus the
  /// calling thread. Lane indices identify per-thread state slots that can
  /// be written without locks.
  size_t num_lanes() const { return workers_.size() + 1; }

  /// Enqueue a task; it runs on some worker, which passes its lane index
  /// in [0, num_workers()). Must not be called on a pool with no workers.
  void Submit(std::function<void(size_t)> task);

  /// Run body(item, lane) for every item in [0, count), spreading items
  /// over the workers and the calling thread; returns when all invocations
  /// finished. The caller executes with lane == num_workers(). Items are
  /// claimed dynamically (atomic counter), so uneven item costs balance.
  /// The first exception thrown by any invocation is rethrown here after
  /// the remaining items have been allowed to finish.
  void ParallelFor(size_t count,
                   const std::function<void(size_t, size_t)>& body);

 private:
  void WorkerLoop(size_t lane);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void(size_t)>> queue_;
  bool stop_ = false;
};

}  // namespace brep

#endif  // BREP_ENGINE_THREAD_POOL_H_
