#ifndef QOF_UTIL_THREAD_POOL_H_
#define QOF_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qof {

/// Resolves a parallelism request: n >= 1 is taken literally; 0 (or a
/// negative value) means std::thread::hardware_concurrency(), which counts
/// every hardware thread of the machine, whatever CPU affinity the
/// process runs under. Always >= 1.
int EffectiveParallelism(int requested);

/// A fixed-size worker pool whose only operation is a blocking
/// parallel-for. Index construction and two-phase execution are
/// per-document / per-candidate independent loops, so this is the whole
/// concurrency surface the engine needs: no futures, no task graph.
///
/// The calling thread participates as worker 0, so a pool of size N uses
/// N-1 background threads, started by its first job of more than one
/// item. A pool of size 1, like a job of one item, runs inline on the
/// calling thread — the same loop the null-pool `ParallelFor` below runs.
///
/// ParallelFor is not reentrant and must not be called from two threads
/// at once; the engine serializes builds and queries per system, which
/// satisfies this by construction. `fn` must not throw — error handling
/// is done by writing a Status into a per-item slot and scanning the
/// slots in order afterwards, which also keeps "first error" reporting
/// deterministic.
class ThreadPool {
 public:
  /// `num_threads` counts the calling thread; it is resolved through
  /// EffectiveParallelism, so 0 means hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count, calling thread included.
  int size() const { return num_threads_; }

  /// Invokes `fn(worker, index)` for every index in [0, num_items),
  /// distributing indices dynamically across workers; blocks until every
  /// invocation returned. `worker` is in [0, size()) and is stable within
  /// one invocation of `fn`, so it can address per-worker scratch state.
  ///
  /// `stop` (optional) is polled before each index is claimed: once it
  /// reads true, workers stop claiming new indices and ParallelFor
  /// returns after in-flight invocations finish. Indices not claimed by
  /// then are simply never run — callers that care must track per-item
  /// completion themselves (the engine records a per-item done flag).
  /// A plain atomic rather than an ExecContext keeps qof_util free of
  /// upward dependencies.
  void ParallelFor(size_t num_items,
                   const std::function<void(int, size_t)>& fn,
                   const std::atomic<bool>* stop = nullptr);

 private:
  void StartWorkers();
  void WorkerLoop(int worker);
  void RunJob(int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_cv_;   // workers wait for the next job
  std::condition_variable done_cv_;  // the caller waits for completion
  uint64_t job_generation_ = 0;
  int workers_active_ = 0;
  bool shutdown_ = false;
  const std::function<void(int, size_t)>* job_fn_ = nullptr;
  size_t job_items_ = 0;
  const std::atomic<bool>* job_stop_ = nullptr;
  std::atomic<size_t> next_index_{0};
};

/// Runs `fn(worker, index)` for every index in [0, num_items) on `pool`
/// (see ThreadPool::ParallelFor), or inline on the calling thread — as
/// worker 0, in index order, until `stop` reads true — when `pool` is
/// null. Engine loops call this with whatever pool they were handed, so
/// each data-parallel job has one loop whatever the worker count.
void ParallelFor(ThreadPool* pool, size_t num_items,
                 const std::function<void(int, size_t)>& fn,
                 const std::atomic<bool>* stop = nullptr);

/// How many worker ids `ParallelFor(pool, ...)` hands out: pool->size(),
/// or 1 for a null pool. Sizes per-worker scratch state.
int WorkerCount(const ThreadPool* pool);

/// A bounded task queue drained by dedicated worker threads — the
/// concurrency surface the query *service* needs (many independent
/// queries in flight), complementing ThreadPool's single blocking
/// parallel-for (one data-parallel loop at a time).
///
/// Unlike ThreadPool, the submitting thread never participates: a
/// TaskQueue of size N runs N background threads, so submission is
/// non-blocking and the caller keeps servicing its connection. The queue
/// bound is the admission-control surface: TrySubmit refuses (returns
/// false) instead of queueing unboundedly, and the caller maps that to a
/// retryable kUnavailable.
///
/// Tasks must not throw. Shutdown() (and the destructor) stop intake,
/// drain every already-accepted task, and join the workers.
class TaskQueue {
 public:
  /// `num_threads` is resolved through EffectiveParallelism (0 = one per
  /// hardware thread). `max_queued` bounds tasks accepted but not yet
  /// *started*; 0 means unbounded.
  explicit TaskQueue(int num_threads, size_t max_queued = 0);
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueues `task` unless the queue is full or shut down. Returns true
  /// when the task was accepted (it will run, even if Shutdown() follows
  /// immediately).
  bool TrySubmit(std::function<void()> task);

  /// Stops intake, runs every accepted task to completion, joins the
  /// workers. Idempotent.
  void Shutdown();

  int size() const { return num_threads_; }
  /// Tasks accepted but not yet started (point-in-time).
  size_t queued() const;
  /// Tasks currently executing (point-in-time).
  int active() const;

 private:
  void WorkerLoop();

  const int num_threads_;
  const size_t max_queued_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace qof

#endif  // QOF_UTIL_THREAD_POOL_H_
