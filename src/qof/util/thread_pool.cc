#include "qof/util/thread_pool.h"

namespace qof {
namespace {

/// The loop of every job that runs on the calling thread alone.
void RunInline(size_t num_items, const std::function<void(int, size_t)>& fn,
               const std::atomic<bool>* stop) {
  for (size_t i = 0; i < num_items; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    fn(0, i);
  }
}

}  // namespace

int EffectiveParallelism(int requested) {
  if (requested >= 1) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(EffectiveParallelism(num_threads)) {}

void ThreadPool::StartWorkers() {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(size_t num_items,
                             const std::function<void(int, size_t)>& fn,
                             const std::atomic<bool>* stop) {
  if (num_threads_ == 1 || num_items <= 1) {
    RunInline(num_items, fn, stop);
    return;
  }
  // ParallelFor is never called from two threads at once, so the first
  // parallel job can start the workers without a lock.
  if (workers_.empty()) StartWorkers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_items_ = num_items;
    job_stop_ = stop;
    next_index_.store(0, std::memory_order_relaxed);
    workers_active_ = static_cast<int>(workers_.size());
    ++job_generation_;
  }
  job_cv_.notify_all();
  RunJob(/*worker=*/0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return workers_active_ == 0; });
  job_fn_ = nullptr;
  job_stop_ = nullptr;
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&] {
        return shutdown_ || job_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
    }
    RunJob(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_active_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::RunJob(int worker) {
  // job_fn_/job_items_ were published under mu_ before this worker woke
  // (or before the caller entered RunJob), and are not cleared until
  // every worker has decremented workers_active_.
  const std::function<void(int, size_t)>& fn = *job_fn_;
  const size_t n = job_items_;
  const std::atomic<bool>* stop = job_stop_;
  for (;;) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    fn(worker, i);
  }
}

void ParallelFor(ThreadPool* pool, size_t num_items,
                 const std::function<void(int, size_t)>& fn,
                 const std::atomic<bool>* stop) {
  if (pool == nullptr) {
    RunInline(num_items, fn, stop);
  } else {
    pool->ParallelFor(num_items, fn, stop);
  }
}

int WorkerCount(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->size();
}

TaskQueue::TaskQueue(int num_threads, size_t max_queued)
    : num_threads_(EffectiveParallelism(num_threads)),
      max_queued_(max_queued) {
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskQueue::~TaskQueue() { Shutdown(); }

bool TaskQueue::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    if (max_queued_ != 0 && queue_.size() >= max_queued_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

void TaskQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

size_t TaskQueue::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

int TaskQueue::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void TaskQueue::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Accepted tasks run even during shutdown: TrySubmit's true means
      // "will execute", which the service layer relies on to always
      // deliver a completion.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
  }
}

}  // namespace qof
