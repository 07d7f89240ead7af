#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

namespace autobi {

namespace {

// Set once, permanently, by every pool worker thread; ParallelFor consults
// it to run nested calls as the plain serial loop: the outer region already
// keeps the workers busy, so a nested region's helpers would only queue
// behind it.
thread_local bool t_in_worker = false;

// One ParallelFor region, shared by its caller and its helper tasks through
// a shared_ptr. The caller's `fn` may be called only while the region is
// open: a helper enters (running + 1) under `mu` only before the caller
// closes it, and the caller returns only after closing it with no helper
// inside.
struct Region {
  Region(size_t n, const std::function<void(size_t)>* fn) : n(n), fn(fn) {}

  // Takes indices in ascending order until none are left. Every index below
  // a failing one was taken before it and runs to completion, so the lowest
  // recorded failure is the lowest failing index overall; indices above a
  // recorded failure are skipped, since the region's results are discarded.
  void Run() {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= n || i > failed.load()) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < failed.load()) {
          failed.store(i);
          error = std::current_exception();
        }
        return;
      }
    }
  }

  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  // Lowest failing index so far (written under `mu`, with `error`).
  std::atomic<size_t> failed{std::numeric_limits<size_t>::max()};
  std::exception_ptr error;
  std::mutex mu;
  std::condition_variable cv;
  size_t running = 0;   // Helpers inside Run(); under `mu`.
  bool closed = false;  // Set by the caller once it has no index left.
};

}  // namespace

int HardwareThreads() {
  int h = static_cast<int>(std::thread::hardware_concurrency());
  return h > 0 ? h : 1;
}

int ParseThreadCount(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return 0;
  if (parsed <= 0) return 0;
  return static_cast<int>(std::min<long>(parsed, kMaxThreads));
}

int ResolveThreads(int requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  int env = ParseThreadCount(std::getenv("AUTOBI_THREADS"));
  if (env > 0) return env;
  return HardwareThreads();
}

ThreadPool::ThreadPool(int num_threads) {
  EnsureWorkers(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!workers_.empty()) {
      queue_.push_back(std::move(task));
      cv_.notify_one();
      return;
    }
  }
  task();  // Zero-worker pool: degrade to inline execution.
}

void ThreadPool::EnsureWorkers(int num_threads) {
  int target = std::clamp(num_threads, 0, kMaxThreads);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < target) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

bool ThreadPool::InWorker() { return t_in_worker; }

ThreadPool& ThreadPool::Global() {
  // Starts empty; ParallelFor grows it to the largest concurrency actually
  // requested, so processes that never parallelize never spawn threads.
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: every submitted task runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 int threads) {
  if (n == 0) return;
  int effective = ResolveThreads(threads);
  if (effective <= 1 || n < 2 || ThreadPool::InWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const size_t helpers = std::min(static_cast<size_t>(effective), n) - 1;
  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(static_cast<int>(helpers));

  auto region = std::make_shared<Region>(n, &fn);
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([region] {
      {
        std::lock_guard<std::mutex> lock(region->mu);
        // Closed: the caller took every index and may have returned, so
        // its `fn` is gone; only the region itself is still alive.
        if (region->closed) return;
        ++region->running;
      }
      region->Run();
      std::lock_guard<std::mutex> lock(region->mu);
      if (--region->running == 0) region->cv.notify_one();
    });
  }
  // The caller takes indices too, so the region never waits on pool
  // capacity: with every helper queued behind other requests' work, the
  // caller runs it alone.
  region->Run();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(region->mu);
    region->closed = true;
    region->cv.wait(lock, [&] { return region->running == 0; });
    // Taken out of the region, so the exception is freed on this thread: a
    // late helper may drop the region's last reference on a pool thread,
    // and the exception's reference count lives in the C++ runtime, whose
    // atomics ThreadSanitizer cannot see.
    error = std::move(region->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace autobi
