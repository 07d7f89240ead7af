#ifndef AUTOBI_COMMON_PARALLEL_H_
#define AUTOBI_COMMON_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace autobi {

// Deterministic data-parallel substrate (ARCHITECTURE.md "Concurrency
// model"). All parallel stages of the pipeline go through ParallelFor /
// ParallelMap, which guarantee:
//
//   1. Results are bit-identical regardless of thread count and schedule:
//      every iteration writes only to its own output slot, and any
//      randomness is drawn from streams forked deterministically *before*
//      the parallel region (see RandomForest::Fit for the canonical
//      pattern). Which thread runs an index, and when, is not part of the
//      contract.
//   2. A thread count of <= 1 (or a nested call from inside a worker) runs
//      the plain serial loop — the parallel path is strictly an execution
//      strategy, never a semantic switch.
//   3. Exceptions propagate: the exception thrown by the lowest-indexed
//      failing iteration is rethrown on the calling thread once every
//      running iteration has returned, and the pool remains usable
//      afterwards. Iterations above a failing index may be skipped.

// Hard upper bound on worker threads (sanity cap for AUTOBI_THREADS typos).
inline constexpr int kMaxThreads = 256;

// Number of hardware threads, always >= 1.
int HardwareThreads();

// Parses an AUTOBI_THREADS-style string. Returns the parsed count clamped to
// [1, kMaxThreads], or 0 ("auto") when `value` is null, empty, non-numeric,
// or <= 0.
int ParseThreadCount(const char* value);

// Resolves a requested thread count to an effective one:
//   requested >  0  ->  min(requested, kMaxThreads)
//   requested <= 0  ->  AUTOBI_THREADS if set and valid, else
//                       HardwareThreads().
// Every Parallel* entry point resolves its `threads` argument this way, so
// option structs can default to 0 and inherit the process-wide setting.
int ResolveThreads(int requested);

// A fixed-size pool of persistent worker threads. Work is submitted as
// closures; the pool never drops or reorders completion signalling, and it
// drains cleanly on destruction. Users normally do not touch this class —
// ParallelFor/ParallelMap schedule onto the shared Global() pool — but it is
// public so tests can own a private pool.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to [0, kMaxThreads]). A pool of
  // size 0 is legal; Submit then runs tasks inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const;

  // Enqueues a task. Tasks must not block on tasks queued behind them
  // (ParallelFor waits only for helpers that have started).
  void Submit(std::function<void()> task);

  // Grows the pool to at least `num_threads` workers (clamped to
  // kMaxThreads). Used by the shared pool when a caller requests more
  // parallelism than previously seen.
  void EnsureWorkers(int num_threads);

  // True when called from inside one of *any* pool's worker threads.
  static bool InWorker();

  // The process-wide shared pool, created on first use.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

// Runs fn(i) for i in [0, n). With an effective thread count of 1, with
// n < 2, or when called from inside a pool worker (nested parallelism), this
// is a plain serial loop. Otherwise the calling thread and up to
// min(threads, n) - 1 helper tasks on the shared pool take indices in
// ascending order from one shared counter until none are left. The caller
// takes indices too, so it finishes the region alone when every helper is
// still queued behind other work; it returns once the iterations it did not
// run have returned, and never waits for a helper that has not started.
// `threads` is resolved via ResolveThreads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 int threads = 0);

// Maps fn over [0, n) into a vector with results in index order. The result
// type must be default-constructible and movable.
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn, int threads = 0)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(n);
  ParallelFor(
      n, [&](size_t i) { out[i] = fn(i); }, threads);
  return out;
}

// The indices [0, n) ordered by descending size(i), ties in index order.
// Per-table stages run ParallelFor over k and work on item order[k], so the
// largest tables start first and no big table is left to run alone at the
// end of the region; results still land in slot order[k], so the order
// changes only the schedule.
template <typename SizeFn>
std::vector<size_t> LargestFirst(size_t n, SizeFn&& size) {
  std::vector<size_t> sizes(n);
  for (size_t i = 0; i < n; ++i) sizes[i] = size(i);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return sizes[a] > sizes[b]; });
  return order;
}

}  // namespace autobi

#endif  // AUTOBI_COMMON_PARALLEL_H_
