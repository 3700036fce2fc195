// A small fixed-size worker pool for running independent membership
// questions at once (see DESIGN.md, "Parallel search").
//
// The pool runs plain void() tasks on a set of long-lived worker threads.
// Its central primitive is Run(parties, fn): the CALLER participates as
// party 0 and up to parties-1 pool workers join as helpers. Completion
// never depends on a helper actually starting — if every worker is busy
// (or the pool has no workers at all) the caller simply does all the work
// itself — so nested Run calls from inside pool workers cannot deadlock:
// a blocked caller only ever waits for helpers that are actively running.
#ifndef VIEWCAP_BASE_THREAD_POOL_H_
#define VIEWCAP_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace viewcap {

/// Cooperative cancellation flag shared between a search driver and its
/// workers. Workers poll; nothing is interrupted mid-kernel.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

class ThreadPool {
 public:
  /// Spawns `workers` threads immediately. A pool with zero workers is
  /// valid: every Run degenerates to the caller executing fn(0) alone.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Grow-only: spawns additional workers so the pool has at least
  /// `workers`. Safe to call concurrently with Run.
  void EnsureWorkers(std::size_t workers);

  std::size_t workers() const;

  /// Executes fn(party) once per party, for up to `parties` parties: the
  /// caller runs fn(0) and up to parties-1 idle workers run fn(1..).
  /// Returns when the caller's call and every HELPER THAT STARTED have
  /// returned; helpers that never got scheduled are cancelled and skipped.
  /// fn must therefore treat parties as an upper bound and share work
  /// dynamically (e.g. an atomic counter), never partition it statically
  /// by party index. fn must be thread-safe.
  void Run(std::size_t parties, const std::function<void(std::size_t)>& fn);

  /// Resolves a SearchLimits::threads-style knob: 0 means
  /// hardware_concurrency (at least 1), anything else is taken as-is.
  static std::size_t DecideThreads(std::size_t requested);

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

/// Calls fn(i) for every i in [0, n), sharing the index space dynamically
/// across up to `parallelism` threads (the caller plus pool workers). With
/// a null pool or parallelism <= 1 this is a plain serial loop. fn must be
/// thread-safe; no ordering between invocations is promised.
void ParallelFor(ThreadPool* pool, std::size_t parallelism, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace viewcap

#endif  // VIEWCAP_BASE_THREAD_POOL_H_
