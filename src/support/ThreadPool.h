//===- ThreadPool.h - work-stealing thread pool ----------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the sharded pack/unpack
/// pipeline. Each worker owns a deque; submissions are distributed
/// round-robin and idle workers steal from the opposite end of their
/// peers' deques, so a handful of coarse shard tasks balances even when
/// shard costs are skewed.
///
/// submit() returns a std::future, so results and exceptions propagate
/// to the caller; the destructor drains every queued task before
/// joining (shutdown never drops submitted work). The pool itself is
/// scheduling-dependent, which is why the pack pipeline assigns work to
/// shards by stable class order and only uses the pool to *execute*
/// shards — archive bytes never depend on thread timing.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SUPPORT_THREADPOOL_H
#define CJPACK_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cjpack {

class ThreadPool {
public:
  /// Spawns \p ThreadCount workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned ThreadCount = 0) {
    spawn(ThreadCount == 0 ? defaultThreadCount() : ThreadCount);
  }

  /// A pool for \p Tasks coarse tasks: at most \p Requested workers (0 =
  /// one per hardware thread), and never more than there are tasks. Where
  /// that leaves one worker the pool spawns none, and submit() runs each
  /// task on the calling thread: a lone worker would only make the
  /// caller wait, and would keep its allocations apart from the caller's.
  ThreadPool(unsigned Requested, size_t Tasks) {
    size_t N = std::min<size_t>(
        Requested == 0 ? defaultThreadCount() : Requested, Tasks);
    spawn(N > 1 ? static_cast<unsigned>(N) : 0);
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs every task already submitted, then joins the workers.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(SleepMutex);
      Stopping = true;
    }
    SleepCv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// One worker per hardware thread (at least one).
  static unsigned defaultThreadCount() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1 : N;
  }


  /// Enqueues \p F for execution. The returned future delivers F's
  /// result, or rethrows whatever F threw.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> submit(Fn &&F) {
    using R = std::invoke_result_t<Fn>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(F));
    std::future<R> Result = Task->get_future();
    if (Workers.empty()) {
      (*Task)();
      return Result;
    }
    Worker &W = *Workers[NextQueue++ % Workers.size()];
    // Count the task before publishing it: a spinning worker can pop
    // and run it the moment it lands in the queue, and its decrement
    // must never observe QueuedTasks == 0 (a size_t underflow would
    // busy-wake sleepers and stall the destructor's drain-and-join).
    {
      std::lock_guard<std::mutex> Lock(SleepMutex);
      ++QueuedTasks;
    }
    {
      std::lock_guard<std::mutex> Lock(W.Mutex);
      W.Queue.emplace_back([Task] { (*Task)(); });
    }
    SleepCv.notify_one();
    return Result;
  }

private:
  struct Worker {
    std::mutex Mutex;
    std::deque<std::function<void()>> Queue;
  };

  void spawn(unsigned ThreadCount) {
    Workers.reserve(ThreadCount);
    for (unsigned I = 0; I < ThreadCount; ++I)
      Workers.push_back(std::make_unique<Worker>());
    Threads.reserve(ThreadCount);
    for (unsigned I = 0; I < ThreadCount; ++I)
      Threads.emplace_back([this, I] { workerLoop(I); });
  }

  /// Pops from the front of worker \p I's own queue.
  bool popLocal(unsigned I, std::function<void()> &Out) {
    Worker &W = *Workers[I];
    std::lock_guard<std::mutex> Lock(W.Mutex);
    if (W.Queue.empty())
      return false;
    Out = std::move(W.Queue.front());
    W.Queue.pop_front();
    return true;
  }

  /// Steals from the back of some other worker's queue.
  bool steal(unsigned Self, std::function<void()> &Out) {
    for (unsigned K = 1; K < Workers.size(); ++K) {
      Worker &W = *Workers[(Self + K) % Workers.size()];
      std::lock_guard<std::mutex> Lock(W.Mutex);
      if (W.Queue.empty())
        continue;
      Out = std::move(W.Queue.back());
      W.Queue.pop_back();
      return true;
    }
    return false;
  }

  void workerLoop(unsigned I) {
    std::function<void()> Task;
    while (true) {
      if (popLocal(I, Task) || steal(I, Task)) {
        {
          std::lock_guard<std::mutex> Lock(SleepMutex);
          --QueuedTasks;
        }
        Task();
        Task = nullptr;
        continue;
      }
      std::unique_lock<std::mutex> Lock(SleepMutex);
      SleepCv.wait(Lock, [this] { return Stopping || QueuedTasks > 0; });
      if (QueuedTasks == 0 && Stopping)
        return;
    }
  }

  std::vector<std::unique_ptr<Worker>> Workers;
  std::vector<std::thread> Threads;
  std::atomic<uint64_t> NextQueue{0};
  std::mutex SleepMutex;
  std::condition_variable SleepCv;
  size_t QueuedTasks = 0; ///< guarded by SleepMutex
  bool Stopping = false;  ///< guarded by SleepMutex
};

} // namespace cjpack

#endif // CJPACK_SUPPORT_THREADPOOL_H
