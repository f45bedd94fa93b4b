//===- test_threadpool.cpp - work-stealing thread pool tests --------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace cjpack;

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
  ThreadPool Pool;
  EXPECT_EQ(Pool.size(), ThreadPool::defaultThreadCount());
}

TEST(ThreadPool, ReturnsResultsThroughFutures) {
  ThreadPool Pool(4);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 64; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Futures[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  std::vector<int> Order;
  {
    ThreadPool Pool(1);
    for (int I = 0; I < 100; ++I)
      Pool.submit([I, &Order] { Order.push_back(I); });
  }
  std::vector<int> Want(100);
  std::iota(Want.begin(), Want.end(), 0);
  EXPECT_EQ(Order, Want);
}

TEST(ThreadPool, ExceptionPropagatesToFuture) {
  ThreadPool Pool(2);
  auto Ok = Pool.submit([] { return 7; });
  auto Bad = Pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(Ok.get(), 7);
  EXPECT_THROW(
      {
        try {
          Bad.get();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "task failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPool, ExceptionDoesNotKillTheWorker) {
  ThreadPool Pool(1);
  auto Bad = Pool.submit([] { throw std::runtime_error("boom"); });
  auto After = Pool.submit([] { return 42; });
  EXPECT_THROW(Bad.get(), std::runtime_error);
  EXPECT_EQ(After.get(), 42);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  std::atomic<int> Done{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++Done;
      });
    // Destruction must run every queued task, not drop the backlog.
  }
  EXPECT_EQ(Done.load(), 64);
}

TEST(ThreadPool, ManySmallTasksAcrossWorkers) {
  std::atomic<long> Sum{0};
  {
    ThreadPool Pool(8);
    for (long I = 1; I <= 1000; ++I)
      Pool.submit([I, &Sum] { Sum += I; });
  }
  EXPECT_EQ(Sum.load(), 1000L * 1001 / 2);
}

TEST(ThreadPool, ConcurrentSubmittersRaceShutdown) {
  // Tiny tasks from several submitter threads maximize the window
  // where a spinning worker pops a task the instant it is published;
  // if the queued-task counter ever underflowed, workers would spin
  // and the pool destructor would stall instead of joining cleanly.
  std::atomic<int> Done{0};
  {
    ThreadPool Pool(4);
    std::vector<std::thread> Submitters;
    for (int T = 0; T < 4; ++T)
      Submitters.emplace_back([&Pool, &Done] {
        for (int I = 0; I < 500; ++I)
          Pool.submit([&Done] { ++Done; });
      });
    for (std::thread &T : Submitters)
      T.join();
    // Pool destruction races the tail of the just-submitted backlog.
  }
  EXPECT_EQ(Done.load(), 4 * 500);
}

TEST(ThreadPool, WorkersStealSkewedBacklog) {
  // One long task pins a worker; round-robin still parks half the
  // small tasks behind it, so completion requires the idle worker to
  // steal them.
  std::atomic<int> Small{0};
  {
    ThreadPool Pool(2);
    Pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
    for (int I = 0; I < 32; ++I)
      Pool.submit([&Small] { ++Small; });
  }
  EXPECT_EQ(Small.load(), 32);
}

TEST(ThreadPool, SizedForTasksNeverOutnumbersThem) {
  EXPECT_EQ(ThreadPool(4, 3).size(), 3u);
  EXPECT_EQ(ThreadPool(2, 8).size(), 2u);
  unsigned Want = std::min(2u, ThreadPool::defaultThreadCount());
  EXPECT_EQ(ThreadPool(0, 2).size(), Want > 1 ? Want : 0u);

  // One task, or one worker asked for, runs on the calling thread.
  auto ExpectInline = [](ThreadPool &Pool) {
    EXPECT_EQ(Pool.size(), 0u);
    auto Ran = Pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_EQ(Ran.get(), std::this_thread::get_id());
    auto Thrown = Pool.submit([]() -> int { throw std::runtime_error("x"); });
    EXPECT_THROW(Thrown.get(), std::runtime_error);
  };
  ThreadPool OneTask(8, 1);
  ExpectInline(OneTask);
  ThreadPool OneWorker(1, 8);
  ExpectInline(OneWorker);
}
