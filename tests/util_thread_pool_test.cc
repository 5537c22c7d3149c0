#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tcpdyn::util {
namespace {

TEST(ThreadPool, StartsAndStopsWithoutTasks) {
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
  }
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, RunsEveryTaskOnFewThreads) {
  // N tasks on M < N threads: all run, none twice.
  constexpr int kTasks = 500;
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::future<int>> results;
  results.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    results.push_back(pool.submit([i, &ran] {
      ran.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor must finish all 50, not drop the queue
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  // One worker, and `good` is waited for before `bad`: by then the worker
  // has finished with `bad`'s task and destroyed it, so the test thread
  // holds the last reference to the stored exception when it reads it.
  // Reading it while the worker still held the task would race the task's
  // release of the exception under TSan, which cannot see libstdc++'s
  // exception reference counts.
  ThreadPool pool(1);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("point 3 exploded"); });
  auto good = pool.submit([] { return 11; });
  // A throwing task must not take the worker down with it: the pool's one
  // worker has to run the next task.
  EXPECT_EQ(good.get(), 11);
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "point 3 exploded");
          throw;
        }
      },
      std::runtime_error);
  EXPECT_EQ(pool.submit([] { return 12; }).get(), 12);
}

TEST(ThreadPool, RunsTasksConcurrently) {
  // Two tasks that each wait for the other to start can only finish if the
  // pool really runs them on two threads. (A serial pool would deadlock;
  // the ctest TIMEOUT property turns that into a failure.)
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started == 2; });
    return std::this_thread::get_id();
  };
  auto a = pool.submit(rendezvous);
  auto b = pool.submit(rendezvous);
  EXPECT_NE(a.get(), b.get());
}

TEST(ThreadPool, ManyTasksSpreadAcrossWorkers) {
  // With slow-ish tasks, a 4-thread pool should use more than one thread.
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::vector<std::future<void>> results;
  for (int i = 0; i < 64; ++i) {
    results.push_back(pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    }));
  }
  for (auto& r : results) r.get();
  EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPool, DefaultJobsRespectsEnv) {
  // TCPDYN_JOBS overrides; bogus values fall back to hardware concurrency.
  ASSERT_EQ(setenv("TCPDYN_JOBS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_jobs(), 3u);
  ASSERT_EQ(setenv("TCPDYN_JOBS", "bogus", 1), 0);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
  ASSERT_EQ(unsetenv("TCPDYN_JOBS"), 0);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

}  // namespace
}  // namespace tcpdyn::util
