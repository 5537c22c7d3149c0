// Fixed-size worker pool for fanning independent jobs (one simulation per
// task) across threads. Deliberately simple: one locked FIFO queue, no work
// stealing — sweep points are coarse (seconds of work each), so queue
// contention is negligible and simplicity wins. Results and exceptions
// travel back through std::future.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace tcpdyn::util {

class ThreadPool {
 public:
  // Starts `threads` workers immediately (0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);
  // Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a callable; the returned future carries its result, or the
  // exception it threw. Throws std::runtime_error if the pool is stopping.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // shared_ptr because std::function requires copyable callables and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  // Number of threads to use when the caller expressed no preference: the
  // TCPDYN_JOBS environment variable if it is a whole number >= 1, else
  // hardware concurrency.
  static std::size_t default_jobs();

 private:
  void enqueue(std::function<void()> task);
  void worker();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace tcpdyn::util
