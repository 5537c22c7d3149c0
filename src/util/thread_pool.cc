#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/value.h"

namespace tcpdyn::util {

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stop_ set and queue drained
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // packaged_task captures any exception into the future
  }
}

std::size_t ThreadPool::default_jobs() {
  if (const char* env = std::getenv("TCPDYN_JOBS")) {
    const std::optional<double> n = number(env);
    if (n && *n >= 1.0 && fits(ValueKind::kCount, *n)) {
      return static_cast<std::size_t>(*n);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace tcpdyn::util
