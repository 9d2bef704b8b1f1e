#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace tfpe::util {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !error_) error_ = std::move(error);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_dynamic(ThreadPool& pool, std::size_t count,
                          const std::function<void(std::size_t)>& body,
                          std::size_t grain) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  if (pool.size() == 1) {
    // One worker would claim every chunk in order anyway: run them on the
    // calling thread and skip the cross-thread submit/wait.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  const std::size_t chunks = (count + grain - 1) / grain;
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), chunks);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([&cursor, &failed, &body, count, grain] {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) return;
        const std::size_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= count) return;
        const std::size_t end = std::min(count, begin + grain);
        try {
          for (std::size_t i = begin; i < end; ++i) body(i);
        } catch (...) {
          // Stop the other workers claiming; the pool carries the
          // exception to wait_idle() below.
          failed.store(true, std::memory_order_relaxed);
          throw;
        }
      }
    });
  }
  pool.wait_idle();
}

}  // namespace tfpe::util
