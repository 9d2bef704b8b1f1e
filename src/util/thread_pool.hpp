#pragma once
// Fixed-size thread pool used by the configuration search (S3) and the
// scan driver.
//
// The search evaluates hundreds of thousands of independent configurations;
// parallel_for_dynamic() hands an index range to the pool threads in
// dynamically claimed chunks. The pool is also exercised directly by the
// unit tests as a standalone substrate.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tfpe::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. A task that throws does not take its worker down:
  /// the first exception since the last wait_idle() is kept (later ones
  /// are dropped) and rethrown by wait_idle() on the calling thread.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished, then rethrow the first
  /// exception a task threw since the previous wait_idle(), if any.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  std::exception_ptr error_;  ///< first task exception, guarded by mutex_
  bool stop_ = false;
};

/// Run body(i) for i in [0, count) across the pool, blocking until done.
/// The body must be safe to invoke concurrently for distinct i. Workers
/// claim chunks of `grain` consecutive indices from a shared atomic
/// cursor, so uneven per-index work (e.g. configurations with very
/// different placement counts) cannot straggle one statically assigned
/// worker. A single-worker pool runs the body on the calling thread, in
/// the same claim order.
///
/// If a body throws, no further chunks are claimed, the in-flight ones
/// finish, and the first exception is rethrown on the calling thread.
void parallel_for_dynamic(ThreadPool& pool, std::size_t count,
                          const std::function<void(std::size_t)>& body,
                          std::size_t grain = 1);

}  // namespace tfpe::util
