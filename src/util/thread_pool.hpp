#pragma once
// Fixed-size thread pool used by the brute-force configuration search (S3).
//
// The search evaluates hundreds of thousands of independent configurations;
// parallel_for_index() splits an index range into contiguous chunks and runs
// the body on pool threads. The pool is also exercised directly by the unit
// tests as a standalone substrate.

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
/// The body must be safe to invoke concurrently for distinct i. If a body
/// throws, the first exception is rethrown here once every chunk has
/// finished (as in parallel_for_dynamic).
/// Splits the range into fixed contiguous chunks up-front; prefer
/// parallel_for_dynamic when per-index cost is uneven.
void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& body);

/// Dynamically scheduled parallel-for: workers claim chunks of `grain`
/// consecutive indices from a shared atomic cursor, so uneven per-index
/// work (e.g. configurations with very different placement counts) cannot
/// straggle one statically assigned worker.
///
/// If `stop` is provided, it is polled before each chunk claim; once it
/// returns true no further chunks are claimed (in-flight chunks finish),
/// abandoning the rest of the range. Returns the number of indices executed
/// (== count when the loop was not stopped). A single-worker pool runs the
/// body on the calling thread, in the same claim order.
///
/// If a body throws, no further chunks are claimed, the in-flight ones
/// finish, and the first exception is rethrown on the calling thread.
std::size_t parallel_for_dynamic(ThreadPool& pool, std::size_t count,
                                 const std::function<void(std::size_t)>& body,
                                 std::size_t grain = 1,
                                 const std::function<bool()>& stop = {});

}  // namespace tfpe::util
