// A small fixed-size thread pool plus a deterministic parallel_for.
//
// The cluster simulator uses this to run independent per-machine work in
// parallel. Work items never share mutable state (BSP staging), so the pool
// only needs fork/join semantics; results are merged in machine order by the
// caller, keeping every run bit-identical regardless of thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lazygraph {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs body(i) for i in [0, n), blocking until all complete.
  /// Exceptions from body are rethrown (first one wins).
  /// Re-entrant calls from one of this pool's own workers execute inline on
  /// the calling thread instead of enqueueing helper tasks (a nested join
  /// could otherwise starve with every worker blocked inside one).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// Serial fallback with the same signature; used when determinism of
/// *execution order* (not just results) is wanted, e.g. in tests.
void serial_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Process-wide pool for the setup path (ingest -> partition -> build).
/// Created on first use with hardware_concurrency workers and shared by
/// every setup-stage API; each call bounds its own parallelism by splitting
/// work into `ranges` slices (see parallel_ranges), so a wide pool never
/// forces wide execution. Engines keep using their Cluster-owned pools.
ThreadPool& setup_pool();

/// Resolves a user-facing thread-count knob: 0 means hardware concurrency,
/// anything else passes through.
std::size_t resolve_setup_threads(std::size_t threads);

/// Splits [0, n) into `ranges` contiguous slices and runs
/// body(range_index, begin, end) for every non-empty slice, on setup_pool()
/// when ranges > 1 (inline otherwise). The decomposition depends only on
/// (n, ranges), and callers merge per-range results in range order (or use
/// commutative folds), so results are bit-identical for any pool width.
void parallel_ranges(
    std::size_t n, std::size_t ranges,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace lazygraph
