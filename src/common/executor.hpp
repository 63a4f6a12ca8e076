// Persistent thread-pool executor shared by every parallel code path in
// gapart (batched offspring evaluation, DPGA island bursts, benches).
//
// Design constraints, in priority order:
//   1. Bit-reproducibility: parallel results must be identical to serial
//      results for the same seed at ANY thread count.  The executor therefore
//      provides order-independent primitives only — parallel_for over
//      independent indices and run_tasks over independent closures — and no
//      work stealing between logically distinct tasks.  Reductions are the
//      caller's job and must be performed serially (all call-sites in gapart
//      do so).
//   2. Deadlock freedom under nesting: the calling thread always participates
//      in the work, so a parallel_for issued from inside a pool task (e.g. a
//      GaEngine stepping inside a DPGA island burst) completes even when every
//      worker is busy.
//   3. Zero per-use thread churn: workers are spawned once and live for the
//      executor's lifetime; a burst of parallel_for calls costs only queue
//      operations, not thread creation (the fork-join-per-burst pattern this
//      replaces spawned a fresh std::thread per island per burst).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gapart {

class Executor {
 public:
  /// `num_threads` is the total parallelism including the calling thread, so
  /// Executor(1) spawns no workers and runs everything inline, and
  /// Executor(4) spawns 3 workers.  Values < 1 are clamped to 1.
  explicit Executor(int num_threads);

  /// Drains the queue and joins all workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Total parallelism (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Sensible default for this machine (>= 1).
  static int hardware_threads();

  /// Runs fn(i) for every i in [0, n), distributing index ranges over the
  /// pool; the calling thread participates.  Blocks until all n calls have
  /// completed.  fn must be safe to invoke concurrently for distinct indices
  /// and must not touch shared mutable state without its own synchronization.
  /// The first exception thrown by fn is rethrown on the calling thread after
  /// the loop has drained.  `grain` is the number of consecutive indices a
  /// thread claims at a time (0 = choose automatically).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

  /// Runs every closure in `tasks` exactly once (caller participates) and
  /// blocks until all have completed.  Closure i is always item i — there is
  /// no stealing of a started task — so per-task state (e.g. one RNG stream
  /// per DPGA island) lands deterministically regardless of scheduling.
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  /// Fire-and-forget: enqueues `task` for some worker (or a later wait()er)
  /// to execute.  Pair with wait().  Telemetry builds record each submitted
  /// task's queue wait and run time into the `executor.queue_wait_seconds` /
  /// `executor.task_seconds` histograms (parallel_for's internal helper
  /// tasks bypass the instrumentation — they are sub-slices of an already
  /// measured caller, and per-helper clock reads would tax the hot loops).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.  The calling thread
  /// helps drain the queue while waiting, tasks enqueued after the call
  /// included (a running task's parallel_for helpers), so a waiter adds a
  /// thread to whatever runs meanwhile.
  void wait();

  /// Tasks currently queued or executing — a monitoring gauge (the service
  /// layer reports it as backlog), racy by nature: the value may be stale
  /// by the time the caller reads it.  Wait-free (a relaxed atomic load),
  /// so high-frequency samplers never contend with task dispatch.
  int pending() const;

 private:
  void worker_loop();
  /// Pops and runs one queued task if available; returns false when idle.
  bool run_one();
  /// Raw enqueue without telemetry wrapping (parallel_for helpers).
  void enqueue(std::function<void()> task);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals queue_ non-empty or stop_
  std::condition_variable done_cv_;   ///< outstanding_ hit zero, or an enqueue
  std::deque<std::function<void()>> queue_;
  /// Queued + currently executing tasks.  Atomic so pending() can read it
  /// without mu_; all writes still happen under mu_ because done_cv_ waiters
  /// check it as their predicate.
  std::atomic<int> outstanding_{0};
  bool stop_ = false;
};

}  // namespace gapart
