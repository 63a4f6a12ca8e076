#include "common/executor.hpp"

#include <algorithm>

#include "common/telemetry.hpp"
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace gapart {

namespace {

/// Shared state of one parallel_for: threads claim disjoint index ranges via
/// `next` and account completion via `done`; the issuing thread blocks until
/// done == n.  Lives on the heap (shared_ptr) because helper tasks may still
/// be queued — and harmlessly find no work — after the issuing call returned.
struct LoopState {
  std::function<void(std::size_t)> fn;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;

  void drain() {
    for (;;) {
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + grain, n);
      // After a failure the remaining ranges are claimed but skipped so the
      // loop still reaches done == n and the caller can rethrow.
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          for (std::size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      const std::size_t finished =
          done.fetch_add(end - begin, std::memory_order_acq_rel) +
          (end - begin);
      if (finished == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

Executor::Executor(int num_threads) {
  const int workers = std::max(num_threads, 1) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // Workers drain the queue before exiting; a worker-less pool has to drain
  // on this thread to honour the "destructor drains the queue" contract.
  if (workers_.empty()) {
    while (run_one()) {
    }
  }
  for (auto& w : workers_) w.join();
}

int Executor::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void Executor::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) done_cv_.notify_all();
    }
  }
}

bool Executor::run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (--outstanding_ == 0) done_cv_.notify_all();
  }
  return true;
}

void Executor::submit(std::function<void()> task) {
#ifdef GAPART_TELEMETRY
  // Wrap the closure so the queue wait (submit -> first instruction) and the
  // run time land in the pool histograms.  The wrap is one extra allocation
  // and three clock reads per task — noise against the millisecond-scale
  // refinement jobs submit() carries (parallel_for helpers take enqueue()
  // directly and stay unwrapped).
  const double submitted_at = telemetry_now_seconds();
  task = [inner = std::move(task), submitted_at]() {
    const double started_at = telemetry_now_seconds();
    GAPART_HISTOGRAM_RECORD("executor.queue_wait_seconds",
                            started_at - submitted_at);
    inner();
    GAPART_HISTOGRAM_RECORD("executor.task_seconds",
                            telemetry_now_seconds() - started_at);
  };
#endif
  enqueue(std::move(task));
}

void Executor::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  done_cv_.notify_all();  // a wait()er helps too
}

int Executor::pending() const {
  return outstanding_.load(std::memory_order_relaxed);
}

void Executor::wait() {
  // Help until every task has finished, not only until the queue first runs
  // dry: a task that is already running enqueues its parallel_for helpers
  // later, and a waiter asleep through them would leave that loop a thread
  // short.  Helping also keeps wait() from deadlocking on a pool of size 1.
  std::unique_lock<std::mutex> lock(mu_);
  while (outstanding_ > 0) {
    if (queue_.empty()) {
      done_cv_.wait(lock);  // woken by the last finish or by an enqueue
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
    if (--outstanding_ == 0) done_cv_.notify_all();
  }
}

void Executor::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn,
                            std::size_t grain) {
  if (workers_.empty() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->fn = fn;
  state->n = n;
  if (grain == 0) {
    // ~4 ranges per thread balances load without shredding cache locality.
    grain = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(num_threads()) * 4));
  }
  state->grain = grain;

  const std::size_t ranges = (n + grain - 1) / grain;
  const std::size_t helpers =
      std::min(workers_.size(), ranges > 0 ? ranges - 1 : 0);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([state] { state->drain(); });
  }

  state->drain();  // the issuing thread always participates

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void Executor::run_tasks(const std::vector<std::function<void()>>& tasks) {
  parallel_for(
      tasks.size(), [&tasks](std::size_t i) { tasks[i](); },
      /*grain=*/1);
}

}  // namespace gapart
