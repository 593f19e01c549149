#include "sim/thread_pool.h"

#include <algorithm>

namespace arbmis::sim {

namespace {

/// The pool whose task this thread is running, if any: a run() on it from
/// here goes inline. Set for good on a worker, and for the length of a
/// dispatch on its caller.
thread_local const ThreadPool* tl_inside = nullptr;

/// How many times a waiting participant polls before it sleeps, about
/// 190 us on the reference host (one poll, a load and a pause, takes
/// 19 ns there). A solve's phases follow each other within that, so its
/// workers stay awake through it: an empty dispatch to 3 workers took
/// 1.0-1.1 us with the poll and 3.6-12 us without one, and perfbench
/// `engine` read lower with a 200 us poll than with a 50 us one in 13 of
/// 16 alternated pairs (EXPERIMENTS.md E1). A count, not a clock:
/// wall-clock time stays out of the simulator's modules.
constexpr int kPolls = 10'000;

void relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns once `word` no longer holds `value`: polls it kPolls times,
/// then sleeps in std::atomic::wait.
void await_change(const std::atomic<std::uint32_t>& word,
                  std::uint32_t value) {
  for (int i = 0; i < kPolls; ++i) {
    if (word.load(std::memory_order_acquire) != value) return;
    relax();
  }
  word.wait(value, std::memory_order_acquire);
}

}  // namespace

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max<std::uint32_t>(std::thread::hardware_concurrency(), 1));
  return pool;
}

ThreadPool::ThreadPool(std::uint32_t participants)
    : participants_(participants), failures_(participants) {
  workers_.reserve(participants - 1);
  try {
    for (std::uint32_t p = 1; p < participants; ++p) {
      workers_.emplace_back([this, p] { worker_loop(p); });
    }
  } catch (...) {
    stop();  // the threads already started must not outlive the pool
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() noexcept {
  stopping_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::dispatch(std::uint32_t count, TaskRef task) {
  if (count <= 1 || participants_ == 1 || tl_inside == this) {
    const ThreadPool* const outer = tl_inside;
    tl_inside = this;
    std::exception_ptr first;
    for (std::uint32_t i = 0; i < count; ++i) {
      try {
        task.call(task.object, i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    tl_inside = outer;
    if (first) std::rethrow_exception(first);
    return;
  }
  const std::lock_guard<std::mutex> lock(callers_);
  task_ = task;
  count_ = count;
  pending_.store(participants_ - 1, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  tl_inside = this;
  run_share(0);
  tl_inside = nullptr;
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire)) {
    await_change(pending_, left);
  }
  Failure* lowest = nullptr;
  for (Failure& failure : failures_) {
    if (failure.error && (lowest == nullptr || failure.index < lowest->index)) {
      lowest = &failure;
    }
  }
  if (lowest == nullptr) return;
  const std::exception_ptr error = lowest->error;
  for (Failure& failure : failures_) failure.error = nullptr;
  std::rethrow_exception(error);
}

void ThreadPool::run_share(std::uint32_t p) noexcept {
  Failure& failure = failures_[p];
  for (std::uint64_t i = p; i < count_; i += participants_) {
    try {
      task_.call(task_.object, static_cast<std::uint32_t>(i));
    } catch (...) {
      // Ascending indices: the first throw is this participant's lowest.
      if (!failure.error) {
        failure = {static_cast<std::uint32_t>(i), std::current_exception()};
      }
    }
  }
}

void ThreadPool::worker_loop(std::uint32_t p) {
  tl_inside = this;
  std::uint32_t seen = 0;
  for (;;) {
    await_change(epoch_, seen);
    seen = epoch_.load(std::memory_order_acquire);
    if (stopping_) return;
    run_share(p);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace arbmis::sim
