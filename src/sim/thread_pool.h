// The process-wide worker pool. The engines' range phases
// (engine/internal.h), the simulator's pool lanes (sim/network.h) and the
// readk trial grid (readk/trial_grid.h) all borrow ThreadPool::shared();
// none builds a pool of its own.
//
// Participants. The pool has P participants, P =
// std::thread::hardware_concurrency() (1 if that reports 0). The thread
// that calls run() is participant 0 and runs its own share; the pool owns
// the other P - 1 threads, created on first use and joined at exit.
//
// Partition. run(count, task) calls task(i) once for every i in
// [0, count); participant p takes i = p, p + P, p + 2P, ... in ascending
// order. A count is therefore a partition of the work, not a number of OS
// threads: a caller whose result depends only on how it cut the work
// (contiguous ranges, lanes merged in order, blocks folded in order) gets
// the same bytes on every host, whatever P is.
//
// Dispatch. Workers wait on a dispatch epoch, which run() advances, and
// report completion by counting down an atomic the caller waits on. A
// waiter polls its atomic a bounded number of times (about 190 us on the
// reference host), then parks in std::atomic::wait; nothing spins
// unbounded. No mutex or condition variable stands between a caller and
// its workers; one mutex only serializes concurrent pooled run() callers,
// so two threads dispatching at once take turns.
//
// Exception contract: a task may throw. Every index still runs once per
// dispatch, also after a lower index threw, and run() rethrows the
// exception of the *lowest* throwing index — a deterministic choice, so a
// run that violates the CONGEST budget aborts with the same exception no
// matter how the OS scheduled the participants.
//
// Reentrancy: a run() from inside a task of this pool, on any participant,
// runs its indices inline on that thread, in ascending order and with the
// same exception contract, so it cannot deadlock.
//
// Fork: a child process forked while the pool exists has none of its
// workers and must not call run().
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace arbmis::sim {

class ThreadPool {
 public:
  /// The process-wide pool, created on first use.
  static ThreadPool& shared();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// P: the calling thread plus the pool's own threads.
  std::uint32_t participants() const noexcept { return participants_; }

  /// Calls task(i) for every i in [0, count), participant p taking
  /// i = p, p + P, ... in ascending order, and returns when all have
  /// returned. Rethrows the lowest throwing index's exception, if any.
  template <typename Task>
  void run(std::uint32_t count, const Task& task) {
    dispatch(count, TaskRef{&task, [](const void* object, std::uint32_t i) {
                              (*static_cast<const Task*>(object))(i);
                            }});
  }

 private:
  /// A borrowed callable: no allocation and one indirect call per index.
  struct TaskRef {
    const void* object = nullptr;
    void (*call)(const void*, std::uint32_t) = nullptr;
  };
  /// The lowest index a participant saw throw in the current dispatch.
  struct Failure {
    std::uint32_t index = 0;
    std::exception_ptr error;
  };

  explicit ThreadPool(std::uint32_t participants);

  void dispatch(std::uint32_t count, TaskRef task);
  /// Wakes every worker to exit and joins it.
  void stop() noexcept;
  /// Runs participant p's indices of the current dispatch.
  void run_share(std::uint32_t p) noexcept;
  void worker_loop(std::uint32_t p);

  const std::uint32_t participants_;
  std::mutex callers_;  ///< serializes concurrent run() callers, nothing else
  // The current dispatch: written by the caller before it advances
  // epoch_, read by the workers after they see the new epoch, and left
  // alone until pending_ reaches 0.
  TaskRef task_;
  std::uint32_t count_ = 0;
  bool stopping_ = false;
  std::vector<Failure> failures_;  ///< slot p written by participant p only
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  alignas(64) std::atomic<std::uint32_t> pending_{0};  ///< workers not done
  std::vector<std::thread> workers_;  ///< last: the threads use the above
};

}  // namespace arbmis::sim
