// Internals shared by the engine family: the per-engine entry points the
// solve() dispatcher fans out to, the (priority, id) comparison every
// engine must break ties with, and the contiguous-range worker harness.
// Engine code only — hosts use engine/engine.h.
#pragma once

#include <cstdint>
#include <span>

#include "engine/engine.h"
#include "graph/graph.h"
#include "sim/thread_pool.h"

namespace arbmis::engine::internal {

/// Strict weak order all engines agree on: priority ascending, node id as
/// the tiebreak. A node u "beats" v when less(u, v).
inline bool less(std::span<const std::uint64_t> priority, graph::NodeId u,
                 graph::NodeId v) noexcept {
  return priority[u] != priority[v] ? priority[u] < priority[v] : u < v;
}

/// Data-parallel harness over contiguous node ranges, run on
/// sim::ThreadPool::shared(). Every phase dispatched through run_ranges()
/// is a barrier: the body must read only state written before the call
/// and write only slots no other range touches (or same-value relaxed
/// atomics), which is what makes the engines thread-count-invariant by
/// construction.
class Workers {
 public:
  /// Phases over fewer items than this run on the calling thread. Set by
  /// measurement (EXPERIMENTS.md E1): at 4096 the default's 4096-node row
  /// read 3-4x slower than serial in 3 of 10 runs; from 16384 items up
  /// the pool pays.
  static constexpr graph::NodeId kPoolGrain = 16384;

  /// `ranges` (>= 1) per phase: num_ranges(options).
  explicit Workers(std::uint32_t ranges) : count_(ranges) {}

  /// The number of ranges a phase is cut into.
  std::uint32_t count() const noexcept { return count_; }

  /// Invokes body(range, begin, end) once per range index in
  /// [0, count()) over a static partition of [0, n); a range may be
  /// empty. Below kPoolGrain items the ranges run one after another on
  /// the calling thread; the ranges, and so the results, are the same
  /// either way.
  template <typename Body>
  void run_ranges(graph::NodeId n, const Body& body) {
    const std::uint64_t ranges = count_;
    const auto range = [&](std::uint32_t r) {
      body(r, static_cast<graph::NodeId>(std::uint64_t{n} * r / ranges),
           static_cast<graph::NodeId>(std::uint64_t{n} * (r + 1) / ranges));
    };
    if (count_ == 1 || n < kPoolGrain) {
      for (std::uint32_t r = 0; r < count_; ++r) range(r);
      return;
    }
    sim::ThreadPool::shared().run(count_, range);
  }

 private:
  std::uint32_t count_;
};

EngineResult solve_tas(graph::GraphView g, const EngineOptions& options,
                       std::span<const std::uint64_t> priority);
EngineResult solve_greedy(graph::GraphView g,
                          std::span<const std::uint64_t> priority);

}  // namespace arbmis::engine::internal
