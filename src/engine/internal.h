// Internals shared by the engine family: the per-engine entry points the
// solve() dispatcher fans out to, the (priority, id) comparison every
// engine must break ties with, and the contiguous-range worker harness.
// Engine code only — hosts use engine/engine.h.
#pragma once

#include <cstdint>
#include <memory>
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

/// Data-parallel harness over contiguous node ranges. 0 and 1 workers run
/// the body inline over one range; otherwise a sim::ThreadPool executes one
/// static range per worker. Every phase dispatched through run_ranges() is
/// a barrier: the body must read only state written before the call and
/// write only slots no other range touches (or same-value relaxed
/// atomics), which is what makes the engines thread-count-invariant by
/// construction.
class Workers {
 public:
  /// Phases over fewer items than this run on the calling thread. Set by
  /// measurement: one pool dispatch costs about as much as testing a few
  /// thousand frontier nodes.
  static constexpr graph::NodeId kPoolGrain = 4096;

  explicit Workers(std::uint32_t num_threads) {
    if (num_threads >= 2) {
      pool_ = std::make_unique<sim::ThreadPool>(num_threads);
    }
  }

  std::uint32_t count() const noexcept {
    return pool_ == nullptr ? 1 : pool_->num_workers();
  }

  /// Invokes body(worker, begin, end) once per worker index in
  /// [0, count()) over a static partition of [0, n); a range may be empty.
  /// Below kPoolGrain items the ranges run one after another on the
  /// calling thread, since waking the pool costs more than the work; the
  /// ranges, and so the results, are the same either way.
  template <typename Body>
  void run_ranges(graph::NodeId n, const Body& body) {
    const std::uint64_t workers = count();
    const auto range = [&](std::uint32_t w) {
      body(w, static_cast<graph::NodeId>(std::uint64_t{n} * w / workers),
           static_cast<graph::NodeId>(std::uint64_t{n} * (w + 1) / workers));
    };
    if (pool_ == nullptr || n < kPoolGrain) {
      for (std::uint32_t w = 0; w < workers; ++w) range(w);
      return;
    }
    pool_->run(range);
  }

 private:
  std::unique_ptr<sim::ThreadPool> pool_;
};

EngineResult solve_tas(graph::GraphView g, const EngineOptions& options,
                       std::span<const std::uint64_t> priority);
EngineResult solve_greedy(graph::GraphView g,
                          std::span<const std::uint64_t> priority);

}  // namespace arbmis::engine::internal
