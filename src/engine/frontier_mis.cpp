// Engine (a): test-and-set MIS by frontier rounds.
//
// Round-synchronous local-minima elimination over static priorities: every
// alive node whose (priority, id) beats all alive neighbors joins the MIS
// and clears its neighborhood out of the alive set. Two adjacent nodes can
// never both be local minima, so joins are conflict-free; the only
// concurrent writes are same-value relaxed stores of 0 into the alive
// flags, which is why the engine is lock-free AND byte-identical across
// thread counts: each round's decisions read a snapshot frozen at the
// round barrier.
//
// Because priorities never change between rounds, the fixpoint is exactly
// the lexicographically-first MIS w.r.t. the (priority, id) order — the
// same set sequential greedy over that order produces — while the round
// count is the parallel dependency depth, O(log n) w.h.p. for random
// priorities (Fischer–Noever, arXiv:1707.05124).
//
// Frontier rounds: the ids still alive are kept ascending in a frontier
// array, so a round touches only those nodes and their rows, never all n.
// A round is two barriers. First, each worker compacts its contiguous
// range of the frontier down to the nodes still alive and tests each
// survivor; the ranges are then joined in order, and the joined length is
// the alive count. Second, each worker commits the winners its range
// found. The loop ends when the compaction leaves nothing alive.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "engine/engine.h"
#include "engine/internal.h"

namespace arbmis::engine::internal {

namespace {

/// Rows up to this length are tested branch-free, as an OR over the row;
/// longer rows (the hubs, every row of a dense graph) keep the early exit.
/// Both halves are measured (EXPERIMENTS.md E1): on the engine workload's
/// hubbed_forest_union(2^16, 2, 64) the early exit alone is slower, and
/// on dense graphs an OR over every row is 30-150x slower. Cutoffs 4 to
/// 64 read alike.
constexpr std::size_t kBranchFreeRow = 16;

/// True when no alive neighbor of v precedes it in the (priority, id) order.
bool is_local_min(graph::GraphView g, std::span<const std::uint64_t> priority,
                  const std::vector<std::atomic<std::uint8_t>>& alive,
                  graph::NodeId v) {
  const std::span<const graph::NodeId> row = g.neighbors(v);
  if (row.size() > kBranchFreeRow) {
    for (const graph::NodeId w : row) {
      if (alive[w].load(std::memory_order_relaxed) != 0 &&
          less(priority, w, v)) {
        return false;
      }
    }
    return true;
  }
  const std::uint64_t pv = priority[v];
  std::uint32_t beaten = 0;
  for (const graph::NodeId w : row) {
    const std::uint64_t pw = priority[w];
    beaten |= alive[w].load(std::memory_order_relaxed) &
              static_cast<std::uint32_t>((pw < pv) | ((pw == pv) & (w < v)));
  }
  return beaten == 0;
}

/// One worker's part of a round: its frontier range starts at `begin`,
/// `kept` of its ids were still alive, and winners[begin, begin + won)
/// holds those that won.
struct Share {
  graph::NodeId begin = 0;
  graph::NodeId kept = 0;
  graph::NodeId won = 0;
};

}  // namespace

// Cache-line aligned, so the round loop's placement does not depend on
// the size of the code linked before it: unaligned, bench_engine's
// 4096-node row read 21-29% slower when only that code changed
// (EXPERIMENTS.md E1).
[[gnu::aligned(64)]] EngineResult solve_tas(
    graph::GraphView g, const EngineOptions& options,
    std::span<const std::uint64_t> priority) {
  const graph::NodeId n = g.num_nodes();
  // The ids are allocated after the round state: allocated before it,
  // the 4096-node solve read 6-16% slower (heap layout; EXPERIMENTS.md E1).
  std::vector<std::atomic<std::uint8_t>> alive(n);
  std::vector<graph::NodeId> winners(n);
  Workers workers(options.num_threads);
  std::vector<Share> shares(workers.count());
  EngineResult result;
  result.in_mis.assign(n, 0);
  for (auto& flag : alive) flag.store(1, std::memory_order_relaxed);
  std::vector<graph::NodeId> frontier(n);
  std::iota(frontier.begin(), frontier.end(), graph::NodeId{0});

  graph::NodeId size = n;
  while (true) {
    // Compact and test. Each worker keeps the alive ids of its range in
    // place, then records the local minima among them at the start of the
    // same range of `winners`. Reads the alive snapshot only.
    workers.run_ranges(size, [&](std::uint32_t worker, graph::NodeId begin,
                                 graph::NodeId end) {
      graph::NodeId kept = begin;
      for (graph::NodeId i = begin; i < end; ++i) {
        const graph::NodeId v = frontier[i];
        frontier[kept] = v;
        kept += alive[v].load(std::memory_order_relaxed);
      }
      graph::NodeId won = begin;
      for (graph::NodeId i = begin; i < kept; ++i) {
        const graph::NodeId v = frontier[i];
        winners[won] = v;
        won += is_local_min(g, priority, alive, v);
      }
      shares[worker] = {begin, kept - begin, won - begin};
    });

    // Join the ranges' survivors in order; the joined length is the
    // alive count.
    size = 0;
    for (const Share& share : shares) {
      if (share.begin != size) {
        std::copy_n(frontier.begin() + share.begin, share.kept,
                    frontier.begin() + size);
      }
      size += share.kept;
    }
    if (size == 0) break;
    ++result.rounds;

    // Commit: each worker's winners join and clear their own flag and
    // their row's. Concurrent stores all write 0, so the final flags are
    // schedule-independent. The ranges go unused: `size` only decides
    // whether the phase wakes the pool.
    workers.run_ranges(size, [&](std::uint32_t worker, graph::NodeId,
                                 graph::NodeId) {
      const Share& share = shares[worker];
      for (graph::NodeId i = share.begin; i < share.begin + share.won; ++i) {
        const graph::NodeId v = winners[i];
        result.in_mis[v] = 1;
        alive[v].store(0, std::memory_order_relaxed);
        for (const graph::NodeId w : g.neighbors(v)) {
          alive[w].store(0, std::memory_order_relaxed);
        }
      }
    });
  }
  return result;
}

}  // namespace arbmis::engine::internal
