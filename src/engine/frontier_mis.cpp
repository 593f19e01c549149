// Engines (a) and (b): MIS by frontier rounds. kTestAndSet runs the rounds
// once over every node; kPrefixGreedy runs the same rounds one priority
// window at a time.
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
// Frontier rounds: the ids still to decide are kept in a frontier array,
// so a round touches only those nodes and their rows, never all n. A
// round is two barriers. First, each worker compacts its contiguous range
// of the frontier down to the nodes still alive and tests each survivor;
// the ranges are then joined in order, and the joined length is the alive
// count. Second, each worker commits the winners its range found. The
// loop ends when the compaction leaves nothing alive.
//
// Priority windows (Blelloch et al., "Greedy sequential maximal
// independent set and matching are parallel on average"): kPrefixGreedy
// sorts the ids by (priority, id) and runs the rounds over successive
// windows of that order, each until none of its ids is alive. Every
// earlier window is then fully decided and no later id precedes a window's
// ids, so the test within a window is the greedy rootset test and the set
// is the same; the rounds add up the windows' depths.
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

/// One solve's rounds. The alive flags, the winners scratch, the workers
/// and their shares are built once and kept across run() calls, and every
/// call adds its members and rounds to `result`.
struct FrontierRounds {
  FrontierRounds(graph::GraphView graph,
                 std::span<const std::uint64_t> priorities,
                 std::uint32_t num_threads)
      : g(graph),
        priority(priorities),
        alive(g.num_nodes()),
        winners(g.num_nodes()),
        workers(num_threads),
        shares(workers.count()) {
    result.in_mis.assign(g.num_nodes(), 0);
    for (auto& flag : alive) flag.store(1, std::memory_order_relaxed);
  }

  /// Runs rounds over `frontier` until none of its ids is alive, and
  /// compacts it in place.
  void run(std::span<graph::NodeId> frontier) {
    auto size = static_cast<graph::NodeId>(frontier.size());
    while (true) {
      // Compact and test. Each worker keeps the alive ids of its range in
      // place, then records the local minima among them at the start of
      // the same range of `winners`. Reads the alive snapshot only.
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
      if (size == 0) return;
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
  }

  graph::GraphView g;
  std::span<const std::uint64_t> priority;
  std::vector<std::atomic<std::uint8_t>> alive;
  std::vector<graph::NodeId> winners;
  Workers workers;
  std::vector<Share> shares;
  EngineResult result;
};

}  // namespace

EngineResult solve_tas(graph::GraphView g, const EngineOptions& options,
                       std::span<const std::uint64_t> priority) {
  // The ids are allocated after the round state: allocated before it,
  // the 4096-node solve read 6-16% slower (heap layout; EXPERIMENTS.md E1).
  FrontierRounds rounds(g, priority, options.num_threads);
  std::vector<graph::NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), graph::NodeId{0});
  rounds.run(ids);
  return std::move(rounds.result);
}

EngineResult solve_prefix(graph::GraphView g, const EngineOptions& options,
                          std::span<const std::uint64_t> priority) {
  std::vector<graph::NodeId> order = priority_order(priority);
  FrontierRounds rounds(g, priority, options.num_threads);
  // The window rule: the next max(1024, n/16) ids of the priority order.
  const std::uint64_t n = order.size();
  const std::uint64_t window = std::max<std::uint64_t>(1024, n / 16);
  for (std::uint64_t lo = 0; lo < n; lo += window) {
    rounds.run(std::span(order).subspan(lo, std::min(window, n - lo)));
  }
  return std::move(rounds.result);
}

}  // namespace arbmis::engine::internal
