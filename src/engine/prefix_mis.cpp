// Engine (b): priority/reservation-based parallel randomized greedy MIS
// with rootset-prefix processing (Blelloch et al., "Greedy sequential
// maximal independent set and matching are parallel on average"; depth
// bound by Fischer–Noever, arXiv:1707.05124).
//
// Nodes are sorted by (priority, id) and consumed in prefixes. Within the
// active prefix, a node is a *root* when every neighbor earlier in the
// order is already decided; roots join the MIS (no two adjacent nodes can
// both be roots) and cover their neighbors. Iterating rootsets until the
// prefix is fully decided reproduces, node for node, what sequential
// greedy over the same order decides — so the fixpoint is again the
// lexicographically-first MIS w.r.t. (priority, id), and the total rootset
// iteration count is the dependency depth of the greedy chain.
//
// Parallel phases read only the decided[] snapshot frozen at the previous
// barrier and write either their own slot or same-value relaxed covered
// marks, so the output is byte-identical across thread counts.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "engine/internal.h"

namespace arbmis::engine::internal {

namespace {
enum : std::uint8_t { kUndecided = 0, kMember = 1, kCovered = 2 };
}  // namespace

EngineResult solve_prefix(graph::GraphView g, const EngineOptions& options,
                          std::span<const std::uint64_t> priority) {
  const graph::NodeId n = g.num_nodes();
  EngineResult result;
  result.in_mis.assign(n, 0);
  if (n == 0) return result;

  const std::vector<graph::NodeId> order = priority_order(priority);
  // rank[v] = position of v in the greedy order; the root test compares
  // ranks instead of re-deriving (priority, id) per edge.
  std::vector<std::uint32_t> rank(n);
  for (graph::NodeId i = 0; i < n; ++i) rank[order[i]] = i;

  std::vector<std::atomic<std::uint8_t>> decided(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    decided[v].store(kUndecided, std::memory_order_relaxed);
  }
  std::vector<std::uint8_t> is_root(n, 0);

  // Nodes per rootset prefix.
  const std::uint32_t prefix_size = std::max<std::uint32_t>(1024, n / 16);
  Workers workers(options.num_threads);

  for (graph::NodeId lo = 0; lo < n; lo += prefix_size) {
    const auto hi = static_cast<graph::NodeId>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(lo) + prefix_size, n));
    const graph::NodeId span = hi - lo;
    std::uint64_t undecided = 0;
    for (graph::NodeId i = lo; i < hi; ++i) {
      undecided +=
          decided[order[i]].load(std::memory_order_relaxed) == kUndecided;
    }
    while (undecided > 0) {
      ++result.rounds;

      // Rootset detection: i-th order slot is a root iff node order[i] is
      // undecided and no undecided neighbor precedes it in the order.
      // Reads the decided snapshot only; writes is_root[i - lo], own slot.
      workers.run_ranges(span, [&](std::uint32_t, graph::NodeId begin,
                                   graph::NodeId end) {
        for (graph::NodeId s = begin; s < end; ++s) {
          const graph::NodeId v = order[lo + s];
          if (decided[v].load(std::memory_order_relaxed) != kUndecided) {
            is_root[s] = 0;
            continue;
          }
          bool root = true;
          for (const graph::NodeId w : g.neighbors(v)) {
            if (rank[w] < rank[v] &&
                decided[w].load(std::memory_order_relaxed) == kUndecided) {
              root = false;
              break;
            }
          }
          is_root[s] = root ? 1 : 0;
        }
      });

      // Commit: roots join, neighbors get covered. A covered neighbor can
      // never already be a member (it would have covered the root first),
      // so the concurrent relaxed stores all write kCovered — same value.
      workers.run_ranges(span, [&](std::uint32_t, graph::NodeId begin,
                                   graph::NodeId end) {
        for (graph::NodeId s = begin; s < end; ++s) {
          if (is_root[s] == 0) continue;
          const graph::NodeId v = order[lo + s];
          result.in_mis[v] = 1;
          decided[v].store(kMember, std::memory_order_relaxed);
          for (const graph::NodeId w : g.neighbors(v)) {
            if (decided[w].load(std::memory_order_relaxed) == kUndecided) {
              decided[w].store(kCovered, std::memory_order_relaxed);
            }
          }
        }
      });

      undecided = 0;
      for (graph::NodeId i = lo; i < hi; ++i) {
        undecided +=
            decided[order[i]].load(std::memory_order_relaxed) == kUndecided;
      }
    }
  }
  return result;
}

}  // namespace arbmis::engine::internal
