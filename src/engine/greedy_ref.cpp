// Engine (b): sequential greedy reference oracle.
//
// One pass over the nodes in (priority, id) order; a node joins unless a
// neighbor already did. This is the definition of the lexicographically-
// first MIS the parallel engine must reproduce, and — handed the same
// order — it matches mis::greedy_mis(g, order) decision for decision (the
// engine-vs-simulator differential row in tests/test_engine.cpp).
#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "engine/internal.h"

namespace arbmis::engine::internal {

EngineResult solve_greedy(graph::GraphView g,
                          std::span<const std::uint64_t> priority) {
  EngineResult result;
  result.in_mis.assign(g.num_nodes(), 0);
  result.rounds = 1;
  std::vector<std::uint8_t> blocked(g.num_nodes(), 0);
  for (const graph::NodeId v : priority_order(priority)) {
    if (blocked[v] != 0) continue;
    result.in_mis[v] = 1;
    for (const graph::NodeId w : g.neighbors(v)) blocked[w] = 1;
  }
  return result;
}

}  // namespace arbmis::engine::internal
