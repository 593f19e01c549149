// Induced subgraphs with their local -> original node-id mapping. The
// finishing pipeline (ArbMIS Algorithm 2) runs sub-algorithms on G[Vlo],
// G[Vhi], and the bad-set components; this type carries the relabeling.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace arbmis::graph {

struct Subgraph {
  Graph graph{0};
  /// to_original[local] = node id in the parent graph, ascending (so a
  /// node's local id is its position here).
  std::vector<NodeId> to_original;

  NodeId original(NodeId local) const { return to_original[local]; }
};

/// Subgraph induced by the nodes with mask[v] == true.
Subgraph induced_subgraph(GraphView g, std::span<const std::uint8_t> mask);

/// Subgraph induced by an explicit node list (need not be sorted; must not
/// contain duplicates).
Subgraph induced_subgraph(GraphView g, std::span<const NodeId> nodes);

}  // namespace arbmis::graph
