#include "graph/subgraph.h"

#include <algorithm>

namespace arbmis::graph {

namespace {

constexpr NodeId kNotInSubgraph = ~NodeId{0};

Subgraph build_from_nodes(GraphView g, std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  Subgraph out;
  out.to_original = std::move(nodes);
  // original -> local, alive only while the edges are filtered.
  std::vector<NodeId> to_local(g.num_nodes(), kNotInSubgraph);
  for (NodeId local = 0; local < out.to_original.size(); ++local) {
    to_local[out.to_original[local]] = local;
  }
  Builder b(static_cast<NodeId>(out.to_original.size()));
  for (NodeId local = 0; local < out.to_original.size(); ++local) {
    const NodeId v = out.to_original[local];
    for (NodeId w : g.neighbors(v)) {
      const NodeId w_local = to_local[w];
      if (w_local != kNotInSubgraph && local < w_local) {
        b.add_edge(local, w_local);
      }
    }
  }
  out.graph = b.build();
  return out;
}

}  // namespace

Subgraph induced_subgraph(GraphView g, std::span<const std::uint8_t> mask) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (mask[v]) nodes.push_back(v);
  }
  return build_from_nodes(g, std::move(nodes));
}

Subgraph induced_subgraph(GraphView g, std::span<const NodeId> nodes) {
  return build_from_nodes(g, std::vector<NodeId>(nodes.begin(), nodes.end()));
}

}  // namespace arbmis::graph
