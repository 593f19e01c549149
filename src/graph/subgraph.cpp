#include "graph/subgraph.h"

#include <algorithm>

namespace arbmis::graph {

Subgraph induced_subgraph(GraphView g, std::span<const std::uint8_t> mask) {
  const NodeId n = g.num_nodes();
  mask = mask.first(n);
  const auto dropped = std::count(mask.begin(), mask.end(), std::uint8_t{0});
  Subgraph out;
  if (dropped == 0) {
    out.graph = g;
    return out;
  }
  const auto k = static_cast<NodeId>(n - static_cast<NodeId>(dropped));
  // original -> local; read only for kept nodes, whose rank it holds.
  std::vector<NodeId> to_local(n);
  out.to_original.reserve(k);
  std::uint64_t kept_degrees = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (mask[v] == 0) continue;
    to_local[v] = static_cast<NodeId>(out.to_original.size());
    out.to_original.push_back(v);
    kept_degrees += g.degree(v);
  }
  out.offsets_.reserve(std::size_t{k} + 1);
  out.offsets_.push_back(0);
  out.adjacency_.reserve(kept_degrees);
  NodeId max_degree = 0;
  for (const NodeId v : out.to_original) {
    for (const NodeId w : g.neighbors(v)) {
      if (mask[w] != 0) out.adjacency_.push_back(to_local[w]);
    }
    const std::uint64_t end = out.adjacency_.size();
    max_degree = std::max(max_degree,
                          static_cast<NodeId>(end - out.offsets_.back()));
    out.offsets_.push_back(end);
  }
  out.graph = GraphView(k, max_degree, out.offsets_.data(),
                        out.adjacency_.data());
  return out;
}

}  // namespace arbmis::graph
