// Induced subgraphs with their local -> original node-id mapping. The
// finishing pipeline (ArbMIS Algorithm 2) runs sub-algorithms on G[Vlo],
// G[Vhi], and the bad-set components; this type carries the relabeling.
//
// induced_subgraph is the one way to restrict a graph. Kept nodes keep
// their order, so the original -> local map is monotone and each filtered
// parent row is already sorted and duplicate-free: one pass over the kept
// rows writes the new CSR, with no edge list and no sort. A mask that keeps
// every node restricts to the parent itself — `graph` is then the parent's
// own storage and the mapping is the identity, so nothing is copied.
//
// Lifetime: `graph` is a view, either of the parent or of the Subgraph's
// own CSR. As for any GraphView, the parent's storage must outlive the
// Subgraph. The own CSR lives in heap buffers that a move hands over
// unchanged, so a moved Subgraph's view stays valid; a copy would still
// point at the source's buffers, so Subgraph is move-only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace arbmis::graph {

class Subgraph {
 public:
  Subgraph(Subgraph&&) noexcept = default;
  Subgraph& operator=(Subgraph&&) noexcept = default;
  Subgraph(const Subgraph&) = delete;
  Subgraph& operator=(const Subgraph&) = delete;

  /// The restricted graph, local ids [0, k).
  GraphView graph;
  /// to_original[local] = node id in the parent graph, ascending (so a
  /// node's local id is its position here). Empty when every node is kept:
  /// the mapping is then the identity.
  std::vector<NodeId> to_original;

  NodeId original(NodeId local) const noexcept {
    return to_original.empty() ? local : to_original[local];
  }

 private:
  friend Subgraph induced_subgraph(GraphView g,
                                   std::span<const std::uint8_t> mask);
  Subgraph() = default;

  // The CSR `graph` views when nodes were dropped; empty when `graph` is
  // the parent.
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> adjacency_;
};

/// Subgraph induced by the nodes v of g with mask[v] != 0 (mask holds at
/// least g.num_nodes() entries). g's storage must outlive the result.
Subgraph induced_subgraph(GraphView g, std::span<const std::uint8_t> mask);

/// A temporary Graph would die before the Subgraph that views it.
Subgraph induced_subgraph(const Graph&& g,
                          std::span<const std::uint8_t> mask) = delete;

}  // namespace arbmis::graph
