// Edge orientations and forest partitions.
//
// The paper's analysis fixes an orientation of an arboricity-α graph in
// which every node has at most α out-neighbors ("parents"); the algorithm
// itself never sees it. This module provides:
//
//   * the degeneracy orientation (out-degree <= degeneracy <= 2α-1), used by
//     the read-k event kernels and invariant audits, and
//   * partition of out-edges into forests (out-edge index -> forest), the
//     primitive behind Barenboim–Elkin style decompositions and the
//     Cole–Vishkin finishing step.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace arbmis::graph {

/// An acyclic orientation stored as parent lists: parents(v) are the
/// out-neighbors of v. children(v) is the inverse view.
class Orientation {
 public:
  Orientation(GraphView g, std::vector<std::vector<NodeId>> parents);

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(parents_.size());
  }

  std::span<const NodeId> parents(NodeId v) const noexcept {
    return parents_[v];
  }
  std::span<const NodeId> children(NodeId v) const noexcept {
    return children_[v];
  }

  /// Maximum out-degree over all nodes — an arboricity witness when the
  /// orientation is acyclic (α <= max out-degree ... within a factor 2).
  NodeId max_out_degree() const noexcept { return max_out_degree_; }

  /// True if the directed graph has no directed cycle.
  bool is_acyclic() const;

 private:
  std::vector<std::vector<NodeId>> parents_;
  std::vector<std::vector<NodeId>> children_;
  NodeId max_out_degree_ = 0;
};

/// Orients every edge from the endpoint earlier in the degeneracy order to
/// the later one; each node then has at most `degeneracy(g)` parents. This
/// is the orientation the paper's analysis assumes (with α replaced by the
/// degeneracy, which is < 2α).
Orientation degeneracy_orientation(GraphView g);

/// Orients every edge from the smaller id to the larger id; out-degree can
/// be large, but the orientation is trivially acyclic. Used in tests.
Orientation id_orientation(GraphView g);

/// A partition of the edge set into rooted forests. forest_parent[f][v] is
/// v's parent in forest f, or kNoParent.
inline constexpr NodeId kNoParent = ~NodeId{0};

struct ForestPartition {
  /// forest_parent[f][v]: parent of v in forest f (kNoParent if none).
  std::vector<std::vector<NodeId>> forest_parent;

  NodeId num_forests() const noexcept {
    return static_cast<NodeId>(forest_parent.size());
  }

  /// Total number of (v, parent) pairs across forests == edges covered.
  std::uint64_t num_edges() const noexcept;
};

/// Splits the orientation's out-edges by local index: v's i-th parent goes
/// to forest i. Yields exactly max_out_degree() forests, each a forest
/// because every node has <= 1 parent per index and the orientation is
/// acyclic. Requires an acyclic orientation.
ForestPartition forests_from_orientation(GraphView g,
                                         const Orientation& orientation);

/// Checks that `partition` covers each edge of g exactly once and that each
/// forest is acyclic with in-tree parent pointers. Used by tests.
bool valid_forest_partition(GraphView g, const ForestPartition& partition);

}  // namespace arbmis::graph
