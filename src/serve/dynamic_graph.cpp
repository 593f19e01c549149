#include "serve/dynamic_graph.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace arbmis::serve {

DynamicGraph::DynamicGraph(graph::Graph g)
    : current_(std::move(g)), materialized_(true) {}

DynamicGraph::DynamicGraph(graph::GraphView view, std::shared_ptr<void> owner)
    : owner_(std::move(owner)), base_view_(view) {}

std::uint64_t DynamicGraph::content_hash() const {
  if (!hash_.has_value()) hash_ = graph::content_hash(view());
  return *hash_;
}

std::uint64_t DynamicGraph::apply(std::span<const EdgeUpdate> ops) {
  // Work on a sorted unique edge list; commit by rebuilding the CSR only
  // after the whole batch validated.
  std::vector<graph::Edge> edges = view().edges();
  graph::NodeId n = view().num_nodes();
  std::uint64_t applied = 0;

  const auto find = [&edges](graph::NodeId u, graph::NodeId v) {
    if (u > v) std::swap(u, v);
    const graph::Edge e{u, v};
    return std::pair{std::lower_bound(edges.begin(), edges.end(), e), e};
  };

  for (const EdgeUpdate& op : ops) {
    switch (op.op) {
      case UpdateOp::kInsertEdge: {
        if (op.u == op.v) {
          throw ServeError(ErrorCode::kBadRequest, "insert_edge: self-loop");
        }
        if (op.u >= n || op.v >= n) {
          throw ServeError(ErrorCode::kBadRequest,
                           "insert_edge: endpoint out of range");
        }
        const auto [it, e] = find(op.u, op.v);
        if (it == edges.end() || !(*it == e)) {
          edges.insert(it, e);
          ++applied;
        }
        break;
      }
      case UpdateOp::kRemoveEdge: {
        if (op.u >= n || op.v >= n) {
          throw ServeError(ErrorCode::kBadRequest,
                           "remove_edge: endpoint out of range");
        }
        const auto [it, e] = find(op.u, op.v);
        if (it != edges.end() && *it == e) {
          edges.erase(it);
          ++applied;
        }
        break;
      }
      case UpdateOp::kAddVertex: {
        if (n == std::numeric_limits<graph::NodeId>::max()) {
          throw ServeError(ErrorCode::kBadRequest, "add_vertex: id overflow");
        }
        ++n;
        ++applied;
        break;
      }
      case UpdateOp::kDetachVertex: {
        if (op.u >= n) {
          throw ServeError(ErrorCode::kBadRequest,
                           "detach_vertex: id out of range");
        }
        const std::size_t before = edges.size();
        std::erase_if(edges, [&op](const graph::Edge& e) {
          return e.u == op.u || e.v == op.u;
        });
        if (edges.size() != before) ++applied;
        break;
      }
    }
  }

  current_ = graph::from_edges(n, edges);
  materialized_ = true;
  owner_.reset();
  base_view_ = graph::GraphView();
  hash_.reset();
  return applied;
}

}  // namespace arbmis::serve
