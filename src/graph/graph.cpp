#include "graph/graph.h"

#include <algorithm>

#include "util/rng.h"

namespace arbmis::graph {

Graph::Graph(NodeId n) : num_nodes_(n), offsets_(n + 1, 0) {}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  return GraphView(*this).has_edge(u, v);
}

NodeId Graph::port_of(NodeId v, NodeId w) const {
  return GraphView(*this).port_of(v, w);
}

std::vector<Edge> Graph::edges() const { return GraphView(*this).edges(); }

bool GraphView::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= num_nodes_ || v >= num_nodes_) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

NodeId GraphView::port_of(NodeId v, NodeId w) const {
  const auto nbrs = neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it == nbrs.end() || *it != w) {
    throw std::invalid_argument("port_of: nodes are not adjacent");
  }
  return static_cast<NodeId>(it - nbrs.begin());
}

std::vector<Edge> GraphView::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

Builder::Builder(NodeId n) : num_nodes_(n) {}

Builder& Builder::add_edge(NodeId u, NodeId v) {
  if (u == v) throw std::invalid_argument("add_edge: self-loop");
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw std::invalid_argument("add_edge: endpoint out of range");
  }
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v});
  return *this;
}

Graph Builder::build() const {
  std::vector<Edge> sorted = edges_;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  Graph g(num_nodes_);
  std::vector<std::uint64_t> deg(num_nodes_ + 1, 0);
  for (const Edge& e : sorted) {
    ++deg[e.u];
    ++deg[e.v];
  }
  g.offsets_.assign(num_nodes_ + 1, 0);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + deg[v];
    g.max_degree_ = std::max<NodeId>(g.max_degree_, static_cast<NodeId>(deg[v]));
  }
  // Filling rows in (u, v) order leaves each row ascending: a node x gets
  // its smaller neighbours from the edges (u, x), in u order, before the
  // edges (x, v) hand it the larger ones, in v order.
  g.adjacency_.resize(sorted.size() * 2);
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : sorted) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  return g;
}

Graph from_edges(NodeId n, std::span<const Edge> edges) {
  Builder b(n);
  for (const Edge& e : edges) b.add_edge(e.u, e.v);
  return b.build();
}

std::uint64_t content_hash(GraphView g) {
  // Chain over (n, deg(0), adj(0)..., deg(1), adj(1)...). Degrees are
  // included so the hash distinguishes graphs whose concatenated adjacency
  // arrays coincide but whose offsets differ.
  std::uint64_t h = util::mix64(0x41524247u /*"ARBG"*/, g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    h = util::mix64(h, g.degree(u));
    for (const NodeId v : g.neighbors(u)) h = util::mix64(h, v);
  }
  return h;
}

}  // namespace arbmis::graph
