// Unit tests for the CSR Graph and Builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace arbmis::graph {
namespace {

TEST(Builder, RejectsSelfLoop) {
  Builder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRange) {
  Builder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(7, 1), std::invalid_argument);
}

TEST(Builder, DeduplicatesParallelEdges) {
  Builder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, EmptyGraph) {
  const Graph g(0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, IsolatedNodes) {
  const Graph g = Builder(5).build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, TriangleBasics) {
  Builder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, NeighborsAreSorted) {
  Builder b(6);
  b.add_edge(3, 5).add_edge(3, 0).add_edge(3, 4).add_edge(3, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i], nbrs[i + 1]);
  }

  // A shuffled random edge list holding every edge in both orientations,
  // some twice: every row strictly ascending, and symmetric.
  util::Rng rng(61);
  constexpr NodeId n = 40;
  std::vector<Edge> edges;
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    edges.push_back({u, v});
    edges.push_back({v, u});
    if (rng.bernoulli(0.3)) edges.push_back({u, v});
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.below(i)]);
  }
  const Graph shuffled = from_edges(n, edges);
  for (NodeId v = 0; v < n; ++v) {
    const auto row = shuffled.neighbors(v);
    for (std::size_t i = 0; i + 1 < row.size(); ++i) {
      EXPECT_LT(row[i], row[i + 1]) << "row " << v;
    }
    for (const NodeId w : row) {
      EXPECT_NE(std::ranges::find(shuffled.neighbors(w), v),
                shuffled.neighbors(w).end());
    }
  }
}

TEST(Graph, PortOfRoundTrips) {
  Builder b(6);
  b.add_edge(2, 0).add_edge(2, 4).add_edge(2, 5);
  const Graph g = b.build();
  for (NodeId w : g.neighbors(2)) {
    const NodeId port = g.port_of(2, w);
    EXPECT_EQ(g.neighbors(2)[port], w);
  }
  EXPECT_THROW(g.port_of(2, 1), std::invalid_argument);
}

TEST(Graph, EdgesReportsEachOnce) {
  Builder b(4);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).add_edge(3, 0);
  const Graph g = b.build();
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) {
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(Graph, FromEdges) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  const Graph g = from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, MaxDegreeMatchesStar) {
  Builder b(10);
  for (NodeId i = 1; i < 10; ++i) b.add_edge(0, i);
  EXPECT_EQ(b.build().max_degree(), 9u);
}

}  // namespace
}  // namespace arbmis::graph
