// Tests for induced subgraph extraction and id mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "graph/generators.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "graph/subgraph.h"

namespace arbmis::graph {
namespace {

TEST(Subgraph, MaskExtraction) {
  const Graph g = gen::cycle(6);
  const std::vector<std::uint8_t> mask{1, 1, 1, 0, 0, 1};
  const Subgraph sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_nodes(), 4u);
  // Edges kept: 0-1, 1-2, 5-0.
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  // Node 0 is in, node 3 is not.
  EXPECT_EQ(sub.to_original, (std::vector<NodeId>{0, 1, 2, 5}));
}

TEST(Subgraph, MappingRoundTrips) {
  util::Rng rng(53);
  const Graph g = gen::gnp(40, 0.15, rng);
  std::vector<std::uint8_t> mask(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); v += 2) mask[v] = 1;
  const Subgraph sub = induced_subgraph(g, mask);
  for (NodeId local = 0; local < sub.graph.num_nodes(); ++local) {
    const NodeId original = sub.original(local);
    EXPECT_TRUE(mask[original]);
    // to_original ascends, so the local id is the original's position.
    const auto it = std::lower_bound(sub.to_original.begin(),
                                     sub.to_original.end(), original);
    EXPECT_EQ(static_cast<NodeId>(it - sub.to_original.begin()), local);
  }
}

TEST(Subgraph, EdgesMatchOriginal) {
  util::Rng rng(59);
  const Graph g = gen::random_apollonian(30, rng);
  const std::vector<NodeId> nodes{0, 3, 5, 7, 11, 13, 20};
  std::vector<std::uint8_t> mask(g.num_nodes(), 0);
  for (const NodeId v : nodes) mask[v] = 1;
  const Subgraph sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_nodes(), nodes.size());
  for (NodeId a = 0; a < sub.graph.num_nodes(); ++a) {
    for (NodeId b = a + 1; b < sub.graph.num_nodes(); ++b) {
      EXPECT_EQ(sub.graph.has_edge(a, b),
                g.has_edge(sub.original(a), sub.original(b)));
    }
  }
}

TEST(Subgraph, EmptyMask) {
  const Graph g = gen::path(5);
  const std::vector<std::uint8_t> mask(5, 0);
  const Subgraph sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_nodes(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(Subgraph, FullMaskIsIsomorphic) {
  const Graph g = gen::cycle(8);
  const std::vector<std::uint8_t> mask(8, 1);
  const std::string path = ::testing::TempDir() +
                           "arbmis_subgraph_FullMaskIsIsomorphic.gr";
  storage::write_gr(path, g);
  const storage::MappedGraph mapped = storage::MappedGraph::open(path);
  // An all-ones mask restricts to the parent itself: no copy, the
  // parent's own rows, the identity mapping — for either storage.
  for (const GraphView parent : {GraphView(g), mapped.view()}) {
    const Subgraph sub = induced_subgraph(parent, mask);
    EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
    EXPECT_EQ(sub.graph.max_degree(), g.max_degree());
    for (NodeId v = 0; v < 8; ++v) {
      EXPECT_EQ(sub.original(v), v);
      EXPECT_EQ(sub.graph.neighbors(v).data(), parent.neighbors(v).data());
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace arbmis::graph
