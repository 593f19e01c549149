// Tests for distributed BFS rooting, including the fully distributed
// tree-MIS composition (rooting + Cole–Vishkin) from the paper's §1.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/properties.h"
#include "mis/cole_vishkin.h"
#include "mis/verifier.h"
#include "sim/bfs_rooting.h"

namespace arbmis::sim {
namespace {

class BfsRootingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsRootingSweep, StabilizesOnConnectedGraphs) {
  util::Rng rng(GetParam());
  for (const graph::Graph& g :
       {graph::gen::path(100), graph::gen::cycle(101),
        graph::gen::random_tree(300, rng), graph::gen::gnp(200, 0.05, rng),
        graph::gen::grid(10, 12)}) {
    const auto result = BfsRooting::run(g, GetParam(), g.num_nodes() + 2);
    EXPECT_TRUE(result.stabilized)
        << "n=" << g.num_nodes() << " m=" << g.num_edges();
    // Connected graph: everyone agrees on root 0 (the minimum id).
    if (graph::connected_components(g).count == 1 && g.num_nodes() > 0) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(result.root[v], 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRootingSweep, ::testing::Values(1, 5, 99));

TEST(BfsRooting, DistancesMatchBfs) {
  util::Rng rng(7);
  const graph::Graph g = graph::gen::gnp(150, 0.06, rng);
  const auto result = BfsRooting::run(g, 1, g.num_nodes() + 2);
  ASSERT_TRUE(result.stabilized);
  // Distance to the elected root equals the true BFS distance.
  const auto comps = graph::connected_components(g);
  std::vector<std::vector<graph::NodeId>> reference;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (result.root[v] == v) {
      const auto dist = graph::bfs_distances(g, v);
      for (graph::NodeId w = 0; w < g.num_nodes(); ++w) {
        if (comps.label[w] == comps.label[v]) {
          EXPECT_EQ(result.distance[w], dist[w]) << "node " << w;
        }
      }
    }
  }
}

TEST(BfsRooting, HandlesDisconnectedComponents) {
  graph::Builder b(10);
  b.add_edge(3, 4).add_edge(4, 5);  // component with min id 3
  b.add_edge(7, 8);                 // component with min id 7
  const graph::Graph g = b.build();
  const auto result = BfsRooting::run(g, 1, 12);
  EXPECT_TRUE(result.stabilized);
  EXPECT_EQ(result.root[5], 3u);
  EXPECT_EQ(result.root[8], 7u);
  // Isolated nodes root themselves.
  EXPECT_EQ(result.root[0], 0u);
  EXPECT_EQ(result.parent[0], graph::kNoParent);
}

TEST(BfsRooting, InsufficientBudgetDetected) {
  // A path needs ~diameter rounds; 3 rounds cannot stabilize a 100-path.
  const graph::Graph g = graph::gen::path(100);
  const auto result = BfsRooting::run(g, 1, 3);
  EXPECT_FALSE(result.stabilized);
}

TEST(BfsRooting, StabilizesWithinDiameterPlusOne) {
  util::Rng rng(11);
  const graph::Graph t = graph::gen::random_tree(200, rng);
  const graph::NodeId diameter = graph::diameter(t).value();
  const auto result = BfsRooting::run(t, 1, diameter + 2);
  EXPECT_TRUE(result.stabilized);
}

TEST(BfsRooting, ComposesWithColeVishkinIntoDistributedTreeMis) {
  // The fully distributed tree MIS of the paper's §1: O(diameter) rooting
  // + O(log* n) Cole–Vishkin coloring + the 3-class sweep, no central
  // orientation anywhere.
  util::Rng rng(13);
  const graph::Graph t = graph::gen::random_tree(500, rng);
  const auto rooting = BfsRooting::run(t, 1, t.num_nodes());
  ASSERT_TRUE(rooting.stabilized);
  EXPECT_TRUE(
      mis::verify(t, mis::cole_vishkin_mis(t, rooting.parent)).ok());
}

TEST(BfsRooting, ForestConsistencyAuditCatchesLies) {
  const graph::Graph g = graph::gen::path(3);
  // Claim node 2 is the root of everything: wrong minimum.
  std::vector<graph::NodeId> parent{1, 2, graph::kNoParent};
  std::vector<graph::NodeId> root{2, 2, 2};
  std::vector<graph::NodeId> distance{2, 1, 0};
  EXPECT_FALSE(bfs_forest_consistent(g, parent, root, distance));
  // Correct forest.
  parent = {graph::kNoParent, 0, 1};
  root = {0, 0, 0};
  distance = {0, 1, 2};
  EXPECT_TRUE(bfs_forest_consistent(g, parent, root, distance));
  // Wrong distance.
  distance = {0, 1, 1};
  EXPECT_FALSE(bfs_forest_consistent(g, parent, root, distance));
}

}  // namespace
}  // namespace arbmis::sim
