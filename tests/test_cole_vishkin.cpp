// Tests for the Cole–Vishkin forest coloring and the forest MIS composed
// from it (cole_vishkin_mis: the coloring, then the 3-class sweep).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>

#include "graph/generators.h"
#include "graph/orientation.h"
#include "graph/properties.h"
#include "mis/cole_vishkin.h"
#include "mis/verifier.h"
#include "sim/bfs_rooting.h"

namespace arbmis::mis {
namespace {

/// Builds the parent array of a tree/forest rooted by BFS from each
/// component's smallest node.
std::vector<graph::NodeId> root_forest(const graph::Graph& g) {
  std::vector<graph::NodeId> parent(g.num_nodes(), graph::kNoParent);
  std::vector<bool> visited(g.num_nodes(), false);
  for (graph::NodeId root = 0; root < g.num_nodes(); ++root) {
    if (visited[root]) continue;
    std::vector<graph::NodeId> stack{root};
    visited[root] = true;
    while (!stack.empty()) {
      const graph::NodeId v = stack.back();
      stack.pop_back();
      for (graph::NodeId w : g.neighbors(v)) {
        if (visited[w]) continue;
        visited[w] = true;
        parent[w] = v;
        stack.push_back(w);
      }
    }
  }
  return parent;
}

void expect_proper_3_coloring(const graph::Graph& g,
                              const std::vector<graph::NodeId>& parent,
                              const std::vector<std::uint8_t>& colors) {
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LT(colors[v], 3u);
    if (parent[v] != graph::kNoParent) {
      EXPECT_NE(colors[v], colors[parent[v]]) << "edge " << v << "-"
                                              << parent[v];
    }
  }
}

class ColeVishkinTrees : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColeVishkinTrees, ColorsRandomTreeProperly) {
  util::Rng rng(GetParam());
  const graph::Graph t = graph::gen::random_tree(300, rng);
  const auto parent = root_forest(t);
  const auto result = ColeVishkin::run(t, parent);
  expect_proper_3_coloring(t, parent, result.colors);
}

TEST_P(ColeVishkinTrees, TreeMisIsVerified) {
  util::Rng rng(GetParam() + 100);
  const graph::Graph t = graph::gen::random_tree(300, rng);
  const auto parent = root_forest(t);
  EXPECT_TRUE(verify(t, cole_vishkin_mis(t, parent)).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColeVishkinTrees,
                         ::testing::Values(1, 17, 303, 9999));

TEST(ColeVishkin, WorksOnPathAndStar) {
  for (const graph::Graph& g :
       {graph::gen::path(64), graph::gen::star(64),
        graph::gen::balanced_tree(64, 2), graph::gen::caterpillar(10, 4)}) {
    const auto parent = root_forest(g);
    expect_proper_3_coloring(g, parent, ColeVishkin::run(g, parent).colors);
    EXPECT_TRUE(verify(g, cole_vishkin_mis(g, parent)).ok());
  }
}

TEST(ColeVishkin, WorksOnDisconnectedForest) {
  graph::Builder b(9);
  b.add_edge(0, 1).add_edge(1, 2);  // path
  b.add_edge(3, 4).add_edge(3, 5).add_edge(3, 6);  // star
  // 7, 8 isolated
  const graph::Graph g = b.build();
  const auto parent = root_forest(g);
  expect_proper_3_coloring(g, parent, ColeVishkin::run(g, parent).colors);
  EXPECT_TRUE(verify(g, cole_vishkin_mis(g, parent)).ok());
}

TEST(ColeVishkin, PartialForestColorsForestEdgesOnly) {
  // A cycle with a spanning-path forest: coloring must be proper on the
  // path edges (the chord is not the algorithm's responsibility).
  const graph::Graph g = graph::gen::cycle(10);
  std::vector<graph::NodeId> parent(10, graph::kNoParent);
  for (graph::NodeId v = 1; v < 10; ++v) parent[v] = v - 1;
  const auto result = ColeVishkin::run(g, parent);
  expect_proper_3_coloring(g, parent, result.colors);
}

TEST(ColeVishkin, RejectsNonEdgeParent) {
  const graph::Graph g = graph::gen::path(4);
  std::vector<graph::NodeId> parent{graph::kNoParent, 0, 1, 0};  // 3-0 not an edge
  EXPECT_THROW(ColeVishkin(g, parent), std::invalid_argument);
}

TEST(ColeVishkin, RejectsCyclicParents) {
  const graph::Graph g = graph::gen::cycle(3);
  std::vector<graph::NodeId> parent{1, 2, 0};
  EXPECT_THROW(ColeVishkin(g, parent), std::invalid_argument);
}

TEST(ColeVishkin, RejectsSizeMismatch) {
  const graph::Graph g = graph::gen::path(4);
  std::vector<graph::NodeId> parent{graph::kNoParent, 0};
  EXPECT_THROW(ColeVishkin(g, parent), std::invalid_argument);
}

TEST(ColeVishkin, ReductionIterationsAreLogStar) {
  EXPECT_EQ(ColeVishkin::reduction_iterations(6), 0u);
  EXPECT_GE(ColeVishkin::reduction_iterations(1 << 20), 2u);
  EXPECT_LE(ColeVishkin::reduction_iterations(1 << 30), 6u);
  // log* growth: doubling n rarely adds rounds.
  EXPECT_LE(ColeVishkin::reduction_iterations(1u << 30),
            ColeVishkin::reduction_iterations(1u << 15) + 1);
}

TEST(ColeVishkin, RoundsMatchSchedule) {
  // The coloring takes its fixed schedule; the forest MIS adds the sweep's
  // 3 classes and its final round.
  util::Rng rng(7);
  const graph::Graph t = graph::gen::random_tree(200, rng);
  const auto parent = root_forest(t);
  const auto coloring = ColeVishkin::run(t, parent);
  EXPECT_EQ(coloring.stats.rounds, ColeVishkin::total_rounds(200));
  EXPECT_TRUE(coloring.stats.all_halted);
  const MisResult mis = cole_vishkin_mis(t, parent);
  EXPECT_EQ(mis.stats.rounds, ColeVishkin::total_rounds(200) + 4);
  EXPECT_TRUE(mis.stats.all_halted);
}

TEST(ColeVishkin, DeterministicSchedule) {
  // The algorithm is deterministic: same input, same colors, any seed.
  util::Rng rng(11);
  const graph::Graph t = graph::gen::random_tree(100, rng);
  const auto parent = root_forest(t);
  const auto a = ColeVishkin::run(t, parent, 1);
  const auto b = ColeVishkin::run(t, parent, 999);
  EXPECT_EQ(a.colors, b.colors);
}

/// FNV-1a over the per-node MIS states (the hash test_determinism pins).
std::uint64_t state_hash(const std::vector<MisState>& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const MisState s : state) {
    h ^= static_cast<std::uint64_t>(s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ColeVishkin, TreeMisMatchesTheForestMisPins) {
  // Labels and rounds recorded from the coloring's former built-in MIS
  // sweep, on T6's (bench_tree_history) trees at its default seed: a
  // BfsRooting orientation, then the coloring and the 3-class sweep. The
  // composed run delivers fewer messages by one per node with a parent:
  // the coloring halts on its final color sends.
  const struct {
    const char* family;
    graph::NodeId n;
    std::uint64_t hash;
    std::uint64_t messages;
  } pins[] = {
      {"tree", 1 << 10, 0x68acd4a2de36a22fULL, 13206},
      {"tree", 1 << 13, 0xf98e42be34af1b8dULL, 105715},
      {"pa_tree", 1 << 10, 0x303ecf513434fde6ULL, 13213},
      {"pa_tree", 1 << 13, 0xb3817dc9ccfafab0ULL, 106036},
  };
  for (const auto& pin : pins) {
    util::Rng rng(12345 + pin.n);
    const graph::Graph t =
        std::string_view(pin.family) == "tree"
            ? graph::gen::random_tree(pin.n, rng)
            : graph::gen::preferential_attachment_tree(pin.n, rng);
    const auto rooting = sim::BfsRooting::run(t, 12345, pin.n + 2);
    ASSERT_TRUE(rooting.stabilized) << pin.family;
    const MisResult mis = cole_vishkin_mis(t, rooting.parent);
    EXPECT_EQ(state_hash(mis.state), pin.hash) << pin.family << " " << pin.n;
    EXPECT_EQ(mis.stats.rounds, 15u) << pin.family << " " << pin.n;
    EXPECT_EQ(mis.stats.messages, pin.messages - (pin.n - 1))
        << pin.family << " " << pin.n;
  }
}

}  // namespace
}  // namespace arbmis::mis
