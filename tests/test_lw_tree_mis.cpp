// Tests for the Lenzen–Wattenhofer shattering architecture.
#include <gtest/gtest.h>

#include "core/lw_tree_mis.h"
#include "mis/degree_reduction.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "mis/verifier.h"

namespace arbmis::core {
namespace {

class LwSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LwSweep, VerifiedOnTrees) {
  util::Rng rng(GetParam());
  for (const graph::Graph& t :
       {graph::gen::random_tree(2000, rng),
        graph::gen::preferential_attachment_tree(2000, rng),
        graph::gen::balanced_tree(2000, 2), graph::gen::path(1000),
        graph::gen::star(1000)}) {
    const LwTreeMisResult result = lw_tree_mis(t, GetParam());
    EXPECT_TRUE(mis::verify(t, result.mis).ok())
        << "n=" << t.num_nodes() << " Δ=" << t.max_degree();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LwSweep, ::testing::Values(1, 31, 979));

TEST(LwTreeMis, ShatteringLeavesSmallComponents) {
  // The LW claim: after O(√(log n)·log log n) competition rounds, the
  // residual components of a tree are far smaller than the tree.
  util::Rng rng(5);
  const graph::Graph t = graph::gen::random_tree(50000, rng);
  const LwTreeMisResult result = lw_tree_mis(t, 3);
  EXPECT_TRUE(mis::verify(t, result.mis).ok());
  EXPECT_LT(result.residual_components.largest_component,
            t.num_nodes() / 100);
  // Pinned at its recorded value: the budgeted Métivier phase decides
  // every node of this tree, so the residual is empty and the bound above
  // holds trivially (CHANGES.md, the FOUND line on lw_tree_mis reaching
  // its finish step in no probe above 3 nodes). A change that starts
  // leaving a residual moves this pin.
  EXPECT_EQ(result.residual_components.set_size, 0u);
}

TEST(LwTreeMis, WorksOnBoundedArbGraphsToo) {
  util::Rng rng(7);
  const graph::Graph g = graph::gen::union_of_random_forests(1500, 2, rng);
  const LwTreeMisResult result = lw_tree_mis(g, 9);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
}

TEST(LwTreeMis, StatsAdditiveAndBudgetedPhaseBounded) {
  util::Rng rng(13);
  const graph::Graph t = graph::gen::random_tree(4000, rng);
  const LwTreeMisResult result = lw_tree_mis(t, 15);
  EXPECT_EQ(result.mis.stats.rounds,
            result.shatter_stats.rounds + result.finish_stats.rounds + 1);
  // The shattering phase obeys its budget (+1 flush round).
  const std::uint32_t budget = mis::degree_reduction_budget(4000, 3.0);
  EXPECT_LE(result.shatter_stats.rounds, budget + 1);
}

TEST(LwTreeMis, TinyInputs) {
  for (graph::NodeId n : {0u, 1u, 2u}) {
    const graph::Graph g = graph::gen::path(n);
    EXPECT_TRUE(mis::verify(g, lw_tree_mis(g, 1).mis).ok()) << n;
  }
}

}  // namespace
}  // namespace arbmis::core
