// Tests for the TreeIndependentSet specialization (paper §1 / BEPS §8).
#include <gtest/gtest.h>

#include "core/tree_mis.h"
#include "graph/generators.h"
#include "mis/verifier.h"

namespace arbmis::core {
namespace {

class TreeMisSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeMisSweep, VerifiedOnTreeFamilies) {
  util::Rng rng(GetParam());
  const std::vector<graph::Graph> trees{
      graph::gen::path(500),
      graph::gen::star(500),
      graph::gen::balanced_tree(500, 3),
      graph::gen::caterpillar(50, 9),
      graph::gen::random_tree(500, rng),
      graph::gen::random_recursive_tree(500, rng),
      graph::gen::preferential_attachment_tree(500, rng),
  };
  for (const auto& t : trees) {
    const ArbMisResult result = tree_independent_set(t, GetParam());
    EXPECT_TRUE(mis::verify(t, result.mis).ok())
        << "n=" << t.num_nodes() << " Δ=" << t.max_degree();
    EXPECT_FALSE(result.cleanup_used);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeMisSweep, ::testing::Values(1, 9, 77));

TEST(TreeMis, WorksOnDisconnectedForests) {
  util::Rng rng(5);
  graph::Builder b(60);
  // Three separate trees.
  for (graph::NodeId base : {0u, 20u, 40u}) {
    for (graph::NodeId i = 1; i < 20; ++i) {
      b.add_edge(base + i, base + (i - 1) / 2);
    }
  }
  const graph::Graph forest = b.build();
  const ArbMisResult result = tree_independent_set(forest, 3);
  EXPECT_TRUE(mis::verify(forest, result.mis).ok());
}

TEST(TreeMis, RejectsGraphsWithCycles) {
  EXPECT_THROW(tree_independent_set(graph::gen::cycle(10), 1),
               std::invalid_argument);
  util::Rng rng(7);
  EXPECT_THROW(
      tree_independent_set(graph::gen::random_apollonian(30, rng), 1),
      std::invalid_argument);
}

TEST(TreeMis, HubTreesEngageScales) {
  // Preferential-attachment trees at scale have Δ large enough that the
  // shattering scales execute; the pipeline stays verified.
  util::Rng rng(11);
  const graph::Graph t = graph::gen::preferential_attachment_tree(30000, rng);
  const ArbMisResult result = tree_independent_set(t, 5);
  EXPECT_TRUE(mis::verify(t, result.mis).ok());
  EXPECT_GE(result.params.num_scales, 1u);
}

TEST(TreeMis, PaperFaithfulParamsStillCorrect) {
  // tree_independent_set's pipeline (α = 1, forest finishers) under the
  // printed constants, which only arb_mis takes.
  util::Rng rng(13);
  const graph::Graph t = graph::gen::random_tree(1000, rng);
  const ArbMisResult result = arb_mis(t,
                                      {.alpha = 1,
                                       .paper_faithful_params = true,
                                       .finisher = Finisher::kSparse,
                                       .bad_finisher = Finisher::kSparse},
                                      7);
  EXPECT_TRUE(mis::verify(t, result.mis).ok());
}

TEST(TreeMis, DeterministicGivenSeed) {
  util::Rng rng(17);
  const graph::Graph t = graph::gen::random_tree(400, rng);
  const ArbMisResult a = tree_independent_set(t, 9);
  const ArbMisResult b = tree_independent_set(t, 9);
  EXPECT_EQ(a.mis.state, b.mis.state);
}

}  // namespace
}  // namespace arbmis::core
