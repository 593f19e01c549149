// Tests for the SparseMis pipeline (Lemma 3.8 machinery) and the color
// sweep it is built on.
#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.h"
#include "mis/color_sweep.h"
#include "mis/sparse_mis.h"
#include "mis/verifier.h"

namespace arbmis::mis {
namespace {

TEST(ColorSweep, TurnsProperColoringIntoMis) {
  const graph::Graph g = graph::gen::cycle(9);
  // 3-color the C9 by hand.
  std::vector<std::uint64_t> colors{0, 1, 2, 0, 1, 2, 0, 1, 2};
  ColorSweepMis sweep(g, colors, 3);
  sim::Network net(g, 1);
  const sim::RunStats stats = net.run(sweep, sweep.total_rounds() + 1);
  EXPECT_TRUE(stats.all_halted);
  MisResult result;
  result.state = sweep.states();
  EXPECT_TRUE(verify(g, result).ok());
  // Class 0 has priority: all color-0 nodes should be in.
  EXPECT_TRUE(result.in_mis(0));
  EXPECT_TRUE(result.in_mis(3));
  EXPECT_TRUE(result.in_mis(6));
}

TEST(ColorSweep, RejectsBadInput) {
  const graph::Graph g = graph::gen::path(3);
  EXPECT_THROW(ColorSweepMis(g, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(ColorSweepMis(g, {0, 5, 1}, 3), std::invalid_argument);
}

class SparseSweep
    : public ::testing::TestWithParam<std::tuple<graph::NodeId, std::uint64_t>> {
};

TEST_P(SparseSweep, ProducesVerifiedMis) {
  const auto [alpha, seed] = GetParam();
  util::Rng rng(seed);
  const graph::Graph g =
      graph::gen::union_of_random_forests(150, alpha, rng);
  const SparseMisResult result = sparse_mis(g, {.alpha = alpha}, seed);
  EXPECT_TRUE(verify(g, result.mis).ok());
  EXPECT_LE(result.num_forests, 4 * alpha);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaSeeds, SparseSweep,
    ::testing::Combine(::testing::Values<graph::NodeId>(1, 2),
                       ::testing::Values<std::uint64_t>(2, 47, 1001)));

TEST(SparseMis, TreeUsesCompositePath) {
  util::Rng rng(3);
  const graph::Graph t = graph::gen::random_tree(200, rng);
  const SparseMisResult result = sparse_mis(t, {.alpha = 1}, 1);
  EXPECT_FALSE(result.used_fallback);
  EXPECT_LE(result.composite_classes, 81u);  // <= 4 forests
  EXPECT_TRUE(verify(t, result.mis).ok());
}

TEST(SparseMis, FallsBackWhenClassesExplode) {
  // 7 or more forests put 3^k past kCompositeClassBudget.
  util::Rng rng(5);
  const graph::Graph g = graph::gen::union_of_random_forests(120, 4, rng);
  const SparseMisResult result = sparse_mis(g, {.alpha = 4}, 1);
  EXPECT_GE(result.num_forests, 7u);
  EXPECT_TRUE(result.used_fallback);
  EXPECT_EQ(result.composite_classes, 2187u);
  EXPECT_TRUE(verify(g, result.mis).ok());
}

TEST(SparseMis, ClassCountSaturatesPastFortyForests) {
  // K_45 decomposes into 44 forests: 3^44 does not fit std::uint64_t, so
  // the count stops at the first power of 3 past the budget.
  const graph::Graph g = graph::gen::complete(45);
  const SparseMisResult result = sparse_mis(g, {.alpha = 23}, 1);
  EXPECT_EQ(result.num_forests, 44u);
  EXPECT_TRUE(result.used_fallback);
  EXPECT_EQ(result.composite_classes, 2187u);
  EXPECT_TRUE(verify(g, result.mis).ok());
}

TEST(SparseMis, ThrowsWhenAlphaTooSmall) {
  const graph::Graph g = graph::gen::complete(10);
  EXPECT_THROW(sparse_mis(g, {.alpha = 1}, 1), std::invalid_argument);
}

TEST(SparseMis, ApollonianPlanar) {
  util::Rng rng(7);
  const graph::Graph g = graph::gen::random_apollonian(150, rng);
  const SparseMisResult result = sparse_mis(g, {.alpha = 3}, 2);
  EXPECT_TRUE(verify(g, result.mis).ok());
}

TEST(SparseMis, DeterministicGivenSeed) {
  util::Rng rng(11);
  const graph::Graph g = graph::gen::union_of_random_forests(80, 2, rng);
  const SparseMisResult a = sparse_mis(g, {.alpha = 2}, 5);
  const SparseMisResult b = sparse_mis(g, {.alpha = 2}, 5);
  EXPECT_EQ(a.mis.state, b.mis.state);
}

}  // namespace
}  // namespace arbmis::mis
