// Tests for the Ghaffari arboricity-corollary pipeline (paper §1.2).
#include <gtest/gtest.h>

#include "core/ghaffari_arb.h"
#include "graph/generators.h"
#include "mis/verifier.h"

namespace arbmis::core {
namespace {

class GhaffariArbSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GhaffariArbSweep, VerifiedOnBattery) {
  util::Rng rng(GetParam());
  for (const graph::Graph& g :
       {graph::gen::random_tree(500, rng),
        graph::gen::union_of_random_forests(500, 3, rng),
        graph::gen::hubbed_forest_union(800, 2, 8, rng),
        graph::gen::random_apollonian(500, rng),
        graph::gen::gnp(400, 0.03, rng)}) {
    const GhaffariArbResult result = ghaffari_arb_mis(g, GetParam());
    EXPECT_TRUE(mis::verify(g, result.mis).ok())
        << "n=" << g.num_nodes() << " m=" << g.num_edges();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GhaffariArbSweep,
                         ::testing::Values(1, 23, 456));

TEST(GhaffariArb, ReductionShrinksResidualDegree) {
  util::Rng rng(5);
  const graph::Graph g = graph::gen::hubbed_forest_union(5000, 2, 4, rng);
  const GhaffariArbResult result = ghaffari_arb_mis(g, 1);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
  EXPECT_LT(result.residual_max_degree, g.max_degree());
  EXPECT_LT(result.residual_nodes, g.num_nodes());
}

TEST(GhaffariArb, StatsAdditive) {
  util::Rng rng(9);
  const graph::Graph g = graph::gen::union_of_random_forests(600, 2, rng);
  const GhaffariArbResult result = ghaffari_arb_mis(g, 5);
  EXPECT_EQ(result.mis.stats.rounds,
            result.reduction_stats.rounds + result.ghaffari_stats.rounds + 1);
}

TEST(GhaffariArb, TinyInputs) {
  for (graph::NodeId n : {0u, 1u, 3u}) {
    const graph::Graph g = graph::gen::path(n);
    const GhaffariArbResult result = ghaffari_arb_mis(g, 1);
    EXPECT_TRUE(mis::verify(g, result.mis).ok()) << "n=" << n;
  }
}

}  // namespace
}  // namespace arbmis::core
