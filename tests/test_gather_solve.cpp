// Tests for the leader-gather component MIS (§2.1's "deterministic
// algorithm for small components", taken literally).
#include <gtest/gtest.h>

#include "core/arb_mis.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "mis/gather_solve.h"
#include "mis/verifier.h"

namespace arbmis::mis {
namespace {

class GatherSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GatherSweep, VerifiedOnBattery) {
  util::Rng rng(GetParam());
  for (const graph::Graph& g :
       {graph::gen::path(40), graph::gen::cycle(33), graph::gen::star(25),
        graph::gen::complete(8), graph::gen::random_tree(120, rng),
        graph::gen::gnp(120, 0.05, rng),
        graph::gen::random_apollonian(100, rng)}) {
    const MisResult result = GatherSolveMis::run(g, GetParam());
    EXPECT_TRUE(verify(g, result).ok())
        << "n=" << g.num_nodes() << " m=" << g.num_edges();
    EXPECT_TRUE(result.stats.all_halted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatherSweep, ::testing::Values(1, 13, 444));

TEST(GatherSolve, DeterministicResultMatchesGreedyOrder) {
  // The leader solves greedily by ascending id; on a path rooted at 0 the
  // result must equal the sequential greedy MIS.
  const graph::Graph g = graph::gen::path(9);
  const MisResult result = GatherSolveMis::run(g, 1);
  for (graph::NodeId v = 0; v < 9; ++v) {
    EXPECT_EQ(result.in_mis(v), v % 2 == 0) << v;
  }
}

TEST(GatherSolve, HandlesManyComponentsInParallel) {
  graph::Builder b(30);
  for (graph::NodeId base = 0; base < 30; base += 5) {
    b.add_edge(base, base + 1).add_edge(base + 1, base + 2);
    b.add_edge(base + 2, base + 3).add_edge(base + 3, base + 4);
  }
  const graph::Graph g = b.build();
  const MisResult result = GatherSolveMis::run(g, 1);
  EXPECT_TRUE(verify(g, result).ok());
  // 6 path components of 5 -> MIS size 3 each.
  EXPECT_EQ(result.mis_size(), 18u);
}

TEST(GatherSolve, IsolatedAndTinyInputs) {
  for (graph::NodeId n : {0u, 1u, 2u, 3u}) {
    const graph::Graph g = graph::gen::path(n);
    EXPECT_TRUE(verify(g, GatherSolveMis::run(g, 1)).ok()) << n;
  }
  const graph::Graph isolated = graph::Builder(4).build();
  const MisResult result = GatherSolveMis::run(isolated, 1);
  EXPECT_EQ(result.mis_size(), 4u);
}

TEST(GatherSolve, RoundsScaleWithComponentEdges) {
  // One big component: rounds ~ O(m + diameter); a shattered graph of the
  // same total size finishes much faster (components run in parallel).
  util::Rng rng(7);
  const graph::Graph big = graph::gen::random_tree(600, rng);
  graph::Builder b(600);
  for (graph::NodeId base = 0; base < 600; base += 20) {
    util::Rng component_rng(base + 1);
    const graph::Graph piece = graph::gen::random_tree(20, component_rng);
    for (const graph::Edge& e : piece.edges()) {
      b.add_edge(base + e.u, base + e.v);
    }
  }
  const graph::Graph shattered = b.build();
  const auto big_rounds = GatherSolveMis::run(big, 1).stats.rounds;
  const auto small_rounds =
      GatherSolveMis::run(shattered, 1, /*rooting_budget=*/25).stats.rounds;
  EXPECT_LT(small_rounds, big_rounds / 4);
}

TEST(GatherSolve, CongestCompliant) {
  util::Rng rng(11);
  const graph::Graph g = graph::gen::gnp(150, 0.05, rng);
  const MisResult result = GatherSolveMis::run(g, 3);
  EXPECT_EQ(result.stats.max_edge_load, 1u);
}

TEST(GatherSolve, WorksAsArbMisBadFinisher) {
  util::Rng rng(13);
  const graph::Graph g = graph::gen::hubbed_forest_union(800, 2, 8, rng);
  core::ArbMisOptions options;
  options.alpha = 2;
  options.finisher = core::Finisher::kGather;
  options.bad_finisher = core::Finisher::kGather;
  const core::ArbMisResult result = core::arb_mis(g, options, 5);
  EXPECT_TRUE(verify(g, result.mis).ok());
}

TEST(GatherSolve, InsufficientRootingBudgetThrows) {
  const graph::Graph g = graph::gen::path(200);
  EXPECT_THROW(GatherSolveMis::run(g, 1, /*rooting_budget=*/3),
               std::invalid_argument);
}

}  // namespace
}  // namespace arbmis::mis
