// Tests for Linial's color reduction and the bounded-degree MIS.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "graph/generators.h"
#include "mis/linial.h"
#include "mis/verifier.h"

namespace arbmis::mis {
namespace {

TEST(LinialSchedule, ReachesDegreeSquaredColors) {
  for (std::uint64_t n : {100ULL, 10000ULL, 1ULL << 20}) {
    for (std::uint64_t d : {2ULL, 4ULL, 8ULL}) {
      const LinialSchedule schedule = LinialSchedule::compute(n, d);
      EXPECT_LE(schedule.final_colors, (2 * d + 10) * (2 * d + 10))
          << "n=" << n << " d=" << d;
      EXPECT_LE(schedule.steps.size(), 6u);  // log* behavior
      // The schedule strictly decreases.
      std::uint64_t m = n;
      for (const auto& step : schedule.steps) {
        EXPECT_EQ(step.colors_in, m);
        EXPECT_LT(step.colors_out, m);
        EXPECT_GT(step.prime_q, step.degree_k * d);
        m = step.colors_out;
      }
      EXPECT_EQ(schedule.final_colors, m);
    }
  }
}

TEST(LinialSchedule, LogStarGrowth) {
  const auto small = LinialSchedule::compute(1 << 10, 4).steps.size();
  const auto large = LinialSchedule::compute(1 << 26, 4).steps.size();
  EXPECT_LE(large, small + 2);
}

class LinialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinialSweep, ColoringIsProper) {
  util::Rng rng(GetParam());
  const graph::Graph g = graph::gen::gnp(150, 0.04, rng);
  LinialMis algorithm(g, {.max_degree = g.max_degree()});
  sim::Network net(g, GetParam());
  const sim::RunStats stats = net.run(algorithm, 1 << 20);
  EXPECT_TRUE(stats.all_halted);
  const auto& colors = algorithm.final_colors();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LT(colors[v], algorithm.schedule().final_colors);
    for (graph::NodeId w : g.neighbors(v)) {
      EXPECT_NE(colors[v], colors[w]) << "edge " << v << "-" << w;
    }
  }
}

TEST_P(LinialSweep, MisIsVerified) {
  util::Rng rng(GetParam() + 7);
  for (const graph::Graph& g :
       {graph::gen::grid(8, 8), graph::gen::cycle(50),
        graph::gen::random_tree(100, rng),
        graph::gen::union_of_random_forests(100, 2, rng)}) {
    const MisResult result = LinialMis::run(g, g.max_degree(), GetParam());
    EXPECT_TRUE(verify(g, result).ok());
    EXPECT_TRUE(result.stats.all_halted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinialSweep, ::testing::Values(1, 55, 777));

TEST(Linial, RoundsIndependentOfN) {
  // Same degree bound, 16x nodes: rounds should grow by at most the log*
  // term (a couple of reduction steps), not with n. Sizes chosen large
  // enough that both schedules bottom out at the same O(D²) fixed point.
  const graph::Graph small = graph::gen::grid(32, 32);
  const graph::Graph large = graph::gen::grid(128, 128);
  const auto rs = LinialMis::run(small, 4, 1).stats.rounds;
  const auto rl = LinialMis::run(large, 4, 1).stats.rounds;
  EXPECT_LE(rl, rs + 3);
}

TEST(Linial, ThrowsWhenDegreeBoundWrong) {
  // Star with 199 leaves, claimed max degree 2: the center has far more
  // distinct neighbor colors than a GF(q) for q ~ k·2 can separate, so it
  // must fail to find an evaluation point (which is the designed failure
  // mode certifying a wrong degree bound).
  const graph::Graph g = graph::gen::star(200);
  EXPECT_THROW(LinialMis::run(g, 2, 1), std::logic_error);
}

TEST(Linial, HandlesTinyGraphs) {
  for (graph::NodeId n : {0u, 1u, 2u, 3u}) {
    const graph::Graph g = graph::gen::path(n);
    const MisResult result =
        LinialMis::run(g, std::max<graph::NodeId>(g.max_degree(), 1), 1);
    EXPECT_TRUE(verify(g, result).ok()) << "n=" << n;
  }
}

TEST(Linial, DeterministicAcrossSeeds) {
  const graph::Graph g = graph::gen::grid(6, 6);
  const MisResult a = LinialMis::run(g, 4, 1);
  const MisResult b = LinialMis::run(g, 4, 31337);
  EXPECT_EQ(a.state, b.state);  // fully deterministic algorithm
}

}  // namespace
}  // namespace arbmis::mis
