// Tests for the full ArbMIS pipeline (the paper's Algorithm 2).
#include <gtest/gtest.h>

#include "core/arb_mis.h"
#include "graph/generators.h"
#include "mis/verifier.h"

namespace arbmis::core {
namespace {

using Param = std::tuple<graph::NodeId, std::uint64_t>;

class ArbMisSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ArbMisSweep, ProducesVerifiedMisOnForestUnions) {
  const auto [alpha, seed] = GetParam();
  util::Rng rng(seed);
  const graph::Graph g =
      graph::gen::union_of_random_forests(700, alpha, rng);
  ArbMisOptions options;
  options.alpha = alpha;
  const ArbMisResult result = arb_mis(g, options, seed);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
  EXPECT_FALSE(result.cleanup_used);
  // Stage sizes partition the shattering leftovers.
  EXPECT_EQ(result.vlo_size + result.vhi_size,
            std::count(result.shatter_outcome.begin(),
                       result.shatter_outcome.end(), ArbOutcome::kRemaining));
}

INSTANTIATE_TEST_SUITE_P(
    AlphaSeeds, ArbMisSweep,
    ::testing::Combine(::testing::Values<graph::NodeId>(1, 2, 3),
                       ::testing::Values<std::uint64_t>(3, 88, 2025)));

TEST(ArbMis, WorksOnTrees) {
  util::Rng rng(41);
  const graph::Graph t = graph::gen::random_tree(800, rng);
  const ArbMisResult result = arb_mis(t, {.alpha = 1}, 7);
  EXPECT_TRUE(mis::verify(t, result.mis).ok());
}

TEST(ArbMis, WorksOnPlanar) {
  util::Rng rng(43);
  const graph::Graph g = graph::gen::random_apollonian(600, rng);
  const ArbMisResult result = arb_mis(g, {.alpha = 3}, 11);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
}

TEST(ArbMis, WorksOnTinyAndDegenerateInputs) {
  for (graph::NodeId n : {0u, 1u, 2u, 5u}) {
    const graph::Graph g = graph::gen::path(n);
    const ArbMisResult result = arb_mis(g, {.alpha = 1}, 1);
    EXPECT_TRUE(mis::verify(g, result.mis).ok()) << "n=" << n;
  }
  const graph::Graph isolated = graph::Builder(6).build();
  EXPECT_TRUE(mis::verify(isolated, arb_mis(isolated, {.alpha = 1}, 1).mis).ok());
}

TEST(ArbMis, PaperFaithfulParamsDegenerateButCorrect) {
  // With the printed constants Θ = 0, so the whole graph flows to the
  // finishing stage — still a correct MIS, just no shattering.
  util::Rng rng(47);
  const graph::Graph g = graph::gen::union_of_random_forests(300, 2, rng);
  ArbMisOptions options;
  options.alpha = 2;
  options.paper_faithful_params = true;
  const ArbMisResult result = arb_mis(g, options, 3);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
  EXPECT_EQ(result.params.num_scales, 0u);
  EXPECT_EQ(result.bad_size, 0u);
}

TEST(ArbMis, DegreeReductionPathVerifies) {
  util::Rng rng(53);
  const graph::Graph g = graph::gen::union_of_random_forests(600, 2, rng);
  ArbMisOptions options;
  options.alpha = 2;
  options.degree_reduction = true;
  const ArbMisResult result = arb_mis(g, options, 5);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
  EXPECT_GT(result.reduction_stats.rounds, 0u);
}

TEST(ArbMis, AllFinisherChoicesVerify) {
  util::Rng rng(59);
  const graph::Graph g = graph::gen::union_of_random_forests(400, 2, rng);
  for (Finisher finisher : {Finisher::kMetivier, Finisher::kLinial,
                            Finisher::kElection, Finisher::kSparse,
                            Finisher::kGather}) {
    ArbMisOptions options;
    options.alpha = 2;
    options.finisher = finisher;
    options.bad_finisher = finisher;
    const ArbMisResult result = arb_mis(g, options, 13);
    EXPECT_TRUE(mis::verify(g, result.mis).ok())
        << "finisher " << static_cast<int>(finisher);
  }
}

TEST(ArbMis, StatsAreAdditive) {
  util::Rng rng(61);
  const graph::Graph g = graph::gen::union_of_random_forests(500, 2, rng);
  const ArbMisResult result = arb_mis(g, {.alpha = 2}, 17);
  EXPECT_EQ(result.mis.stats.rounds,
            result.reduction_stats.rounds + result.shatter_stats.rounds +
                result.low_stats.rounds + result.high_stats.rounds +
                result.bad_stats.rounds);
}

TEST(ArbMis, DeterministicGivenSeed) {
  util::Rng rng(67);
  const graph::Graph g = graph::gen::union_of_random_forests(300, 2, rng);
  const ArbMisResult a = arb_mis(g, {.alpha = 2}, 23);
  const ArbMisResult b = arb_mis(g, {.alpha = 2}, 23);
  EXPECT_EQ(a.mis.state, b.mis.state);
  EXPECT_EQ(a.mis.stats.rounds, b.mis.stats.rounds);
}

TEST(ArbMis, BadComponentStatsPopulated) {
  util::Rng rng(71);
  const graph::Graph g = graph::gen::union_of_random_forests(1500, 3, rng);
  const ArbMisResult result = arb_mis(g, {.alpha = 3}, 29);
  EXPECT_EQ(result.bad_components.set_size, result.bad_size);
  if (result.bad_size > 0) {
    EXPECT_GT(result.bad_components.num_components, 0u);
    EXPECT_GE(result.bad_components.largest_component, 1u);
  }
}

TEST(ArbMis, InvariantAuditOption) {
  util::Rng rng(79);
  const graph::Graph g = graph::gen::hubbed_forest_union(2000, 2, 4, rng);
  ArbMisOptions options;
  options.alpha = 2;
  options.audit_invariant = true;
  const ArbMisResult result = arb_mis(g, options, 37);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
  EXPECT_TRUE(result.invariant_held);
  // One audit per executed scale (the run can end early if everyone is
  // decided before the last scale).
  EXPECT_LE(result.invariant_audits.size(), result.params.num_scales);
  for (const auto& audit : result.invariant_audits) {
    EXPECT_EQ(audit.violations, 0u) << "scale " << audit.scale;
  }
  // The audited and unaudited runs agree bit-for-bit.
  ArbMisOptions plain = options;
  plain.audit_invariant = false;
  const ArbMisResult reference = arb_mis(g, plain, 37);
  EXPECT_EQ(result.mis.state, reference.mis.state);
}

TEST(ArbMis, GnpControlStillCorrect) {
  // Unbounded-arboricity input: no claims about speed, but the pipeline
  // must remain correct (α is just a parameter hint).
  util::Rng rng(73);
  const graph::Graph g = graph::gen::gnp(300, 0.05, rng);
  const ArbMisResult result = arb_mis(g, {.alpha = 4}, 31);
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
}

}  // namespace
}  // namespace arbmis::core
