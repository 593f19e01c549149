// CONGEST compliance meta-test: every distributed algorithm in the
// repository must stay within one message per directed edge per round
// (the simulator aborts otherwise — this test proves nothing aborted and
// the recorded max edge load is 1 across a workload battery).
//
// Beyond the per-edge message count checked here, every one of these runs
// also passes through the full runtime model checker (sim/model_check.h,
// on by default): per-edge bit budgets, cross-node state-read isolation,
// and per-round randomness budgets are enforced on this whole battery,
// with fail_fast=true — a violation anywhere would throw and fail the
// test. Checker-specific behavior is covered in test_model_check.cpp.
#include <gtest/gtest.h>

#include "core/arb_mis.h"
#include "core/bounded_arb.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "mis/cole_vishkin.h"
#include "mis/forest_decomposition.h"
#include "mis/ghaffari.h"
#include "mis/linial.h"
#include "mis/luby.h"
#include "mis/matching.h"
#include "mis/metivier.h"
#include "sim/bfs_rooting.h"

namespace arbmis {
namespace {

graph::Graph battery_graph(std::size_t index, util::Rng& rng) {
  switch (index % 4) {
    case 0: return graph::gen::random_tree(300, rng);
    case 1: return graph::gen::hubbed_forest_union(300, 2, 4, rng);
    case 2: return graph::gen::random_apollonian(300, rng);
    default: return graph::gen::gnp(300, 0.04, rng);
  }
}

TEST(CongestCompliance, AllSimulatedAlgorithmsRespectEdgeBudget) {
  util::Rng rng(55);
  for (std::size_t i = 0; i < 4; ++i) {
    const graph::Graph g = battery_graph(i, rng);
    EXPECT_LE(mis::MetivierMis::run(g, i).stats.max_edge_load, 1u);
    EXPECT_LE(mis::LubyBMis::run(g, i).stats.max_edge_load, 1u);
    EXPECT_LE(mis::GhaffariMis::run(g, i).stats.max_edge_load, 1u);
    EXPECT_LE(mis::MetivierMis::run(g, i, {.priority = mis::PriorityRule::kId},
                                    mis::kIdPriorityMaxRounds)
                  .stats.max_edge_load,
              1u);
    EXPECT_LE(mis::IsraeliItaiMatching::run(g, i).stats.max_edge_load, 1u);
    EXPECT_LE(mis::LinialMis::run(g, g.max_degree(), i).stats.max_edge_load,
              1u);
    EXPECT_LE(sim::BfsRooting::run(g, i, g.num_nodes()).stats.max_edge_load,
              1u);
    const auto fd = mis::ForestDecomposition::run(
        g, {.alpha = std::max<graph::NodeId>(graph::degeneracy(g), 1),
            .eps = 2.0});
    EXPECT_LE(fd.stats.max_edge_load, 1u);
    const core::Params params = core::Params::practical(2, g.max_degree());
    EXPECT_LE(core::BoundedArbIndependentSet::run(g, params, i)
                  .stats.max_edge_load,
              1u);
  }
}

TEST(CongestCompliance, ColeVishkinRespectsEdgeBudget) {
  util::Rng rng(77);
  const graph::Graph t = graph::gen::random_tree(400, rng);
  const auto rooting = sim::BfsRooting::run(t, 1, t.num_nodes());
  ASSERT_TRUE(rooting.stabilized);
  const auto cv = mis::cole_vishkin_mis(t, rooting.parent);
  EXPECT_LE(cv.stats.max_edge_load, 1u);
}

TEST(CongestCompliance, MessagesAreOneWordWide) {
  // Structural: the Message type physically cannot carry more than one
  // 64-bit payload word, so O(log n) bits per message holds for any graph
  // this simulator can represent. Pin the accounting constant.
  static_assert(sizeof(sim::Message::payload) == 8);
  EXPECT_EQ(sim::kBitsPerMessage, 72u);
}

}  // namespace
}  // namespace arbmis
