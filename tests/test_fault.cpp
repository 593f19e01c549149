// Tests of the fault-injection subsystem (src/fault/): FaultPlan
// determinism and the Network's fault accounting (FaultRound events,
// RunStats::faults), the edge cases crash-at-round-0, crash-all-neighbors,
// 100% drop and duplicate storm, zero-cost-when-off equivalence, and
// ResilientMis certification on the standard test graphs under every
// adversary.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "fault/resilient_mis.h"
#include "graph/generators.h"
#include "mis/distributed_verify.h"
#include "mis/ghaffari.h"
#include "mis/luby.h"
#include "mis/verifier.h"
#include "round_events.h"
#include "sim/network.h"

namespace arbmis {
namespace {

/// Test-only adversary with an explicit crash schedule (round -> nodes)
/// and fixed message odds.
class ScriptedAdversary final : public fault::Adversary {
 public:
  ScriptedAdversary(fault::MessageOdds odds,
                    std::map<std::uint32_t, std::vector<graph::NodeId>> crashes,
                    std::uint32_t recovery_delay = 0)
      : odds_(odds),
        crashes_(std::move(crashes)),
        recovery_delay_(recovery_delay) {}

  std::string_view name() const override { return "scripted"; }
  fault::MessageOdds message_odds(graph::NodeId, graph::NodeId,
                                  std::uint32_t) const override {
    return odds_;
  }
  void pick_crashes(std::uint32_t round, const fault::AdversaryView&,
                    util::Rng&, std::vector<graph::NodeId>& out) override {
    const auto it = crashes_.find(round);
    if (it == crashes_.end()) return;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::uint32_t recovery_delay() const override { return recovery_delay_; }

 private:
  fault::MessageOdds odds_;
  std::map<std::uint32_t, std::vector<graph::NodeId>> crashes_;
  std::uint32_t recovery_delay_;
};

std::vector<std::pair<std::string, graph::Graph>> standard_graphs(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, graph::Graph>> graphs;
  graphs.emplace_back("path", graph::gen::path(64));
  {
    util::Rng rng(seed);
    graphs.emplace_back("random_tree", graph::gen::random_tree(200, rng));
  }
  {
    util::Rng rng(seed + 1);
    graphs.emplace_back("gnp", graph::gen::gnp(150, 0.05, rng));
  }
  {
    util::Rng rng(seed + 2);
    graphs.emplace_back("forest_union",
                        graph::gen::union_of_random_forests(200, 2, rng));
  }
  return graphs;
}

mis::MisResult run_luby_with_plan(const graph::Graph& g, std::uint64_t seed,
                                  fault::FaultPlan* plan,
                                  std::uint32_t max_rounds = 4096) {
  sim::NetworkOptions options;
  options.fault = plan;
  sim::Network net(g, seed, options);
  mis::LubyBMis algo(g);
  mis::MisResult result;
  result.stats = net.run(algo, max_rounds);
  result.state = algo.states();
  return result;
}

TEST(FaultPlan, NoOpPlanIsByteIdenticalToFaultFreeRun) {
  // All-zero rates: every message fate is "deliver once", no crashes. The
  // run must be byte-identical to one with no injector attached at all —
  // the zero-cost-when-off property from the other side of the seam.
  const graph::Graph g = graph::gen::path(32);
  fault::IidAdversary idle({});
  fault::FaultPlan plan(g, 99, idle);
  const mis::MisResult with_plan = run_luby_with_plan(g, 99, &plan);
  const mis::MisResult without = run_luby_with_plan(g, 99, nullptr);
  EXPECT_EQ(with_plan.state, without.state);
  EXPECT_EQ(with_plan.stats.rounds, without.stats.rounds);
  EXPECT_EQ(with_plan.stats.messages, without.stats.messages);
  EXPECT_EQ(with_plan.stats.payload_bits, without.stats.payload_bits);
  EXPECT_EQ(with_plan.stats.faults, sim::FaultTotals{});
}

TEST(FaultPlan, PlanIsAPureFunctionOfGraphSeedAdversary) {
  util::Rng rng(5);
  const graph::Graph g = graph::gen::gnp(80, 0.08, rng);
  const auto run = [&g]() {
    fault::IidAdversary adversary(
        {.drop_rate = 0.2, .duplicate_rate = 0.1, .crash_rate = 0.02,
         .recovery_delay = 3});
    fault::FaultPlan plan(g, 7, adversary);
    mis::MisResult result;
    const std::vector<obs::OwnedEvent> fault_rounds = test::capture_events(
        {obs::EventKind::kFaultRound},
        [&] { result = run_luby_with_plan(g, 7, &plan); });
    return std::make_tuple(result.state, result.stats.messages, fault_rounds,
                           result.stats.faults);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(std::get<0>(first), std::get<0>(second));
  EXPECT_EQ(std::get<1>(first), std::get<1>(second));
  EXPECT_EQ(std::get<2>(first), std::get<2>(second));
  EXPECT_TRUE(std::get<3>(first) == std::get<3>(second));
}

TEST(FaultPlan, FaultRoundEventsSumToRunStats) {
  util::Rng rng(11);
  const graph::Graph g = graph::gen::gnp(60, 0.1, rng);
  fault::IidAdversary adversary(
      {.drop_rate = 0.3, .duplicate_rate = 0.15, .crash_rate = 0.01});
  fault::FaultPlan plan(g, 3, adversary);
  sim::NetworkOptions options;
  options.fault = &plan;
  sim::Network net(g, 3, options);
  mis::LubyBMis algo(g);
  sim::RunStats stats;
  const std::vector<obs::OwnedEvent> events = test::capture_events(
      {obs::EventKind::kRound, obs::EventKind::kFaultRound},
      [&] { stats = net.run(algo, 2048); });

  // One FaultRound per executed round, round 0 (on_start) included, each
  // right behind its round's Round event.
  ASSERT_EQ(events.size(), 2 * (std::size_t{stats.rounds} + 1));
  for (std::size_t i = 0; i < events.size(); i += 2) {
    EXPECT_EQ(events[i].kind, obs::EventKind::kRound);
    EXPECT_EQ(events[i + 1].kind, obs::EventKind::kFaultRound);
    EXPECT_EQ(events[i + 1].round, i / 2);
  }
  // Together they are the run's totals.
  const sim::FaultTotals summed = test::sum_fault_rounds(events);
  EXPECT_EQ(summed, stats.faults);
  EXPECT_GT(summed.drops, 0u);
  EXPECT_GT(summed.duplicates, 0u);
}

TEST(FaultPlan, CrashAtRoundZeroSilencesTheNodeForGood) {
  const graph::Graph g = graph::gen::path(8);
  ScriptedAdversary adversary({}, {{0, {3}}});
  fault::FaultPlan plan(g, 1, adversary);
  const mis::MisResult result = run_luby_with_plan(g, 1, &plan);
  // Node 3 never ran (not even on_start): no label, still down.
  EXPECT_EQ(result.state[3], mis::MisState::kUndecided);
  EXPECT_TRUE(plan.is_down(3));
  EXPECT_EQ(plan.num_down(), 1u);
  // Exactly one crash; the only drops are the neighbors' messages into
  // the dead node (sends to a down node are lost in transit).
  EXPECT_EQ(result.stats.faults.crashes, 1u);
  EXPECT_EQ(result.stats.faults.recoveries, 0u);
  EXPECT_EQ(result.stats.faults.duplicates, 0u);
  EXPECT_GT(result.stats.faults.drops, 0u);
  // The survivors still settle a valid MIS of the residual path.
  std::vector<std::uint8_t> in_mis(g.num_nodes(), 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    in_mis[v] = (result.state[v] == mis::MisState::kInMis) ? 1 : 0;
  }
  EXPECT_TRUE(mis::is_independent(g, in_mis));
}

TEST(FaultPlan, CrashAllNeighborsLeavesTheCenterSelfSufficient) {
  // Star: crash every leaf at round 0; the center sees an empty
  // neighborhood and must still decide (Luby joins outright).
  const graph::Graph g = graph::gen::star(9);  // node 0 = center
  std::vector<graph::NodeId> leaves;
  for (graph::NodeId v = 1; v < g.num_nodes(); ++v) leaves.push_back(v);
  ScriptedAdversary adversary({}, {{0, leaves}});
  fault::FaultPlan plan(g, 2, adversary);
  const mis::MisResult result = run_luby_with_plan(g, 2, &plan);
  EXPECT_EQ(result.state[0], mis::MisState::kInMis);
  EXPECT_EQ(plan.num_down(), g.num_nodes() - 1);
  for (graph::NodeId v = 1; v < g.num_nodes(); ++v) {
    EXPECT_EQ(result.state[v], mis::MisState::kUndecided) << v;
  }
}

TEST(FaultPlan, HundredPercentDropDeliversNothing) {
  const graph::Graph g = graph::gen::cycle(16);
  fault::IidAdversary adversary({.drop_rate = 1.0});
  fault::FaultPlan plan(g, 4, adversary);
  const mis::MisResult result = run_luby_with_plan(g, 4, &plan, 256);
  // Every send was eaten: nothing was ever consumed, everything dropped.
  EXPECT_EQ(result.stats.messages, 0u);
  EXPECT_GT(result.stats.faults.drops, 0u);
  EXPECT_EQ(result.stats.faults.duplicates, 0u);
  // Under total blackout every Luby node sees an empty neighborhood and
  // joins — the canonical safety violation ResilientMis exists to catch.
  std::vector<std::uint8_t> in_mis(g.num_nodes(), 1);
  EXPECT_FALSE(mis::is_independent(g, in_mis));
}

TEST(FaultPlan, DuplicateStormDeliversEveryMessageTwice) {
  const graph::Graph g = graph::gen::cycle(12);
  fault::IidAdversary adversary({.duplicate_rate = 1.0});
  fault::FaultPlan plan(g, 6, adversary);
  const mis::MisResult result = run_luby_with_plan(g, 6, &plan, 1024);
  // Every message is delivered exactly twice (delivered = 2 x sent =
  // 2 x duplicates). Consumed counts can fall short — messages landing on
  // an already-halted node are never read — but they always come in pairs.
  EXPECT_GT(result.stats.faults.duplicates, 0u);
  EXPECT_GT(result.stats.messages, 0u);
  EXPECT_LE(result.stats.messages, 2 * result.stats.faults.duplicates);
  EXPECT_EQ(result.stats.messages % 2, 0u);
  EXPECT_EQ(result.stats.faults.drops, 0u);
}

TEST(FaultPlan, RecoveryBringsCrashedNodesBack) {
  const graph::Graph g = graph::gen::path(10);
  ScriptedAdversary adversary({}, {{1, {4, 5}}}, /*recovery_delay=*/2);
  fault::FaultPlan plan(g, 8, adversary);
  const mis::MisResult result = run_luby_with_plan(g, 8, &plan);
  EXPECT_EQ(result.stats.faults.crashes, 2u);
  EXPECT_EQ(result.stats.faults.recoveries, 2u);
  EXPECT_EQ(plan.num_down(), 0u);
  EXPECT_FALSE(plan.recovery_pending());
  // Recovered nodes resume with state intact and eventually decide.
  EXPECT_TRUE(result.stats.all_halted);
  EXPECT_NE(result.state[4], mis::MisState::kUndecided);
  EXPECT_NE(result.state[5], mis::MisState::kUndecided);
}

TEST(Adversary, AdaptiveTargetsHighDegreeActiveNodes) {
  const graph::Graph g = graph::gen::star(16);  // center has degree 15
  fault::AdaptiveAdversary adversary(
      {.drop_rate = 0.9, .crash_period = 2, .max_crashes = 1,
       .degree_fraction = 0.1});
  fault::FaultPlan plan(g, 5, adversary);
  EXPECT_TRUE(adversary.targeted(0));
  EXPECT_FALSE(adversary.targeted(1));
  const mis::MisResult result = run_luby_with_plan(g, 5, &plan);
  // The single crash of the budget lands on the center (highest degree).
  EXPECT_TRUE(plan.is_down(0));
  EXPECT_EQ(result.stats.faults.crashes, 1u);
}

TEST(Adversary, BurstyAlternatesCalmAndLossyRounds) {
  fault::BurstyAdversary adversary({.base_drop_rate = 0.0,
                                    .burst_drop_rate = 0.8,
                                    .period = 6,
                                    .burst_rounds = 2});
  EXPECT_TRUE(adversary.in_burst(0));
  EXPECT_TRUE(adversary.in_burst(1));
  EXPECT_FALSE(adversary.in_burst(2));
  EXPECT_FALSE(adversary.in_burst(5));
  EXPECT_TRUE(adversary.in_burst(6));
  EXPECT_DOUBLE_EQ(adversary.message_odds(0, 1, 1).drop, 0.8);
  EXPECT_DOUBLE_EQ(adversary.message_odds(0, 1, 3).drop, 0.0);
}

TEST(ResilientMis, AttemptFaultsCountEveryRunOfTheDriver) {
  // A driver may run its attempt's Network more than once (the shatter
  // driver falls back to Luby B there). The attempt's faults are those of
  // every run: the FaultRound events of both runs, summed.
  util::Rng rng(3);
  const graph::Graph g = graph::gen::union_of_random_forests(300, 2, rng);
  const fault::MisDriver twice = [](graph::GraphView view, sim::Network& net,
                                    std::uint32_t max_rounds,
                                    sim::RunStats& stats) {
    mis::LubyBMis first(view);
    stats = net.run(first, max_rounds);
    mis::LubyBMis second(view);
    stats.absorb(net.run(second, max_rounds));
    return second.states();
  };
  fault::IidAdversary adversary({.drop_rate = 0.2,
                                 .duplicate_rate = 0.1,
                                 .crash_rate = 0.01,
                                 .recovery_delay = 3});
  fault::ResilientOptions options;
  options.max_rounds_per_attempt = 4096;
  options.fault_free_after = 1;  // only attempt 0 injects faults
  fault::ResilientResult result;
  const std::vector<obs::OwnedEvent> fault_rounds = test::capture_events(
      {obs::EventKind::kFaultRound}, [&] {
        result = fault::resilient_mis(g, 17, adversary, twice, options);
      });
  const sim::FaultTotals injected = test::sum_fault_rounds(fault_rounds);
  EXPECT_GT(injected.drops, 0u);
  EXPECT_GT(injected.duplicates, 0u);
  EXPECT_GT(injected.crashes, 0u);
  ASSERT_FALSE(result.attempt_log.empty());
  EXPECT_EQ(result.attempt_log[0].stats.faults, injected);
  EXPECT_EQ(result.faults, injected);
  EXPECT_TRUE(result.certified);
}

class ResilientMisCertification
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResilientMisCertification, CertifiesLubyOnAllStandardGraphs) {
  const std::uint64_t seed = GetParam();
  for (const auto& [name, g] : standard_graphs(seed)) {
    fault::IidAdversary adversary(
        {.drop_rate = 0.25, .duplicate_rate = 0.05, .crash_rate = 0.01});
    fault::ResilientOptions options;
    options.max_rounds_per_attempt = 4096;
    const fault::ResilientResult result = fault::resilient_mis(
        g, seed, adversary, fault::algorithm_driver<mis::LubyBMis>(),
        options);
    EXPECT_TRUE(result.certified) << name;
    EXPECT_GT(result.faults.drops, 0u) << name;
    mis::MisResult as_result;
    as_result.state = result.state;
    EXPECT_TRUE(mis::verify(g, as_result).ok()) << name;
  }
}

TEST_P(ResilientMisCertification, CertifiesGhaffariUnderBurstyLoss) {
  const std::uint64_t seed = GetParam();
  for (const auto& [name, g] : standard_graphs(seed)) {
    fault::BurstyAdversary adversary({.base_drop_rate = 0.05,
                                      .burst_drop_rate = 0.6,
                                      .period = 5,
                                      .burst_rounds = 2,
                                      .crash_rate = 0.02,
                                      .recovery_delay = 4});
    fault::ResilientOptions options;
    options.max_rounds_per_attempt = 4096;
    const fault::ResilientResult result = fault::resilient_mis(
        g, seed, adversary, fault::algorithm_driver<mis::GhaffariMis>(),
        options);
    EXPECT_TRUE(result.certified) << name;
    mis::MisResult as_result;
    as_result.state = result.state;
    EXPECT_TRUE(mis::verify(g, as_result).ok()) << name;
  }
}

TEST_P(ResilientMisCertification, CertifiesShatterDriverUnderAdaptiveFaults) {
  const std::uint64_t seed = GetParam();
  for (const auto& [name, g] : standard_graphs(seed)) {
    fault::AdaptiveAdversary adversary({.drop_rate = 0.4,
                                        .background_drop_rate = 0.05,
                                        .crash_period = 4,
                                        .max_crashes = 3});
    fault::ResilientOptions options;
    options.max_rounds_per_attempt = 4096;
    const fault::ResilientResult result = fault::resilient_mis(
        g, seed, adversary, fault::shatter_driver(2), options);
    EXPECT_TRUE(result.certified) << name;
    mis::MisResult as_result;
    as_result.state = result.state;
    EXPECT_TRUE(mis::verify(g, as_result).ok()) << name;
  }
}

TEST_P(ResilientMisCertification, RecoversFromTotalBlackout) {
  // 100% drop: no faulty attempt can certify anything beyond isolated
  // nodes, so the fault-free safety net must finish the job.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const graph::Graph g = graph::gen::gnp(80, 0.06, rng);
  fault::IidAdversary adversary({.drop_rate = 1.0});
  fault::ResilientOptions options;
  options.max_rounds_per_attempt = 512;
  options.fault_free_after = 2;
  options.max_attempts = 4;
  const fault::ResilientResult result = fault::resilient_mis(
      g, seed, adversary, fault::algorithm_driver<mis::LubyBMis>(), options);
  EXPECT_TRUE(result.certified);
  mis::MisResult as_result;
  as_result.state = result.state;
  EXPECT_TRUE(mis::verify(g, as_result).ok());
  // At least one faulty attempt ran and failed to finish the job.
  ASSERT_GE(result.attempt_log.size(), 2u);
  EXPECT_TRUE(result.attempt_log.front().faulty);
  EXPECT_LT(result.attempt_log.front().committed +
                result.attempt_log.front().covered,
            g.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilientMisCertification,
                         ::testing::Values(1, 7, 2024));

}  // namespace
}  // namespace arbmis
