// Parameterized correctness battery: every distributed MIS baseline ×
// every graph family × several seeds must produce a verified MIS, plus
// algorithm-specific behavior tests.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "graph/generators.h"
#include "mis/ghaffari.h"
#include "mis/luby.h"
#include "mis/metivier.h"
#include "mis/verifier.h"
#include "sim/network.h"

namespace arbmis::mis {
namespace {

/// The deterministic election: MetivierMis with id priorities.
MisResult election(graph::GraphView g, std::uint64_t seed) {
  return MetivierMis::run(g, seed, {.priority = PriorityRule::kId},
                          kIdPriorityMaxRounds);
}

struct GraphCase {
  std::string name;
  std::function<graph::Graph(util::Rng&)> make;
};

std::vector<GraphCase> graph_battery() {
  return {
      {"empty", [](util::Rng&) { return graph::Graph(0); }},
      {"single", [](util::Rng&) { return graph::Graph(1); }},
      {"isolated", [](util::Rng&) { return graph::Builder(7).build(); }},
      {"edge", [](util::Rng&) { return graph::gen::path(2); }},
      {"path", [](util::Rng&) { return graph::gen::path(33); }},
      {"cycle", [](util::Rng&) { return graph::gen::cycle(40); }},
      {"star", [](util::Rng&) { return graph::gen::star(50); }},
      {"complete", [](util::Rng&) { return graph::gen::complete(12); }},
      {"bipartite",
       [](util::Rng&) { return graph::gen::complete_bipartite(6, 9); }},
      {"grid", [](util::Rng&) { return graph::gen::grid(7, 9); }},
      {"hypercube", [](util::Rng&) { return graph::gen::hypercube(5); }},
      {"random_tree",
       [](util::Rng& rng) { return graph::gen::random_tree(120, rng); }},
      {"pa_tree",
       [](util::Rng& rng) {
         return graph::gen::preferential_attachment_tree(120, rng);
       }},
      {"gnp", [](util::Rng& rng) { return graph::gen::gnp(120, 0.06, rng); }},
      {"apollonian",
       [](util::Rng& rng) { return graph::gen::random_apollonian(120, rng); }},
      {"forest_union_3",
       [](util::Rng& rng) {
         return graph::gen::union_of_random_forests(120, 3, rng);
       }},
      {"k_tree_2",
       [](util::Rng& rng) { return graph::gen::k_tree(120, 2, rng); }},
  };
}

struct AlgorithmCase {
  std::string name;
  std::function<MisResult(const graph::Graph&, std::uint64_t)> run;
};

std::vector<AlgorithmCase> algorithm_battery() {
  return {
      {"metivier",
       [](const graph::Graph& g, std::uint64_t seed) {
         return MetivierMis::run(g, seed);
       }},
      {"luby_a",
       [](const graph::Graph& g, std::uint64_t seed) {
         return luby_a_mis(g, seed);
       }},
      {"luby_b",
       [](const graph::Graph& g, std::uint64_t seed) {
         return LubyBMis::run(g, seed);
       }},
      {"ghaffari",
       [](const graph::Graph& g, std::uint64_t seed) {
         return GhaffariMis::run(g, seed);
       }},
      {"election",
       [](const graph::Graph& g, std::uint64_t seed) {
         return election(g, seed);
       }},
  };
}

using SweepParam = std::tuple<std::size_t, std::size_t, std::uint64_t>;

class MisSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MisSweep, ProducesVerifiedMis) {
  const auto [graph_index, algorithm_index, seed] = GetParam();
  const GraphCase graph_case = graph_battery()[graph_index];
  const AlgorithmCase algorithm_case = algorithm_battery()[algorithm_index];
  util::Rng rng(seed * 7919 + graph_index);
  const graph::Graph g = graph_case.make(rng);
  const MisResult result = algorithm_case.run(g, seed);
  const Verification v = verify(g, result);
  EXPECT_TRUE(v.ok()) << algorithm_case.name << " on " << graph_case.name
                      << " seed " << seed << ": " << v.describe();
  EXPECT_TRUE(result.stats.all_halted)
      << algorithm_case.name << " on " << graph_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, MisSweep,
    ::testing::Combine(::testing::Range<std::size_t>(0, 17),
                       ::testing::Range<std::size_t>(0, 5),
                       ::testing::Values(1, 42, 2026)),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      const std::size_t g = std::get<0>(param_info.param);
      const std::size_t a = std::get<1>(param_info.param);
      const std::uint64_t s = std::get<2>(param_info.param);
      return graph_battery()[g].name + "_" + algorithm_battery()[a].name +
             "_s" + std::to_string(s);
    });

TEST(Metivier, DeterministicGivenSeed) {
  util::Rng rng(71);
  const graph::Graph g = graph::gen::gnp(80, 0.08, rng);
  const MisResult a = MetivierMis::run(g, 5);
  const MisResult b = MetivierMis::run(g, 5);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(Metivier, DifferentSeedsUsuallyDiffer) {
  util::Rng rng(73);
  const graph::Graph g = graph::gen::gnp(80, 0.08, rng);
  const MisResult a = MetivierMis::run(g, 1);
  const MisResult b = MetivierMis::run(g, 2);
  EXPECT_NE(a.state, b.state);  // overwhelmingly likely
}

TEST(Metivier, LogarithmicRoundGrowth) {
  // Rounds should grow slowly (O(log n) whp): a 16x larger graph should
  // take far less than 16x the rounds.
  util::Rng rng(79);
  const graph::Graph small = graph::gen::gnp(256, 0.02, rng);
  const graph::Graph large = graph::gen::gnp(4096, 0.02 / 16, rng);
  const auto small_rounds = MetivierMis::run(small, 3).stats.rounds;
  const auto large_rounds = MetivierMis::run(large, 3).stats.rounds;
  EXPECT_LT(large_rounds, small_rounds * 8);
}

TEST(LubyA, PriorityRangeIsNFourth) {
  const graph::Graph g = graph::gen::path(4);
  const MisResult result = luby_a_mis(g, 1);
  EXPECT_TRUE(verify(g, result).ok());
}

TEST(LubyA, PriorityRangeSaturatesAtHugeN) {
  // Regression: n = 2^16 makes n^4 = 2^64 wrap to zero with plain
  // multiplication, collapsing all priorities to one value and spinning
  // the competition forever. The range must saturate instead.
  const graph::Graph g = graph::gen::path(1 << 16);
  const MisResult result = luby_a_mis(g, 1, /*max_rounds=*/4000);
  EXPECT_TRUE(result.stats.all_halted);
  EXPECT_TRUE(verify(g, result).ok());
}

TEST(Election, DeterministicAndSeedIndependent) {
  util::Rng rng(83);
  const graph::Graph g = graph::gen::gnp(60, 0.1, rng);
  const MisResult a = election(g, 1);
  const MisResult b = election(g, 999);
  EXPECT_EQ(a.state, b.state);  // the election never consults the RNG
}

TEST(Election, PicksLocalMaxima) {
  const graph::Graph g = graph::gen::path(3);
  const MisResult result = election(g, 0);
  EXPECT_TRUE(result.in_mis(2));
  EXPECT_TRUE(result.in_mis(0));
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

TEST(Election, MatchesTheFormerElectionPins) {
  // Labels hash, rounds and messages recorded from the election's former
  // separate implementation (its own tags, same protocol). path(64) has
  // increasing ids, the worst case: one MIS node every two rounds.
  util::Rng rng(2024);
  const graph::Graph tree = graph::gen::random_tree(2000, rng);
  const graph::Graph path = graph::gen::path(64);
  const graph::Graph star = graph::gen::star(30);
  const struct {
    const char* name;
    const graph::Graph& g;
    std::uint64_t hash;
    std::uint32_t rounds;
    std::uint64_t messages;
  } pins[] = {
      {"path", path, 0x929b6d41626ca1e5ULL, 64u, 4064u},
      {"star", star, 0x7d8c3ef933d2f610ULL, 2u, 87u},
      {"random_tree", tree, 0x3a4731c10cdd6b29ULL, 6u, 7044u},
  };
  for (const auto& pin : pins) {
    const MisResult result = election(pin.g, 1);
    EXPECT_EQ(state_hash(result.state), pin.hash) << pin.name;
    EXPECT_EQ(result.stats.rounds, pin.rounds) << pin.name;
    EXPECT_EQ(result.stats.messages, pin.messages) << pin.name;
  }
}

TEST(Election, DrawsNoRandomnessOnAnyExecutor) {
  // Id priorities are fixed: no node draws, so the checker's read
  // multiplicity k is 0, and neither the seed nor the executor changes the
  // labels.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::random_tree(2000, rng);
  const std::vector<MisState> expected = election(g, 1).state;
  for (const std::uint32_t threads : {0u, 1u, 2u, 8u}) {
    for (const std::uint64_t seed : {1u, 999u}) {
      sim::NetworkOptions options;
      options.num_threads = threads;
      sim::Network net(g, seed, options);
      MetivierMis algorithm(g, {.priority = PriorityRule::kId});
      net.run(algorithm, kIdPriorityMaxRounds);
      EXPECT_EQ(net.total_rng_draws(), 0u) << threads << " " << seed;
      EXPECT_EQ(net.model_check_report().k, 0u) << threads << " " << seed;
      EXPECT_EQ(algorithm.states(), expected) << threads << " " << seed;
    }
  }
}

TEST(Ghaffari, DesiresStayInRange) {
  // Indirect check: the algorithm terminates quickly on a dense graph,
  // which requires the desire dynamics to function.
  util::Rng rng(89);
  const graph::Graph g = graph::gen::gnp(200, 0.2, rng);
  const MisResult result = GhaffariMis::run(g, 4);
  EXPECT_TRUE(verify(g, result).ok());
  EXPECT_LT(result.stats.rounds, 400u);
}

TEST(AllAlgorithms, MisSizesWithinRange) {
  // On a star only two MIS shapes exist: {center} or all leaves.
  const graph::Graph g = graph::gen::star(30);
  for (const auto& algorithm : algorithm_battery()) {
    const MisResult result = algorithm.run(g, 11);
    const auto size = result.mis_size();
    EXPECT_TRUE(size == 1 || size == 29) << algorithm.name;
  }
}

}  // namespace
}  // namespace arbmis::mis
