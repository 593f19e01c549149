// The EngineEquivalence matrix — the contract of the shared-memory engine
// family (src/engine/): both engines, on every generator family, for every
// seed and every thread count, must produce (1) an independent and maximal
// set by the centralized verifier, (2) a set the 2-round distributed
// protocol also accepts, (3) byte-identical labels across thread counts
// {0, 1, 2, 4, 8}, and (4) the *same* set as each other — the
// lexicographically-first MIS w.r.t. (priority, id). The differential row
// ties the family to the CONGEST side: the sequential-greedy engine
// matches mis::greedy_mis over the explicit priority order label for
// label. The 4096-node rows run the TAS engine's first two frontier
// rounds partly on the worker pool (phases over fewer than 4096 items run
// their worker ranges on the calling thread); that may not move a byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "mis/distributed_verify.h"
#include "mis/greedy.h"
#include "mis/verifier.h"
#include "util/rng.h"

namespace arbmis {
namespace {

constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 8};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

struct Family {
  const char* name;
  graph::Graph (*make)(std::uint64_t seed);
};

// Four families spanning the workload spectrum: α = 1 trees, bounded-α
// forest unions (the paper's regime), planar 3-degenerate triangulations,
// and an unbounded-α G(n, p) control.
const Family kFamilies[] = {
    {"random_tree",
     [](std::uint64_t seed) {
       util::Rng rng(seed);
       return graph::gen::random_tree(500, rng);
     }},
    {"union_of_random_forests",
     [](std::uint64_t seed) {
       util::Rng rng(seed);
       return graph::gen::union_of_random_forests(400, 2, rng);
     }},
    {"random_apollonian",
     [](std::uint64_t seed) {
       util::Rng rng(seed);
       return graph::gen::random_apollonian(300, rng);
     }},
    {"gnp",
     [](std::uint64_t seed) {
       util::Rng rng(seed);
       return graph::gen::gnp(400, 0.02, rng);
     }},
};

std::vector<mis::MisState> mask_to_state(
    const std::vector<std::uint8_t>& mask) {
  std::vector<mis::MisState> state(mask.size());
  for (std::size_t v = 0; v < mask.size(); ++v) {
    state[v] = mask[v] != 0 ? mis::MisState::kInMis : mis::MisState::kCovered;
  }
  return state;
}

TEST(EngineEquivalence, MatrixEnginesByFamiliesBySeedsByThreads) {
  for (const Family& family : kFamilies) {
    for (const std::uint64_t seed : kSeeds) {
      const graph::Graph g = family.make(seed);
      // The set every engine must land on, filled by the first engine.
      std::optional<std::vector<std::uint8_t>> expected_mask;
      for (const engine::EngineKind kind : engine::all_engines()) {
        std::optional<std::uint64_t> pinned_hash;
        engine::EngineResult last;
        for (const std::uint32_t threads : kThreadCounts) {
          engine::EngineOptions options;
          options.seed = seed;
          options.num_threads = threads;
          last = engine::solve(g, kind, options);
          const mis::Verification check = mis::verify_mask(g, last.in_mis);
          ASSERT_TRUE(check.independent && check.maximal)
              << family.name << " seed=" << seed << " engine="
              << engine::engine_name(kind) << " threads=" << threads << ": "
              << check.describe();
          if (pinned_hash.has_value()) {
            ASSERT_EQ(last.labels_hash(), *pinned_hash)
                << family.name << " seed=" << seed << " engine="
                << engine::engine_name(kind) << ": threads=" << threads
                << " changed the output bytes";
          } else {
            pinned_hash = last.labels_hash();
          }
        }
        // The distributed protocol must accept the same labeling (one run
        // per engine/graph/seed; the mask is thread-invariant by the pins
        // above).
        const auto dist = mis::DistributedMisCheck::run(
            g, mask_to_state(last.in_mis), seed);
        EXPECT_TRUE(dist.all_ok)
            << family.name << " seed=" << seed
            << " engine=" << engine::engine_name(kind)
            << ": distributed verifier rejected the labeling";
        if (expected_mask.has_value()) {
          EXPECT_EQ(last.in_mis, *expected_mask)
              << family.name << " seed=" << seed << ": engine "
              << engine::engine_name(kind)
              << " disagrees with the first engine's set";
        } else {
          expected_mask = last.in_mis;
        }
      }
    }
  }
}

// With seeded priorities the family equals mis::greedy_mis over the
// explicit (priority, id) order — the permutation priority_order() exposes.
TEST(EngineEquivalence, SeededPrioritiesMatchGreedyOverPriorityOrder) {
  for (const Family& family : kFamilies) {
    const graph::Graph g = family.make(11);
    for (const std::uint64_t seed : kSeeds) {
      const std::vector<std::uint64_t> priority =
          engine::node_priorities(seed, g.num_nodes());
      const std::vector<graph::NodeId> order =
          engine::priority_order(priority);
      const std::vector<std::uint8_t> reference =
          mis::greedy_mis(g, order).mis_mask();
      engine::EngineOptions options;
      options.seed = seed;
      const engine::EngineResult got =
          engine::solve(g, engine::EngineKind::kSequentialGreedy, options);
      EXPECT_EQ(got.in_mis, reference)
          << family.name << " seed=" << seed
          << ": greedy engine diverged from mis::greedy_mis(g, order)";
    }
  }
}

// Priorities are a pure function of (seed, node): batch draws are
// position-independent and two seeds give unrelated streams.
TEST(EngineEquivalence, PrioritiesArePureAndSeedSeparated) {
  const std::vector<std::uint64_t> a = engine::node_priorities(42, 1000);
  const std::vector<std::uint64_t> b = engine::node_priorities(42, 500);
  ASSERT_EQ(std::vector<std::uint64_t>(a.begin(), a.begin() + 500), b);
  const std::vector<std::uint64_t> c = engine::node_priorities(43, 1000);
  std::size_t same = 0;
  for (std::size_t v = 0; v < a.size(); ++v) same += (a[v] == c[v]);
  EXPECT_EQ(same, 0u);
}

// The pool grain must not move a byte. At n = 4096 kTestAndSet's frontier
// starts at all 4096 nodes, exactly Workers::kPoolGrain, so at 2 and 4
// threads round 1's test and commit and round 2's compaction and test
// (sized by round 1's 4096 ids) run on the pool, and the later phases
// inline. It must land on the sequential-greedy oracle's set at every
// thread count.
TEST(EngineEquivalence, PrefixWindowsAndDenseRemnantMatchTheOracle) {
  util::Rng rng(5);
  const graph::Graph graphs[] = {
      graph::gen::hubbed_forest_union(4096, 2, 8, rng),
      graph::gen::union_of_random_forests(4096, 3, rng),
      graph::gen::gnp(4096, 0.002, rng),
  };
  for (const graph::Graph& g : graphs) {
    for (const std::uint64_t seed : kSeeds) {
      engine::EngineOptions options;
      options.seed = seed;
      const std::vector<std::uint8_t> oracle =
          engine::solve(g, engine::EngineKind::kSequentialGreedy, options)
              .in_mis;
      ASSERT_TRUE(mis::verify_mask(g, oracle).ok());
      for (const std::uint32_t threads : {0u, 2u, 4u}) {
        options.num_threads = threads;
        EXPECT_EQ(
            engine::solve(g, engine::EngineKind::kTestAndSet, options).in_mis,
            oracle)
            << "m=" << g.num_edges() << " seed=" << seed
            << " threads=" << threads;
      }
    }
  }
}

TEST(EngineEquivalence, EdgeCaseGraphs) {
  const graph::Graph empty(0);
  const graph::Graph isolated(5);
  const graph::Graph star = graph::gen::star(64);
  const graph::Graph complete = graph::gen::complete(16);
  for (const engine::EngineKind kind : engine::all_engines()) {
    engine::EngineOptions options;
    options.num_threads = 4;

    const engine::EngineResult on_empty = engine::solve(empty, kind, options);
    EXPECT_EQ(on_empty.mis_size(), 0u);

    const engine::EngineResult on_isolated =
        engine::solve(isolated, kind, options);
    EXPECT_EQ(on_isolated.mis_size(), 5u);

    const engine::EngineResult on_star = engine::solve(star, kind, options);
    EXPECT_TRUE(mis::verify_mask(star, on_star.in_mis).ok());

    const engine::EngineResult on_complete =
        engine::solve(complete, kind, options);
    EXPECT_EQ(on_complete.mis_size(), 1u);
    EXPECT_TRUE(mis::verify_mask(complete, on_complete.in_mis).ok());
  }
}

// Round counts: sequential greedy is one pass by definition; the TAS
// engine's frontier loop must report at least one round on any non-empty
// graph and must be thread-invariant, with labels equal to the oracle's at
// every thread count. At 2+ threads the 2^16-node graph runs the TAS
// engine's early phases on the pool; the 400-node one runs every thread
// count's worker ranges on the calling thread.
TEST(EngineEquivalence, RoundAccounting) {
  util::Rng rng(3);
  const graph::Graph graphs[] = {
      graph::gen::union_of_random_forests(400, 2, rng),
      graph::gen::union_of_random_forests(1 << 16, 2, rng),
  };
  for (const graph::Graph& g : graphs) {
    engine::EngineOptions serial;
    const engine::EngineResult oracle =
        engine::solve(g, engine::EngineKind::kSequentialGreedy, serial);
    EXPECT_EQ(oracle.rounds, 1u);
    const std::uint64_t serial_rounds =
        engine::solve(g, engine::EngineKind::kTestAndSet, serial).rounds;
    EXPECT_GE(serial_rounds, 1u);
    for (const std::uint32_t threads : kThreadCounts) {
      engine::EngineOptions options;
      options.num_threads = threads;
      const engine::EngineResult got =
          engine::solve(g, engine::EngineKind::kTestAndSet, options);
      EXPECT_EQ(got.rounds, serial_rounds)
          << "n=" << g.num_nodes() << " threads=" << threads;
      EXPECT_EQ(got.labels_hash(), oracle.labels_hash())
          << "n=" << g.num_nodes() << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace arbmis
