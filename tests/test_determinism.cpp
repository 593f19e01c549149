// Determinism meta-test: every randomized algorithm is a pure function of
// (graph, seed) — two runs with the same seed must agree bit-for-bit on
// the outputs and the round counts; different seeds must (overwhelmingly
// likely) differ somewhere. This is what makes every experiment in
// bench/ reproducible from the seed it prints.
#include <gtest/gtest.h>

#include <string>

#include "core/arb_mis.h"
#include "core/ghaffari_arb.h"
#include "core/lw_tree_mis.h"
#include "core/tree_mis.h"
#include "engine/engine.h"
#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "mis/bit_metivier.h"
#include "mis/gather_solve.h"
#include "mis/ghaffari.h"
#include "mis/luby.h"
#include "mis/matching.h"
#include "mis/metivier.h"
#include "sim/network.h"

namespace arbmis {
namespace {

/// FNV-1a over the per-node MIS states: collision-safe enough to pin a
/// whole output vector as a single golden constant.
std::uint64_t state_hash(const std::vector<mis::MisState>& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const mis::MisState s : state) {
    h ^= static_cast<std::uint64_t>(s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Golden hash for the faulty Luby-B run in
/// GoldenFaultyPinAcrossExecutorsAndInboxes (graph hubbed_forest_union(400,
/// 2, 4, rng(2024)), network seed 11, fault seed 11).
constexpr std::uint64_t kGoldenFaultyLubyPin = 0x307006cb35222906ULL;

// Golden pins: the exact output words of the generator for fixed seeds.
// These lock the SplitMix64 seeding and xoshiro256** step across platforms
// and compilers — any drift in util/rng.h breaks every experiment's
// reproducibility-from-seed story, so it must break the build first.
TEST(Determinism, GoldenRngOutputWords) {
  util::Rng rng(42);
  EXPECT_EQ(rng.next(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(rng.next(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(rng.next(), 0xae17533239e499a1ULL);
  EXPECT_EQ(rng.next(), 0xecb8ad4703b360a1ULL);
}

TEST(Determinism, GoldenChildStreamDerivation) {
  // child(id) must hash (state, id) identically everywhere; ids 7 and 8
  // land in unrelated streams.
  const util::Rng parent(2016);
  EXPECT_EQ(parent.child(7).next(), 0x5ada46e29936522bULL);
  EXPECT_EQ(parent.child(8).next(), 0x99c73f74581aaae1ULL);
}

TEST(Determinism, GoldenBoundedDraws) {
  // below() (Lemire rejection) and uniform01() are part of the pinned
  // surface: algorithms consume these, not raw words.
  util::Rng rng(7);
  EXPECT_EQ(rng.below(1000), 700u);
  EXPECT_EQ(rng.below(1000), 278u);
  EXPECT_EQ(rng.below(1000), 839u);
  util::Rng dbl(9);
  EXPECT_DOUBLE_EQ(dbl.uniform01(), 0.0025834396857136177);
  EXPECT_DOUBLE_EQ(dbl.uniform01(), 0.25148937241585745);
}

TEST(Determinism, GoldenPerSeedMisOutputs) {
  // End-to-end pins: full MIS output vectors (as FNV-1a hashes) for fixed
  // (generator graph, seed) pairs. If any layer between the seed and the
  // final states — graph generation, per-node stream split, message
  // schedule, tie-breaking — changes behavior, these catch it.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);

  const auto met1 = mis::MetivierMis::run(g, 1);
  EXPECT_EQ(state_hash(met1.state), 0x87b54202a38a4860ULL);
  EXPECT_EQ(met1.stats.rounds, 5u);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 2).state),
            0x36af02129ce25543ULL);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 3).state),
            0xe1e2f725bdbeab0dULL);

  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 1).state),
            0xa70b8bcaaed6cc82ULL);
  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 2).state),
            0x83842878ad8031d8ULL);

  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 1).mis.state),
            0xe1e2f725bdbeab0dULL);
  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 2).mis.state),
            0x2ad32695e98905c0ULL);

  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 1).mis.state),
            0xe8f3f3171e775bd3ULL);
  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 2).mis.state),
            0xa05a05940c3562fdULL);
}

TEST(Determinism, GoldenPerSeedEngineLabels) {
  // Golden labels-hash pins for the shared-memory engine family
  // (src/engine/). One constant per seed, asserted for BOTH engines: the
  // family's contract is that they compute the same set — the
  // lexicographically-first MIS w.r.t. (priority, id) — so distinct pins
  // per engine would be a bug, not extra coverage. Any drift in
  // util::mix64, the priority domain constant, or any engine's decision
  // rule breaks these before it can corrupt a benchmark.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
  constexpr std::uint64_t kEnginePinSeed1 = 0x82dd5c1ca73589a5ULL;
  constexpr std::uint64_t kEnginePinSeed2 = 0x838643010311e327ULL;

  for (const engine::EngineKind kind : engine::all_engines()) {
    engine::EngineOptions options;
    options.seed = 1;
    EXPECT_EQ(engine::solve(g, kind, options).labels_hash(), kEnginePinSeed1)
        << "seed=1 engine=" << engine::engine_name(kind);
    options.seed = 2;
    EXPECT_EQ(engine::solve(g, kind, options).labels_hash(), kEnginePinSeed2)
        << "seed=2 engine=" << engine::engine_name(kind);
  }

  // Round counts are part of the pinned surface for the fixpoint engine.
  engine::EngineOptions options;
  options.seed = 1;
  EXPECT_EQ(
      engine::solve(g, engine::EngineKind::kTestAndSet, options).rounds, 3u);
}

TEST(Determinism, GoldenTasRoundPins) {
  // kTestAndSet's labels hash AND round count per (graph, seed), on the
  // calling thread (1), at the default (0, one range per pool
  // participant) and in four ranges. The round count is a gated metric of
  // the engine benchmark, so every change to the round loop must leave
  // both alone: three 4096-node graphs (hubbed, forest union, sparse
  // G(n, p)), one graph of the engine workload's family,
  // hubbed_forest_union(2^16, 2, 64), whose first phases run on the pool,
  // and a dense G(2048, 0.5).
  struct Pin {
    std::uint64_t hash;
    std::uint64_t rounds;
  };
  util::Rng small_rng(5);
  util::Rng large_rng(2024);
  util::Rng dense_rng(7);
  const graph::Graph graphs[] = {
      graph::gen::hubbed_forest_union(4096, 2, 8, small_rng),
      graph::gen::union_of_random_forests(4096, 3, small_rng),
      graph::gen::gnp(4096, 0.002, small_rng),
      graph::gen::hubbed_forest_union(1 << 16, 2, 64, large_rng),
      graph::gen::gnp(2048, 0.5, dense_rng),
  };
  // kPins[graph][seed - 1].
  constexpr Pin kPins[5][3] = {
      {{0x3593dbcf44a66051ULL, 4},
       {0xe203d06b4c794241ULL, 4},
       {0xc0bcd887dd15809fULL, 3}},
      {{0xeea603b17cee46feULL, 5},
       {0xbd4d4b46fb0a2992ULL, 4},
       {0x21a8f15fd231e45eULL, 5}},
      {{0xad82844ed875ed83ULL, 4},
       {0xc66871b395d75142ULL, 5},
       {0xe2a62d4ebc29205fULL, 5}},
      {{0xcd839f119187cf27ULL, 4},
       {0x2ad90987e569b317ULL, 4},
       {0xcc2d3b9c0d99ab9dULL, 4}},
      {{0xa900543e24fe8616ULL, 5},
       {0x75ad44e9fde51742ULL, 4},
       {0x4aaa02fcb7071196ULL, 5}},
  };
  for (std::size_t i = 0; i < std::size(graphs); ++i) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (const std::uint32_t threads : {1u, 0u, 4u}) {
        engine::EngineOptions options;
        options.seed = seed;
        options.num_threads = threads;
        const engine::EngineResult got =
            engine::solve(graphs[i], engine::EngineKind::kTestAndSet, options);
        EXPECT_EQ(got.labels_hash(), kPins[i][seed - 1].hash)
            << "graph " << i << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(got.rounds, kPins[i][seed - 1].rounds)
            << "graph " << i << " seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(Determinism, GoldenPinsHoldUnderTheParallelExecutor) {
  // The same golden constants as GoldenPerSeedMisOutputs, re-checked with
  // every internally constructed Network routed through the worker pool,
  // at one worker (the barrier merge with a single lane) and at four. No
  // separate pool goldens exist on purpose: the executor's
  // determinism-merge rule (sim/network.h) promises the inline lane's
  // bytes, so the inline pins are the pool pins.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const sim::ScopedNumThreads scoped(threads);

    const auto met1 = mis::MetivierMis::run(g, 1);
    EXPECT_EQ(state_hash(met1.state), 0x87b54202a38a4860ULL);
    EXPECT_EQ(met1.stats.rounds, 5u);
    EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 2).state),
              0x36af02129ce25543ULL);
    EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 3).state),
              0xe1e2f725bdbeab0dULL);

    EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 1).state),
              0xa70b8bcaaed6cc82ULL);
    EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 2).state),
              0x83842878ad8031d8ULL);

    EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 1).mis.state),
              0xe1e2f725bdbeab0dULL);
    EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 2).mis.state),
              0x2ad32695e98905c0ULL);

    EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 1).mis.state),
              0xe8f3f3171e775bd3ULL);
    EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 2).mis.state),
              0xa05a05940c3562fdULL);
  }
}

TEST(Determinism, GoldenFaultyPinAcrossExecutors) {
  // One pinned constant for a lossy run: Luby-B under an i.i.d. adversary
  // (drops, duplicates, crash/recover) must hash identically on the inline
  // lane and at every pool size. Duplicates are the interesting part —
  // they fill the second arena slot a fault injector gives each directed
  // edge, so this pin covers the delivery order of two-copy inboxes.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);

  const auto run_faulty = [&](std::uint32_t threads) {
    fault::IidAdversary adversary({.drop_rate = 0.2,
                                   .duplicate_rate = 0.1,
                                   .crash_rate = 0.01,
                                   .recovery_delay = 3});
    fault::FaultPlan plan(g, 11, adversary);
    sim::NetworkOptions options;
    options.num_threads = threads;
    options.fault = &plan;
    sim::Network net(g, 11, options);
    mis::LubyBMis algo(g);
    net.run(algo, 4096);
    return state_hash(algo.states());
  };

  const std::uint64_t pin = run_faulty(0);
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(run_faulty(threads), pin) << "threads " << threads;
  }
  // The absolute value is pinned too, so the faulty schedule itself is
  // locked against drift in FaultPlan / Rng, not just cross-executor
  // agreement.
  EXPECT_EQ(pin, kGoldenFaultyLubyPin);
}

TEST(Determinism, GoldenGatherSolvePins) {
  // Full-output pins for GatherSolveMis, recorded BEFORE solve_locally's
  // hashed containers were replaced with dense index vectors: the greedy
  // sweep iterates the sorted node list either way, so the rewrite must
  // reproduce these bytes exactly. They also lock the BFS-rooting +
  // up/down schedule the decisions ride on (rounds included).
  {
    util::Rng rng(2024);
    const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
    const auto r = mis::GatherSolveMis::run(g, 1);
    EXPECT_EQ(state_hash(r.state), 0xbc00a096849bbff5ULL);
    EXPECT_EQ(r.stats.rounds, 593u);
  }
  {
    util::Rng rng(2026);
    const graph::Graph g = graph::gen::random_apollonian(500, rng);
    const auto r = mis::GatherSolveMis::run(g, 9);
    EXPECT_EQ(state_hash(r.state), 0x450b7af232782908ULL);
    EXPECT_EQ(r.stats.rounds, 1222u);
  }
}

TEST(Determinism, GoldenPinsHoldOffTheMappedStorage) {
  // The golden constants from GoldenPerSeedMisOutputs, re-checked with the
  // graph written to a binary .gr file and reloaded through the mmap
  // loader: storage backend joins the executor in the set of axes the pins
  // are invariant over.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
  const std::string path = ::testing::TempDir() + "arbmis_det_pin.gr";
  graph::storage::write_gr(path, g);
  const graph::storage::MappedGraph mapped =
      graph::storage::MappedGraph::open(path);
  const graph::GraphView view = mapped;

  const auto met1 = mis::MetivierMis::run(view, 1);
  EXPECT_EQ(state_hash(met1.state), 0x87b54202a38a4860ULL);
  EXPECT_EQ(met1.stats.rounds, 5u);
  EXPECT_EQ(state_hash(mis::LubyBMis::run(view, 1).state),
            0xa70b8bcaaed6cc82ULL);
  EXPECT_EQ(state_hash(core::arb_mis(view, {.alpha = 2}, 1).mis.state),
            0xe1e2f725bdbeab0dULL);
  EXPECT_EQ(state_hash(core::arb_mis(view, {.alpha = 2}, 2).mis.state),
            0x2ad32695e98905c0ULL);
  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(view, 1).mis.state),
            0xe8f3f3171e775bd3ULL);
}

TEST(Determinism, MappedMillionEdgeArbMisMatchesInMemory) {
  // Out-of-core at scale: a ~10^6-edge hubbed forest union is written to
  // .gr, reloaded via mmap, and run through the full arb_mis pipeline. The
  // mapped run must be byte-identical to the in-memory run — same MIS
  // state vector, same round/message accounting — proving the storage seam
  // holds at the graph sizes it exists for, not just on test toys.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(520'001, 2, 64, rng);
  ASSERT_GE(g.num_edges(), 1'000'000u);

  const std::string path = ::testing::TempDir() + "arbmis_det_million.gr";
  graph::storage::write_gr(path, g);
  const graph::storage::MappedGraph mapped =
      graph::storage::MappedGraph::open(path);
  ASSERT_EQ(mapped.num_edges(), g.num_edges());

  const core::ArbMisResult memory = core::arb_mis(g, {.alpha = 2}, 7);
  const core::ArbMisResult disk = core::arb_mis(mapped, {.alpha = 2}, 7);
  EXPECT_EQ(state_hash(memory.mis.state), state_hash(disk.mis.state));
  EXPECT_EQ(memory.mis.state, disk.mis.state);
  EXPECT_EQ(memory.mis.stats.rounds, disk.mis.stats.rounds);
  EXPECT_EQ(memory.mis.stats.messages, disk.mis.stats.messages);
  EXPECT_EQ(memory.mis.stats.payload_bits, disk.mis.stats.payload_bits);
  EXPECT_TRUE(memory.mis.stats.all_halted);
}

TEST(Determinism, EveryAlgorithmIsAPureFunctionOfGraphAndSeed) {
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);

  auto expect_same = [&](auto run) {
    const auto a = run(11);
    const auto b = run(11);
    EXPECT_EQ(a, b);
  };

  expect_same([&](std::uint64_t s) { return mis::MetivierMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::LubyBMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::GhaffariMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::BitMetivierMis::run(g, s).mis.state; });
  expect_same([&](std::uint64_t s) { return mis::GatherSolveMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::IsraeliItaiMatching::run(g, s).partner; });
  expect_same([&](std::uint64_t s) { return core::arb_mis(g, {.alpha = 2}, s).mis.state; });
  expect_same([&](std::uint64_t s) { return core::ghaffari_arb_mis(g, s).mis.state; });
  expect_same([&](std::uint64_t s) {
    return core::lw_tree_mis(g, s).mis.state;
  });
}

TEST(Determinism, SeedsActuallyMatter) {
  util::Rng rng(2025);
  const graph::Graph g = graph::gen::gnp(300, 0.04, rng);
  // At least one of the randomized algorithms must differ across seeds
  // (all of them, in practice; require all to be safe against freak ties).
  EXPECT_NE(mis::MetivierMis::run(g, 1).state,
            mis::MetivierMis::run(g, 2).state);
  EXPECT_NE(mis::LubyBMis::run(g, 1).state, mis::LubyBMis::run(g, 2).state);
  EXPECT_NE(mis::BitMetivierMis::run(g, 1).mis.state,
            mis::BitMetivierMis::run(g, 2).mis.state);
  EXPECT_NE(mis::IsraeliItaiMatching::run(g, 1).partner,
            mis::IsraeliItaiMatching::run(g, 2).partner);
}

TEST(Determinism, RoundCountsReproduce) {
  util::Rng rng(2026);
  const graph::Graph g = graph::gen::random_apollonian(500, rng);
  EXPECT_EQ(mis::MetivierMis::run(g, 7).stats.rounds,
            mis::MetivierMis::run(g, 7).stats.rounds);
  EXPECT_EQ(core::arb_mis(g, {.alpha = 3}, 7).mis.stats.rounds,
            core::arb_mis(g, {.alpha = 3}, 7).mis.stats.rounds);
}

TEST(Determinism, GoldenShatterThenFinishPins) {
  // Pins for every pipeline that finishes its residual through the one
  // finish step (mis::finish_stage): state hash, rounds and messages,
  // recorded before the pipelines were routed through it. The five
  // finisher rows push the scale cut above Δ (Θ = 0, as bench A4 does),
  // so each finisher runs on the whole graph; on default tuning these
  // stages get empty sets. On `star` lw_tree_mis and ghaffari_arb_mis
  // leave a one-node residual, so their finish runs too.
  struct Pin {
    std::uint64_t hash;
    std::uint32_t rounds;
    std::uint64_t messages;
  };
  const auto expect_pin = [](const mis::MisResult& r, const Pin& pin,
                             const char* what) {
    EXPECT_EQ(state_hash(r.state), pin.hash) << what;
    EXPECT_EQ(r.stats.rounds, pin.rounds) << what;
    EXPECT_EQ(r.stats.messages, pin.messages) << what;
  };
  util::Rng tree_rng(2024);
  const graph::Graph tree = graph::gen::random_tree(2000, tree_rng);
  const graph::Graph star = graph::gen::star(3);
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);

  expect_pin(core::lw_tree_mis(tree, 1).mis,
             {0xfe36825b25530c14ULL, 7u, 6832u}, "lw_tree_mis tree");
  expect_pin(core::lw_tree_mis(star, 1).mis, {0xea9ca31875dc4b97ULL, 5u, 4u},
             "lw_tree_mis star");
  expect_pin(core::tree_independent_set(tree, 1).mis,
             {0x53468a989e8e9a30ULL, 131u, 31835u}, "tree_independent_set");
  expect_pin(core::ghaffari_arb_mis(g, 1).mis,
             {0x87b54202a38a4860ULL, 7u, 3021u}, "ghaffari_arb_mis");
  expect_pin(core::ghaffari_arb_mis(star, 1).mis,
             {0xea9ca31875dc4b97ULL, 3u, 4u}, "ghaffari_arb_mis star");
  expect_pin(core::arb_mis(g, {.alpha = 2, .degree_reduction = true}, 1).mis,
             {0x87b54202a38a4860ULL, 7u, 3021u}, "arb_mis degree_reduction");

  const struct {
    core::Finisher finisher;
    const char* name;
    Pin pin;
  } finishers[] = {
      {core::Finisher::kMetivier, "metivier",
       {0xe1e2f725bdbeab0dULL, 7u, 2928u}},
      {core::Finisher::kLinial, "linial", {0xbc00a096849bbff5ULL, 403u, 1989u}},
      {core::Finisher::kElection, "election",
       {0xd9e34a5391364345ULL, 6u, 2785u}},
      {core::Finisher::kSparse, "sparse",
       {0xbc00a096849bbff5ULL, 801u, 12712u}},
      {core::Finisher::kGather, "gather",
       {0xbc00a096849bbff5ULL, 595u, 166964u}},
  };
  for (const auto& row : finishers) {
    core::ArbMisOptions options{.alpha = 2};
    options.tuning.shatter_constant = 1e9;
    options.finisher = row.finisher;
    expect_pin(core::arb_mis(g, options, 1).mis, row.pin, row.name);
  }
}

}  // namespace
}  // namespace arbmis
