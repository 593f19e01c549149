// Differential proof of the round executor (sim/network.h): for a matrix
// of {graph generator} x {algorithm} x {seed} x {thread count}, a run on
// the worker pool must be *byte-identical* to the inline lane (threads 0)
// — same RunStats, same per-node outputs, same per-node halt rounds, the
// same ModelChecker report, and the same event stream, whose Round events
// carry each round's message width and read multiplicity. This is
// the enforcement vehicle for the determinism-merge rule documented in
// sim/network.h and the thread-safety contract in sim/algorithm.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/arb_mis.h"
#include "core/bounded_arb.h"
#include "core/params.h"
#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "fault/resilient_mis.h"
#include "graph/generators.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "mis/ghaffari.h"
#include "mis/bit_metivier.h"
#include "mis/luby.h"
#include "mis/metivier.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "sim/bfs_rooting.h"
#include "sim/network.h"

namespace arbmis {
namespace {

constexpr std::uint32_t kNeverHalted =
    std::numeric_limits<std::uint32_t>::max();

// Thread counts to prove equivalent against the inline lane (0).
constexpr std::uint32_t kThreadCounts[] = {1, 2, 4, 8};

/// Everything observable about one run, flattened for comparison.
struct RunRecord {
  sim::RunStats stats;
  std::vector<std::uint32_t> output;      ///< per-node final states/outcomes
  std::vector<std::uint32_t> halt_round;  ///< first round seen halted
  std::uint64_t rng_draws = 0;            ///< run-wide logical RNG draws
  sim::ModelCheckReport report;
  /// Telemetry event stream captured under the default sink configuration
  /// (executor-internal kinds excluded), rendered as JSONL: the per-round
  /// Round and FaultRound records among them. Events carry logical time
  /// only, so the bytes must match across executors.
  std::string events;
};

/// Captures the telemetry event stream emitted while `fn` runs; the
/// stream lands in *events as JSONL.
template <typename Fn>
auto with_event_capture(std::string* events, Fn&& fn) {
  obs::VectorSink capture;
  auto result = [&] {
    const obs::ScopedSink scoped(&capture);
    return fn();
  }();
  *events = capture.to_jsonl();
  return result;
}

void expect_identical(const RunRecord& serial, const RunRecord& parallel,
                      const std::string& label) {
  EXPECT_EQ(serial.stats.rounds, parallel.stats.rounds) << label;
  EXPECT_EQ(serial.stats.messages, parallel.stats.messages) << label;
  EXPECT_EQ(serial.stats.payload_bits, parallel.stats.payload_bits) << label;
  EXPECT_EQ(serial.stats.max_edge_load, parallel.stats.max_edge_load)
      << label;
  EXPECT_EQ(serial.stats.all_halted, parallel.stats.all_halted) << label;
  EXPECT_TRUE(serial.stats.faults == parallel.stats.faults) << label;
  EXPECT_EQ(serial.output, parallel.output) << label;
  EXPECT_EQ(serial.halt_round, parallel.halt_round) << label;
  EXPECT_EQ(serial.rng_draws, parallel.rng_draws) << label;
  EXPECT_EQ(serial.events, parallel.events) << label;
  EXPECT_FALSE(serial.events.empty()) << label;

  const sim::ModelCheckReport& a = serial.report;
  const sim::ModelCheckReport& b = parallel.report;
  EXPECT_EQ(a.edge_bit_budget, b.edge_bit_budget) << label;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << label;
  EXPECT_EQ(a.max_rng_reads_per_round, b.max_rng_reads_per_round) << label;
  EXPECT_EQ(a.k, b.k) << label;
  EXPECT_EQ(a.violations, b.violations) << label;
}

/// Runs `algorithm` on a fresh network with the given worker count and
/// records stats, outputs, halt rounds, and the checker report.
template <typename Algo, typename Extract>
RunRecord run_case(graph::GraphView g, std::uint64_t seed,
                   std::uint32_t threads, Algo& algorithm,
                   std::uint32_t max_rounds, Extract&& extract,
                   sim::FaultInjector* fault = nullptr) {
  sim::NetworkOptions options;
  options.num_threads = threads;
  options.fault = fault;
  sim::Network net(g, seed, options);
  RunRecord record;
  record.halt_round.assign(g.num_nodes(), kNeverHalted);
  const auto observer = [&](const sim::Network& n, std::uint32_t round) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (n.halted(v) && record.halt_round[v] == kNeverHalted) {
        record.halt_round[v] = round;
      }
    }
  };
  // Telemetry rides along with the run under comparison: attaching a sink
  // must not perturb the run, and the captured stream must itself be
  // executor-independent, so both properties are checked at once.
  record.stats = with_event_capture(&record.events, [&] {
    return net.run(algorithm, max_rounds, observer);
  });
  record.rng_draws = net.total_rng_draws();
  record.report = net.model_check_report();
  for (auto value : extract(algorithm)) {
    record.output.push_back(static_cast<std::uint32_t>(value));
  }
  return record;
}

struct GraphCase {
  std::string name;
  graph::Graph g;
};

std::vector<GraphCase> test_graphs(std::uint64_t seed) {
  std::vector<GraphCase> graphs;
  graphs.push_back({"path", graph::gen::path(64)});
  {
    util::Rng rng(seed);
    graphs.push_back({"random_tree", graph::gen::random_tree(200, rng)});
  }
  {
    util::Rng rng(seed + 1);
    graphs.push_back({"gnp", graph::gen::gnp(150, 0.05, rng)});
  }
  {
    util::Rng rng(seed + 2);
    graphs.push_back(
        {"forest_union", graph::gen::union_of_random_forests(200, 2, rng)});
  }
  return graphs;
}

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, LubyMatchesSerialOnAllGraphs) {
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) {
      mis::LubyBMis algorithm(gc.g);
      return run_case(gc.g, seed, threads, algorithm, 1 << 20,
                      [](const mis::LubyBMis& a) { return a.states(); });
    };
    const RunRecord serial = run_with(0);
    EXPECT_TRUE(serial.stats.all_halted) << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      expect_identical(serial, run_with(threads),
                       "luby/" + gc.name + "/t" + std::to_string(threads));
    }
  }
}

TEST_P(ParallelEquivalence, MetivierMatchesSerialOnAllGraphs) {
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) {
      mis::MetivierMis algorithm(gc.g);
      return run_case(gc.g, seed, threads, algorithm, 1 << 20,
                      [](const mis::MetivierMis& a) { return a.states(); });
    };
    const RunRecord serial = run_with(0);
    EXPECT_TRUE(serial.stats.all_halted) << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      expect_identical(serial, run_with(threads),
                       "metivier/" + gc.name + "/t" + std::to_string(threads));
    }
  }
}

TEST_P(ParallelEquivalence, BoundedArbMatchesSerialOnAllGraphs) {
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const core::Params params = core::Params::practical(2, gc.g.max_degree());
    const auto run_with = [&](std::uint32_t threads) {
      core::BoundedArbIndependentSet algorithm(gc.g, params);
      RunRecord record =
          run_case(gc.g, seed, threads, algorithm, params.total_rounds(),
                   [](const core::BoundedArbIndependentSet& a) {
                     return a.outcomes();
                   });
      // Fold the recomputed per-scale aggregates into the comparison too.
      for (const auto& scale : algorithm.scale_stats()) {
        record.output.push_back(scale.scale);
        record.output.push_back(static_cast<std::uint32_t>(scale.joined));
        record.output.push_back(static_cast<std::uint32_t>(scale.covered));
        record.output.push_back(static_cast<std::uint32_t>(scale.bad));
        record.output.push_back(
            static_cast<std::uint32_t>(scale.active_after));
      }
      return record;
    };
    const RunRecord serial = run_with(0);
    EXPECT_TRUE(serial.stats.all_halted) << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      expect_identical(
          serial, run_with(threads),
          "bounded_arb/" + gc.name + "/t" + std::to_string(threads));
    }
  }
}

TEST_P(ParallelEquivalence, BfsRootingMatchesSerialOnAllGraphs) {
  // Reactive algorithm: terminates via the quiescence cut, never halts,
  // and aggregates its quiescence round from per-node slots — the class
  // of algorithm where a shared-aggregate write in a callback would race
  // (regression for exactly such a bug found by TSan in BfsRooting).
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) -> sim::BfsRooting::Result {
      sim::ScopedNumThreads scoped(threads);
      return sim::BfsRooting::run(gc.g, seed, gc.g.num_nodes());
    };
    const sim::BfsRooting::Result serial = run_with(0);
    EXPECT_TRUE(serial.stabilized) << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      const sim::BfsRooting::Result parallel = run_with(threads);
      const std::string label =
          "bfs_rooting/" + gc.name + "/t" + std::to_string(threads);
      EXPECT_EQ(serial.parent, parallel.parent) << label;
      EXPECT_EQ(serial.root, parallel.root) << label;
      EXPECT_EQ(serial.distance, parallel.distance) << label;
      EXPECT_EQ(serial.quiescence_round, parallel.quiescence_round) << label;
      EXPECT_EQ(serial.stats.rounds, parallel.stats.rounds) << label;
      EXPECT_EQ(serial.stats.messages, parallel.stats.messages) << label;
    }
  }
}

TEST_P(ParallelEquivalence, BitMetivierMatchesSerialOnAllGraphs) {
  // Self-paced per-edge duels with buffered cross-phase messages — the
  // most delivery-order-sensitive algorithm in the tree, plus the
  // semantic-bits accounting that must sum per-node slots (regression
  // for a TSan-found shared-counter race).
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with =
        [&](std::uint32_t threads) -> mis::BitMetivierMis::Result {
      sim::ScopedNumThreads scoped(threads);
      return mis::BitMetivierMis::run(gc.g, seed);
    };
    const mis::BitMetivierMis::Result serial = run_with(0);
    EXPECT_TRUE(serial.mis.stats.all_halted) << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      const mis::BitMetivierMis::Result parallel = run_with(threads);
      const std::string label =
          "bit_metivier/" + gc.name + "/t" + std::to_string(threads);
      EXPECT_EQ(serial.mis.state, parallel.mis.state) << label;
      EXPECT_EQ(serial.semantic_bits, parallel.semantic_bits) << label;
      EXPECT_EQ(serial.mis.stats.rounds, parallel.mis.stats.rounds) << label;
      EXPECT_EQ(serial.mis.stats.messages, parallel.mis.stats.messages)
          << label;
      EXPECT_EQ(serial.mis.stats.payload_bits, parallel.mis.stats.payload_bits)
          << label;
    }
  }
}

TEST_P(ParallelEquivalence, ArbMisPipelineMatchesSerialOnAllGraphs) {
  // The full pipeline constructs its own Networks internally, so the
  // worker count is injected via the process-wide ScopedNumThreads
  // override instead of NetworkOptions plumbing.
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) {
      sim::ScopedNumThreads scoped(threads);
      std::string events;
      core::ArbMisResult result = with_event_capture(&events, [&] {
        return core::arb_mis(gc.g, {.alpha = 2}, seed);
      });
      return std::make_pair(std::move(result), std::move(events));
    };
    const auto [serial, serial_events] = run_with(0);
    EXPECT_TRUE(serial.mis.stats.all_halted) << gc.name;
    // The pipeline emits phase/scale/shatter driver events on top of the
    // per-stage network streams; all of it must be executor-independent.
    EXPECT_NE(serial_events.find("\"ev\":\"phase\""), std::string::npos)
        << gc.name;
    EXPECT_NE(serial_events.find("\"ev\":\"shatter\""), std::string::npos)
        << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      const auto [parallel, parallel_events] = run_with(threads);
      const std::string label =
          "arb_mis/" + gc.name + "/t" + std::to_string(threads);
      EXPECT_EQ(serial.mis.state, parallel.mis.state) << label;
      EXPECT_EQ(serial.mis.stats.rounds, parallel.mis.stats.rounds) << label;
      EXPECT_EQ(serial.mis.stats.messages, parallel.mis.stats.messages)
          << label;
      EXPECT_EQ(serial.mis.stats.payload_bits,
                parallel.mis.stats.payload_bits)
          << label;
      EXPECT_EQ(serial.mis.stats.max_edge_load,
                parallel.mis.stats.max_edge_load)
          << label;
      EXPECT_EQ(serial.mis.stats.all_halted, parallel.mis.stats.all_halted)
          << label;
      EXPECT_EQ(serial_events, parallel_events) << label;
    }
  }
}

TEST_P(ParallelEquivalence, FaultyLubyMatchesSerialOnAllGraphs) {
  // Fault injection must preserve the determinism-merge rule: with an
  // identically-constructed FaultPlan per run, every thread count must
  // reproduce the serial run byte-for-byte — outputs, stats (fault totals
  // included), the checker report, the FaultRound events, and the final
  // down mask. A fresh plan per run is required because plans are
  // stateful (down set, event stream); determinism comes from the plan
  // being a pure function of (graph, seed, adversary).
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) {
      fault::IidAdversary adversary({.drop_rate = 0.2,
                                     .duplicate_rate = 0.05,
                                     .crash_rate = 0.01,
                                     .recovery_delay = 3});
      fault::FaultPlan plan(gc.g, seed, adversary);
      mis::LubyBMis algorithm(gc.g);
      RunRecord record = run_case(
          gc.g, seed, threads, algorithm, 512,
          [](const mis::LubyBMis& a) { return a.states(); }, &plan);
      std::vector<std::uint8_t> down;
      for (graph::NodeId v = 0; v < gc.g.num_nodes(); ++v) {
        down.push_back(plan.is_down(v) ? 1 : 0);
      }
      return std::make_pair(std::move(record), std::move(down));
    };
    const auto serial = run_with(0);
    EXPECT_NE(serial.first.events.find("\"ev\":\"fault_round\""),
              std::string::npos)
        << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      const auto parallel = run_with(threads);
      const std::string label =
          "faulty_luby/" + gc.name + "/t" + std::to_string(threads);
      expect_identical(serial.first, parallel.first, label);
      EXPECT_EQ(serial.second, parallel.second) << label;
    }
  }
}

TEST_P(ParallelEquivalence, FaultyGhaffariUnderAdaptiveMatchesSerial) {
  // The adaptive adversary reads the halted/down masks at the round
  // barrier, so it is the most executor-coupled plan — if any staging
  // leaked across workers, its crash picks would diverge by thread count.
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) {
      fault::AdaptiveAdversary adversary({.drop_rate = 0.3,
                                          .background_drop_rate = 0.05,
                                          .duplicate_rate = 0.05,
                                          .crash_period = 4,
                                          .max_crashes = 3,
                                          .recovery_delay = 0,
                                          .degree_fraction = 0.25});
      fault::FaultPlan plan(gc.g, seed, adversary);
      mis::GhaffariMis algorithm(gc.g);
      return run_case(
          gc.g, seed, threads, algorithm, 512,
          [](const mis::GhaffariMis& a) { return a.states(); }, &plan);
    };
    const RunRecord serial = run_with(0);
    for (const std::uint32_t threads : kThreadCounts) {
      const std::string label =
          "faulty_ghaffari/" + gc.name + "/t" + std::to_string(threads);
      expect_identical(serial, run_with(threads), label);
    }
  }
}

TEST_P(ParallelEquivalence, ResilientMisMatchesSerialOnAllGraphs) {
  // End-to-end: the whole resilient retry loop (faulty attempts, residual
  // verification, recommits) must land on the same certified MIS and the
  // same attempt/fault accounting for every worker count.
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : test_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) {
      fault::IidAdversary adversary({.drop_rate = 0.25,
                                     .duplicate_rate = 0.05,
                                     .crash_rate = 0.01,
                                     .recovery_delay = 0});
      fault::ResilientOptions options;
      options.max_rounds_per_attempt = 4096;
      options.num_threads = threads;
      std::string events;
      fault::ResilientResult result = with_event_capture(&events, [&] {
        return fault::resilient_mis(gc.g, seed, adversary,
                                    fault::algorithm_driver<mis::LubyBMis>(),
                                    options);
      });
      return std::make_pair(std::move(result), std::move(events));
    };
    const auto [serial, serial_events] = run_with(0);
    EXPECT_TRUE(serial.certified) << gc.name;
    // Attempt/certification driver events plus the per-attempt network and
    // fault-plan streams must all be executor-independent.
    EXPECT_NE(serial_events.find("\"ev\":\"attempt\""), std::string::npos)
        << gc.name;
    EXPECT_NE(serial_events.find("\"ev\":\"certified\""), std::string::npos)
        << gc.name;
    for (const std::uint32_t threads : kThreadCounts) {
      const auto [parallel, parallel_events] = run_with(threads);
      const std::string label =
          "resilient/" + gc.name + "/t" + std::to_string(threads);
      EXPECT_EQ(serial.state, parallel.state) << label;
      EXPECT_EQ(serial.certified, parallel.certified) << label;
      EXPECT_EQ(serial.attempts, parallel.attempts) << label;
      EXPECT_EQ(serial.rounds_to_recovery, parallel.rounds_to_recovery)
          << label;
      EXPECT_TRUE(serial.faults == parallel.faults) << label;
      EXPECT_EQ(serial_events, parallel_events) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Values(1, 7, 2024));

// ---------------------------------------------------------------------------
// Arena message matrix: message-for-message equality of every delivered
// inbox. The reference inboxes are the inline lane's (threads 0): each is
// gathered in its receiver's port order, which is ascending sender id.
// Every pool size must reproduce them digest for digest — a wrapper
// hash-chains each node's (src, tag, payload) stream — alongside the full
// RunRecord. The graph list adds one with about 6000 directed edges, so
// that a busy round stages several of the inline lane's 1024-entry read-k
// flush batches.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kArenaThreadCounts[] = {1, 2, 4, 8};

/// Delegating wrapper that folds each node's inbox stream into a per-node
/// digest. Each callback touches only its own node's slot, so the wrapper
/// obeys the simulator's thread-safety contract.
class InboxDigests final : public sim::Algorithm {
 public:
  InboxDigests(sim::Algorithm& inner, graph::NodeId n)
      : inner_(&inner), digests_(n, 0x9e3779b97f4a7c15ULL) {}

  std::string_view name() const override { return inner_->name(); }
  bool is_reactive() const override { return inner_->is_reactive(); }

  void on_start(sim::NodeContext& ctx) override { inner_->on_start(ctx); }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    std::uint64_t& digest = digests_[ctx.id()];
    for (const sim::Message& m : inbox) {
      digest = util::mix64(digest, m.src);
      digest = util::mix64(digest, m.tag);
      digest = util::mix64(digest, m.payload);
    }
    inner_->on_round(ctx, inbox);
  }

  const std::vector<std::uint64_t>& digests() const { return digests_; }

 private:
  sim::Algorithm* inner_;
  std::vector<std::uint64_t> digests_;
};

std::vector<GraphCase> arena_graphs(std::uint64_t seed) {
  std::vector<GraphCase> graphs = test_graphs(seed);
  util::Rng rng(seed + 3);
  graphs.push_back({"batch_forest_union",
                    graph::gen::union_of_random_forests(1500, 2, rng)});
  return graphs;
}

class ArenaEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

/// Runs `algorithm` wrapped in InboxDigests; returns the run record and the
/// per-node inbox digests.
template <typename Algo, typename Extract>
std::pair<RunRecord, std::vector<std::uint64_t>> run_digested(
    graph::GraphView g, std::uint64_t seed, std::uint32_t threads,
    Algo& algorithm, std::uint32_t max_rounds, Extract&& extract,
    sim::FaultInjector* fault = nullptr) {
  InboxDigests digests(algorithm, g.num_nodes());
  RunRecord record = run_case(
      g, seed, threads, digests, max_rounds,
      [&](const InboxDigests&) { return extract(algorithm); }, fault);
  return {std::move(record), digests.digests()};
}

/// Runs `run_with(threads)` on the inline lane and then at every pool
/// size, expecting byte-identity of records and inbox digests.
template <typename RunWith>
void expect_arena_matches_reference(const std::string& algo,
                                    const std::string& graph_name,
                                    RunWith&& run_with) {
  const auto reference = run_with(0);
  for (const std::uint32_t threads : kArenaThreadCounts) {
    const auto pool = run_with(threads);
    const std::string label =
        algo + "/" + graph_name + "/t" + std::to_string(threads);
    expect_identical(reference.first, pool.first, label);
    EXPECT_EQ(reference.second, pool.second) << label;
  }
}

TEST_P(ArenaEquivalence, LubyMatchesReferenceInboxes) {
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : arena_graphs(seed)) {
    expect_arena_matches_reference(
        "luby", gc.name, [&](std::uint32_t threads) {
          mis::LubyBMis algorithm(gc.g);
          return run_digested(
              gc.g, seed, threads, algorithm, 1 << 20,
              [](const mis::LubyBMis& a) { return a.states(); });
        });
  }
}

TEST_P(ArenaEquivalence, MetivierMatchesReferenceInboxes) {
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : arena_graphs(seed)) {
    expect_arena_matches_reference(
        "metivier", gc.name, [&](std::uint32_t threads) {
          mis::MetivierMis algorithm(gc.g);
          return run_digested(
              gc.g, seed, threads, algorithm, 1 << 20,
              [](const mis::MetivierMis& a) { return a.states(); });
        });
  }
}

TEST_P(ArenaEquivalence, GhaffariMatchesReferenceInboxes) {
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : arena_graphs(seed)) {
    expect_arena_matches_reference(
        "ghaffari", gc.name, [&](std::uint32_t threads) {
          mis::GhaffariMis algorithm(gc.g);
          return run_digested(
              gc.g, seed, threads, algorithm, 1 << 20,
              [](const mis::GhaffariMis& a) { return a.states(); });
        });
  }
}

TEST_P(ArenaEquivalence, BoundedArbMatchesReferenceInboxes) {
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : arena_graphs(seed)) {
    const core::Params params = core::Params::practical(2, gc.g.max_degree());
    expect_arena_matches_reference(
        "bounded_arb", gc.name, [&](std::uint32_t threads) {
          core::BoundedArbIndependentSet algorithm(gc.g, params);
          return run_digested(gc.g, seed, threads, algorithm,
                              params.total_rounds(),
                              [](const core::BoundedArbIndependentSet& a) {
                                return a.outcomes();
                              });
        });
  }
}

TEST_P(ArenaEquivalence, BfsRootingMatchesReferenceInboxes) {
  // Reactive algorithm: terminates via the quiescence cut, which the
  // Network answers from its in-flight counter — the cut must fire on
  // exactly the same round whichever lane sent the last message.
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : arena_graphs(seed)) {
    const auto run_with = [&](std::uint32_t threads) {
      sim::ScopedNumThreads scoped(threads);
      return sim::BfsRooting::run(gc.g, seed, gc.g.num_nodes());
    };
    const sim::BfsRooting::Result reference = run_with(0);
    EXPECT_TRUE(reference.stabilized) << gc.name;
    for (const std::uint32_t threads : kArenaThreadCounts) {
      const sim::BfsRooting::Result pool = run_with(threads);
      const std::string label =
          "bfs_rooting/" + gc.name + "/t" + std::to_string(threads);
      EXPECT_EQ(reference.parent, pool.parent) << label;
      EXPECT_EQ(reference.root, pool.root) << label;
      EXPECT_EQ(reference.distance, pool.distance) << label;
      EXPECT_EQ(reference.quiescence_round, pool.quiescence_round) << label;
      EXPECT_EQ(reference.stats.rounds, pool.stats.rounds) << label;
      EXPECT_EQ(reference.stats.messages, pool.stats.messages) << label;
    }
  }
}

TEST_P(ArenaEquivalence, FaultyLubyMatchesReferenceInboxes) {
  // The faulty row of the matrix: every send is a port send whose slot
  // records its fate, and duplicates double entries of the inbox, so this
  // is the path where a layout or fate bug would first diverge. The final
  // down mask rides along in the digests, the FaultRound events in the
  // record's event stream.
  const std::uint64_t seed = GetParam();
  for (const GraphCase& gc : arena_graphs(seed)) {
    expect_arena_matches_reference(
        "faulty_luby", gc.name, [&](std::uint32_t threads) {
          fault::IidAdversary adversary({.drop_rate = 0.2,
                                         .duplicate_rate = 0.1,
                                         .crash_rate = 0.01,
                                         .recovery_delay = 3});
          fault::FaultPlan plan(gc.g, seed, adversary);
          mis::LubyBMis algorithm(gc.g);
          auto [record, digests] = run_digested(
              gc.g, seed, threads, algorithm, 512,
              [](const mis::LubyBMis& a) { return a.states(); }, &plan);
          // Fold the final down mask into the digests.
          for (graph::NodeId v = 0; v < gc.g.num_nodes(); ++v) {
            digests.push_back(plan.is_down(v) ? 1 : 0);
          }
          return std::make_pair(std::move(record), std::move(digests));
        });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaEquivalence,
                         ::testing::Values(1, 7, 2024));

// ---------------------------------------------------------------------------
// Storage differential matrix: every algorithm must be oblivious to whether
// its GraphView is backed by the in-memory Graph or by an mmap of the same
// graph written to a binary .gr file (graph/storage/). The baseline is the
// in-memory serial run; rows cover {in-memory, mapped} x threads {0, 2, 8},
// expecting byte-identity of MIS outputs, RNG draw counts, telemetry event
// streams, and the checker report — the same bar the executor matrix sets.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kStorageThreadCounts[] = {0, 2, 8};

/// The in-memory graph plus the same graph reloaded from disk. The .gr
/// write preserves node numbering and adjacency order exactly, so the two
/// views expose identical CSR bytes — any divergence below is a storage
/// bug, not a renumbering artifact.
struct StorageCase {
  graph::Graph memory;
  graph::storage::MappedGraph mapped;
};

StorageCase make_storage_case(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Graph g = graph::gen::hubbed_forest_union(300, 2, 4, rng);
  // One file per test instance, named after it (the name carries the
  // parameter index): ctest runs every test as its own process, and
  // rewriting a file another process has mmapped raises SIGBUS there.
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string path =
      ::testing::TempDir() + "arbmis_equiv_" + name + ".gr";
  graph::storage::write_gr(path, g);
  return {std::move(g), graph::storage::MappedGraph::open(path)};
}

class MappedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

/// Baseline: in-memory serial. Rows: both storages at every thread count.
template <typename RunWith>
void expect_storage_independent(const std::string& algo,
                                const StorageCase& sc, RunWith&& run_with) {
  const RunRecord baseline = run_with(graph::GraphView(sc.memory), 0);
  for (const std::uint32_t threads : kStorageThreadCounts) {
    expect_identical(baseline, run_with(graph::GraphView(sc.memory), threads),
                     algo + "/memory/t" + std::to_string(threads));
    expect_identical(baseline, run_with(sc.mapped.view(), threads),
                     algo + "/mapped/t" + std::to_string(threads));
  }
}

TEST_P(MappedEquivalence, LubyIsStorageIndependent) {
  const StorageCase sc = make_storage_case(GetParam());
  expect_storage_independent(
      "luby", sc, [&](graph::GraphView g, std::uint32_t threads) {
        mis::LubyBMis algorithm(g);
        return run_case(g, GetParam(), threads, algorithm, 1 << 20,
                        [](const mis::LubyBMis& a) { return a.states(); });
      });
}

TEST_P(MappedEquivalence, MetivierIsStorageIndependent) {
  const StorageCase sc = make_storage_case(GetParam());
  expect_storage_independent(
      "metivier", sc, [&](graph::GraphView g, std::uint32_t threads) {
        mis::MetivierMis algorithm(g);
        return run_case(g, GetParam(), threads, algorithm, 1 << 20,
                        [](const mis::MetivierMis& a) { return a.states(); });
      });
}

TEST_P(MappedEquivalence, GhaffariIsStorageIndependent) {
  const StorageCase sc = make_storage_case(GetParam());
  expect_storage_independent(
      "ghaffari", sc, [&](graph::GraphView g, std::uint32_t threads) {
        mis::GhaffariMis algorithm(g);
        return run_case(g, GetParam(), threads, algorithm, 1 << 20,
                        [](const mis::GhaffariMis& a) { return a.states(); });
      });
}

TEST_P(MappedEquivalence, BoundedArbIsStorageIndependent) {
  const StorageCase sc = make_storage_case(GetParam());
  const core::Params params =
      core::Params::practical(2, sc.memory.max_degree());
  expect_storage_independent(
      "bounded_arb", sc, [&](graph::GraphView g, std::uint32_t threads) {
        core::BoundedArbIndependentSet algorithm(g, params);
        RunRecord record =
            run_case(g, GetParam(), threads, algorithm, params.total_rounds(),
                     [](const core::BoundedArbIndependentSet& a) {
                       return a.outcomes();
                     });
        for (const auto& scale : algorithm.scale_stats()) {
          record.output.push_back(scale.scale);
          record.output.push_back(static_cast<std::uint32_t>(scale.joined));
          record.output.push_back(static_cast<std::uint32_t>(scale.covered));
          record.output.push_back(static_cast<std::uint32_t>(scale.bad));
          record.output.push_back(
              static_cast<std::uint32_t>(scale.active_after));
        }
        return record;
      });
}

TEST_P(MappedEquivalence, BitMetivierIsStorageIndependent) {
  const StorageCase sc = make_storage_case(GetParam());
  const auto run_with = [&](graph::GraphView g, std::uint32_t threads) {
    sim::ScopedNumThreads scoped(threads);
    std::string events;
    mis::BitMetivierMis::Result result = with_event_capture(
        &events, [&] { return mis::BitMetivierMis::run(g, GetParam()); });
    return std::make_pair(std::move(result), std::move(events));
  };
  const auto [baseline, baseline_events] =
      run_with(graph::GraphView(sc.memory), 0);
  EXPECT_TRUE(baseline.mis.stats.all_halted);
  for (const std::uint32_t threads : kStorageThreadCounts) {
    for (const bool mapped : {false, true}) {
      const auto [row, row_events] = run_with(
          mapped ? sc.mapped.view() : graph::GraphView(sc.memory), threads);
      const std::string label = std::string("bit_metivier/") +
                                (mapped ? "mapped" : "memory") + "/t" +
                                std::to_string(threads);
      EXPECT_EQ(baseline.mis.state, row.mis.state) << label;
      EXPECT_EQ(baseline.semantic_bits, row.semantic_bits) << label;
      EXPECT_EQ(baseline.mis.stats.rounds, row.mis.stats.rounds) << label;
      EXPECT_EQ(baseline.mis.stats.messages, row.mis.stats.messages) << label;
      EXPECT_EQ(baseline_events, row_events) << label;
    }
  }
}

TEST_P(MappedEquivalence, ArbMisPipelineIsStorageIndependent) {
  const StorageCase sc = make_storage_case(GetParam());
  const auto run_with = [&](graph::GraphView g, std::uint32_t threads) {
    sim::ScopedNumThreads scoped(threads);
    std::string events;
    core::ArbMisResult result = with_event_capture(
        &events, [&] { return core::arb_mis(g, {.alpha = 2}, GetParam()); });
    return std::make_pair(std::move(result), std::move(events));
  };
  const auto [baseline, baseline_events] =
      run_with(graph::GraphView(sc.memory), 0);
  EXPECT_TRUE(baseline.mis.stats.all_halted);
  for (const std::uint32_t threads : kStorageThreadCounts) {
    for (const bool mapped : {false, true}) {
      const auto [row, row_events] = run_with(
          mapped ? sc.mapped.view() : graph::GraphView(sc.memory), threads);
      const std::string label = std::string("arb_mis/") +
                                (mapped ? "mapped" : "memory") + "/t" +
                                std::to_string(threads);
      EXPECT_EQ(baseline.mis.state, row.mis.state) << label;
      EXPECT_EQ(baseline.mis.stats.rounds, row.mis.stats.rounds) << label;
      EXPECT_EQ(baseline.mis.stats.messages, row.mis.stats.messages) << label;
      EXPECT_EQ(baseline.mis.stats.payload_bits, row.mis.stats.payload_bits)
          << label;
      EXPECT_EQ(baseline_events, row_events) << label;
    }
  }
}

TEST_P(MappedEquivalence, FaultyLubyIsStorageIndependent) {
  // The mapped+faulty row: fault plans are pure functions of
  // (graph, seed, adversary), so a plan built against the mapped view must
  // reproduce the in-memory run's FaultRound events and down mask byte for
  // byte.
  const StorageCase sc = make_storage_case(GetParam());
  const auto run_with = [&](graph::GraphView g, std::uint32_t threads) {
    fault::IidAdversary adversary({.drop_rate = 0.2,
                                   .duplicate_rate = 0.05,
                                   .crash_rate = 0.01,
                                   .recovery_delay = 3});
    fault::FaultPlan plan(g, GetParam(), adversary);
    mis::LubyBMis algorithm(g);
    RunRecord record = run_case(
        g, GetParam(), threads, algorithm, 512,
        [](const mis::LubyBMis& a) { return a.states(); }, &plan);
    std::vector<std::uint8_t> down;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      down.push_back(plan.is_down(v) ? 1 : 0);
    }
    return std::make_pair(std::move(record), std::move(down));
  };
  const auto baseline = run_with(graph::GraphView(sc.memory), 0);
  EXPECT_NE(baseline.first.events.find("\"ev\":\"fault_round\""),
            std::string::npos);
  for (const std::uint32_t threads : kStorageThreadCounts) {
    for (const bool mapped : {false, true}) {
      const auto row = run_with(
          mapped ? sc.mapped.view() : graph::GraphView(sc.memory), threads);
      const std::string label = std::string("faulty_luby/") +
                                (mapped ? "mapped" : "memory") + "/t" +
                                std::to_string(threads);
      expect_identical(baseline.first, row.first, label);
      EXPECT_EQ(baseline.second, row.second) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappedEquivalence, ::testing::Values(5, 99));

// ---------------------------------------------------------------------------
// Flight-recorder ring determinism (obs/recorder.h): the ring stores
// pre-encoded records carrying logical time only, so after identical runs —
// including wrap-around eviction churn in a deliberately tiny ring — the
// surviving record bytes must be identical across executor thread counts.
// ring_bytes() (not snapshot()) is the comparison unit: a snapshot embeds
// the manifest, which carries thread provenance by design.
// ---------------------------------------------------------------------------

struct RecorderRun {
  std::string ring;
  obs::RecorderStats stats;
};

/// One Luby run with a 256-byte recorder attached — small enough that the
/// round events of every test graph overflow it and force evictions.
RecorderRun run_with_tiny_recorder(const graph::Graph& g, std::uint64_t seed,
                                   std::uint32_t threads) {
  obs::RecorderConfig config;
  config.max_bytes = 256;
  obs::FlightRecorder recorder(config);
  sim::NetworkOptions options;
  options.num_threads = threads;
  sim::Network net(g, seed, options);
  mis::LubyBMis algorithm(g);
  {
    const obs::ScopedRecorder attach(&recorder);
    net.run(algorithm, 1 << 20);
  }
  RecorderRun run;
  run.ring = recorder.ring_bytes();
  run.stats = recorder.stats();
  return run;
}

void expect_recorder_runs_identical(const RecorderRun& baseline,
                                    const RecorderRun& other,
                                    const std::string& label) {
  EXPECT_EQ(baseline.ring, other.ring) << label;
  EXPECT_EQ(baseline.stats.recorded_events, other.stats.recorded_events)
      << label;
  EXPECT_EQ(baseline.stats.buffered_events, other.stats.buffered_events)
      << label;
  EXPECT_EQ(baseline.stats.buffered_bytes, other.stats.buffered_bytes)
      << label;
  EXPECT_EQ(baseline.stats.evicted_events, other.stats.evicted_events)
      << label;
}

TEST_P(ParallelEquivalence, RecorderRingMatchesSerialAfterEviction) {
  const std::uint64_t seed = GetParam();
  // The smallest graphs can finish in so few rounds that even the tiny
  // ring never wraps, so the wrap requirement is aggregate: at least one
  // graph per seed must have forced evictions, or the rows below only
  // prove the no-eviction case.
  bool any_evicted = false;
  for (const GraphCase& gc : test_graphs(seed)) {
    const RecorderRun serial = run_with_tiny_recorder(gc.g, seed, 0);
    EXPECT_FALSE(serial.ring.empty()) << gc.name;
    any_evicted = any_evicted || serial.stats.evicted_events > 0;
    for (const std::uint32_t threads : {2u, 8u}) {
      expect_recorder_runs_identical(
          serial, run_with_tiny_recorder(gc.g, seed, threads),
          "recorder/" + gc.name + "/t" + std::to_string(threads));
    }
  }
  EXPECT_TRUE(any_evicted);
}

TEST_P(ArenaEquivalence, RecorderRingMatchesReferenceInboxes) {
  const std::uint64_t seed = GetParam();
  bool any_evicted = false;  // aggregate wrap requirement, as above
  for (const GraphCase& gc : arena_graphs(seed)) {
    const RecorderRun reference = run_with_tiny_recorder(gc.g, seed, 0);
    any_evicted = any_evicted || reference.stats.evicted_events > 0;
    for (const std::uint32_t threads : kArenaThreadCounts) {
      expect_recorder_runs_identical(
          reference, run_with_tiny_recorder(gc.g, seed, threads),
          "recorder/" + gc.name + "/t" + std::to_string(threads));
    }
  }
  EXPECT_TRUE(any_evicted);
}

}  // namespace
}  // namespace arbmis
