// Tests for the runtime CONGEST model checker (sim/model_check.h):
// negative tests prove each violation class is actually detected, and the
// read-multiplicity ledger is cross-checked against the declared read_k of
// the paper's event families on a BoundedArbIndependentSet run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/bounded_arb.h"
#include "core/params.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "mis/metivier.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "readk/family.h"
#include "round_events.h"
#include "sim/contract.h"
#include "sim/model_check.h"
#include "sim/network.h"

namespace arbmis::sim {
namespace {

/// Sends one message with an arbitrary payload from node 0, then halts.
class WidePayloadSender : public Algorithm {
 public:
  explicit WidePayloadSender(std::uint64_t payload) : payload_(payload) {}
  std::string_view name() const override { return "wide_payload"; }
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0) ctx.send(0, 1, payload_);
  }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    ctx.halt();
  }

 private:
  std::uint64_t payload_;
};

TEST(ModelCheck, OverWideMessageIsCaught) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.min_edge_bits = 16;
  options.model_check.log_n_factor = 1;
  Network net(g, 1, options);
  // 32 significant payload bits + 8 tag bits = 40 > 16.
  WidePayloadSender algorithm(0xFFFFFFFFULL);
  EXPECT_THROW(net.run(algorithm, 4), CongestViolation);
}

TEST(ModelCheck, OverWideMessageIsCountedWhenNotFailFast) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.min_edge_bits = 16;
  options.model_check.log_n_factor = 1;
  options.model_check.fail_fast = false;
  Network net(g, 1, options);
  WidePayloadSender algorithm(0xFFFFFFFFULL);
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_EQ(net.model_check_report().violations, 1u);
  EXPECT_EQ(net.model_check_report().max_message_bits, 40u);
}

TEST(ModelCheck, NarrowMessageWithinBudgetPasses) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.min_edge_bits = 16;
  options.model_check.log_n_factor = 1;
  Network net(g, 1, options);
  WidePayloadSender algorithm(0x3F);  // 6 + 8 = 14 bits <= 16
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_EQ(net.model_check_report().violations, 0u);
}

/// Sends one over-wide message from node 0 in round 2, then halts.
class LateWideSender : public Algorithm {
 public:
  std::string_view name() const override { return "late_wide"; }
  void on_start(NodeContext&) override {}
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    if (ctx.round() == 2 && ctx.id() == 0) ctx.send(0, 1, 0xFFFFFFFFULL);
    if (ctx.round() >= 2) ctx.halt();
  }
};

TEST(ModelCheck, ViolationIsCountedEmittedAndDumpedOnEveryExecutor) {
  // Fail-fast aborts a phase before its barrier merge; the violation the
  // aborting lane staged must still be counted, emitted as kViolation with
  // the round it happened in, and auto-dumped by the flight recorder — on
  // the inline lane and on the worker pool alike.
  const graph::Graph g = graph::gen::path(2);
  for (const std::uint32_t threads : {0u, 1u, 2u}) {
    for (const bool fail_fast : {true, false}) {
      const std::string label = "threads " + std::to_string(threads) +
                                (fail_fast ? " fail_fast" : " counting");
      const std::string path = ::testing::TempDir() +
                               "arbmis_violation_t" + std::to_string(threads) +
                               (fail_fast ? "_ff" : "") + ".flightrec";
      std::remove(path.c_str());
      obs::RecorderConfig config;
      config.dump_path = path;
      obs::FlightRecorder recorder(config);
      obs::VectorSink sink;
      NetworkOptions options;
      options.num_threads = threads;
      options.model_check.min_edge_bits = 16;
      options.model_check.log_n_factor = 1;
      options.model_check.fail_fast = fail_fast;
      Network net(g, 1, options);
      LateWideSender algorithm;
      {
        const obs::ScopedRecorder attach(&recorder);
        const obs::ScopedSink scoped(&sink);
        if (fail_fast) {
          EXPECT_THROW(net.run(algorithm, 4), CongestViolation) << label;
        } else {
          EXPECT_NO_THROW(net.run(algorithm, 4)) << label;
        }
      }
      EXPECT_EQ(net.model_check_report().violations, 1u) << label;
      EXPECT_EQ(recorder.stats().dumps, 1u) << label;
      EXPECT_TRUE(std::filesystem::exists(path)) << label;
      std::uint32_t violation_events = 0;
      for (const obs::OwnedEvent& e : sink.events()) {
        if (e.kind != obs::EventKind::kViolation) continue;
        ++violation_events;
        EXPECT_EQ(e.round, 2u) << label;
      }
      EXPECT_EQ(violation_events, 1u) << label;
    }
  }
}

/// Stashes node 0's context in on_start and abuses it from node 1's
/// callback: a cross-node state read outside message delivery.
class ContextStasher : public Algorithm {
 public:
  std::string_view name() const override { return "context_stasher"; }
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0) stashed_ = ctx;
  }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    if (ctx.id() == 1 && stashed_) {
      (void)stashed_->rng().next();  // node 1 reads node 0's stream
    }
    ctx.halt();
  }

 private:
  std::optional<NodeContext> stashed_;
};

TEST(ModelCheck, CrossNodeStateReadIsCaught) {
  const graph::Graph g = graph::gen::path(3);
  Network net(g, 1);
  ContextStasher algorithm;
  EXPECT_THROW(net.run(algorithm, 4), CongestViolation);
}

TEST(ModelCheck, OutOfRoundStateReadIsCaught) {
  // Using a stashed context after the run — outside any callback window —
  // is a state access outside message delivery and must be flagged too.
  class Stash : public Algorithm {
   public:
    std::string_view name() const override { return "stash"; }
    void on_start(NodeContext& ctx) override { stashed = ctx; }
    void on_round(NodeContext& ctx, std::span<const Message>) override {
      ctx.halt();
    }
    std::optional<NodeContext> stashed;
  };
  const graph::Graph g = graph::gen::path(2);
  Network net(g, 1);
  Stash algorithm;
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_THROW((void)algorithm.stashed->rng().next(), CongestViolation);
}

TEST(ModelCheck, RandomnessBudgetIsEnforced) {
  class GreedyDrawer : public Algorithm {
   public:
    std::string_view name() const override { return "greedy_drawer"; }
    void on_start(NodeContext& ctx) override {
      (void)ctx.rng().next();
      (void)ctx.rng().next();
      (void)ctx.rng().next();  // third draw busts the default budget of 2
    }
    void on_round(NodeContext& ctx, std::span<const Message>) override {
      ctx.halt();
    }
  };
  const graph::Graph g = graph::gen::path(2);
  Network net(g, 1);
  GreedyDrawer algorithm;
  EXPECT_THROW(net.run(algorithm, 4), CongestViolation);
}

TEST(ModelCheck, DisabledCheckerEnforcesNothing) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.enabled = false;
  options.model_check.min_edge_bits = 1;
  Network net(g, 1, options);
  WidePayloadSender algorithm(~std::uint64_t{0});
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_EQ(net.model_check_report().max_message_bits, 0u);
}

TEST(ModelCheck, DefaultBudgetFloorsAtOneCongestWord) {
  // Small n: the word floor dominates; large n: 8 * ceil(log2(n+1)) does.
  Network small(graph::gen::path(16), 1);
  EXPECT_EQ(small.model_check_report().edge_bit_budget, 72u);
  Network large(graph::gen::path(1000), 1);
  EXPECT_EQ(large.model_check_report().edge_bit_budget, 80u);
}

TEST(ModelCheck, RuntimeChargesMatchCompileTimeContract) {
  // The nominal widths pinned at compile time by src/sim/contract.h are
  // the numbers the runtime checker actually charges: a full CONGEST word
  // costs exactly kNominalMessageBits, an empty payload costs exactly the
  // tag, and the default per-edge budget floors at one full message on any
  // graph small enough for the log-n term to lose. If either side moves
  // without the other, this test (or contract.h's static_asserts) fails.
  const graph::Graph g = graph::gen::path(2);
  {
    Network net(g, 1);
    WidePayloadSender algorithm(~std::uint64_t{0});
    net.run(algorithm, 4);
    EXPECT_EQ(net.model_check_report().max_message_bits,
              contract::kNominalMessageBits);
    EXPECT_EQ(net.model_check_report().edge_bit_budget,
              contract::kNominalMessageBits);
  }
  {
    Network net(g, 1);
    WidePayloadSender algorithm(0);
    net.run(algorithm, 4);
    EXPECT_EQ(net.model_check_report().max_message_bits,
              contract::kNominalTagBits);
  }
  EXPECT_EQ(ModelCheckOptions{}.min_edge_bits, contract::kNominalMessageBits);
}

/// One scale, one iteration, every node competitive: in the single kPrio
/// round all nodes draw and broadcast their priorities, which every
/// neighbor reads in the kResolve round.
core::Params one_iteration_params(const graph::Graph& g) {
  core::Params params;
  params.alpha = 1;
  params.max_degree = g.max_degree();
  params.num_scales = 1;
  params.iterations_per_scale = 1;
  params.rho_factor = 100.0;  // rho_1 >> max degree: everyone competes
  return params;
}

TEST(ModelCheck, ReportKMatchesDeclaredReadKOnCompleteGraph) {
  // K_m with ids oriented small -> large: node m-1 has m-1 parents, so the
  // paper's Event (2) family reads its priority m-1 times plus once by the
  // node itself — read_k == m. On the simulator, the same priority is
  // consumed by all m-1 neighbors plus the drawing node: k == m.
  const graph::NodeId m = 8;
  const graph::Graph g = graph::gen::complete(m);
  std::vector<graph::NodeId> members(m);
  for (graph::NodeId v = 0; v < m; ++v) members[v] = v;
  const readk::ReadKFamily family =
      readk::parent_max_family(graph::id_orientation(g), members);
  ASSERT_EQ(family.read_k(), m);

  const core::Params params = one_iteration_params(g);
  core::BoundedArbIndependentSet algorithm(g, params);
  Network net(g, 7);
  RunStats stats;
  const std::vector<obs::OwnedEvent> rounds = test::capture_events(
      {obs::EventKind::kRound},
      [&] { stats = net.run(algorithm, params.total_rounds()); });
  EXPECT_TRUE(stats.all_halted);
  const ModelCheckReport& report = net.model_check_report();
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.k, family.read_k());
  // Algorithm 1 draws exactly one priority per round.
  EXPECT_EQ(report.max_rng_reads_per_round, 1u);
  // Priorities are one CONGEST word: 64 payload bits + 8 tag bits.
  EXPECT_EQ(report.max_message_bits, 72u);
  // The draws happen in the kPrio round (round 1); their readers consume
  // them in round 2, whose Round event reports their multiplicity.
  ASSERT_GT(rounds.size(), 2u);
  EXPECT_EQ(rounds[2].round, 2u);
  EXPECT_EQ(test::field(rounds[2], "k_prev"), m);
}

TEST(ModelCheck, ReportKMatchesDeclaredReadKOnStar) {
  // Star with the hub as the highest id: every leaf's out-edge points at
  // the hub, whose priority feeds all d leaf indicators plus its own.
  const graph::NodeId leaves = 6;
  graph::Builder b(leaves + 1);
  for (graph::NodeId v = 0; v < leaves; ++v) b.add_edge(v, leaves);
  const graph::Graph g = b.build();
  std::vector<graph::NodeId> members(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) members[v] = v;
  const readk::ReadKFamily family =
      readk::parent_max_family(graph::id_orientation(g), members);
  ASSERT_EQ(family.read_k(), leaves + 1);

  const core::Params params = one_iteration_params(g);
  core::BoundedArbIndependentSet algorithm(g, params);
  Network net(g, 3);
  net.run(algorithm, params.total_rounds());
  EXPECT_EQ(net.model_check_report().k, family.read_k());
  EXPECT_EQ(net.model_check_report().violations, 0u);
}

/// On a star whose hub is the last node: in round 0 the hub draws and
/// broadcasts a 16-bit payload, in round 1 leaf 0 draws and sends a 1-bit
/// payload to the hub, round 2 draws and sends nothing, and every node
/// halts in round 3.
class ScriptedDraws : public Algorithm {
 public:
  explicit ScriptedDraws(graph::NodeId hub) : hub_(hub) {}
  std::string_view name() const override { return "scripted_draws"; }
  void on_start(NodeContext& ctx) override {
    if (ctx.id() != hub_) return;
    (void)ctx.rng().next();
    ctx.broadcast(1, 0xFFFF);
  }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    if (ctx.round() == 1 && ctx.id() == 0) {
      (void)ctx.rng().next();
      ctx.send(0, 1, 1);
    }
    if (ctx.round() == 3) ctx.halt();
  }

 private:
  graph::NodeId hub_;
};

TEST(ModelCheck, RoundEventsCarryEachRoundsWidthAndReadMultiplicity) {
  // Each Round event reports its own round's widest message and the read
  // multiplicity of the previous round's draws: the hub's round-0 draw is
  // read by the hub and its 6 leaves, leaf 0's round-1 draw by the leaf
  // and the hub. Rounds that draw or send nothing report 0, so neither
  // value may carry over from an earlier round.
  const graph::NodeId leaves = 6;
  graph::Builder b(leaves + 1);
  for (graph::NodeId v = 0; v < leaves; ++v) b.add_edge(v, leaves);
  const graph::Graph g = b.build();
  for (const std::uint32_t threads : {0u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    NetworkOptions options;
    options.num_threads = threads;
    Network net(g, 5, options);
    ScriptedDraws algorithm(leaves);
    const std::vector<obs::OwnedEvent> rounds = test::capture_events(
        {obs::EventKind::kRound}, [&] { net.run(algorithm, 10); });
    const std::uint64_t width[] = {kTagBits + 16, kTagBits + 1, 0, 0};
    const std::uint64_t k_prev[] = {0, leaves + 1, 2, 0};
    ASSERT_EQ(rounds.size(), 4u);
    for (std::uint32_t r = 0; r < 4; ++r) {
      EXPECT_EQ(rounds[r].round, r);
      EXPECT_EQ(test::field(rounds[r], "max_message_bits"), width[r])
          << "round " << r;
      EXPECT_EQ(test::field(rounds[r], "k_prev"), k_prev[r]) << "round " << r;
    }
    EXPECT_EQ(net.model_check_report().max_message_bits, kTagBits + 16);
    EXPECT_EQ(net.model_check_report().k, leaves + 1);
  }
}

TEST(ModelCheck, MetivierStaysWithinAllBudgets) {
  // The competition engine under full enforcement on a non-trivial graph:
  // no violations, and the read multiplicity never exceeds Delta + 1 (a
  // priority is read by its drawer and at most all its neighbors).
  util::Rng rng(11);
  const graph::Graph g = graph::gen::gnp(200, 0.05, rng);
  mis::MetivierMis algorithm(g);
  Network net(g, 5);
  const RunStats stats = net.run(algorithm, 1 << 12);
  EXPECT_TRUE(stats.all_halted);
  const ModelCheckReport& report = net.model_check_report();
  EXPECT_EQ(report.violations, 0u);
  EXPECT_GE(report.k, 1u);
  EXPECT_LE(report.k, g.max_degree() + 1);
  EXPECT_LE(report.max_message_bits, report.edge_bit_budget);
}

TEST(ModelCheckReport, SummaryMentionsKeyFields) {
  ModelCheckReport report;
  report.k = 7;
  report.violations = 2;
  const std::string s = report.summary();
  EXPECT_NE(s.find("k=7"), std::string::npos);
  EXPECT_NE(s.find("violations=2"), std::string::npos);
}

}  // namespace
}  // namespace arbmis::sim
