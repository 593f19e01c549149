// Tests of the simulator's message delivery (sim/network.h, "Delivery"):
// inboxes gathered in port order against first/last ports and isolated
// nodes, inboxes that mix outbox (broadcast) and port-slot messages, the
// port slots sized only by an injector or the first port send (once, also
// from a pool lane) and the Network's exact byte footprint, inbox resets
// across rounds and across run() calls, fault duplicates right behind
// their originals, the enforced <= 1-message-per-directed-edge and
// <= 2-copies violation paths, a broadcast (one outbox write) against the
// same message sent port by port, the reserved read-k tag bit, and rounds
// that stage more than one of the inline lane's read-k flush batches
// (sim/network.h, executor section), byte-identical across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/sink.h"
#include "round_events.h"
#include "sim/model_check.h"
#include "sim/network.h"

namespace arbmis {
namespace {

/// (src, tag, payload) triple recorded per delivered message, so tests can
/// assert the exact inbox byte sequence, not just its length.
struct Recorded {
  graph::NodeId src;
  std::uint32_t tag;
  std::uint64_t payload;

  bool operator==(const Recorded&) const = default;
};

/// Broadcasts one message per port per round for `rounds` rounds and
/// records every node's inbox contents in delivery order.
class RecordingBroadcast final : public sim::Algorithm {
 public:
  RecordingBroadcast(graph::NodeId n, std::uint32_t rounds)
      : rounds_(rounds), inboxes_(n) {}

  std::string_view name() const override { return "recording_broadcast"; }

  void on_start(sim::NodeContext& ctx) override {
    inboxes_[ctx.id()].clear();
    ctx.broadcast(0, ctx.id());
  }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    auto& record = inboxes_[ctx.id()];
    for (const sim::Message& m : inbox) {
      record.push_back({m.src, m.tag, m.payload});
    }
    // Send even in the halting round: those messages are staged but never
    // delivered, which is exactly the leftover state the cross-run
    // reset test needs to exist.
    ctx.broadcast(0, ctx.id());
    if (ctx.round() >= rounds_) ctx.halt();
  }

  /// Messages node v received, in delivery order, across the whole run.
  const std::vector<Recorded>& inbox(graph::NodeId v) const {
    return inboxes_[v];
  }

 private:
  std::uint32_t rounds_;
  std::vector<std::vector<Recorded>> inboxes_;
};

/// Broadcasts only in even rounds; odd-round inboxes must come back empty,
/// which fails unless the sent flags really reset between rounds.
class AlternatingBroadcast final : public sim::Algorithm {
 public:
  AlternatingBroadcast(graph::NodeId n, std::uint32_t rounds)
      : rounds_(rounds), inbox_sizes_(n) {}

  std::string_view name() const override { return "alternating_broadcast"; }

  void on_start(sim::NodeContext& ctx) override {
    inbox_sizes_[ctx.id()].clear();
    ctx.broadcast(0, ctx.id());
  }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    inbox_sizes_[ctx.id()].push_back(
        static_cast<std::uint32_t>(inbox.size()));
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    if (ctx.round() % 2 == 0) ctx.broadcast(0, ctx.id());
  }

  const std::vector<std::uint32_t>& sizes(graph::NodeId v) const {
    return inbox_sizes_[v];
  }

 private:
  std::uint32_t rounds_;
  std::vector<std::vector<std::uint32_t>> inbox_sizes_;
};

/// Sends twice down port 0 in one round — the <= 1 per directed edge
/// violation the network must reject while enforcement is on.
class DoubleSender final : public sim::Algorithm {
 public:
  std::string_view name() const override { return "double_sender"; }
  void on_start(sim::NodeContext& ctx) override {
    if (ctx.id() == 0 && ctx.degree() > 0) {
      ctx.send(0, 0, 1);
      ctx.send(0, 0, 2);
    }
    ctx.halt();
  }
  void on_round(sim::NodeContext&, std::span<const sim::Message>) override {}
};

/// Breaks the fault contract: asks for three copies of every message,
/// one more than the arena holds per directed edge.
class TriplingInjector final : public sim::FaultInjector {
 public:
  void begin_run() override {}
  sim::RoundFaultEvents begin_round(std::uint32_t,
                                    std::span<const std::uint8_t>) override {
    return {};
  }
  sim::FaultDecision on_message(graph::NodeId, graph::NodeId, std::uint64_t,
                                std::uint32_t) const override {
    return {.copies = 3};
  }
  bool is_down(graph::NodeId) const override { return false; }
  graph::NodeId num_down() const override { return 0; }
  bool recovery_pending() const override { return false; }
};

TEST(MessageArena, SlotLayoutMatchesCsrAndInboxIsPortOrdered) {
  // Path 0-1-2-3: interior nodes receive on both their first and last
  // ports, the endpoints only on their single port.
  const graph::Graph g = graph::gen::path(4);
  sim::Network net(g, /*seed=*/1);
  // A fault-free Network sizes no port slots before its first port send.
  EXPECT_EQ(net.port_slots(), 0u);

  RecordingBroadcast algo(4, /*rounds=*/1);
  net.run(algo, /*max_rounds=*/2);

  // Ascending-sender == port order for sorted adjacency.
  EXPECT_EQ(algo.inbox(0), (std::vector<Recorded>{{1, 0, 1}}));
  EXPECT_EQ(algo.inbox(1), (std::vector<Recorded>{{0, 0, 0}, {2, 0, 2}}));
  EXPECT_EQ(algo.inbox(2), (std::vector<Recorded>{{1, 0, 1}, {3, 0, 3}}));
  EXPECT_EQ(algo.inbox(3), (std::vector<Recorded>{{2, 0, 2}}));
}

TEST(MessageArena, IsolatedNodesGatherEmptyInboxes) {
  // Nodes 3 and 4 have no edges: their rows are empty, so their inboxes
  // stay empty, but they still receive callbacks and halt.
  const std::vector<graph::Edge> edges = {{0, 1}, {1, 2}};
  const graph::Graph g = graph::from_edges(5, edges);
  sim::Network net(g, 2);
  EXPECT_EQ(net.port_slots(), 0u);

  RecordingBroadcast algo(5, 1);
  const sim::RunStats stats = net.run(algo, 4);
  EXPECT_TRUE(stats.all_halted);
  EXPECT_TRUE(algo.inbox(3).empty());
  EXPECT_TRUE(algo.inbox(4).empty());
  EXPECT_EQ(algo.inbox(1),
            (std::vector<Recorded>{{0, 0, 0}, {2, 0, 2}}));
}

TEST(MessageArena, AnInjectorSizesOnePortSlotPerDirectedEdgeAndParity) {
  // Port slots: one per directed edge and round parity, each recording a
  // fate of up to two copies with an injector. A fault-free Network sizes
  // none until its first port send; an injector makes every send a port
  // send, so its Network sizes them at construction.
  const graph::Graph g = [] {
    util::Rng rng(12);
    return graph::gen::gnp(60, 0.1, rng);
  }();
  const std::uint64_t m = g.num_edges();
  ASSERT_GT(m, 0u);
  EXPECT_EQ(sim::Network(g, 1).port_slots(), 0u);
  // Any injector, even one that never fires, sizes the port slots.
  fault::IidAdversary adversary({});
  fault::FaultPlan plan(g, 1, adversary);
  sim::NetworkOptions options;
  options.fault = &plan;
  EXPECT_EQ(sim::Network(g, 1, options).port_slots(), 4 * m);
}

/// Node 0 sends one message on port 0 in on_start; every node halts there.
class OnePortSend final : public sim::Algorithm {
 public:
  std::string_view name() const override { return "one_port_send"; }
  void on_start(sim::NodeContext& ctx) override {
    if (ctx.id() == 0) ctx.send(0, 1, 1);
    ctx.halt();
  }
  void on_round(sim::NodeContext&, std::span<const sim::Message>) override {}
};

/// footprint_bytes() of a Network on `g` before and after a run whose one
/// message is a port send.
std::pair<std::uint64_t, std::uint64_t> footprint_around_a_port_send(
    const graph::Graph& g, const sim::NetworkOptions& options) {
  sim::Network net(g, 1, options);
  const std::uint64_t before = net.footprint_bytes();
  OnePortSend algo;
  net.run(algo, 2);
  return {before, net.footprint_bytes()};
}

TEST(MessageArena, FootprintIsPinnedPerConfiguration) {
  // Exact bytes of every buffer a Network holds, on one graph with 60
  // nodes, 336 directed edges and maximum degree 10:
  //   per node: a 32 B Rng, a 1 B halt flag, and per round parity a 1 B
  //     sent flag and a 16 B outbox Message, 67 B; plus five 4 B checker
  //     counters (20 B) with the checker on;
  //   one inline ExecLane, 208 B, and its inbox buffer of 10 Messages,
  //     160 B (20, 320 B, with an injector's second copies);
  //   per directed edge, once a port send sized them (an injector sizes
  //     them at construction): per parity a 16 B port slot, and a 4 B
  //     reverse port, 36 B; plus per parity a 1 B fate with an injector,
  //     38 B.
  // A new per-node, per-edge or per-lane buffer moves these numbers.
  const graph::Graph g = [] {
    util::Rng rng(12);
    return graph::gen::gnp(60, 0.1, rng);
  }();
  ASSERT_EQ(g.num_nodes(), 60u);
  ASSERT_EQ(g.num_edges(), 168u);
  ASSERT_EQ(g.max_degree(), 10u);
  // 60 * (67 + 20) + 208 + 160, then + 336 * 36
  EXPECT_EQ(footprint_around_a_port_send(g, {}),
            std::make_pair(std::uint64_t{5588}, std::uint64_t{17684}));
  sim::NetworkOptions unchecked;
  unchecked.model_check.enabled = false;
  // 60 * 67 + 208 + 160, then + 336 * 36
  EXPECT_EQ(footprint_around_a_port_send(g, unchecked),
            std::make_pair(std::uint64_t{4388}, std::uint64_t{16484}));
  fault::IidAdversary adversary({});
  fault::FaultPlan plan(g, 1, adversary);
  sim::NetworkOptions faulty;
  faulty.fault = &plan;
  // 60 * (67 + 20) + 208 + 320 + 336 * 38, unchanged by the send
  EXPECT_EQ(footprint_around_a_port_send(g, faulty),
            std::make_pair(std::uint64_t{18516}, std::uint64_t{18516}));
}

TEST(MessageArena, BroadcastOnlyRunHoldsNoPerEdgeMemory) {
  // A fault-free run that only broadcasts writes outboxes, never a port
  // slot: the Network's footprint is its per-node and per-lane buffers
  // before and after, on the inline lane and on a pool.
  const graph::Graph g = [] {
    util::Rng rng(12);
    return graph::gen::gnp(60, 0.1, rng);
  }();
  for (const std::uint32_t threads : {0u, 2u}) {
    sim::NetworkOptions options;
    options.num_threads = threads;
    sim::Network net(g, 1, options);
    const std::uint64_t before = net.footprint_bytes();
    RecordingBroadcast algo(60, 3);
    ASSERT_GT(net.run(algo, 5).messages, 0u) << "threads " << threads;
    EXPECT_EQ(net.port_slots(), 0u) << "threads " << threads;
    EXPECT_EQ(net.footprint_bytes(), before) << "threads " << threads;
  }
}

TEST(MessageArena, SelfLoopsAreRejectedAtGraphConstruction) {
  // The arena assumes no (v, v) slot exists; the graph builder upholds
  // that by refusing self-loops outright.
  const std::vector<graph::Edge> loop = {{1, 1}};
  EXPECT_THROW(graph::from_edges(4, loop), std::invalid_argument);
}

TEST(MessageArena, InboxesHoldOnlyThePreviousRoundsSends) {
  const graph::Graph g = graph::gen::path(6);
  sim::Network net(g, 3);
  AlternatingBroadcast algo(6, /*rounds=*/5);
  net.run(algo, 8);
  // Sends happen in rounds 0, 2, 4 => inboxes are non-empty in rounds
  // 1, 3, 5 and empty in rounds 2, 4. A gather that read the wrong
  // round's store would find an even round's broadcasts in them.
  const std::vector<std::uint32_t> interior = {2, 0, 2, 0, 2};
  const std::vector<std::uint32_t> endpoint = {1, 0, 1, 0, 1};
  EXPECT_EQ(algo.sizes(0), endpoint);
  EXPECT_EQ(algo.sizes(2), interior);
  EXPECT_EQ(algo.sizes(5), endpoint);
}

TEST(MessageArena, UndeliveredSendsDoNotLeakIntoTheNextRun) {
  // Two runs on one Network: the second must start from clean inboxes
  // (RNG streams persist by contract, but these algorithms draw none).
  const graph::Graph g = graph::gen::path(5);
  sim::Network net(g, 4);

  RecordingBroadcast first(5, 2);
  net.run(first, 4);
  // The final round's sends were staged but never delivered (every node
  // halts right after sending); a run-reset bug would leak them into the
  // next run's round 1.
  EXPECT_GT(net.in_flight(), 0u);
  RecordingBroadcast second(5, 2);
  net.run(second, 4);
  for (graph::NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(first.inbox(v), second.inbox(v)) << "node " << v;
  }
}

TEST(MessageArena, DuplicateStormDeliversEachCopyBehindItsOriginal) {
  // duplicate_rate = 1.0: every send is delivered twice, so every node
  // receives 2 * degree copies, and its gather puts each duplicate right
  // behind its original.
  const graph::Graph g = graph::gen::path(4);
  fault::IidAdversary adversary({.duplicate_rate = 1.0});
  fault::FaultPlan plan(g, 5, adversary);
  sim::NetworkOptions options;
  options.fault = &plan;
  sim::Network net(g, 5, options);

  std::vector<std::uint32_t> staged(4, 0);
  RecordingBroadcast algo(4, 1);
  net.run(algo, 2, [&](const sim::Network& n, std::uint32_t round) {
    if (round != 1) return;
    for (graph::NodeId v = 0; v < 4; ++v) staged[v] = n.staged_inbox_size(v);
  });

  EXPECT_EQ(algo.inbox(1),
            (std::vector<Recorded>{{0, 0, 0}, {0, 0, 0}, {2, 0, 2},
                                   {2, 0, 2}}));
  EXPECT_EQ(algo.inbox(0), (std::vector<Recorded>{{1, 0, 1}, {1, 0, 1}}));
  // The round-1 observer sees round 2's staging: every copy doubled.
  EXPECT_EQ(staged[1], 4u);
  EXPECT_EQ(staged[0], 2u);
}

TEST(MessageArena, MoreThanTwoCopiesThrows) {
  // An injector asking for a third copy must abort the run at send time,
  // on every executor, instead of writing past the node's region.
  const graph::Graph g = graph::gen::path(3);
  TriplingInjector injector;
  for (const std::uint32_t threads : {0u, 2u}) {
    sim::NetworkOptions options;
    options.fault = &injector;
    options.num_threads = threads;
    sim::Network net(g, 6, options);
    RecordingBroadcast algo(3, 1);
    EXPECT_THROW(net.run(algo, 2), std::logic_error) << "threads " << threads;
  }
}

TEST(MessageArena, EnforcedPerEdgeCapStillThrows) {
  // The fixed cap of one message per directed edge per round holds: a
  // second send on the same port aborts the run at send time.
  const graph::Graph g = graph::gen::path(3);
  sim::Network net(g, 7);
  DoubleSender algo;
  EXPECT_THROW(net.run(algo, 2), std::logic_error);
}

TEST(MessageArena, ReferenceImplementationIsByteIdentical) {
  // Differential anchor against a test-local reference model of delivery:
  // every round each live node's inbox holds one message per neighbor, in
  // ascending sender (= port) order — the semantics the arena must
  // reproduce on every executor.
  const graph::Graph g = [] {
    util::Rng rng(8);
    return graph::gen::gnp(40, 0.1, rng);
  }();
  std::vector<std::vector<Recorded>> reference(40);
  for (graph::NodeId v = 0; v < 40; ++v) {
    for (std::uint32_t round = 1; round <= 3; ++round) {
      for (const graph::NodeId u : g.neighbors(v)) {
        reference[v].push_back({u, 0, u});
      }
    }
  }
  for (const std::uint32_t threads : {0u, 1u, 2u, 8u}) {
    sim::NetworkOptions options;
    options.num_threads = threads;
    sim::Network net(g, 9, options);
    RecordingBroadcast algo(40, 3);
    const sim::RunStats stats = net.run(algo, 5);
    EXPECT_EQ(stats.rounds, 3u) << "threads " << threads;
    EXPECT_EQ(stats.messages, 3 * 2 * g.num_edges()) << "threads " << threads;
    for (graph::NodeId v = 0; v < 40; ++v) {
      EXPECT_EQ(algo.inbox(v), reference[v])
          << "threads " << threads << " node " << v;
    }
  }
}

/// How DrawingBroadcast puts its one message per round on every port.
enum class Sending {
  kBroadcast,   ///< NodeContext::broadcast: one staged run for the row
  kPortByPort,  ///< NodeContext::send on each port: one run per port
};

/// Sends `payload` with `tag` on every port of the calling node.
void send_everywhere(sim::NodeContext& ctx, Sending sending,
                     std::uint32_t tag, std::uint64_t payload) {
  if (sending == Sending::kBroadcast) {
    ctx.broadcast(tag, payload);
    return;
  }
  for (graph::NodeId port = 0; port < ctx.degree(); ++port) {
    ctx.send(port, tag, payload);
  }
}

/// Every node draws once per round and sends the draw on every port, so
/// every message is randomness-bearing: each consumed copy is one read in
/// the checker's read-k ledger.
class DrawingBroadcast final : public sim::Algorithm {
 public:
  DrawingBroadcast(graph::NodeId n, std::uint32_t rounds, Sending sending)
      : rounds_(rounds), sending_(sending), inboxes_(n) {}

  std::string_view name() const override { return "drawing_broadcast"; }

  void on_start(sim::NodeContext& ctx) override {
    send_everywhere(ctx, sending_, 0, ctx.rng().next());
  }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    auto& record = inboxes_[ctx.id()];
    for (const sim::Message& m : inbox) {
      record.push_back({m.src, m.tag, m.payload});
    }
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    send_everywhere(ctx, sending_, ctx.round(), ctx.rng().next());
  }

  const std::vector<std::vector<Recorded>>& inboxes() const {
    return inboxes_;
  }

 private:
  std::uint32_t rounds_;
  Sending sending_;
  std::vector<std::vector<Recorded>> inboxes_;
};

/// Everything a DrawingBroadcast run exposes, for exact comparison.
struct ExecutorRun {
  std::vector<std::vector<Recorded>> inboxes;
  std::vector<obs::OwnedEvent> rounds;  ///< Round and FaultRound events
  sim::RunStats stats;
  sim::ModelCheckReport report;
  std::uint64_t rng_draws = 0;
};

ExecutorRun run_drawing_broadcast(const graph::Graph& g,
                                  std::uint32_t threads,
                                  bool duplicate_storm,
                                  Sending sending = Sending::kBroadcast) {
  fault::IidAdversary adversary({.duplicate_rate = 1.0});
  fault::FaultPlan plan(g, 5, adversary);
  sim::NetworkOptions options;
  options.num_threads = threads;
  if (duplicate_storm) options.fault = &plan;
  sim::Network net(g, 11, options);
  DrawingBroadcast algo(g.num_nodes(), 3, sending);
  ExecutorRun run;
  run.rounds = test::capture_events(
      {obs::EventKind::kRound, obs::EventKind::kFaultRound},
      [&] { run.stats = net.run(algo, 4); });
  run.inboxes = algo.inboxes();
  run.report = net.model_check_report();
  run.rng_draws = net.total_rng_draws();
  return run;
}

void expect_same_run(const ExecutorRun& a, const ExecutorRun& b,
                     const std::string& label) {
  EXPECT_EQ(a.inboxes, b.inboxes) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.stats.rounds, b.stats.rounds) << label;
  EXPECT_EQ(a.stats.messages, b.stats.messages) << label;
  EXPECT_EQ(a.stats.payload_bits, b.stats.payload_bits) << label;
  EXPECT_EQ(a.stats.max_edge_load, b.stats.max_edge_load) << label;
  EXPECT_EQ(a.stats.all_halted, b.stats.all_halted) << label;
  EXPECT_TRUE(a.stats.faults == b.stats.faults) << label;
  EXPECT_EQ(a.rng_draws, b.rng_draws) << label;
  EXPECT_EQ(a.report.k, b.report.k) << label;
  EXPECT_EQ(a.report.max_message_bits, b.report.max_message_bits) << label;
  EXPECT_EQ(a.report.max_rng_reads_per_round,
            b.report.max_rng_reads_per_round)
      << label;
  EXPECT_EQ(a.report.violations, b.report.violations) << label;
}

void expect_identical_across_executors(const graph::Graph& g,
                                       bool duplicate_storm,
                                       const ExecutorRun& inline_run) {
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    expect_same_run(inline_run,
                    run_drawing_broadcast(g, threads, duplicate_storm),
                    "threads " + std::to_string(threads));
  }
}

// More leaves than two of the inline lane's 1024-entry flush batches: the
// leaves' sends and their consumed read-k origins each span several
// batches in one round, while the centre's broadcast stages one record
// for all of its ports.
constexpr graph::NodeId kStarLeaves = 2500;

TEST(MessageArena, StarBeyondOneFlushBatchIsExecutorIndependent) {
  const graph::Graph g = graph::gen::star(kStarLeaves + 1);
  const ExecutorRun inline_run = run_drawing_broadcast(g, 0, false);
  // The centre hears every leaf each round, in ascending leaf order.
  ASSERT_EQ(inline_run.inboxes[0].size(), 3u * kStarLeaves);
  for (graph::NodeId i = 0; i < kStarLeaves; ++i) {
    EXPECT_EQ(inline_run.inboxes[0][i].src, i + 1);
  }
  // Each draw of the centre is read by itself and by every leaf: counting
  // must not lose the consumptions staged in any batch.
  EXPECT_EQ(inline_run.report.k, kStarLeaves + 1);
  EXPECT_EQ(inline_run.report.violations, 0u);
  // Rounds 0-3, and no FaultRound without an injector.
  ASSERT_EQ(inline_run.rounds.size(), 4u);
  EXPECT_EQ(test::field(inline_run.rounds[1], "messages"), 2u * kStarLeaves);
  expect_identical_across_executors(g, false, inline_run);
}

TEST(MessageArena, DuplicateStormOverflowAcrossFlushBatches) {
  // duplicate_rate = 1.0 doubles every delivery: the centre's region of
  // two slots per leaf, read-k bits included, is filled by several flush
  // batches, each duplicate right behind its original.
  const graph::Graph g = graph::gen::star(kStarLeaves + 1);
  const ExecutorRun inline_run = run_drawing_broadcast(g, 0, true);
  ASSERT_EQ(inline_run.inboxes[0].size(), 6u * kStarLeaves);
  for (graph::NodeId i = 0; i < 2 * kStarLeaves; ++i) {
    EXPECT_EQ(inline_run.inboxes[0][i].src, i / 2 + 1);
  }
  // Every delivered copy is a read: two per leaf, plus the centre itself.
  EXPECT_EQ(inline_run.report.k, 2 * kStarLeaves + 1);
  EXPECT_EQ(inline_run.stats.faults.duplicates, 3u * 2u * kStarLeaves);
  expect_identical_across_executors(g, true, inline_run);
}

TEST(MessageArena, BroadcastEqualsPortByPortSends) {
  // A broadcast stages one run for the whole row; the same message sent
  // port by port stages one run per port. Inboxes, Round and FaultRound
  // events, run stats and the checker's report (read-k ledger included)
  // must not tell them apart, on any executor, with or without an injector
  // (which splits a broadcast into per-port runs, each with its own fate).
  const graph::Graph g = [] {
    util::Rng rng(13);
    return graph::gen::gnp(80, 0.1, rng);
  }();
  for (const bool storm : {false, true}) {
    for (const std::uint32_t threads : {0u, 1u, 2u, 8u}) {
      const std::string label = "threads " + std::to_string(threads) +
                                (storm ? " duplicate storm" : "");
      const ExecutorRun broadcast =
          run_drawing_broadcast(g, threads, storm, Sending::kBroadcast);
      const ExecutorRun by_port =
          run_drawing_broadcast(g, threads, storm, Sending::kPortByPort);
      ASSERT_GT(broadcast.stats.messages, 0u) << label;
      expect_same_run(broadcast, by_port, label);
      // Every copy is randomness-bearing, yet no inbox shows the read-k
      // bit: a message sent in round r arrives with tag r.
      for (const std::vector<Recorded>& inbox : broadcast.inboxes) {
        for (const Recorded& m : inbox) {
          EXPECT_LT(m.tag, 3u) << label;
        }
      }
    }
  }
}

/// Above the budget of a checker with min_edge_bits = 16 and
/// log_n_factor = 1 on a small graph: 8 tag bits + 32 payload bits.
constexpr std::uint64_t kWidePayload = 0xFFFFFFFFULL;

sim::NetworkOptions counting_options(std::uint32_t threads) {
  sim::NetworkOptions options;
  options.num_threads = threads;
  options.model_check.fail_fast = false;
  options.model_check.min_edge_bits = 16;
  options.model_check.log_n_factor = 1;
  return options;
}

/// Node 0 sends one over-wide word on every port in on_start; every node
/// halts there.
class WideSender final : public sim::Algorithm {
 public:
  explicit WideSender(Sending sending) : sending_(sending) {}
  std::string_view name() const override { return "wide_sender"; }
  void on_start(sim::NodeContext& ctx) override {
    if (ctx.id() == 0) send_everywhere(ctx, sending_, 1, kWidePayload);
    ctx.halt();
  }
  void on_round(sim::NodeContext&, std::span<const sim::Message>) override {}

 private:
  Sending sending_;
};

TEST(MessageArena, CountingModeChargesAnOverWideBroadcastPerPort) {
  // The checker sees a broadcast once, yet in counting mode it charges
  // one violation, text and kViolation event per port, exactly as for the
  // same word sent port by port.
  constexpr graph::NodeId kDegree = 5;
  const graph::Graph g = graph::gen::star(kDegree + 1);
  ASSERT_EQ(g.degree(0), kDegree);
  for (const std::uint32_t threads : {0u, 2u}) {
    std::vector<std::string> texts[2];
    for (const Sending sending : {Sending::kBroadcast, Sending::kPortByPort}) {
      const std::string label = "threads " + std::to_string(threads) +
                                (sending == Sending::kBroadcast
                                     ? " broadcast"
                                     : " port by port");
      sim::Network net(g, 1, counting_options(threads));
      WideSender algo(sending);
      obs::VectorSink sink;
      {
        const obs::ScopedSink scoped(&sink);
        net.run(algo, 2);
      }
      EXPECT_EQ(net.model_check_report().violations, kDegree) << label;
      std::vector<std::string>& seen =
          texts[sending == Sending::kBroadcast ? 0 : 1];
      for (const obs::OwnedEvent& e : sink.events()) {
        if (e.kind == obs::EventKind::kViolation) seen.push_back(e.text);
      }
      EXPECT_EQ(seen.size(), kDegree) << label;
    }
    EXPECT_EQ(texts[0], texts[1]) << "threads " << threads;
  }
}

/// The message of the std::logic_error `run` throws ("" if it throws
/// none), so a test can tell the cap from the other logic errors.
template <typename Run>
std::string logic_error_text(Run&& run) {
  try {
    run();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

/// Node 0 mixes a port send and an over-wide broadcast in one round, in
/// the given order; either order puts a second message on one port.
class MixedSender final : public sim::Algorithm {
 public:
  MixedSender(bool broadcast_first, Sending sending)
      : broadcast_first_(broadcast_first), sending_(sending) {}
  std::string_view name() const override { return "mixed_sender"; }
  void on_start(sim::NodeContext& ctx) override {
    if (ctx.id() == 0) {
      if (broadcast_first_) {
        send_everywhere(ctx, sending_, 1, kWidePayload);
        ctx.send(0, 1, kWidePayload);
      } else {
        // The last port: every other port of the broadcast comes first.
        ctx.send(ctx.degree() - 1, 1, kWidePayload);
        send_everywhere(ctx, sending_, 1, kWidePayload);
      }
    }
    ctx.halt();
  }
  void on_round(sim::NodeContext&, std::span<const sim::Message>) override {}

 private:
  bool broadcast_first_;
  Sending sending_;
};

TEST(MessageArena, BroadcastAndPortSendShareTheCap) {
  // A broadcast stamps each port, so a port send after it hits the cap; a
  // broadcast after a port send hits it at that port. In counting mode the
  // ports checked before the throw are charged as port by port: every
  // case charges the degree's worth of over-wide messages.
  constexpr graph::NodeId kDegree = 4;
  const graph::Graph g = graph::gen::star(kDegree + 1);
  for (const std::uint32_t threads : {0u, 1u, 2u, 8u}) {
    for (const bool broadcast_first : {true, false}) {
      for (const Sending sending :
           {Sending::kBroadcast, Sending::kPortByPort}) {
        const std::string label =
            "threads " + std::to_string(threads) +
            (broadcast_first ? " broadcast, send" : " send, broadcast") +
            (sending == Sending::kBroadcast ? "" : " (port by port)");
        sim::Network net(g, 1, counting_options(threads));
        MixedSender algo(broadcast_first, sending);
        const std::string what =
            logic_error_text([&] { net.run(algo, 2); });
        EXPECT_NE(what.find("per-edge message budget"), std::string::npos)
            << label << ": " << what;
        EXPECT_EQ(net.model_check_report().violations, kDegree) << label;
      }
    }
  }
}

/// Node 0 sends (on port 0, or by broadcast) a tag with the reserved
/// read-k bit set.
class ReservedTagSender final : public sim::Algorithm {
 public:
  explicit ReservedTagSender(bool broadcast) : broadcast_(broadcast) {}
  std::string_view name() const override { return "reserved_tag_sender"; }
  void on_start(sim::NodeContext& ctx) override {
    const std::uint32_t tag = sim::Network::kReadKTagBit | 1;
    if (ctx.id() == 0) {
      if (broadcast_) {
        ctx.broadcast(tag, 0);
      } else {
        ctx.send(0, tag, 0);
      }
    }
    ctx.halt();
  }
  void on_round(sim::NodeContext&, std::span<const sim::Message>) override {}

 private:
  bool broadcast_;
};

TEST(MessageArena, ReservedTagBitThrowsOnEveryExecutor) {
  const graph::Graph g = graph::gen::path(3);
  for (const std::uint32_t threads : {0u, 1u, 2u, 8u}) {
    for (const bool broadcast : {true, false}) {
      const std::string label = "threads " + std::to_string(threads) +
                                (broadcast ? " broadcast" : " send");
      sim::NetworkOptions options;
      options.num_threads = threads;
      sim::Network net(g, 1, options);
      ReservedTagSender algo(broadcast);
      const std::string what = logic_error_text([&] { net.run(algo, 2); });
      EXPECT_NE(what.find("reserved read-k bit"), std::string::npos)
          << label << ": " << what;
    }
  }
}

/// Every node draws once per round, so every message is randomness-bearing.
/// Nodes whose id is a multiple of 3 broadcast; the others send the same
/// message only on their even ports. A receiver's inbox then mixes outbox
/// and port-slot messages, both carrying the read-k bit.
class MixedSources final : public sim::Algorithm {
 public:
  MixedSources(graph::NodeId n, std::uint32_t rounds)
      : rounds_(rounds), inboxes_(n) {}

  std::string_view name() const override { return "mixed_sources"; }

  static bool broadcasts(graph::NodeId v) { return v % 3 == 0; }
  static std::uint32_t tag(graph::NodeId v) { return broadcasts(v) ? 1 : 2; }
  static std::uint64_t payload(graph::NodeId v, std::uint32_t round) {
    return std::uint64_t{v} * 8 + round;
  }

  void on_start(sim::NodeContext& ctx) override { send(ctx); }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    auto& record = inboxes_[ctx.id()];
    for (const sim::Message& m : inbox) {
      record.push_back({m.src, m.tag, m.payload});
    }
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    send(ctx);
  }

  const std::vector<std::vector<Recorded>>& inboxes() const {
    return inboxes_;
  }

 private:
  void send(sim::NodeContext& ctx) {
    const graph::NodeId v = ctx.id();
    (void)ctx.rng().next();
    if (broadcasts(v)) {
      ctx.broadcast(tag(v), payload(v, ctx.round()));
      return;
    }
    for (graph::NodeId port = 0; port < ctx.degree(); port += 2) {
      ctx.send(port, tag(v), payload(v, ctx.round()));
    }
  }

  std::uint32_t rounds_;
  std::vector<std::vector<Recorded>> inboxes_;
};

TEST(MessageArena, MixedInboxAscendsBySenderOnEveryExecutor) {
  // Test-local model: in each round r, node v hears each neighbour u in
  // ascending id order, once (twice under the storm) if u broadcast or if
  // v sits on an even port of u's row.
  const graph::Graph g = [] {
    util::Rng rng(14);
    return graph::gen::gnp(48, 0.2, rng);
  }();
  constexpr std::uint32_t kRounds = 3;
  for (const bool storm : {false, true}) {
    const std::uint32_t copies = storm ? 2 : 1;
    std::vector<std::vector<Recorded>> reference(g.num_nodes());
    bool mixed = false;  // some inbox holds both kinds
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      bool heard[2] = {false, false};
      for (std::uint32_t round = 1; round <= kRounds; ++round) {
        for (const graph::NodeId u : g.neighbors(v)) {
          if (!MixedSources::broadcasts(u) && g.port_of(u, v) % 2 != 0) {
            continue;
          }
          heard[MixedSources::broadcasts(u) ? 0 : 1] = true;
          for (std::uint32_t c = 0; c < copies; ++c) {
            reference[v].push_back({u, MixedSources::tag(u),
                                    MixedSources::payload(u, round - 1)});
          }
        }
      }
      mixed = mixed || (heard[0] && heard[1]);
    }
    ASSERT_TRUE(mixed);
    ExecutorRun inline_run;
    for (const std::uint32_t threads : {0u, 1u, 2u, 8u}) {
      const std::string label = "threads " + std::to_string(threads) +
                                (storm ? " duplicate storm" : "");
      fault::IidAdversary adversary({.duplicate_rate = 1.0});
      fault::FaultPlan plan(g, 5, adversary);
      sim::NetworkOptions options;
      options.num_threads = threads;
      if (storm) options.fault = &plan;
      sim::Network net(g, 11, options);
      MixedSources algo(g.num_nodes(), kRounds);
      ExecutorRun run;
      run.rounds = test::capture_events(
          {obs::EventKind::kRound, obs::EventKind::kFaultRound},
          [&] { run.stats = net.run(algo, kRounds + 1); });
      run.inboxes = algo.inboxes();
      run.report = net.model_check_report();
      run.rng_draws = net.total_rng_draws();
      EXPECT_EQ(run.inboxes, reference) << label;
      EXPECT_EQ(run.report.violations, 0u) << label;
      if (threads == 0) {
        inline_run = run;
      } else {
        expect_same_run(inline_run, run, label);
      }
    }
  }
}

/// Broadcasts in rounds 0 and 1. In round 2 the nodes of the upper half
/// make the Network's first port sends, on port 0; in round 3 every node
/// sends on its last port; all halt in round 4. Records every inbox.
class LatePortSender final : public sim::Algorithm {
 public:
  explicit LatePortSender(graph::NodeId n) : n_(n), inboxes_(n) {}

  std::string_view name() const override { return "late_port_sender"; }

  void on_start(sim::NodeContext& ctx) override {
    ctx.broadcast(0, ctx.id());
  }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    auto& record = inboxes_[ctx.id()];
    for (const sim::Message& m : inbox) {
      record.push_back({m.src, m.tag, m.payload});
    }
    const graph::NodeId v = ctx.id();
    switch (ctx.round()) {
      case 1:
        ctx.broadcast(1, v);
        break;
      case 2:
        if (v >= n_ / 2 && ctx.degree() > 0) ctx.send(0, 2, v);
        break;
      case 3:
        if (ctx.degree() > 0) ctx.send(ctx.degree() - 1, 3, v);
        break;
      default:
        ctx.halt();
    }
  }

  const std::vector<std::vector<Recorded>>& inboxes() const {
    return inboxes_;
  }

 private:
  graph::NodeId n_;
  std::vector<std::vector<Recorded>> inboxes_;
};

TEST(MessageArena, FirstPortSendSizesThePortSlotsOnce) {
  // The first port sends come in round 2 from the upper half of the ids:
  // on a pool, from the lanes of the later shards, several at once. The
  // slots are sized then, exactly once: a second sizing would wipe the
  // sends already stamped, which the exact inboxes below would show.
  const graph::Graph g = [] {
    util::Rng rng(15);
    return graph::gen::gnp(64, 0.1, rng);
  }();
  const graph::NodeId n = g.num_nodes();
  std::vector<std::vector<Recorded>> reference(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const std::uint32_t tag : {0u, 1u}) {
      for (const graph::NodeId u : g.neighbors(v)) {
        reference[v].push_back({u, tag, u});
      }
    }
    for (const graph::NodeId u : g.neighbors(v)) {
      if (u >= n / 2 && g.neighbors(u).front() == v) {
        reference[v].push_back({u, 2, u});
      }
    }
    for (const graph::NodeId u : g.neighbors(v)) {
      if (g.neighbors(u).back() == v) reference[v].push_back({u, 3, u});
    }
  }
  // Per directed edge: a port slot per parity and a reverse port.
  const std::uint64_t per_edge_bytes = 2 * 16 + 4;
  for (const std::uint32_t threads : {0u, 1u, 2u, 8u}) {
    const std::string label = "threads " + std::to_string(threads);
    sim::NetworkOptions options;
    options.num_threads = threads;
    sim::Network net(g, 16, options);
    const std::uint64_t before = net.footprint_bytes();
    std::vector<std::uint64_t> slots;
    LatePortSender algo(n);
    const sim::RunStats stats =
        net.run(algo, 5, [&](const sim::Network& net_now, std::uint32_t) {
          slots.push_back(net_now.port_slots());
        });
    EXPECT_TRUE(stats.all_halted) << label;
    EXPECT_EQ(algo.inboxes(), reference) << label;
    // Sized in round 2, by its sends, and not before.
    EXPECT_EQ(slots, (std::vector<std::uint64_t>{0, 4 * g.num_edges(),
                                                 4 * g.num_edges(),
                                                 4 * g.num_edges()}))
        << label;
    EXPECT_EQ(net.footprint_bytes(),
              before + 2 * g.num_edges() * per_edge_bytes)
        << label;
    // A second run reuses them.
    LatePortSender again(n);
    net.run(again, 5);
    EXPECT_EQ(again.inboxes(), reference) << label;
    EXPECT_EQ(net.footprint_bytes(),
              before + 2 * g.num_edges() * per_edge_bytes)
        << label;
  }
}

}  // namespace
}  // namespace arbmis
