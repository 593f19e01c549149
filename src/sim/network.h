// Synchronous CONGEST network simulator.
//
// Execution model: in each round the network (1) delivers all messages sent
// in the previous round, (2) calls Algorithm::on_round for every non-halted
// node, collecting its sends into next-round inboxes, and (3) advances the
// round counter. Nodes halt individually via NodeContext::halt(); the run
// ends when every node has halted or the round budget is exhausted.
//
// Executor: every callback runs against an ExecLane, a staging area for
// everything the callback would otherwise write to shared simulator state
// (sends, halt count, checker accounting). With NetworkOptions::num_threads
// == 0 (the default) one lane runs inline on the calling thread, scanning
// v = 0..n-1; its order is already final, so it delivers its staged sends
// and counts its staged read-k consumptions every kFlushBatch entries,
// which bounds its memory and keeps delivery a tight batched scatter. With
// num_threads >= 1 a persistent worker pool (sim/thread_pool.h) runs one
// lane per worker over contiguous node-id shards of near-equal alive
// count, and the lanes are merged at the round barrier in shard order.
// A process-wide override for code that constructs its own Networks deep
// inside pipelines is available via ScopedNumThreads.
//
// Determinism-merge rule: the inline lane emits sends in ascending sender
// id and each node's RNG stream is private, so replaying the pool's lanes
// in shard (= node-id) order reproduces the inline lane's inbox order,
// stats, and ModelChecker ledger *byte-identically* for every thread count
// — tests/test_parallel_equivalence.cpp is the proof. Read-k consumption
// counting only increments counters and takes maxima, so when a batch of
// it is replayed does not matter.
//
// Accounting: rounds, total messages, total payload bits, and the maximum
// number of messages any single directed edge carried in one round. The
// CONGEST normalization is a fixed rule, not an option: a node sending a
// second message on one port in one round aborts the run with
// std::logic_error — this is how the test suite proves the algorithms obey
// it rather than merely claiming it. On top of the message-count cap, a
// ModelChecker (sim/model_check.h, default-on) enforces the per-edge bit
// budget, RNG-stream isolation with a per-round randomness budget, and
// callback pinning (no cross-node state access), and keeps the read-k
// multiplicity ledger reported via model_check_report(). A phase that
// throws (a fail-fast violation, the cap) still merges every lane's
// checker accounting on its way out, so the violation is counted, emitted
// and auto-dumped.
//
// Determinism: node v draws from Rng(seed).child(v); callback order never
// affects the streams, so a run is a pure function of (graph, seed,
// algorithm) — and, by the merge rule above, independent of num_threads.
//
// Fault injection: NetworkOptions::fault attaches a FaultInjector
// (sim/fault_hooks.h; the deterministic FaultPlan lives in src/fault/).
// Message fates are decided per send as a pure function of (plan, edge
// slot, round), surviving copies ride the regular lane staging, and node
// crashes/recoveries resolve serially at the round barrier — so a faulty
// run is a pure function of (graph, seed, algorithm, plan) and remains
// byte-identical across thread counts. With no injector attached every
// fault path is skipped.
//
// Message arena (the inbox): the cap allows one message per directed edge
// per round, and a fault fate duplicates a message at most once, so the
// inbox is a flat arena with one Message slot per directed edge — two with
// a FaultInjector attached — laid out in the view's CSR edge order (slot
// base of node v = slots_per_edge_ * graph_.offset(v)). A delivery is an
// indexed write at inbox_count_next_[target], so node v's inbox is a span
// of the arena, filled in delivery order: ascending sender id, which for
// sorted adjacency IS port order, with a duplicate right behind its
// original. The arena is allocated once at construction; since every send
// enforces the cap and rejects more than two copies, no region can
// overflow (tests/test_message_arena.cpp).
//
// Staging: a lane stages a message once per run of consecutive ports of
// its sender's row — a broadcast is one record for the whole row, a send
// a run of one, and a fault duplicate the same one-port run staged twice.
// With a FaultInjector attached a broadcast stages one run per port,
// because each port has its own fate. The cap is still checked, and
// stamped, per port, and the ModelChecker charges a run as that many
// messages; one flush loop expands every run over the sender's row into
// the arena.
//
// Read-k bit: a copy that carries its sender's this-round randomness has
// the top bit of its tag set in the arena slot (kReadKTagBit; see
// ModelChecker::on_send). Consuming an inbox makes one pass over it: it
// strips the bit, stages the senders of the marked copies as the lane's
// consumed read-k origins, and sums the copies' actual widths. Every tag
// in the tree is below 2^8 (the checker charges 8 tag bits), so the bit
// is reserved: a send or broadcast whose tag has it set throws
// std::logic_error.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/algorithm.h"
#include "sim/fault_hooks.h"
#include "sim/message.h"
#include "sim/model_check.h"
#include "sim/thread_pool.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace arbmis::sim {

struct NetworkOptions {
  /// Fault injector (non-owning; must outlive every run). nullptr (the
  /// default) disables every fault path — runs are byte-identical to a
  /// build without the subsystem. See sim/fault_hooks.h for the contract
  /// and src/fault/ for the deterministic FaultPlan implementation.
  FaultInjector* fault = nullptr;
  /// Worker threads for round execution. 0 (default) = the process-wide
  /// default, which is the inline lane unless a ScopedNumThreads override
  /// is active; >= 1 = a worker pool with exactly that many lanes (1 still
  /// exercises the pool's barrier merge). Results are bit-identical across
  /// all values.
  std::uint32_t num_threads = 0;
  /// Runtime CONGEST model checker (enabled by default; see
  /// sim/model_check.h). Set `model_check.enabled = false` to opt out.
  ModelCheckOptions model_check;
};

/// Process-wide worker count applied when NetworkOptions::num_threads == 0.
/// Defaults to 0 (the inline lane). Not thread-safe to mutate while
/// Networks are being constructed concurrently.
std::uint32_t default_num_threads() noexcept;

/// RAII override of default_num_threads(): routes every Network constructed
/// in scope (including those buried inside pipeline drivers such as
/// core::arb_mis) through the worker pool. Restores the previous
/// value on destruction.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(std::uint32_t num_threads) noexcept;
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  std::uint32_t previous_;
};

struct RunStats {
  std::uint32_t rounds = 0;           ///< rounds executed (excludes on_start)
  std::uint64_t messages = 0;         ///< total messages delivered
  std::uint64_t payload_bits = 0;     ///< messages * kBitsPerMessage
  std::uint32_t max_edge_load = 0;    ///< max msgs on one directed edge/round
  bool all_halted = false;            ///< every node halted within budget

  /// Accumulates another stage's stats (pipeline composition): rounds add,
  /// loads max, all_halted ANDs (a pipeline halted iff every stage did).
  void absorb(const RunStats& other) noexcept;
};

/// Staging area of one executor lane. Everything a callback would have
/// written to shared simulator state is buffered here and merged in shard
/// order (see the executor section of the header comment).
struct ExecLane {
  /// One message sent on the ports [first_port, end_port) of its sender's
  /// row (msg.src), its tag carrying the read-k bit. A dropped message is
  /// never staged; a duplicated one is staged twice.
  struct StagedSend {
    Message msg;
    graph::NodeId first_port;
    graph::NodeId end_port;
  };

  /// Sends in call order; senders within a shard ascend, so concatenating
  /// lanes in shard order reproduces the inline lane's send order.
  std::vector<StagedSend> sends;
  std::uint64_t messages = 0;      ///< delivered messages consumed
  std::uint64_t payload_bits = 0;  ///< actual bits consumed (message_bits)
  /// Widths of the consumed messages, staged for the attached registry's
  /// sim.message_bits histogram (filled only while one is attached).
  util::Log2Histogram message_bits;
  std::uint64_t rng_draws = 0;     ///< logical draws made in this shard
  std::uint32_t max_edge_load = 0;
  graph::NodeId halts = 0;         ///< nodes newly halted in this shard
  /// Fault events staged by this lane's sends (merged at the barrier so
  /// the injector's ledger stays executor-independent).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  ModelCheckerLane check;

  void reset() noexcept {
    sends.clear();
    messages = 0;
    payload_bits = 0;
    message_bits.clear();
    rng_draws = 0;
    max_edge_load = 0;
    halts = 0;
    fault_drops = 0;
    fault_duplicates = 0;
    check.reset();
  }
};

/// Per-round accounting snapshot, refreshed at every round barrier and
/// readable by RoundObservers (sim/trace.h records it). `messages` counts
/// the messages consumed by callbacks this round; fault counters cover
/// faults resolved or injected this round (drops/duplicates are charged to
/// the round the message was *sent* in).
struct RoundDelta {
  std::uint32_t round = 0;
  std::uint64_t messages = 0;
  /// Actual bits consumed this round: sum of message_bits() (tag kind bits
  /// plus significant payload bits) over the consumed messages — NOT
  /// messages * kBitsPerMessage; the nominal full-word charge lives only
  /// in the run-wide RunStats::payload_bits.
  std::uint64_t payload_bits = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  std::uint32_t fault_crashes = 0;
  std::uint32_t fault_recoveries = 0;

  friend bool operator==(const RoundDelta&, const RoundDelta&) = default;
};

class Network {
 public:
  /// Top bit of Message::tag: marks an arena copy as randomness-bearing
  /// (see the header comment). Reserved: sending a tag with it throws.
  static constexpr std::uint32_t kReadKTagBit = std::uint32_t{1} << 31;

  Network(graph::GraphView g, std::uint64_t seed,
          NetworkOptions options = {});

  graph::GraphView graph() const noexcept { return graph_; }
  std::uint32_t round() const noexcept { return round_; }
  bool halted(graph::NodeId v) const noexcept { return halted_[v] != 0; }
  graph::NodeId num_halted() const noexcept { return num_halted_; }
  /// Resolved worker count (0 = the inline lane).
  std::uint32_t num_threads() const noexcept { return num_threads_; }
  /// Total Message slots in the arena: one per directed edge (CSR order),
  /// two with a FaultInjector attached.
  std::uint64_t arena_slots() const noexcept { return arena_cur_.size(); }
  /// Bytes of every buffer the constructor sizes (size × element size),
  /// the ModelChecker's included. Deterministic in (graph, options).
  std::uint64_t footprint_bytes() const noexcept;
  /// Logical RNG draws made so far in the current run, summed over nodes.
  /// Deterministic in (graph, seed, algorithm) and executor-independent.
  std::uint64_t total_rng_draws() const noexcept { return rng_draws_; }
  /// Messages staged for delivery next round, network-wide / to one node
  /// (valid at round barriers, e.g. inside a RoundObserver; test hooks).
  std::uint64_t in_flight() const noexcept { return in_flight_next_; }
  std::uint32_t staged_inbox_size(graph::NodeId v) const noexcept {
    return inbox_count_next_[v];
  }

  /// Called after every completed round with the round number just
  /// finished; used by audits and traces. May inspect but not mutate.
  /// It fires at the round barrier, after the lane merge, so it always
  /// observes a consistent global state.
  using RoundObserver = std::function<void(const Network&, std::uint32_t)>;

  /// Runs `algorithm` until all nodes halt or `max_rounds` rounds complete.
  /// The network resets its per-run state (halts, inboxes, round counter)
  /// at the top of each run; RNG streams continue across runs so that a
  /// pipeline of stages consumes one coherent randomness source.
  RunStats run(Algorithm& algorithm, std::uint32_t max_rounds,
               const RoundObserver& observer = {});

  /// What the model checker observed during the latest run (width series,
  /// read multiplicity k, violations). Budget fields are valid even before
  /// the first run.
  const ModelCheckReport& model_check_report() const noexcept {
    return checker_.report();
  }

  /// Accounting for the most recently completed round (valid inside a
  /// RoundObserver and after run() returns).
  const RoundDelta& last_round() const noexcept { return last_round_; }

 private:
  friend class NodeContext;
  friend class NodeRandom;

  /// Staged entries (send runs, or consumed read-k origins) after which
  /// the inline lane flushes: bounds its memory while keeping the scatter
  /// batched. Results never depend on its value.
  static constexpr std::size_t kFlushBatch = 1024;

  void do_send(ExecLane& lane, graph::NodeId from, graph::NodeId port,
               std::uint32_t tag, std::uint64_t payload);
  /// Sends one message on every port of `from`: one staged run, or one
  /// do_send per port with a FaultInjector attached.
  void do_broadcast(ExecLane& lane, graph::NodeId from, std::uint32_t tag,
                    std::uint64_t payload);
  void do_halt(ExecLane& lane, graph::NodeId v);
  /// Accounts one logical draw from v's stream, then exposes it.
  util::Rng& draw_rng(ExecLane& lane, graph::NodeId v);
  /// First arena slot of v's inbox region.
  std::uint64_t inbox_base(graph::NodeId v) const noexcept {
    return graph_.offset(v) * slots_per_edge_;
  }
  /// The inbox v consumes this round, a span into the arena. One pass
  /// strips the read-k bit, stages the senders of the marked copies as the
  /// lane's consumed read-k origins, and counts the copies and their
  /// actual widths (staging the sim.message_bits histogram).
  std::span<const Message> consume_inbox(graph::NodeId v, ExecLane& lane);

  /// Runs one callback phase (on_start when round_ == 0, else on_round)
  /// over all non-halted, non-down nodes, inline or on the worker pool.
  void run_phase(Algorithm& algorithm);
  /// Runs the callbacks of the nodes in [begin, end) on one lane.
  void run_shard(Algorithm& algorithm, ExecLane& lane, graph::NodeId begin,
                 graph::NodeId end);
  /// Invokes the callback of one node.
  void step_node(Algorithm& algorithm, graph::NodeId v, ExecLane& lane);
  /// Delivers the lane's staged sends in staging order, each run expanded
  /// over its sender's row, and counts its staged read-k consumptions,
  /// emptying both buffers. Runs on the calling thread only (inline lane
  /// flushes and barrier merges).
  void flush(ExecLane& lane);
  /// flush(), then folds the lane's counters, staged width histogram and
  /// checker accounting into the shared state and resets the lane.
  void merge(ExecLane& lane);
  /// Barrier bookkeeping: fills last_round_, flushes the round's fault
  /// drop/duplicate counts to the injector's ledger.
  void flush_round_accounting(std::uint64_t messages_before,
                              RoundFaultEvents events);

  graph::GraphView graph_;
  std::uint64_t seed_ = 0;  ///< base RNG seed (telemetry run_begin events)
  FaultInjector* fault_ = nullptr;  ///< non-owning; nullptr = fault-free
  std::uint32_t num_threads_ = 0;  ///< resolved at construction; 0 = inline
  std::vector<util::Rng> rngs_;
  // One byte per node (not vector<bool>): under the worker pool a node's
  // own halt flag is written while neighbors' flags are read.
  std::vector<std::uint8_t> halted_;
  graph::NodeId num_halted_ = 0;
  std::uint32_t round_ = 0;

  // Message arena: slots_per_edge_ slots per directed edge in CSR order
  // (node v's inbox region starts at inbox_base(v)), double-buffered for
  // the deliver/fill round phases, with a per-node fill count. A slot's
  // tag carries its copy's read-k bit (kReadKTagBit).
  std::uint32_t slots_per_edge_ = 1;  ///< 2 with a FaultInjector attached
  std::vector<Message> arena_cur_;
  std::vector<Message> arena_next_;
  std::vector<std::uint32_t> inbox_count_cur_;
  std::vector<std::uint32_t> inbox_count_next_;
  std::uint64_t in_flight_next_ = 0;  ///< messages staged for next round

  // Round of the last send per directed edge (slot of (v, port) =
  // graph_.offset(v) + port): a stamp equal to the current round marks a
  // port that already carried its one message.
  std::vector<std::uint32_t> edge_epoch_;

  // Executor state: one lane (inline) or one per worker (pool_ set).
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ExecLane> lanes_;
  std::vector<graph::NodeId> shard_bounds_;

  ModelChecker checker_;
  RunStats stats_;
  RoundDelta last_round_;
  std::uint64_t rng_draws_ = 0;  ///< run-wide logical draws (all nodes)
  // Actual consumed bits and fault drop/duplicate counts of the round in
  // progress, folded in from the lanes.
  std::uint64_t round_payload_bits_ = 0;
  std::uint64_t round_fault_drops_ = 0;
  std::uint64_t round_fault_duplicates_ = 0;
};

}  // namespace arbmis::sim
