// Synchronous CONGEST network simulator.
//
// Execution model: in each round the network (1) delivers all messages sent
// in the previous round, (2) calls Algorithm::on_round for every non-halted
// node, collecting its sends for the next round, and (3) advances the
// round counter. Nodes halt individually via NodeContext::halt(); the run
// ends when every node has halted or the round budget is exhausted.
//
// Executor: every callback runs against an ExecLane, a staging area for
// everything the callback would otherwise write to shared simulator state
// (halt count, message and draw counters, checker accounting). With
// NetworkOptions::num_threads == 0 (the default) one lane runs inline on
// the calling thread, scanning v = 0..n-1; its order is already final, so
// it counts its staged read-k consumptions every kFlushBatch entries, which
// bounds its memory. With num_threads = t >= 1 the process-wide pool
// (sim/thread_pool.h) runs t lanes over contiguous node-id shards of
// near-equal alive count, lane w on pool participant w mod P; the calling
// thread is participant 0 and runs lanes itself, and its profiling lane
// tag (obs::set_thread_lane) is back at 0 after every pooled phase, so the
// barrier merge records on lane 0. The lanes are merged at the round
// barrier in shard order. A process-wide override for code that
// constructs its own Networks deep inside pipelines is available via
// ScopedNumThreads.
//
// Determinism-merge rule: a message's place in its receiver's inbox is
// fixed by the receiver's row (see Delivery), never by when it was sent,
// and each node's RNG stream is private, so replaying the pool's lanes in
// shard (= node-id) order reproduces the inline lane's stats and
// ModelChecker ledger *byte-identically* for every thread count —
// tests/test_parallel_equivalence.cpp is the proof. Read-k consumption
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
// slot, round), and node crashes/recoveries resolve serially at the round
// barrier — so a faulty run is a pure function of (graph, seed, algorithm,
// plan) and remains byte-identical across thread counts. Each barrier
// records the round's faults once, as its FaultRound event, and adds them
// to RunStats::faults. With no injector attached every fault path is
// skipped.
//
// Delivery (pull): a message is written once, by its sender, and read
// the next round by its receiver. Every store is double-buffered by round
// parity: the callbacks of round r write parity r & 1 while they read
// parity (r - 1) & 1, so no slot is written and read in one phase.
//   * Sent flags, one byte per node and parity, cleared before each phase:
//     kBroadcast when the node broadcast, kPortSend when it sent on a port.
//   * A fault-free broadcast is one write into the sender's outbox slot,
//     one Message per node and parity: nothing per edge.
//   * A port send writes the receiver's port slot for that port, found
//     through the reverse-port array, and stamps it with the round; with
//     a FaultInjector each port slot also records its fate of 0-2 copies,
//     and a broadcast is one port send per port, since each port has its
//     own fate. The port slots (one per directed edge and parity, in the
//     view's CSR order) and the reverse ports are the simulator's only
//     per-edge memory: sized at construction with an injector, else by
//     the first port send the Network carries (once, under a mutex, so a
//     pool lane may make it). A broadcast-only run touches no per-edge
//     memory, and the barrier merge only folds counters.
// consume_inbox is the one delivery step: the receiver walks its own row
// in port order and takes, per neighbour, the outbox message if that
// neighbour broadcast last round, else its own port slot if that is
// stamped with last round, into its lane's inbox buffer (max degree
// messages, twice that with an injector), which the callback sees as its
// inbox span; after a round that sent nothing no row is walked. Rows are
// sorted, so the inbox ascends by sender id, each duplicate right behind
// its original. The cap needs no per-edge stamp of its own: the sent
// flags catch a second broadcast and a send after a broadcast, a port
// slot's stamp a second send on its port (even one its fate dropped), and
// a broadcast after port sends walks the sender's row to the first used
// port. A message to a down node is a fate of 0 copies.
//
// Read-k bit: a message that carries its sender's this-round randomness
// has the top bit of its tag set where it is stored (kReadKTagBit; see
// ModelChecker::on_send). The gather strips it from the inbox copy, stages
// the sender as one of the lane's consumed read-k origins per copy, and
// sums the copies' actual widths, all in its one pass. Every tag in the
// tree is below 2^8 (the checker charges 8 tag bits), so the bit is
// reserved: a send or broadcast whose tag has it set throws
// std::logic_error.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/algorithm.h"
#include "sim/fault_hooks.h"
#include "sim/message.h"
#include "sim/model_check.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace arbmis::sim {

struct NetworkOptions {
  /// Fault injector (non-owning; must outlive every run). nullptr (the
  /// default) disables every fault path — runs are byte-identical to a
  /// build without the subsystem. See sim/fault_hooks.h for the contract
  /// and src/fault/ for the deterministic FaultPlan implementation.
  FaultInjector* fault = nullptr;
  /// Lanes for round execution. 0 (default) = the process-wide default,
  /// which is the inline lane unless a ScopedNumThreads override is
  /// active; >= 1 = exactly that many pool lanes on the process-wide
  /// sim::ThreadPool (1 runs its one lane on the calling thread and still
  /// exercises the barrier merge). Results are bit-identical across all
  /// values.
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
  /// Faults injected over the run, on_start included: the sum of its
  /// FaultRound events (all zero without a FaultInjector).
  FaultTotals faults;

  /// Accumulates another stage's stats (pipeline composition): rounds and
  /// faults add, loads max, all_halted ANDs (a pipeline halted iff every
  /// stage did).
  void absorb(const RunStats& other) noexcept;
};

/// Staging area of one executor lane. Everything a callback would have
/// written to shared simulator state is buffered here and merged in shard
/// order (see the executor section of the header comment).
struct ExecLane {
  /// Inbox of the node whose callback the lane runs: consume_inbox gathers
  /// into it, so the callback's span lives only until the lane's next
  /// gather. Sized once, to the largest inbox a node can receive.
  std::vector<Message> inbox;
  /// send() and broadcast() calls (the exec-only lane_merge event).
  std::uint64_t sends = 0;
  /// Messages sent for next round: a broadcast counts its degree, a port
  /// send its copies.
  std::uint64_t in_flight = 0;
  std::uint64_t messages = 0;      ///< delivered messages consumed
  std::uint64_t payload_bits = 0;  ///< actual bits consumed (message_bits)
  /// Widths of the consumed messages, staged for the attached registry's
  /// sim.message_bits histogram (filled only while one is attached).
  util::Log2Histogram message_bits;
  std::uint64_t rng_draws = 0;     ///< logical draws made in this shard
  std::uint32_t max_edge_load = 0;
  graph::NodeId halts = 0;         ///< nodes newly halted in this shard
  /// Fault events staged by this lane's sends (merged at the barrier so
  /// the FaultRound events and RunStats::faults stay executor-independent).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  ModelCheckerLane check;

  /// Clears the per-phase counters; the inbox buffer keeps its size.
  void reset() noexcept {
    sends = 0;
    in_flight = 0;
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

class Network {
 public:
  /// Top bit of Message::tag: marks a stored message as randomness-bearing
  /// (see the header comment). Reserved: sending a tag with it throws.
  static constexpr std::uint32_t kReadKTagBit = std::uint32_t{1} << 31;

  Network(graph::GraphView g, std::uint64_t seed,
          NetworkOptions options = {});

  graph::GraphView graph() const noexcept { return graph_; }
  std::uint32_t round() const noexcept { return round_; }
  bool halted(graph::NodeId v) const noexcept { return halted_[v] != 0; }
  graph::NodeId num_halted() const noexcept { return num_halted_; }
  /// Resolved lane count (0 = the inline lane).
  std::uint32_t num_threads() const noexcept { return num_threads_; }
  /// Port slots allocated: one per directed edge and round parity, sized
  /// at construction with a FaultInjector, else by the first port send
  /// (0 until then). Read between runs or at round barriers.
  std::uint64_t port_slots() const noexcept {
    return port_slots_[0].size() + port_slots_[1].size();
  }
  /// Bytes of every buffer the Network holds (size × element size), the
  /// ModelChecker's and the lazily sized port slots included.
  /// Deterministic in (graph, options) and whether a port send happened.
  std::uint64_t footprint_bytes() const noexcept;
  /// Logical RNG draws made so far in the current run, summed over nodes.
  /// Deterministic in (graph, seed, algorithm) and executor-independent.
  std::uint64_t total_rng_draws() const noexcept { return rng_draws_; }
  /// Messages sent for delivery next round, network-wide / to one node
  /// (valid at round barriers, e.g. inside a RoundObserver; test hooks).
  std::uint64_t in_flight() const noexcept { return in_flight_; }
  std::uint32_t staged_inbox_size(graph::NodeId v) const;

  /// Called after every completed round with the round number just
  /// finished; used by audits and tests. May inspect but not mutate.
  /// It fires at the round barrier, after the lane merge, so it always
  /// observes a consistent global state.
  using RoundObserver = std::function<void(const Network&, std::uint32_t)>;

  /// Runs `algorithm` until all nodes halt or `max_rounds` rounds complete.
  /// The network resets its per-run state (halts, inboxes, round counter)
  /// at the top of each run; RNG streams continue across runs so that a
  /// pipeline of stages consumes one coherent randomness source.
  RunStats run(Algorithm& algorithm, std::uint32_t max_rounds,
               const RoundObserver& observer = {});

  /// What the model checker observed during the latest run (widest
  /// message, read multiplicity k, violations; per round, see the Round
  /// events). Budget fields are valid even before the first run.
  const ModelCheckReport& model_check_report() const noexcept {
    return checker_.report();
  }

 private:
  friend class NodeContext;
  friend class NodeRandom;

  /// A message in a port slot: `round` is the round it was sent in
  /// (kNever: empty), the tag carries the read-k bit, and the sender is
  /// implied by the slot.
  struct PortSlot {
    std::uint32_t round;
    std::uint32_t tag;
    std::uint64_t payload;
  };
  static constexpr std::uint32_t kNever = ~std::uint32_t{0};
  /// Bits of a node's per-round sent flags.
  static constexpr std::uint8_t kBroadcast = 1;  ///< wrote its outbox
  static constexpr std::uint8_t kPortSend = 2;   ///< wrote a port slot

  /// Consumed read-k origins after which the inline lane counts them:
  /// bounds its memory. Results never depend on its value.
  static constexpr std::size_t kFlushBatch = 1024;

  void do_send(ExecLane& lane, graph::NodeId from, graph::NodeId port,
               std::uint32_t tag, std::uint64_t payload);
  /// One write into the sender's outbox slot, or one do_send per port
  /// with a FaultInjector attached.
  void do_broadcast(ExecLane& lane, graph::NodeId from, std::uint32_t tag,
                    std::uint64_t payload);
  void do_halt(ExecLane& lane, graph::NodeId v);
  /// Accounts one logical draw from v's stream, then exposes it.
  util::Rng& draw_rng(ExecLane& lane, graph::NodeId v);
  /// Sizes the port slots and the reverse ports on the first call, and
  /// only then; safe from concurrent pool lanes.
  void ensure_port_slots();
  /// Index of the port slot of (from, port): the receiver's row, at its
  /// port of `from`.
  std::uint64_t port_slot(graph::NodeId from, graph::NodeId port) const {
    const std::uint64_t edge = graph_.offset(from) + port;
    return graph_.offset(graph_.neighbors(from)[port]) + reverse_port_[edge];
  }
  /// Walks v's row in port order and calls emit(message) once per copy
  /// sent to v in round `sent`, the read-k bit still in its tag.
  template <typename Emit>
  void gather(graph::NodeId v, std::uint32_t sent, Emit&& emit) const;
  /// Gathers the inbox v consumes this round into the lane's buffer. The
  /// same pass strips the read-k bit, stages the senders of the marked
  /// copies as the lane's consumed read-k origins, and counts the copies
  /// and their actual widths (staging the sim.message_bits histogram).
  std::span<const Message> consume_inbox(graph::NodeId v, ExecLane& lane);

  /// Runs one callback phase (on_start when round_ == 0, else on_round)
  /// over all non-halted, non-down nodes, inline or on the worker pool.
  void run_phase(Algorithm& algorithm);
  /// Runs the callbacks of the nodes in [begin, end) on one lane.
  void run_shard(Algorithm& algorithm, ExecLane& lane, graph::NodeId begin,
                 graph::NodeId end);
  /// Invokes the callback of one node.
  void step_node(Algorithm& algorithm, graph::NodeId v, ExecLane& lane);
  /// Folds the lane's counters, staged read-k origins, staged width
  /// histogram and checker accounting into the shared state and resets
  /// the lane. Runs on the calling thread only.
  void merge(ExecLane& lane);
  /// Barrier bookkeeping: adds the round's faults to stats_.faults, closes
  /// the checker's round, and emits its Round and FaultRound events and
  /// registry counters.
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

  // Message stores, indexed by round parity (see Delivery). sent_[p][v]
  // holds v's sent flags (kBroadcast, kPortSend) for the latest round of
  // parity p, cleared before each phase writes its parity; outbox_[p][v]
  // is v's broadcast; port_slots_[p] holds one slot per directed edge in
  // the view's CSR order (the slot of v's port i is offset(v) + i) and,
  // with an injector, port_copies_[p] each slot's fate.
  std::vector<std::uint8_t> sent_[2];
  std::vector<Message> outbox_[2];
  std::vector<PortSlot> port_slots_[2];
  std::vector<std::uint8_t> port_copies_[2];
  // reverse_port_[offset(v) + i]: the port of v in the row of v's i-th
  // neighbour. Sized with the port slots.
  std::vector<graph::NodeId> reverse_port_;
  // Set, under the mutex, once the port slots are sized.
  std::atomic<bool> port_slots_sized_{false};
  std::mutex port_slots_mutex_;
  std::uint64_t in_flight_ = 0;  ///< messages sent this phase (lanes folded)
  std::uint64_t delivering_ = 0;  ///< messages sent by the previous phase

  // Executor state: one lane (inline) or num_threads_ pool lanes.
  std::vector<ExecLane> lanes_;
  std::vector<graph::NodeId> shard_bounds_;

  ModelChecker checker_;
  RunStats stats_;
  std::uint64_t rng_draws_ = 0;  ///< run-wide logical draws (all nodes)
  // Actual consumed bits and fault drop/duplicate counts of the round in
  // progress, folded in from the lanes.
  std::uint64_t round_payload_bits_ = 0;
  std::uint64_t round_fault_drops_ = 0;
  std::uint64_t round_fault_duplicates_ = 0;
};

}  // namespace arbmis::sim
