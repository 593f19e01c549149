// Per-node algorithm interface for the synchronous message-passing
// simulator.
//
// One Algorithm instance serves the whole network and owns its per-node
// state (vectors indexed by node id). The network calls
//
//   on_start(ctx)          once per node before round 1 (may send), then
//   on_round(ctx, inbox)   once per non-halted node per round,
//
// where `inbox` contains exactly the messages the node's neighbors sent in
// the previous round, in port order (ascending sender id). The span lives
// only for the callback: the network gathers the next node's inbox into
// the same buffer, so an algorithm that needs a message later copies it.
// Correct implementations read only their own node's
// state plus the inbox — the simulator cannot mechanically prevent global
// peeking, but the audit hooks (core/invariant.h) are the only sanctioned
// cross-node readers, and they run between rounds.
//
// Thread-safety contract: with NetworkOptions::num_threads >= 1 the
// network invokes callbacks for *distinct* nodes concurrently within a
// round. The locality rule above is therefore also the data-race rule: a
// callback may write only its own node's slots of the per-node state
// vectors, those slots must be at least one byte wide (std::vector<bool>
// bit-packs and is forbidden for per-node state — use
// std::vector<std::uint8_t>), and any whole-run aggregate must be derived
// from per-node state after the run rather than incremented inside
// callbacks. tests/test_parallel_equivalence.cpp is the enforcement
// vehicle: it proves runs are bit-identical across thread counts.
#pragma once

#include <span>
#include <string_view>

#include "graph/graph.h"
#include "sim/message.h"
#include "util/rng.h"

namespace arbmis::sim {

class Network;
struct ExecLane;

/// Draw-counted view of a node's private random stream. Every method is
/// one logical draw in the model checker's randomness ledger (rejection
/// retries inside a draw are not charged extra), so algorithms stay inside
/// the per-round randomness budget the CONGEST checker enforces. Satisfies
/// UniformRandomBitGenerator via operator().
class NodeRandom {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return util::Rng::min(); }
  static constexpr result_type max() noexcept { return util::Rng::max(); }

  result_type operator()() { return next(); }
  std::uint64_t next();
  double uniform01();
  std::uint64_t below(std::uint64_t bound);
  std::int64_t range(std::int64_t lo, std::int64_t hi);
  bool bernoulli(double p);

 private:
  friend class NodeContext;
  NodeRandom(Network& net, graph::NodeId id, ExecLane* lane)
      : net_(&net), id_(id), lane_(lane) {}

  Network* net_;
  graph::NodeId id_;
  ExecLane* lane_;  ///< the executor lane running the callback (non-null)
};

/// Facade handed to algorithm callbacks; valid only for the duration of the
/// callback.
class NodeContext {
 public:
  /// `lane` is the staging area of the executor lane running the callback
  /// (sim/network.h); every send, halt and draw is staged there.
  NodeContext(Network& net, graph::NodeId id, ExecLane& lane)
      : net_(&net), id_(id), lane_(&lane) {}

  graph::NodeId id() const noexcept { return id_; }
  graph::NodeId degree() const noexcept;
  /// Sorted global ids of neighbors; index into this span == port number.
  std::span<const graph::NodeId> neighbors() const noexcept;
  /// Current round number (0 during on_start).
  std::uint32_t round() const noexcept;

  /// Sends to the neighbor at `port` (delivered next round): one write
  /// into that neighbor's port slot. Throws std::logic_error if the
  /// CONGEST per-edge budget is exceeded or `tag` has its top bit set
  /// (Network::kReadKTagBit, reserved).
  void send(graph::NodeId port, std::uint32_t tag, std::uint64_t payload);

  /// Sends the same message to every neighbor, with the same checks as
  /// send() on each port: one write into this node's outbox, which every
  /// neighbor reads next round (one port send per port with a fault
  /// injector, since each port has its own fate).
  void broadcast(std::uint32_t tag, std::uint64_t payload);

  /// This node's private random stream (deterministic in (seed, id)).
  /// Draws are counted by the model checker; reading another node's stream
  /// or exceeding the per-round draw budget is a reported violation.
  NodeRandom rng() { return NodeRandom(*net_, id_, lane_); }

  /// Marks the node terminated; it receives no further callbacks. Messages
  /// already queued to it are silently dropped.
  void halt();

 private:
  Network* net_;
  graph::NodeId id_;
  ExecLane* lane_;  ///< the executor lane running the callback (non-null)
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string_view name() const = 0;

  /// Round 0: initialize per-node state; may send and may halt.
  virtual void on_start(NodeContext& ctx) = 0;

  /// One synchronous round: react to last round's messages; may send/halt.
  virtual void on_round(NodeContext& ctx, std::span<const Message> inbox) = 0;

  /// A reactive algorithm acts only on received messages: a round with no
  /// message in flight anywhere is a global no-op. The network uses this
  /// to cut a run short once the system quiesces (e.g. BFS rooting, which
  /// cannot detect quiescence locally and therefore never halts) — the
  /// skipped rounds are free in a real network too, because nothing is
  /// transmitted and no state changes.
  virtual bool is_reactive() const { return false; }
};

}  // namespace arbmis::sim
