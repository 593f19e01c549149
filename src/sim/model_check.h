// Runtime CONGEST model checker.
//
// The simulator's message type (one tag + one 64-bit word) makes gross
// bandwidth violations impossible by construction, but three subtler ways
// of cheating the model remain expressible:
//
//   1. width  — packing more than O(log n) significant bits into the
//      payload word (the Network's fixed cap already stops a second word
//      down one edge in a round);
//   2. state  — reading or mutating another node's simulator state outside
//      message delivery, e.g. by stashing a NodeContext in one callback and
//      using it from another node's callback (global peeking);
//   3. randomness — drawing more than a word of randomness per round, or
//      sampling a *different* node's private stream.
//
// ModelChecker turns each of these into an enforced runtime invariant.
// Network calls the hooks below on every send (a broadcast is one call),
// RNG read and halt, stages the origins of the randomness-bearing
// copies each node consumes, and pins each lane's active node for the
// duration of a callback; a violation is reported through util/log and
// (by default) aborts the run with CongestViolation. The checker also
// keeps the read-k ledger the paper's analysis is built on: when a node draws
// fresh randomness in round r, the draw is "read" once by the node itself
// and once per *delivered* message it sends that round (neighbors consume
// the value next round — exactly how priorities propagate in Algorithm 1).
// The maximum multiplicity observed is reported as `k`, mirroring
// ReadKFamily::read_k() in src/readk/family.h: on a run of
// BoundedArbIndependentSet the two quantities coincide (see
// tests/test_model_check.cpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace arbmis::sim {

/// Thrown (when ModelCheckOptions::fail_fast) on any model violation.
class CongestViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct ModelCheckOptions {
  /// Master switch. On by default: the whole test/bench battery runs under
  /// enforcement, which is the point (ISSUE 1).
  bool enabled = true;
  /// Throw CongestViolation at the first violation (after logging). When
  /// false, violations are only counted and logged.
  bool fail_fast = true;
  /// Per-edge per-round budget =
  /// max(min_edge_bits, log_n_factor * ceil(log2(n + 1))), checked on the
  /// one message an edge may carry per round.
  std::uint32_t log_n_factor = 8;
  /// Floor of the per-message budget: one CONGEST word (64 payload bits +
  /// tag), so the budget never dips below what Message physically holds.
  std::uint32_t min_edge_bits = 72;
};

/// What the checker saw over one Network::run. Each round's own width and
/// read multiplicity are in its Round event (ModelChecker::close_round).
struct ModelCheckReport {
  /// Enforced per-edge per-round budget in bits, for the edge's one message.
  std::uint32_t edge_bit_budget = 0;
  /// Widest single message, as message_bits() measures it: kTagBits +
  /// significant payload bits. One message per edge per round makes it
  /// also the most bits one directed edge carried in one round.
  std::uint32_t max_message_bits = 0;
  /// Max logical RNG draws by one node in one round.
  std::uint32_t max_rng_reads_per_round = 0;
  /// Read multiplicity: max number of consumers of one node's per-round
  /// randomness (the node itself plus delivered recipients). This is the
  /// simulator-side analog of ReadKFamily::read_k().
  std::uint32_t k = 0;
  std::uint64_t violations = 0;

  /// One-line human summary for logs.
  std::string summary() const;
};

/// What the checker hands the round barrier for the Round event.
struct RoundCheck {
  /// Widest message sent in the round.
  std::uint32_t max_message_bits = 0;
  /// Read multiplicity of the previous round's draws, whose readers all
  /// consumed them in this round (0 in round 0).
  std::uint32_t k_prev = 0;
};

/// Per-lane staging area for the checker (see the executor in
/// sim/network.h). During a phase each lane funnels the *shared* parts of
/// the checker's accounting — report maxima, violations, and the
/// consumed-origin list of the read-k ledger — into its own staging area;
/// ModelChecker::merge_lane folds the lanes back in shard (= node-id) order
/// at the round barrier, so the merged report is independent of the lane
/// count. Per-node counters stay in the checker's shared arrays: every slot
/// there is owned by exactly one node and therefore by exactly one lane.
struct ModelCheckerLane {
  /// Node whose callback this lane is executing (the pinning check).
  graph::NodeId active_node;
  /// Max message width observed by this lane in the current phase.
  std::uint32_t max_message_bits = 0;
  /// Max per-node draws in one round observed by this lane.
  std::uint32_t max_rng_reads = 0;
  /// True if any node made its first draw of the round on this lane.
  bool any_first_draw = false;
  /// Origins of randomness-bearing messages consumed by this lane's nodes;
  /// multiplicity counting is replayed on the calling thread (only
  /// counters increment and maxima grow, so the replay order is free).
  std::vector<graph::NodeId> consumed_origins;
  std::uint64_t violations = 0;
  /// Violation messages staged by this lane. Telemetry must not be emitted
  /// from worker threads, so the kViolation events (and the flight-recorder
  /// auto-dump) fire when the lane is merged instead.
  std::vector<std::string> violation_texts;

  ModelCheckerLane();

  /// Clears the per-phase fields (merge_lane calls this after folding).
  void reset();
};

/// Instrumentation attached to a Network. All hooks are O(1) per call
/// (amortized) and take the lane of the executing callback; with
/// `enabled == false` every hook returns immediately.
class ModelChecker {
 public:
  static constexpr graph::NodeId kNoNode = ~graph::NodeId{0};
  /// Randomness budget: logical draws one node may make in one round. Two
  /// covers every algorithm in the repository (Israeli–Itai needs a coin
  /// plus a port pick); the paper's Algorithm 1 uses exactly one.
  static constexpr std::uint32_t kMaxRngReadsPerRound = 2;

  ModelChecker(graph::GraphView g, ModelCheckOptions options);

  bool enabled() const noexcept { return options_.enabled; }
  const ModelCheckReport& report() const noexcept { return report_; }
  /// Bytes of the per-node ledger arrays the constructor sizes (zero when
  /// disabled).
  std::uint64_t footprint_bytes() const noexcept;

  /// Resets per-run state (Network::run calls this at the top of each run).
  void begin_run();

  /// Hook for one send of `payload` from `from` on `messages`
  /// edges: a broadcast is one call for the whole row, a port send a call
  /// with messages == 1. Enforces the per-edge bit budget on each message
  /// (the Network has already checked it is its edge's only one this
  /// round) and returns true iff the messages are randomness-bearing
  /// (`from` drew earlier this round). A clean call costs the same for
  /// any `messages`; a violating one is charged once per message, in the
  /// per-message order, so the report (violations, their texts and
  /// kViolation events) equals that of the same messages sent one by one.
  /// The Network sets the read-k bit in the tag of a randomness-bearing
  /// message where it stores it and, when a node consumes a copy, stages
  /// the sender in the consuming lane's consumed_origins: dropped messages
  /// never enter the read-k ledger and duplicated ones enter it twice,
  /// while the sender is charged its full CONGEST budget regardless.
  bool on_send(ModelCheckerLane& lane, graph::NodeId from,
               std::uint64_t payload, std::uint32_t round,
               graph::NodeId messages);

  /// Hook for one logical draw from node v's private stream.
  void on_rng_read(ModelCheckerLane& lane, graph::NodeId v,
                   std::uint32_t round);

  /// Hook for a halt request (cross-node halt is a state write).
  void on_halt(ModelCheckerLane& lane, graph::NodeId v);

  /// Counts the read multiplicity of the lane's staged consumed origins
  /// and empties the list; `round` is the consuming round.
  void count_consumed(ModelCheckerLane& lane, std::uint32_t round);

  /// Folds one lane's staged accounting into the shared report, emitting
  /// its kViolation events (and the flight-recorder auto-dump). Called on
  /// the calling thread in shard order — at the round barrier, or when a
  /// phase aborts; `round` is the round the lane's callbacks executed in
  /// (0 for the on_start phase). Resets the lane.
  void merge_lane(ModelCheckerLane& lane, std::uint32_t round);

  /// Called at the barrier of `round`, after every lane is merged: returns
  /// the round's RoundCheck and clears what it reported, so the width
  /// starts over and the k slot of `round - 1` is free for `round + 1`.
  RoundCheck close_round(std::uint32_t round);

  /// Final bookkeeping; logs the summary at debug level.
  void end_run();

 private:
  /// Stages a violation in the lane; throws when fail_fast.
  void violation(ModelCheckerLane& lane, const std::string& what);
  /// Bumps the read multiplicity of `origin`'s round-`draw_round` draw.
  void count_consumption(graph::NodeId origin, std::uint32_t draw_round);

  ModelCheckOptions options_;
  std::uint32_t num_nodes_ = 0;
  std::uint32_t edge_bit_budget_ = 0;

  // Per-node RNG draws in the round v last drew in.
  std::vector<std::uint32_t> rng_reads_;

  // Read multiplicity of v's per-round randomness. A draw made in round r
  // is consumed by neighbors in round r + 1, when v may already be drawing
  // again — so the ledger keeps two slots indexed by round parity.
  // mult_[r & 1][v] counts consumers of v's round-r draw and is valid while
  // mult_epoch_[r & 1][v] == r, which also stamps the round's draws: v
  // drew in round r iff mult_epoch_[r & 1][v] == r (both are set at v's
  // first draw of the round and reset by begin_run).
  std::vector<std::uint32_t> mult_[2];
  std::vector<std::uint32_t> mult_epoch_[2];

  // The open round's widest message, and the max read multiplicity of the
  // draws of the two rounds whose ledgers are open, by parity as in mult_.
  std::uint32_t round_max_message_bits_ = 0;
  std::uint32_t round_k_[2] = {0, 0};

  ModelCheckReport report_;
};

}  // namespace arbmis::sim
