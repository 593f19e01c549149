// Fault-injection seam of the CONGEST simulator.
//
// The simulator itself stays fault-agnostic: NetworkOptions::fault accepts
// a FaultInjector and the Network asks it for decisions at two points —
//
//   * begin_round: serially at every round barrier, before any callback of
//     that round runs. This is where node events (crashes, recoveries)
//     resolve, so the down set is frozen for the duration of the phase and
//     every worker reads a consistent snapshot.
//   * on_message: once per send, from the sending node's lane (a pool
//     worker, or the calling thread). The fate of a message (delivered,
//     dropped, duplicated) must be a pure function of (plan, edge slot,
//     round) — the contract that keeps fault runs byte-identical across
//     thread counts: the sender records the fate in its port slot, which
//     the receiver reads next round in port order on any executor.
//
// Between barriers it only reads the down set. The record of what was
// injected is the Network's: each barrier sums the lanes' drops and
// duplicates in shard order and, with begin_round's crashes and
// recoveries, emits them as the round's FaultRound event and adds them to
// RunStats::faults.
//
// Semantics of the injected faults:
//   * a dropped message is lost in transit — the sender still pays its
//     CONGEST budget (it sent the message; the network ate it);
//   * a duplicated message is delivered twice to the same recipient (the
//     network duplicated it in transit — no extra sender budget); a fate
//     never asks for more than two copies, and the Network checks that;
//   * a down (crashed) node receives no callbacks and sends nothing;
//     messages addressed to a node that is down at send time are dropped.
//     Recovery is crash-recover with state intact: the node resumes its
//     callback schedule having missed the intervening rounds.
//
// The concrete implementation (FaultPlan, adversaries) lives in
// src/fault; this header exists so arbmis_sim does not depend on
// arbmis_fault.
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.h"

namespace arbmis::sim {

/// Fate of one message: how many copies reach the recipient's next-round
/// inbox. 0 = dropped, 1 = delivered, 2 = duplicated. The Network sizes
/// its inbox buffers for at most kMaxCopies per port and throws
/// std::logic_error at send time on a fate asking for more.
struct FaultDecision {
  static constexpr std::uint8_t kMaxCopies = 2;
  std::uint8_t copies = 1;
};

/// Node events resolved at one round barrier.
struct RoundFaultEvents {
  std::uint32_t crashes = 0;
  std::uint32_t recoveries = 0;
};

/// Fault counters summed over rounds (RunStats::faults) or over runs
/// (fault::ResilientResult::faults).
struct FaultTotals {
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint32_t crashes = 0;
  std::uint32_t recoveries = 0;

  FaultTotals& operator+=(const FaultTotals& other) noexcept {
    drops += other.drops;
    duplicates += other.duplicates;
    crashes += other.crashes;
    recoveries += other.recoveries;
    return *this;
  }
  bool operator==(const FaultTotals&) const = default;
};

/// Abstract fault source attached via NetworkOptions::fault. All hooks are
/// called by the Network only; with no injector attached the simulator
/// takes none of these paths (zero cost when off).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Reset per-run state (Network::run calls this at the top of each run).
  virtual void begin_run() = 0;

  /// Serial barrier hook before the callbacks of `round` execute (round 0
  /// is the on_start phase). Resolves crash/recovery events; `halted` is
  /// the per-node halt flags (1 = halted), so adaptive adversaries can
  /// target still-active nodes.
  virtual RoundFaultEvents begin_round(
      std::uint32_t round, std::span<const std::uint8_t> halted) = 0;

  /// Fate of one message sent from `from` to `to` on the directed edge
  /// `edge_slot` during `round`. Must be const and thread-safe: the
  /// parallel executor calls it concurrently from workers, and determinism
  /// across thread counts requires it to be a pure function.
  virtual FaultDecision on_message(graph::NodeId from, graph::NodeId to,
                                   std::uint64_t edge_slot,
                                   std::uint32_t round) const = 0;

  /// True while `v` is crashed. Stable between barriers.
  virtual bool is_down(graph::NodeId v) const = 0;

  /// Number of currently-down nodes (all distinct from halted nodes).
  virtual graph::NodeId num_down() const = 0;

  /// True if any currently-down node has a recovery scheduled; the run
  /// must not end while recoveries are pending.
  virtual bool recovery_pending() const = 0;
};

}  // namespace arbmis::sim
