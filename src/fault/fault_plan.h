// FaultPlan — the deterministic, seeded FaultInjector behind
// NetworkOptions::fault.
//
// A plan is a pure function of (graph, seed, adversary):
//   * message fates come from stateless hash coins over (plan key, edge
//     slot, round) — evaluated concurrently by the parallel executor's
//     workers with no shared mutable state, which is what keeps faulty
//     runs byte-identical across thread counts;
//   * crash/recovery events are drawn from a dedicated Rng::child event
//     stream consumed serially at round barriers, in ascending node order;
//   * the adversary (fault/adversary.h) supplies the odds and the crash
//     targeting strategy, the plan supplies the mechanics (down set,
//     recovery schedule).
//
// The plan keeps no record of what it injected: the Network does, as its
// FaultRound events and RunStats::faults (sim/fault_hooks.h).
//
// Reuse across runs mirrors Network's RNG discipline: begin_run resets the
// down set but advances a run index mixed into the message coins and keeps
// consuming the same event stream, so a plan driving a multi-attempt
// pipeline injects fresh-but-reproducible faults each attempt.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/adversary.h"
#include "graph/graph.h"
#include "sim/fault_hooks.h"
#include "util/rng.h"

namespace arbmis::fault {

class FaultPlan final : public sim::FaultInjector {
 public:
  /// The adversary is borrowed and must outlive the plan; its bind() hook
  /// runs here so degree-aware strategies can precompute against `g`.
  FaultPlan(graph::GraphView g, std::uint64_t seed, Adversary& adversary);

  // FaultInjector hooks (called by sim::Network; see sim/fault_hooks.h).
  void begin_run() override;
  sim::RoundFaultEvents begin_round(
      std::uint32_t round, std::span<const std::uint8_t> halted) override;
  sim::FaultDecision on_message(graph::NodeId from, graph::NodeId to,
                                std::uint64_t edge_slot,
                                std::uint32_t round) const override;
  bool is_down(graph::NodeId v) const override { return down_[v] != 0; }
  graph::NodeId num_down() const override { return num_down_; }
  bool recovery_pending() const override { return pending_recoveries_ > 0; }

  const Adversary& adversary() const noexcept { return *adversary_; }

 private:
  static constexpr std::uint32_t kNever = ~std::uint32_t{0};
  // Rng::child stream ids for the plan's two randomness sources. Large
  // constants so they never collide with the simulator's per-node child
  // streams (node ids are dense from 0).
  static constexpr std::uint64_t kMessageStream = 0xFA171'0000'0001ULL;
  static constexpr std::uint64_t kEventStream = 0xFA171'0000'0002ULL;

  /// Stateless uniform [0, 1) coin for one message-fate test.
  double coin(std::uint64_t edge_slot, std::uint32_t round,
              std::uint64_t salt) const noexcept;

  graph::GraphView graph_;
  Adversary* adversary_;
  std::uint64_t message_key_ = 0;
  util::Rng event_rng_;
  std::uint64_t run_index_ = 0;  ///< bumped by begin_run, mixed into coins

  std::vector<std::uint8_t> down_;       ///< 1 = currently crashed
  std::vector<std::uint32_t> recover_at_;  ///< barrier round; kNever = none
  graph::NodeId num_down_ = 0;
  graph::NodeId pending_recoveries_ = 0;
  std::vector<graph::NodeId> crash_scratch_;
};

}  // namespace arbmis::fault
