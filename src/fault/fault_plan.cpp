#include "fault/fault_plan.h"

#include <algorithm>

#include "obs/sink.h"

namespace arbmis::fault {

FaultPlan::FaultPlan(graph::GraphView g, std::uint64_t seed,
                     Adversary& adversary)
    : graph_(g),
      adversary_(&adversary),
      message_key_(util::Rng(seed).child(kMessageStream).next()),
      event_rng_(util::Rng(seed).child(kEventStream)) {
  down_.assign(g.num_nodes(), 0);
  recover_at_.assign(g.num_nodes(), kNever);
  adversary_->bind(g);
}

void FaultPlan::begin_run() {
  ++run_index_;
  std::fill(down_.begin(), down_.end(), 0);
  std::fill(recover_at_.begin(), recover_at_.end(), kNever);
  num_down_ = 0;
  pending_recoveries_ = 0;
  adversary_->begin_run();
}

sim::RoundFaultEvents FaultPlan::begin_round(
    std::uint32_t round, std::span<const std::uint8_t> halted) {
  sim::RoundFaultEvents events;
  const graph::NodeId n = graph_.num_nodes();
  // Recoveries due at this barrier resolve before new crashes, so a node
  // can in principle recover and be re-crashed at the same barrier only
  // via an explicit adversary pick.
  // Both decision loops below run serially at the round barrier, so the
  // per-decision telemetry events are emitted in deterministic node order.
  if (pending_recoveries_ > 0) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (down_[v] != 0 && recover_at_[v] <= round) {
        down_[v] = 0;
        recover_at_[v] = kNever;
        --num_down_;
        --pending_recoveries_;
        ++events.recoveries;
        obs::emit(
            obs::make_event<obs::EventKind::kFaultRecovery>(round, v));
      }
    }
  }
  crash_scratch_.clear();
  const AdversaryView view{graph_, halted, down_};
  adversary_->pick_crashes(round, view, event_rng_, crash_scratch_);
  const std::uint32_t delay = adversary_->recovery_delay();
  for (graph::NodeId v : crash_scratch_) {
    // Contract: only still-running nodes crash (down ∩ halted = ∅), so
    // Network's termination test num_halted + num_down never double-counts.
    if (v >= n || down_[v] != 0 || halted[v] != 0) continue;
    down_[v] = 1;
    ++num_down_;
    ++events.crashes;
    if (delay > 0) {
      recover_at_[v] = round + delay;
      ++pending_recoveries_;
    }
    obs::emit(obs::make_event<obs::EventKind::kFaultCrash>(
        round, v, delay > 0 ? recover_at_[v] : kNever));
  }
  return events;
}

double FaultPlan::coin(std::uint64_t edge_slot, std::uint32_t round,
                       std::uint64_t salt) const noexcept {
  std::uint64_t h = util::mix64(message_key_ ^ run_index_, edge_slot);
  h = util::mix64(h, (static_cast<std::uint64_t>(round) << 2) | salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

sim::FaultDecision FaultPlan::on_message(graph::NodeId from, graph::NodeId to,
                                         std::uint64_t edge_slot,
                                         std::uint32_t round) const {
  const MessageOdds odds = adversary_->message_odds(from, to, round);
  if (odds.drop > 0.0 && coin(edge_slot, round, 0) < odds.drop) {
    return sim::FaultDecision{0};
  }
  if (odds.duplicate > 0.0 && coin(edge_slot, round, 1) < odds.duplicate) {
    return sim::FaultDecision{2};
  }
  return sim::FaultDecision{1};
}

}  // namespace arbmis::fault
