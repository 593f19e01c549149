#include "sim/model_check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "obs/recorder.h"
#include "obs/sink.h"
#include "sim/message.h"
#include "util/log.h"

namespace arbmis::sim {

namespace {

constexpr std::uint32_t kStaleEpoch = ~std::uint32_t{0};

std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return static_cast<std::uint32_t>(std::bit_width(x - 1));
}

}  // namespace

ModelCheckerLane::ModelCheckerLane()
    : active_node(ModelChecker::kNoNode) {}

void ModelCheckerLane::reset() {
  active_node = ModelChecker::kNoNode;
  max_message_bits = 0;
  max_rng_reads = 0;
  any_first_draw = false;
  consumed_origins.clear();
  violations = 0;
  violation_texts.clear();
}

std::string ModelCheckReport::summary() const {
  std::ostringstream out;
  out << "model-check: budget=" << edge_bit_budget << "b"
      << " max_msg=" << max_message_bits << "b"
      << " max_rng_reads=" << max_rng_reads_per_round << " k=" << k
      << " violations=" << violations;
  return out.str();
}

ModelChecker::ModelChecker(graph::GraphView g, ModelCheckOptions options)
    : options_(options), num_nodes_(g.num_nodes()) {
  if (!options_.enabled) return;
  edge_bit_budget_ =
      std::max(options_.min_edge_bits,
               options_.log_n_factor *
                   ceil_log2(static_cast<std::uint64_t>(num_nodes_) + 1));
  rng_reads_.assign(num_nodes_, 0);
  for (int s = 0; s < 2; ++s) {
    mult_[s].assign(num_nodes_, 0);
    mult_epoch_[s].assign(num_nodes_, kStaleEpoch);
  }
  report_.edge_bit_budget = edge_bit_budget_;
}

std::uint64_t ModelChecker::footprint_bytes() const noexcept {
  return (rng_reads_.size() + mult_[0].size() + mult_[1].size() +
          mult_epoch_[0].size() + mult_epoch_[1].size()) *
         sizeof(std::uint32_t);
}

void ModelChecker::begin_run() {
  if (!options_.enabled) return;
  for (int s = 0; s < 2; ++s) {
    std::fill(mult_epoch_[s].begin(), mult_epoch_[s].end(), kStaleEpoch);
  }
  round_max_message_bits_ = 0;
  round_k_[0] = round_k_[1] = 0;
  report_ = ModelCheckReport{};
  report_.edge_bit_budget = edge_bit_budget_;
}

namespace {

std::string node_name(graph::NodeId v) {
  return v == ModelChecker::kNoNode ? std::string("<none>")
                                    : std::to_string(v);
}

}  // namespace

bool ModelChecker::on_send(ModelCheckerLane& lane, graph::NodeId from,
                           std::uint64_t payload, std::uint32_t round,
                           graph::NodeId messages) {
  if (!options_.enabled) return false;
  const auto width =
      static_cast<std::uint32_t>(message_bits(Message{0, 0, payload}));
  // Each message is its edge's only one this round: its width is the
  // edge's bits. Identical messages make identical checks, so a clean call
  // checks one; a violating one repeats the per-message sequence.
  const bool in_context = from == lane.active_node;
  const bool in_budget = width <= edge_bit_budget_;
  const graph::NodeId checked = in_context && in_budget ? 1 : messages;
  for (graph::NodeId i = 0; i < checked; ++i) {
    if (!in_context) {
      violation(lane, "out-of-context send: node " + std::to_string(from) +
                          "'s port used while node " +
                          node_name(lane.active_node) + " was scheduled");
    }
    lane.max_message_bits = std::max(lane.max_message_bits, width);
    if (!in_budget) {
      violation(lane, "message budget exceeded: " + std::to_string(width) +
                          " bits on one edge in round " +
                          std::to_string(round) + " (budget " +
                          std::to_string(edge_bit_budget_) + ")");
    }
  }

  // A message sent after a draw in the same callback carries that round's
  // randomness to its target, which will read it when it consumes it.
  return mult_epoch_[round & 1][from] == round;
}

void ModelChecker::count_consumption(graph::NodeId origin,
                                     std::uint32_t draw_round) {
  const int slot = draw_round & 1;
  if (mult_epoch_[slot][origin] != draw_round) return;
  const std::uint32_t m = ++mult_[slot][origin];
  report_.k = std::max(report_.k, m);
  round_k_[slot] = std::max(round_k_[slot], m);
}

void ModelChecker::count_consumed(ModelCheckerLane& lane,
                                  std::uint32_t round) {
  if (round > 0) {
    for (graph::NodeId origin : lane.consumed_origins) {
      count_consumption(origin, round - 1);
    }
  }
  lane.consumed_origins.clear();
}

void ModelChecker::on_rng_read(ModelCheckerLane& lane, graph::NodeId v,
                               std::uint32_t round) {
  if (!options_.enabled) return;
  if (v != lane.active_node) {
    violation(lane, "RNG isolation breach: node " + std::to_string(v) +
                        "'s private stream read while node " +
                        node_name(lane.active_node) + " was scheduled");
  }
  const int slot = round & 1;
  const bool first_draw = mult_epoch_[slot][v] != round;
  if (first_draw) rng_reads_[v] = 0;
  const std::uint32_t reads = ++rng_reads_[v];
  lane.max_rng_reads = std::max(lane.max_rng_reads, reads);
  if (reads > kMaxRngReadsPerRound) {
    violation(lane, "randomness budget exceeded: node " +
                        std::to_string(v) + " drew " +
                        std::to_string(reads) + " times in round " +
                        std::to_string(round) + " (budget " +
                        std::to_string(kMaxRngReadsPerRound) + ")");
  }
  if (first_draw) {
    // Fresh per-round randomness: the drawing node is its first reader.
    // The parity ledger slot belongs to v (this lane); only the shared
    // report update is staged.
    mult_epoch_[slot][v] = round;
    mult_[slot][v] = 1;
    lane.any_first_draw = true;
  }
}

void ModelChecker::on_halt(ModelCheckerLane& lane, graph::NodeId v) {
  if (!options_.enabled) return;
  if (v != lane.active_node) {
    violation(lane, "out-of-context halt: node " + std::to_string(v) +
                        " halted while node " + node_name(lane.active_node) +
                        " was scheduled");
  }
}

void ModelChecker::merge_lane(ModelCheckerLane& lane, std::uint32_t round) {
  if (!options_.enabled) {
    lane.reset();
    return;
  }
  report_.max_message_bits =
      std::max(report_.max_message_bits, lane.max_message_bits);
  round_max_message_bits_ =
      std::max(round_max_message_bits_, lane.max_message_bits);
  report_.max_rng_reads_per_round =
      std::max(report_.max_rng_reads_per_round, lane.max_rng_reads);
  if (lane.any_first_draw) {
    report_.k = std::max(report_.k, 1u);
    round_k_[round & 1] = std::max(round_k_[round & 1], 1u);
  }
  count_consumed(lane, round);
  // Deferred violation telemetry: the events fire here, on the calling
  // thread, in lane-fold order — never from worker threads.
  for (const std::string& what : lane.violation_texts) {
    obs::emit(obs::make_event<obs::EventKind::kViolation>(round, what));
  }
  if (!lane.violation_texts.empty()) {
    obs::recorder_auto_dump("model_check_violation");
  }
  report_.violations += lane.violations;
  lane.reset();
}

RoundCheck ModelChecker::close_round(std::uint32_t round) {
  RoundCheck check{round_max_message_bits_, 0};
  round_max_message_bits_ = 0;
  if (round > 0) {
    std::uint32_t& k_prev = round_k_[(round - 1) & 1];
    check.k_prev = k_prev;
    k_prev = 0;
  }
  return check;
}

void ModelChecker::end_run() {
  if (!options_.enabled) return;
  ARBMIS_LOG(Debug) << report_.summary();
}

void ModelChecker::violation(ModelCheckerLane& lane,
                             const std::string& what) {
  // Staged even under fail_fast: the throw skips the barrier, and the
  // Network merges every lane on its way out, so the count, the kViolation
  // event and the auto-dump survive an aborted phase.
  ++lane.violations;
  lane.violation_texts.push_back(what);
  ARBMIS_LOG(Error) << "CONGEST model violation: " << what;
  if (options_.fail_fast) {
    throw CongestViolation("CONGEST model violation: " + what);
  }
}

}  // namespace arbmis::sim
