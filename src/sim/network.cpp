#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sim/contract.h"  // static_asserts run in every build via this TU
#include "sim/thread_pool.h"

namespace arbmis::sim {

namespace {

// Process-wide default applied when NetworkOptions::num_threads == 0; see
// ScopedNumThreads. Plain (non-atomic) on purpose: overrides are scoped to
// single-threaded setup code, never to a running phase.
std::uint32_t g_default_num_threads = 0;

template <typename T>
std::uint64_t buffer_bytes(const std::vector<T>& buffer) {
  return buffer.size() * sizeof(T);
}

void check_tag(std::uint32_t tag) {
  if ((tag & Network::kReadKTagBit) != 0) {
    throw std::logic_error("send: tag uses the reserved read-k bit");
  }
}

[[noreturn]] void throw_edge_cap() {
  throw std::logic_error(
      "CONGEST violation: more than the per-edge message budget sent on "
      "one edge in one round");
}

}  // namespace

std::uint32_t default_num_threads() noexcept { return g_default_num_threads; }

ScopedNumThreads::ScopedNumThreads(std::uint32_t num_threads) noexcept
    : previous_(g_default_num_threads) {
  g_default_num_threads = num_threads;
}

ScopedNumThreads::~ScopedNumThreads() {
  g_default_num_threads = previous_;
}

void RunStats::absorb(const RunStats& other) noexcept {
  rounds += other.rounds;
  messages += other.messages;
  payload_bits += other.payload_bits;
  max_edge_load = std::max(max_edge_load, other.max_edge_load);
  all_halted = all_halted && other.all_halted;
  faults += other.faults;
}

Network::Network(graph::GraphView g, std::uint64_t seed,
                 NetworkOptions options)
    : graph_(g),
      seed_(seed),
      fault_(options.fault),
      num_threads_(options.num_threads != 0 ? options.num_threads
                                            : default_num_threads()),
      checker_(g, options.model_check) {
  const graph::NodeId n = g.num_nodes();
  rngs_.reserve(n);
  const util::Rng base(seed);
  for (graph::NodeId v = 0; v < n; ++v) rngs_.push_back(base.child(v));
  halted_.assign(n, 0);
  // Per-node stores: each phase clears its parity's sent flags before it
  // runs. The port slots are the one per-edge store, sized now only when
  // an injector makes every send a port send.
  for (int parity = 0; parity < 2; ++parity) {
    sent_[parity].resize(n);
    outbox_[parity].resize(n);
  }
  if (fault_ != nullptr) ensure_port_slots();
  if (num_threads_ > 0) {
    shard_bounds_.resize(static_cast<std::size_t>(num_threads_) + 1, 0);
  }
  lanes_.resize(std::max<std::uint32_t>(num_threads_, 1));
  // The largest inbox: every port of the widest row, each copy of a fate.
  const std::size_t copies = fault_ != nullptr ? FaultDecision::kMaxCopies : 1;
  for (ExecLane& lane : lanes_) lane.inbox.resize(g.max_degree() * copies);
}

std::uint64_t Network::footprint_bytes() const noexcept {
  std::uint64_t bytes = buffer_bytes(rngs_) + buffer_bytes(halted_) +
                        buffer_bytes(lanes_) + buffer_bytes(shard_bounds_) +
                        checker_.footprint_bytes();
  for (int parity = 0; parity < 2; ++parity) {
    bytes += buffer_bytes(sent_[parity]) + buffer_bytes(outbox_[parity]) +
             buffer_bytes(port_slots_[parity]) +
             buffer_bytes(port_copies_[parity]);
  }
  bytes += buffer_bytes(reverse_port_);
  for (const ExecLane& lane : lanes_) bytes += buffer_bytes(lane.inbox);
  return bytes;
}

void Network::ensure_port_slots() {
  // Double-checked: the flag is set last, so a lane that reads it set also
  // sees the sized storage.
  if (port_slots_sized_.load()) return;
  const std::lock_guard<std::mutex> lock(port_slots_mutex_);
  if (port_slots_sized_.load()) return;
  const graph::NodeId n = graph_.num_nodes();
  const std::uint64_t directed_edges = 2 * graph_.num_edges();
  for (int parity = 0; parity < 2; ++parity) {
    port_slots_[parity].assign(directed_edges, PortSlot{kNever, 0, 0});
    if (fault_ != nullptr) port_copies_[parity].resize(directed_edges);
  }
  // Rows are sorted, so scanning v in ascending order meets the rows that
  // hold v in their own port order: a cursor per row counts them off.
  reverse_port_.resize(directed_edges);
  std::vector<graph::NodeId> next_port(n, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto nbrs = graph_.neighbors(v);
    for (graph::NodeId port = 0; port < nbrs.size(); ++port) {
      reverse_port_[graph_.offset(v) + port] = next_port[nbrs[port]]++;
    }
  }
  port_slots_sized_.store(true);
}

template <typename Emit>
void Network::gather(graph::NodeId v, std::uint32_t sent, Emit&& emit) const {
  const int parity = static_cast<int>(sent & 1);
  const std::vector<std::uint8_t>& flags = sent_[parity];
  const auto nbrs = graph_.neighbors(v);
  for (graph::NodeId port = 0; port < nbrs.size(); ++port) {
    const graph::NodeId from = nbrs[port];
    const std::uint8_t flag = flags[from];
    if (flag == 0) continue;  // `from` sent nothing last round
    if ((flag & kBroadcast) != 0) {
      emit(outbox_[parity][from]);
      continue;
    }
    // `from` sent on some of its ports: was one of them to v?
    const std::uint64_t slot = graph_.offset(v) + port;
    const PortSlot& stored = port_slots_[parity][slot];
    if (stored.round != sent) continue;
    const Message m{from, stored.tag, stored.payload};
    const std::uint8_t copies =
        fault_ != nullptr ? port_copies_[parity][slot] : 1;
    for (std::uint8_t c = 0; c < copies; ++c) emit(m);
  }
}

std::uint32_t Network::staged_inbox_size(graph::NodeId v) const {
  std::uint32_t count = 0;
  gather(v, round_, [&](const Message&) { ++count; });
  return count;
}

std::span<const Message> Network::consume_inbox(graph::NodeId v,
                                                ExecLane& lane) {
  // Nothing was sent last round: every inbox is empty, no row to walk.
  if (delivering_ == 0) return {};
  std::size_t count = 0;
  // Actual-width accounting (the Round event's payload_bits and the
  // registry's histogram) is commutative, so each lane stages its own.
  const bool histogram = obs::registry() != nullptr;
  std::uint64_t consumed_bits = 0;
  gather(v, round_ - 1, [&](const Message& stored) {
    Message& m = lane.inbox[count++];
    m = stored;
    // Read-k ledger: the sender of every marked copy is one more reader of
    // its this-round randomness.
    if ((m.tag & kReadKTagBit) != 0) {
      m.tag &= ~kReadKTagBit;
      lane.check.consumed_origins.push_back(m.src);
    }
    const std::uint64_t bits = message_bits(m);
    consumed_bits += bits;
    if (histogram) lane.message_bits.add(bits);
  });
  lane.messages += count;
  lane.payload_bits += consumed_bits;
  return std::span<const Message>(lane.inbox.data(), count);
}

void Network::do_send(ExecLane& lane, graph::NodeId from, graph::NodeId port,
                      std::uint32_t tag, std::uint64_t payload) {
  check_tag(tag);
  const auto nbrs = graph_.neighbors(from);
  if (port >= nbrs.size()) {
    throw std::logic_error("send: port out of range");
  }
  const int parity = static_cast<int>(round_ & 1);
  std::uint8_t& flag = sent_[parity][from];
  // A broadcast this round already used every port.
  if ((flag & kBroadcast) != 0) throw_edge_cap();
  ensure_port_slots();
  // The slot of (from, port) is written only by `from`, hence by exactly
  // one lane — checked and stamped in place. Stamped this round = the
  // port already carried its one message.
  const std::uint64_t slot = port_slot(from, port);
  PortSlot& stored = port_slots_[parity][slot];
  if (stored.round == round_) throw_edge_cap();
  stored.round = round_;
  flag |= kPortSend;
  // Fault seam: the fate of a message is a pure function of (plan, edge
  // slot, round), so lanes can decide it independently and determinism
  // across thread counts is preserved. Messages to a down node are dropped
  // outright; the sender paid its CONGEST budget either way.
  std::uint8_t copies = 1;
  if (fault_ != nullptr) {
    const graph::NodeId target = nbrs[port];
    const std::uint64_t edge_slot = graph_.offset(from) + port;
    copies = fault_->is_down(target)
                 ? std::uint8_t{0}
                 : fault_->on_message(from, target, edge_slot, round_).copies;
    if (copies == 0) {
      ++lane.fault_drops;
    } else if (copies > FaultDecision::kMaxCopies) {
      throw std::logic_error(
          "fault injector: more than two copies of one message");
    } else if (copies > 1) {
      lane.fault_duplicates += std::uint64_t{copies} - 1;
    }
    port_copies_[parity][slot] = copies;
  }
  const bool rng_bearing =
      checker_.on_send(lane.check, from, payload, round_, 1);
  lane.max_edge_load = 1;  // the cap: a used edge carries exactly one
  // copies > 1 = network duplication: each copy is one inbox entry and (if
  // randomness-bearing) one read-k ledger entry.
  stored.tag = rng_bearing ? tag | kReadKTagBit : tag;
  stored.payload = payload;
  lane.in_flight += copies;
}

void Network::do_broadcast(ExecLane& lane, graph::NodeId from,
                           std::uint32_t tag, std::uint64_t payload) {
  check_tag(tag);
  const graph::NodeId degree = graph_.degree(from);
  if (fault_ != nullptr) {
    // Each port has its own fate: one port send per port.
    for (graph::NodeId port = 0; port < degree; ++port) {
      do_send(lane, from, port, tag, payload);
    }
    return;
  }
  if (degree == 0) return;
  const int parity = static_cast<int>(round_ & 1);
  std::uint8_t& flag = sent_[parity][from];
  // A second broadcast fires the cap at port 0.
  if ((flag & kBroadcast) != 0) throw_edge_cap();
  if ((flag & kPortSend) != 0) {
    // As port by port: the ports before the first used one are checked,
    // and charged, before the cap fires.
    graph::NodeId port = 0;
    while (port_slots_[parity][port_slot(from, port)].round != round_) ++port;
    if (port > 0) checker_.on_send(lane.check, from, payload, round_, port);
    throw_edge_cap();
  }
  const bool rng_bearing =
      checker_.on_send(lane.check, from, payload, round_, degree);
  lane.max_edge_load = 1;
  outbox_[parity][from] =
      Message{from, rng_bearing ? tag | kReadKTagBit : tag, payload};
  flag = kBroadcast;
  lane.in_flight += degree;
}

void Network::do_halt(ExecLane& lane, graph::NodeId v) {
  checker_.on_halt(lane.check, v);
  if (halted_[v] == 0) {
    halted_[v] = 1;  // own-node write; num_halted_ is shared, so defer it
    ++lane.halts;
  }
}

util::Rng& Network::draw_rng(ExecLane& lane, graph::NodeId v) {
  checker_.on_rng_read(lane.check, v, round_);
  ++lane.rng_draws;
  return rngs_[v];
}

void Network::step_node(Algorithm& algorithm, graph::NodeId v,
                        ExecLane& lane) {
  NodeContext ctx(*this, v, lane);
  lane.check.active_node = v;
  if (round_ == 0) {
    algorithm.on_start(ctx);
  } else {
    algorithm.on_round(ctx, consume_inbox(v, lane));
  }
  lane.check.active_node = ModelChecker::kNoNode;
}

void Network::run_shard(Algorithm& algorithm, ExecLane& lane,
                        graph::NodeId begin, graph::NodeId end) {
  // Only the inline lane may count its read-k origins mid-phase; pool
  // lanes wait for the barrier merge.
  const bool inline_lane = num_threads_ == 0;
  for (graph::NodeId v = begin; v < end; ++v) {
    if (halted_[v] != 0) continue;
    // The down set is frozen at the barrier, so lanes read a consistent
    // snapshot (no mid-phase crashes).
    if (fault_ != nullptr && fault_->is_down(v)) continue;
    step_node(algorithm, v, lane);
    if (inline_lane && lane.check.consumed_origins.size() >= kFlushBatch) {
      checker_.count_consumed(lane.check, round_);
    }
  }
}

void Network::run_phase(Algorithm& algorithm) {
  const graph::NodeId n = graph_.num_nodes();
  // The phase's sends flag its parity, which still holds the flags of two
  // rounds ago.
  std::vector<std::uint8_t>& sent = sent_[round_ & 1];
  std::fill(sent.begin(), sent.end(), 0);
  try {
    if (num_threads_ == 0) {
      run_shard(algorithm, lanes_[0], 0, n);
    } else {
      // Shard non-halted nodes into contiguous ranges of near-equal alive
      // count: shard s owns alive indices [alive*s/t, alive*(s+1)/t).
      const std::uint32_t t = num_threads_;
      const std::uint64_t alive = n - num_halted_;
      std::fill(shard_bounds_.begin(), shard_bounds_.end(), n);
      shard_bounds_[0] = 0;
      std::uint64_t alive_seen = 0;
      std::uint32_t s = 1;
      std::uint64_t target = alive / t;  // the alive index shard s starts at
      for (graph::NodeId v = 0; v < n && s < t; ++v) {
        while (s < t && alive_seen == target) {
          shard_bounds_[s] = v;
          ++s;
          target = alive * s / t;
        }
        alive_seen += halted_[v] == 0 ? 1 : 0;
      }
      // Any bounds not reached stay at n (pre-filled): trailing empty
      // shards.
      ThreadPool::shared().run(t, [&](std::uint32_t w) {
        obs::set_thread_lane(w + 1);
        OBS_SCOPE("net.shard");
        run_shard(algorithm, lanes_[w], shard_bounds_[w],
                  shard_bounds_[w + 1]);
      });
      // The calling thread ran lanes too; the merge is lane 0's.
      obs::set_thread_lane(0);
    }
  } catch (...) {
    obs::set_thread_lane(0);
    // The throw skipped the barrier: fold what every lane staged for the
    // checker (violation counts, kViolation events, the flight-recorder
    // auto-dump) before the exception leaves the run.
    for (ExecLane& lane : lanes_) {
      checker_.merge_lane(lane.check, round_);
      lane.reset();
    }
    throw;
  }

  // Barrier merge, in shard (= ascending node-id) order: replaying the
  // lanes in this order reproduces the inline lane's stats and checker
  // ledger byte-for-byte.
  OBS_SCOPE("net.merge");
  const bool emit_lanes = num_threads_ > 0 && obs::telemetry_attached();
  for (std::uint32_t w = 0; w < lanes_.size(); ++w) {
    const ExecLane& lane = lanes_[w];
    if (emit_lanes) {
      // kExec category: legitimately varies by thread count, excluded by
      // the default sink configuration (see obs/events.h).
      obs::emit(obs::make_event<obs::EventKind::kLaneMerge>(
          round_, w, lane.sends, lane.messages, lane.halts));
    }
    merge(lanes_[w]);
  }
}

void Network::merge(ExecLane& lane) {
  checker_.count_consumed(lane.check, round_);
  in_flight_ += lane.in_flight;
  stats_.messages += lane.messages;
  round_payload_bits_ += lane.payload_bits;
  if (obs::Registry* const reg = obs::registry();
      reg != nullptr && lane.message_bits.total() > 0) {
    reg->merge("sim.message_bits", lane.message_bits);
  }
  stats_.max_edge_load = std::max(stats_.max_edge_load, lane.max_edge_load);
  num_halted_ += lane.halts;
  rng_draws_ += lane.rng_draws;
  round_fault_drops_ += lane.fault_drops;
  round_fault_duplicates_ += lane.fault_duplicates;
  checker_.merge_lane(lane.check, round_);
  lane.reset();
}

RunStats Network::run(Algorithm& algorithm, std::uint32_t max_rounds,
                      const RoundObserver& observer) {
  OBS_SCOPE("net.run");
  // Child span: silent outside an open request span (obs/span.h), so only
  // the serving path gains the bracket around each simulator run.
  const obs::ScopedChildSpan run_span("sim.run", graph_.num_nodes());
  const graph::NodeId n = graph_.num_nodes();
  if (obs::telemetry_attached()) {
    obs::emit(obs::make_event<obs::EventKind::kRunBegin>(
        /*round=*/0, algorithm.name(), n, graph_.num_edges(), seed_, max_rounds,
        /*enforce_congest=*/1));
  }
  // Reset per-run state; RNG streams intentionally persist across runs.
  std::fill(halted_.begin(), halted_.end(), 0);
  num_halted_ = 0;
  round_ = 0;
  stats_ = RunStats{};
  // A stashed context used between runs may have staged into a lane.
  for (ExecLane& lane : lanes_) lane.reset();
  // Port-slot stamps are the stores' only per-run state (each phase clears
  // its sent flags): a slot whose stamp is not last round's holds nothing.
  for (std::vector<PortSlot>& slots : port_slots_) {
    for (PortSlot& stored : slots) stored.round = kNever;
  }
  in_flight_ = 0;
  rng_draws_ = 0;
  round_fault_drops_ = 0;
  round_fault_duplicates_ = 0;
  round_payload_bits_ = 0;
  checker_.begin_run();

  RoundFaultEvents events{};
  if (fault_ != nullptr) {
    fault_->begin_run();
    // Crash/recovery events resolve serially at the barrier, before any
    // callback of the round runs, so the down set is frozen per phase.
    events = fault_->begin_round(0, halted_);
  }
  std::uint64_t messages_before = stats_.messages;
  run_phase(algorithm);  // round 0: on_start
  flush_round_accounting(messages_before, events);

  while (round_ < max_rounds) {
    OBS_SCOPE("net.round");
    if (num_halted_ >= n) break;
    // With permanent crashes the halted count can never reach n: stop once
    // every node is either halted or down and no recovery is scheduled.
    if (fault_ != nullptr && !fault_->recovery_pending() &&
        num_halted_ + fault_->num_down() >= n) {
      break;
    }
    if (algorithm.is_reactive()) {
      // Quiescence cut: nothing in flight means every further round is a
      // global no-op for a reactive algorithm. The in-flight counter
      // makes this O(1).
      if (in_flight() == 0) break;
    }
    // Deliver: this round's callbacks gather what the last round sent.
    delivering_ = in_flight_;
    in_flight_ = 0;
    ++round_;
    events = RoundFaultEvents{};
    if (fault_ != nullptr) events = fault_->begin_round(round_, halted_);
    messages_before = stats_.messages;
    run_phase(algorithm);
    ++stats_.rounds;
    flush_round_accounting(messages_before, events);
    if (observer) observer(*this, round_);
  }
  stats_.payload_bits = stats_.messages * kBitsPerMessage;
  stats_.all_halted = (num_halted_ == n);
  checker_.end_run();
  if (obs::telemetry_attached()) {
    obs::emit(obs::make_event<obs::EventKind::kRunEnd>(
        round_, stats_.rounds, stats_.messages, stats_.payload_bits,
        stats_.max_edge_load, stats_.all_halted ? 1 : 0, rng_draws_));
    if (checker_.enabled()) {
      // One message per edge per round: the widest message is also the
      // most bits one edge carried in a round (the max_edge_bits slot).
      const ModelCheckReport& report = checker_.report();
      obs::emit(obs::make_event<obs::EventKind::kModelCheck>(
          round_, report.k, report.max_message_bits, report.max_message_bits,
          report.max_rng_reads_per_round, report.violations,
          report.edge_bit_budget));
    }
  }
  if (obs::Registry* const reg = obs::registry()) {
    reg->add("sim.runs");
    reg->add("sim.rounds", stats_.rounds);
    reg->add("sim.rng_draws", rng_draws_);
    reg->set("sim.max_edge_load", stats_.max_edge_load);
    if (checker_.enabled()) {
      reg->set("sim.model.k", checker_.report().k);
      reg->add("sim.model.violations", checker_.report().violations);
    }
  }
  return stats_;
}

void Network::flush_round_accounting(std::uint64_t messages_before,
                                     RoundFaultEvents events) {
  const std::uint64_t messages = stats_.messages - messages_before;
  if (fault_ != nullptr) {
    stats_.faults += FaultTotals{round_fault_drops_, round_fault_duplicates_,
                                 events.crashes, events.recoveries};
  }
  // The read-k ledger of a round's draws completes one round later, when
  // neighbors consume them — so the event reports the *previous* round's
  // final k. Closed every round, so the checker's two k slots rotate.
  const RoundCheck check = checker_.close_round(round_);
  if (obs::telemetry_attached()) {
    obs::emit(obs::make_event<obs::EventKind::kRound>(
        round_, num_halted_, messages, round_payload_bits_, in_flight(),
        rng_draws_, check.max_message_bits, check.k_prev));
    if (fault_ != nullptr) {
      obs::emit(obs::make_event<obs::EventKind::kFaultRound>(
          round_, round_fault_drops_, round_fault_duplicates_, events.crashes,
          events.recoveries));
    }
  }
  if (obs::Registry* const reg = obs::registry()) {
    reg->add("sim.messages", messages);
    reg->add("sim.payload_bits", round_payload_bits_);
    if (fault_ != nullptr) {
      reg->add("sim.fault.drops", round_fault_drops_);
      reg->add("sim.fault.duplicates", round_fault_duplicates_);
      reg->add("sim.fault.crashes", events.crashes);
      reg->add("sim.fault.recoveries", events.recoveries);
    }
  }
  round_fault_drops_ = 0;
  round_fault_duplicates_ = 0;
  round_payload_bits_ = 0;
}

graph::NodeId NodeContext::degree() const noexcept {
  return net_->graph_.degree(id_);
}

std::span<const graph::NodeId> NodeContext::neighbors() const noexcept {
  return net_->graph_.neighbors(id_);
}

std::uint32_t NodeContext::round() const noexcept { return net_->round_; }

void NodeContext::send(graph::NodeId port, std::uint32_t tag,
                       std::uint64_t payload) {
  ++lane_->sends;
  net_->do_send(*lane_, id_, port, tag, payload);
}

void NodeContext::broadcast(std::uint32_t tag, std::uint64_t payload) {
  ++lane_->sends;
  net_->do_broadcast(*lane_, id_, tag, payload);
}

void NodeContext::halt() { net_->do_halt(*lane_, id_); }

std::uint64_t NodeRandom::next() {
  return net_->draw_rng(*lane_, id_).next();
}

double NodeRandom::uniform01() {
  return net_->draw_rng(*lane_, id_).uniform01();
}

std::uint64_t NodeRandom::below(std::uint64_t bound) {
  return net_->draw_rng(*lane_, id_).below(bound);
}

std::int64_t NodeRandom::range(std::int64_t lo, std::int64_t hi) {
  return net_->draw_rng(*lane_, id_).range(lo, hi);
}

bool NodeRandom::bernoulli(double p) {
  return net_->draw_rng(*lane_, id_).bernoulli(p);
}

}  // namespace arbmis::sim
