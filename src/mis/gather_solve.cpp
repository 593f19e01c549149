#include "mis/gather_solve.h"

#include <algorithm>
#include <stdexcept>

#include "mis/greedy.h"
#include "sim/bfs_rooting.h"

namespace arbmis::mis {

namespace {
constexpr graph::NodeId kEndMarker = ~graph::NodeId{0};
}

GatherSolveMis::GatherSolveMis(graph::GraphView g,
                               std::vector<graph::NodeId> parent)
    : graph_(g),
      parent_(std::move(parent)),
      parent_port_(g.num_nodes(), graph::kNoParent),
      child_ports_(g.num_nodes()),
      state_(g.num_nodes(), MisState::kUndecided),
      up_queue_(g.num_nodes()),
      children_pending_(g.num_nodes(), 0),
      up_done_sent_(g.num_nodes(), false),
      gathered_(g.num_nodes()),
      down_queue_(g.num_nodes()),
      decided_(g.num_nodes(), false) {
  if (parent_.size() != g.num_nodes()) {
    throw std::invalid_argument("GatherSolveMis: parent array size mismatch");
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (parent_[v] != graph::kNoParent) {
      parent_port_[v] = g.port_of(v, parent_[v]);
    }
  }
}

void GatherSolveMis::on_start(sim::NodeContext& ctx) {
  const graph::NodeId v = ctx.id();
  if (ctx.degree() == 0) {
    // Singleton component: leader of itself, trivially in the MIS.
    state_[v] = MisState::kInMis;
    ctx.halt();
    return;
  }
  // Contribute each incident edge once (the smaller endpoint owns it).
  for (graph::NodeId w : ctx.neighbors()) {
    if (v < w) up_queue_[v].push_back(encode_pair(v, w));
  }
  if (parent_port_[v] != graph::kNoParent) {
    ctx.send(parent_port_[v], kHello, 0);
  }
}

void GatherSolveMis::solve_locally(graph::NodeId leader) {
  // Rebuild the component on dense local ids, its nodes in sorted order,
  // so greedy_mis's ascending-id scan is the ascending original-id greedy.
  // No hashed containers in the decision path, so the solve's memory
  // behavior is as deterministic as its output (tools/arbmis_audit.py
  // --explain DET004).
  std::vector<graph::NodeId> nodes{leader};
  for (std::uint64_t code : gathered_[leader]) {
    nodes.push_back(static_cast<graph::NodeId>(code >> 32));
    nodes.push_back(static_cast<graph::NodeId>(code & 0xffffffffu));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const auto local = [&nodes](std::uint64_t node) {
    return static_cast<graph::NodeId>(
        std::lower_bound(nodes.begin(), nodes.end(), node) - nodes.begin());
  };
  graph::Builder component(static_cast<graph::NodeId>(nodes.size()));
  for (std::uint64_t code : gathered_[leader]) {
    component.add_edge(local(code >> 32), local(code & 0xffffffffu));
  }
  const MisResult greedy = greedy_mis(component.build());

  // Queue decisions (own one applies immediately) and the end marker.
  for (graph::NodeId i = 0; i < nodes.size(); ++i) {
    const graph::NodeId node = nodes[i];
    if (node == leader) {
      state_[leader] = greedy.state[i];
      decided_[leader] = true;
    }
    down_queue_[leader].push_back(encode_pair(node, greedy.in_mis(i) ? 1 : 0));
  }
  down_queue_[leader].push_back(encode_pair(kEndMarker, 0));
}

void GatherSolveMis::on_round(sim::NodeContext& ctx,
                              std::span<const sim::Message> inbox) {
  const graph::NodeId v = ctx.id();
  const bool is_leader = parent_port_[v] == graph::kNoParent;

  for (const sim::Message& m : inbox) {
    switch (m.tag) {
      case kHello:
        child_ports_[v].push_back(graph_.port_of(v, m.src));
        ++children_pending_[v];
        break;
      case kEdgeUp:
        if (is_leader) {
          gathered_[v].push_back(m.payload);
        } else {
          up_queue_[v].push_back(m.payload);
        }
        break;
      case kUpDone:
        --children_pending_[v];
        break;
      case kDecision: {
        const auto node = static_cast<graph::NodeId>(m.payload >> 32);
        if (node == v) {
          state_[v] = (m.payload & 1) ? MisState::kInMis : MisState::kCovered;
          decided_[v] = true;
        }
        down_queue_[v].push_back(m.payload);
        break;
      }
      default:
        break;
    }
  }

  // Upload phase.
  if (!up_done_sent_[v] && ctx.round() >= 1) {
    if (is_leader) {
      // The leader absorbs its own contribution directly.
      for (std::uint64_t code : up_queue_[v]) gathered_[v].push_back(code);
      up_queue_[v].clear();
      if (children_pending_[v] == 0 && ctx.round() >= 2) {
        // Round >= 2 so that every child's kHello has arrived.
        up_done_sent_[v] = true;
        solve_locally(v);
      }
    } else if (!up_queue_[v].empty()) {
      ctx.send(parent_port_[v], kEdgeUp, up_queue_[v].front());
      up_queue_[v].erase(up_queue_[v].begin());
      return;
    } else if (children_pending_[v] == 0 && ctx.round() >= 2) {
      ctx.send(parent_port_[v], kUpDone, 0);
      up_done_sent_[v] = true;
      return;
    } else {
      return;  // waiting for children's edges
    }
  }

  // Download phase: forward one queued item per round to every child.
  if (!down_queue_[v].empty()) {
    const std::uint64_t item = down_queue_[v].front();
    down_queue_[v].erase(down_queue_[v].begin());
    for (graph::NodeId port : child_ports_[v]) {
      ctx.send(port, kDecision, item);
    }
    if (static_cast<graph::NodeId>(item >> 32) == kEndMarker) {
      // FIFO guarantees our own decision passed through already.
      ctx.halt();
    }
  }
}

MisResult GatherSolveMis::run(graph::GraphView g, std::uint64_t seed,
                              std::uint32_t rooting_budget,
                              std::uint32_t max_rounds) {
  if (rooting_budget == 0) rooting_budget = g.num_nodes() + 2;
  const sim::BfsRooting::Result rooting =
      sim::BfsRooting::run(g, seed, rooting_budget);
  if (!rooting.stabilized) {
    throw std::invalid_argument(
        "GatherSolveMis: rooting did not stabilize within the budget");
  }
  GatherSolveMis algorithm(g, rooting.parent);
  sim::Network net(g, seed + 1);
  MisResult result;
  result.stats = rooting.stats;
  // Rooting terminates by quiescence, not by halting; the stabilized check
  // above is its completion criterion, so it counts as a finished stage in
  // the conjunctive all_halted of the composition.
  result.stats.all_halted = true;
  const sim::RunStats gather_stats = net.run(algorithm, max_rounds);
  result.stats.absorb(gather_stats);
  result.state = algorithm.state_;
  return result;
}

}  // namespace arbmis::mis
