// Leader-gather MIS for small components — the literal reading of the
// paper's §2.1: "components induced by B can be processed in parallel,
// with each component being processed by a deterministic algorithm (since
// each component is small)".
//
// Protocol (everything deterministic, all messages one CONGEST word):
//   1. BFS rooting (sim/bfs_rooting.h) elects each component's minimum id
//      as leader and builds a BFS tree — O(diameter) rounds.
//   2. Child discovery on the tree (1 round).
//   3. Pipelined convergecast: every node learns its incident edges'
//      endpoint pairs; edges are forwarded toward the root one message
//      per tree edge per round (store-and-forward queues), each encoded
//      as (u, v) in a single 64-bit payload. O(component edges +
//      diameter) rounds; the component-size bound from Lemma 3.7 is what
//      makes this affordable.
//   4. The leader solves the gathered component with mis::greedy_mis
//      (smallest id first) and floods one decision per node down the
//      tree, again pipelined one message per edge per round.
//
// Rounds: O(rooting budget + m_C + diameter_C) where m_C is the largest
// component's edge count. The budget parameter bounds phase 1 (callers
// pass the component-size bound they believe in; n always works).
#pragma once

#include <cstdint>
#include <vector>

#include "mis/mis_types.h"
#include "sim/algorithm.h"
#include "sim/network.h"

namespace arbmis::mis {

class GatherSolveMis : public sim::Algorithm {
 public:
  /// `parent[v]`: BFS-tree parent from a stabilized rooting (kNoParent
  /// for component leaders). The tree must span each component.
  GatherSolveMis(graph::GraphView g,
                 std::vector<graph::NodeId> parent);

  std::string_view name() const override { return "gather_solve"; }
  void on_start(sim::NodeContext& ctx) override;
  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override;

  const std::vector<MisState>& states() const noexcept { return state_; }

  /// Full pipeline: BFS rooting (round budget = rooting_budget, use the
  /// component-size bound; 0 = n), then gather/solve/scatter.
  static MisResult run(graph::GraphView g, std::uint64_t seed,
                       std::uint32_t rooting_budget = 0,
                       std::uint32_t max_rounds = 1 << 24);

 private:
  enum Tag : std::uint32_t {
    kHello = 1,
    kEdgeUp = 2,    // payload: (u << 32) | v
    kUpDone = 3,    // subtree finished uploading
    kDecision = 4,  // payload: (node << 32) | (1 if in MIS)
  };

  static std::uint64_t encode_pair(graph::NodeId a,
                                   graph::NodeId b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  void solve_locally(graph::NodeId leader);

  graph::GraphView graph_;
  std::vector<graph::NodeId> parent_;
  std::vector<graph::NodeId> parent_port_;
  std::vector<std::vector<graph::NodeId>> child_ports_;
  std::vector<MisState> state_;

  // Upload machinery.
  std::vector<std::vector<std::uint64_t>> up_queue_;   // edges to forward up
  std::vector<graph::NodeId> children_pending_;        // kUpDone not yet seen
  std::vector<std::uint8_t> up_done_sent_;  // byte-wide: written concurrently per node
  std::vector<std::vector<std::uint64_t>> gathered_;   // leader only

  // Download machinery.
  std::vector<std::vector<std::uint64_t>> down_queue_;  // per node, decisions
  std::vector<std::uint8_t> decided_;  // byte-wide: written concurrently per node
};

}  // namespace arbmis::mis
