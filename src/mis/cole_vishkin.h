// Cole–Vishkin deterministic coin tossing (Information & Control 1986) on a
// rooted forest, in the CONGEST simulator.
//
// Input: a parent pointer for each node (kNoParent for roots) such that
// every (v, parent[v]) pair is an edge of the underlying graph. The paper
// uses this twice: consistently-oriented trees admit O(log* n) MIS (§1),
// and Lemma 3.8 finishes each bad-set component by 3-coloring the forests
// of a Barenboim–Elkin decomposition with exactly this routine.
//
// Phases (the whole schedule is a fixed function of n, so every node halts
// at the same precomputed round):
//   1. one round of child discovery (children greet their parents),
//   2. K = O(log* n) Cole–Vishkin bit-reduction iterations bringing colors
//      from {0,...,n-1} down to {0,...,5},
//   3. three shift-down + recolor pairs removing colors 5, 4, 3.
// ColeVishkin only colors. A forest MIS is the coloring followed by
// ColorSweepMis over its 3 classes (cole_vishkin_mis), the step sparse_mis
// runs per forest.
#pragma once

#include <span>
#include <cstdint>
#include <vector>

#include "graph/orientation.h"
#include "mis/mis_types.h"
#include "sim/algorithm.h"
#include "sim/network.h"

namespace arbmis::mis {

class ColeVishkin : public sim::Algorithm {
 public:
  /// `parent[v]` is the global id of v's parent, or graph::kNoParent.
  /// Throws std::invalid_argument if a parent pointer is not a graph edge
  /// or the pointers contain a cycle.
  ColeVishkin(graph::GraphView g, std::span<const graph::NodeId> parent);

  std::string_view name() const override { return "cole_vishkin"; }
  void on_start(sim::NodeContext& ctx) override;
  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override;

  /// Final colors in {0, 1, 2}; valid after the run completes.
  const std::vector<std::uint8_t>& colors() const noexcept { return color3_; }

  /// Number of Cole–Vishkin bit-reduction iterations for id colors < n.
  static std::uint32_t reduction_iterations(graph::NodeId n) noexcept;
  /// Total rounds of the schedule; the run always takes exactly this many.
  static std::uint32_t total_rounds(graph::NodeId n) noexcept;

  /// Runs on a fresh network; returns colors via the algorithm object.
  struct Result {
    std::vector<std::uint8_t> colors;
    sim::RunStats stats;
  };
  static Result run(graph::GraphView g,
                    std::span<const graph::NodeId> parent,
                    std::uint64_t seed = 0);

 private:
  enum Tag : std::uint32_t { kHello = 1, kColor = 2 };

  void send_color_to_children(sim::NodeContext& ctx, std::uint64_t color);
  std::uint64_t parent_color(std::span<const sim::Message> inbox) const;

  graph::GraphView graph_;
  std::uint32_t reduction_rounds_;

  std::vector<graph::NodeId> parent_port_;  // kNoParent if root
  std::vector<std::vector<graph::NodeId>> child_ports_;
  std::vector<std::uint64_t> color_;
  std::vector<std::uint64_t> pre_shift_color_;  // children's color post shift
  std::vector<std::uint8_t> color3_;
};

/// A forest MIS: the 3-coloring, then ColorSweepMis over its 3 classes, on
/// one fresh network. It is an MIS of the graph when the parent pointers
/// span every edge (the graph is a forest). Takes total_rounds(n) + 4
/// rounds; stats sum both runs.
MisResult cole_vishkin_mis(graph::GraphView g,
                           std::span<const graph::NodeId> parent,
                           std::uint64_t seed = 0);

}  // namespace arbmis::mis
