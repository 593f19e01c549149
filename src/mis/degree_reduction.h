// Degree-reduction pre-phase — the substitute for Barenboim et al.
// Theorem 7.2, which the paper invokes in §3.3 to bound Δ by
// α·2^√(log n·log log n) before running ArbMIS (see the substitution table
// in DESIGN.md).
//
// Mechanism: run the Métivier competition for a fixed budget of
// O(√(log n·log log n)) rounds. High-degree nodes are eliminated at a high
// per-iteration rate (every neighbor that wins removes them), which is the
// same driving force as in the original theorem; unlike the original we do
// not prove a hard degree cap, so the pipeline recomputes the residual
// maximum degree afterwards and parameterizes the next stage with the
// measured value (knowledge of Δ is a standing assumption in this
// literature). EXPERIMENTS.md reports measured residual degrees.
//
// Because the budgeted run stops mid-protocol, a node can have joined in
// the final round without its neighbors having processed the announcement
// yet; finalize_partial() flushes that one round of bookkeeping (charging
// +1 round), so the returned labeling is always consistent.
//
// finish_stage() is the other half of every shatter-then-finish pipeline
// (core::arb_mis's Vlo/Vhi/B stages, core::lw_tree_mis,
// core::ghaffari_arb_mis): it finishes a stage's still-undecided nodes on
// their induced subgraph and flushes the joins into the global labeling.
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "mis/mis_types.h"
#include "sim/network.h"

namespace arbmis::mis {

/// Marks as kCovered every undecided node adjacent to a kInMis node.
/// Returns the number of nodes flushed.
std::uint64_t finalize_partial(graph::GraphView g,
                               std::vector<MisState>& state);

/// One finish step: restricts g to the nodes of `stage` (a byte mask, 1 =
/// in the stage) that `state` still has undecided, runs `finisher` on that
/// induced subgraph, copies every label it decided back into `state`, and
/// flushes coverage with finalize_partial(). Returns the finisher's stats,
/// which do not count the flush round (each pipeline charges its own), or
/// std::nullopt, running nothing, when no stage node is undecided.
std::optional<sim::RunStats> finish_stage(
    graph::GraphView g, std::vector<MisState>& state,
    std::span<const std::uint8_t> stage,
    const std::function<MisResult(graph::GraphView)>& finisher);

struct DegreeReductionResult {
  /// Consistent partial labeling: kInMis nodes are independent, kCovered
  /// nodes have an MIS neighbor, kUndecided nodes form the residual graph.
  std::vector<MisState> state;
  std::vector<std::uint8_t> residual_mask;  ///< 1 = still undecided
  graph::NodeId residual_max_degree = 0;  ///< within the residual graph
  graph::NodeId residual_nodes = 0;
  sim::RunStats stats;
};

/// Default round budget: ceil(c·√(log₂ n · log₂ log₂ n)).
std::uint32_t degree_reduction_budget(graph::NodeId n,
                                      double c = 6.0) noexcept;

/// Runs the budgeted competition and packages the residual graph data.
DegreeReductionResult degree_reduction(graph::GraphView g,
                                       std::uint32_t round_budget,
                                       std::uint64_t seed);

}  // namespace arbmis::mis
