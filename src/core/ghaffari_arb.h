// The Ghaffari arboricity corollary (paper §1.2): combining a
// degree-reduction pre-phase with Ghaffari's O(log Δ)-local MIS gives an
// O(log α + √(log n))-round MIS for arboricity-α graphs — the algorithm
// the paper concedes "dominates the round complexity of our algorithm for
// all values of α and n". Implemented so the comparison experiment (T4)
// can measure that domination instead of asserting it.
//
// Pipeline: degree reduction (Theorem 7.2 substitute, see
// mis/degree_reduction.h) caps the residual degree, then GhaffariMis
// finishes the residual graph; its O(log Δ_residual) local phase is where
// the log α + √(log n) bound comes from.
#pragma once

#include "mis/mis_types.h"
#include "sim/network.h"

namespace arbmis::core {

struct GhaffariArbResult {
  mis::MisResult mis;  ///< final labels; stats = summed stage rounds
  sim::RunStats reduction_stats;
  sim::RunStats ghaffari_stats;
  graph::NodeId residual_max_degree = 0;
  graph::NodeId residual_nodes = 0;
};

/// Runs the reduction, then GhaffariMis on its residual (mis::finish_stage).
GhaffariArbResult ghaffari_arb_mis(graph::GraphView g, std::uint64_t seed);

}  // namespace arbmis::core
