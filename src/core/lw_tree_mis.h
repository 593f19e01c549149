// The Lenzen–Wattenhofer tree MIS architecture (PODC 2011) — the paper's
// §1 starting point: run the Métivier et al. competition for
// O(√(log n)·log log n) rounds ("all the important hard work happens in
// this phase"), by which point the surviving graph has shattered into
// small connected components, then finish each component deterministically
// in parallel.
//
// The paper analyzes the Barenboim et al. variant instead "for reasons of
// exposition"; this module implements the LW shape so the two shattering
// architectures can be compared like-for-like (experiment T4), and so the
// shattering claim itself — residual components after the budgeted phase
// are tiny — can be measured directly (it is the tree/α=1 analogue of
// Lemma 3.7).
#pragma once

#include "core/shattering.h"
#include "mis/mis_types.h"
#include "sim/network.h"

namespace arbmis::core {

struct LwTreeMisOptions {
  /// Finish residual components deterministically (forest decomposition +
  /// Cole–Vishkin via SparseMis) instead of by id election. Requires the
  /// residual graph to have small arboricity (true for forests).
  bool sparse_finish = true;
  graph::NodeId alpha = 1;
};

struct LwTreeMisResult {
  mis::MisResult mis;
  sim::RunStats shatter_stats;
  sim::RunStats finish_stats;
  /// Component structure of the residual (undecided) graph after the
  /// budgeted phase — the shattering measurement.
  ShatteringStats residual_components;
};

/// Works on any graph (the finish is always correct); the round-complexity
/// claim is for trees / bounded-arboricity inputs.
LwTreeMisResult lw_tree_mis(graph::GraphView g, std::uint64_t seed,
                            LwTreeMisOptions options = {});

}  // namespace arbmis::core
