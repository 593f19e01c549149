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

struct LwTreeMisResult {
  mis::MisResult mis;
  sim::RunStats shatter_stats;
  sim::RunStats finish_stats;
  /// Component structure of the residual (undecided) graph after the
  /// budgeted phase — the shattering measurement.
  ShatteringStats residual_components;
};

/// Works on any graph (the finish is always correct); the round-complexity
/// claim is for trees / bounded-arboricity inputs. The residual is
/// finished deterministically by SparseMis (forest decomposition +
/// Cole–Vishkin) with α = the residual's degeneracy: at most 1 on a
/// forest, and never below the arboricity, so the decomposition cannot
/// stall.
LwTreeMisResult lw_tree_mis(graph::GraphView g, std::uint64_t seed);

}  // namespace arbmis::core
