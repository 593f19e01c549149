// Monte-Carlo kernels for the paper's three key probabilistic events
// (§3.1, Figure 1), run on real oriented graphs. Each kernel simulates one
// iteration's priority draws centrally (the events are statements about a
// single iteration, so no message passing is needed) and reports the
// empirical event probability next to the paper's bound. The kernels
// sample on montecarlo.h's seeded block grid, run inline on the calling
// thread (num_threads = 0): one priority per node per trial, and exactly
// one draw from the caller's rng per estimate.
//
//   Event (1) / Theorem 3.1 (Fig 1A): some node of M draws a priority
//     above all of its children.
//   Event (2) / Theorem 3.2 (Fig 1B): more than |M|/(2α) nodes of M draw
//     priorities above all of their parents.
//   Event (3) / Theorem 3.3 (Fig 1C): at least an
//     1/(8α²(32α⁶+1)) fraction of M is eliminated in one Métivier
//     iteration (the node or a neighbor wins).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/orientation.h"
#include "util/rng.h"
#include "util/stats.h"

namespace arbmis::readk {

struct EventEstimate {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  double probability = 0.0;
  util::Interval ci;
  double paper_bound = 0.0;  ///< the theorem's bound on this probability
  /// Mean of the per-trial measured quantity (beaten-children count /
  /// parent-beating fraction / elimination fraction).
  double mean_metric = 0.0;
};

/// Event (1): P(∃ x in M : r(x) > max over children). paper_bound is the
/// Theorem 3.1 lower bound computed from (|M|, max degree in M, α).
EventEstimate estimate_event1(graph::GraphView g,
                              const graph::Orientation& orientation,
                              std::span<const graph::NodeId> members,
                              std::uint64_t alpha, std::uint64_t trials,
                              util::Rng& rng);

/// Event (2): P(#{u in M : r(u) > all parents} > |M|/(2α)). paper_bound is
/// the Theorem 3.2 style failure bound (reported as success bound
/// 1 - exp(...)), computed with rho = max degree (all nodes competitive).
EventEstimate estimate_event2(graph::GraphView g,
                              const graph::Orientation& orientation,
                              std::span<const graph::NodeId> members,
                              std::uint64_t alpha, std::uint64_t trials,
                              util::Rng& rng);

/// Event (3): P(eliminated fraction of M >= 1/(8α²(32α⁶+1))) after one
/// full Métivier iteration on the whole graph. paper_bound reports the
/// Theorem 3.3 target fraction via mean_metric comparison and the success
/// probability against 1 - 1/Δ³.
EventEstimate estimate_event3(graph::GraphView g,
                              std::span<const graph::NodeId> members,
                              std::uint64_t alpha, std::uint64_t trials,
                              util::Rng& rng);

/// Helper for benches: the members sets the theorems quantify over —
/// nodes with at least one child (event 1/3) or at least one parent
/// (event 2).
std::vector<graph::NodeId> nodes_with_children(
    const graph::Orientation& orientation);
std::vector<graph::NodeId> nodes_with_parents(
    const graph::Orientation& orientation);

}  // namespace arbmis::readk
