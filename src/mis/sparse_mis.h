// SparseMis: the paper's Lemma 3.8 pipeline for arboricity-α graphs —
// Barenboim–Elkin forest decomposition, Cole–Vishkin 3-coloring of each
// forest in turn, then an MIS extracted from the colorings.
//
// With k forests the per-forest 3-colorings combine into a proper
// composite coloring of the whole graph with 3^k classes (any edge lies in
// exactly one forest and its endpoints differ in that coordinate), and a
// color-class sweep finishes deterministically. The sweep is exponential
// in k, so it is used when 3^k stays within kCompositeClassBudget — the
// regime the paper uses it in (small components / small α); beyond the
// budget SparseMis falls back to the deterministic election finisher,
// reported in the result so benchmarks can see which path ran.
//
// Total rounds: O(log n) decomposition + k·O(log* n) coloring + 3^k sweep.
#pragma once

#include <cstdint>

#include "mis/mis_types.h"
#include "sim/network.h"

namespace arbmis::mis {

/// SparseMis falls back to ElectionMis when 3^(#forests) exceeds this:
/// up to 6 forests take the color sweep, 7 or more the fallback.
inline constexpr std::uint64_t kCompositeClassBudget = 2048;

struct SparseMisOptions {
  /// Arboricity bound for the forest decomposition (>= true arboricity).
  graph::NodeId alpha = 1;
};

struct SparseMisResult {
  MisResult mis;
  graph::NodeId num_forests = 0;
  /// 3^num_forests, saturated at the first power of 3 above
  /// kCompositeClassBudget (3^7 = 2187): past the budget the count only
  /// says that the fallback ran, and 3^k would wrap std::uint64_t for
  /// k >= 41.
  std::uint64_t composite_classes = 0;
  bool used_fallback = false;
};

/// Runs the full pipeline on a fresh network (stage round counts are
/// summed into mis.stats). Throws std::invalid_argument if the forest
/// decomposition stalls, which certifies options.alpha was below the true
/// arboricity.
SparseMisResult sparse_mis(graph::GraphView g, SparseMisOptions options,
                           std::uint64_t seed = 0);

}  // namespace arbmis::mis
