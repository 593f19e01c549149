// TreeIndependentSet — the Barenboim–Elkin–Pettie–Schneider tree MIS
// (FOCS 2012, §8) that the paper generalizes: BoundedArbIndependentSet is
// "essentially identical ... except for parameter values" (paper §2), so
// the tree algorithm is exactly the α = 1 instantiation, finished with
// the deterministic forest machinery of Lemma 3.8 (forest decomposition +
// Cole–Vishkin) instead of randomized competitions.
//
// This is the O(√(log n)·log log n)-round tree MIS the paper's
// introduction describes; the experiments use it as the α = 1 anchor of
// the α-sweep.
#pragma once

#include "core/arb_mis.h"

namespace arbmis::core {

/// Runs the tree MIS pipeline on a forest: arb_mis at α = 1 with the
/// practical preset and Finisher::kSparse on every stage. Throws
/// std::invalid_argument if `g` contains a cycle — this entry point is the
/// *tree* algorithm; for general bounded-arboricity graphs (or other
/// parameters) call arb_mis() directly.
ArbMisResult tree_independent_set(graph::GraphView g, std::uint64_t seed);

}  // namespace arbmis::core
