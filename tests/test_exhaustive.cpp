// Exhaustive small-world verification: EVERY graph on up to 5 nodes (1024
// on exactly 5, plus all smaller ones) is run through every distributed
// MIS algorithm, the matching algorithm, and the full ArbMIS pipeline —
// and every structural routine is checked against brute force. Small
// exhaustive spaces catch edge-case logic that random sweeps miss.
#include <gtest/gtest.h>

#include "core/arb_mis.h"
#include "graph/arboricity_exact.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "mis/bit_metivier.h"
#include "mis/gather_solve.h"
#include "mis/ghaffari.h"
#include "mis/luby.h"
#include "mis/matching.h"
#include "mis/metivier.h"
#include "mis/verifier.h"

namespace arbmis {
namespace {

graph::Graph graph_from_bits(graph::NodeId n, std::uint32_t bits) {
  graph::Builder builder(n);
  std::uint32_t bit = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v, ++bit) {
      if (bits & (1u << bit)) builder.add_edge(u, v);
    }
  }
  return builder.build();
}

std::uint32_t edge_slots(graph::NodeId n) { return n * (n - 1) / 2; }

TEST(Exhaustive, AllMisAlgorithmsOnAllGraphsUpTo5Nodes) {
  for (graph::NodeId n = 0; n <= 5; ++n) {
    const std::uint32_t graphs = 1u << edge_slots(n);
    for (std::uint32_t bits = 0; bits < graphs; ++bits) {
      const graph::Graph g = graph_from_bits(n, bits);
      const std::uint64_t seed = bits + 1;
      EXPECT_TRUE(mis::verify(g, mis::MetivierMis::run(g, seed)).ok())
          << "metivier n=" << n << " bits=" << bits;
      EXPECT_TRUE(mis::verify(g, mis::LubyBMis::run(g, seed)).ok())
          << "luby_b n=" << n << " bits=" << bits;
      EXPECT_TRUE(mis::verify(g, mis::GhaffariMis::run(g, seed)).ok())
          << "ghaffari n=" << n << " bits=" << bits;
      EXPECT_TRUE(mis::verify(g, mis::MetivierMis::run(
                                     g, seed,
                                     {.priority = mis::PriorityRule::kId},
                                     mis::kIdPriorityMaxRounds))
                      .ok())
          << "election n=" << n << " bits=" << bits;
      EXPECT_TRUE(mis::verify_maximal_matching(
          g, mis::IsraeliItaiMatching::run(g, seed)))
          << "matching n=" << n << " bits=" << bits;
      EXPECT_TRUE(mis::verify(g, mis::BitMetivierMis::run(g, seed).mis).ok())
          << "bit_metivier n=" << n << " bits=" << bits;
      EXPECT_TRUE(mis::verify(g, mis::GatherSolveMis::run(g, seed)).ok())
          << "gather n=" << n << " bits=" << bits;
    }
  }
}

TEST(Exhaustive, PipelineOnAllGraphsOn5Nodes) {
  const graph::NodeId n = 5;
  for (std::uint32_t bits = 0; bits < (1u << edge_slots(n)); ++bits) {
    const graph::Graph g = graph_from_bits(n, bits);
    const graph::NodeId alpha =
        std::max<graph::NodeId>(graph::degeneracy(g), 1);
    const core::ArbMisResult result = core::arb_mis(g, {.alpha = alpha}, bits);
    EXPECT_TRUE(mis::verify(g, result.mis).ok()) << "bits=" << bits;
  }
}

/// Brute-force Nash-Williams: max over all vertex subsets S (|S| >= 2) of
/// ceil(m_S / (|S| - 1)).
graph::NodeId nash_williams_brute_force(const graph::Graph& g) {
  const graph::NodeId n = g.num_nodes();
  graph::NodeId best = g.num_edges() > 0 ? 1 : 0;
  for (std::uint32_t subset = 0; subset < (1u << n); ++subset) {
    graph::NodeId size = 0;
    for (graph::NodeId v = 0; v < n; ++v) size += (subset >> v) & 1;
    if (size < 2) continue;
    std::uint64_t edges = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      if (!((subset >> u) & 1)) continue;
      for (graph::NodeId v : g.neighbors(u)) {
        if (v > u && ((subset >> v) & 1)) ++edges;
      }
    }
    const auto denom = static_cast<std::uint64_t>(size - 1);
    const auto bound =
        static_cast<graph::NodeId>((edges + denom - 1) / denom);
    best = std::max(best, bound);
  }
  return best;
}

TEST(Exhaustive, ExactArboricityMatchesNashWilliamsOn5Nodes) {
  const graph::NodeId n = 5;
  for (std::uint32_t bits = 0; bits < (1u << edge_slots(n)); ++bits) {
    const graph::Graph g = graph_from_bits(n, bits);
    EXPECT_EQ(graph::exact_arboricity(g), nash_williams_brute_force(g))
        << "bits=" << bits;
  }
}

TEST(Exhaustive, ExactArboricityMatchesNashWilliamsOn6NodeSamples) {
  // 2^15 graphs on 6 nodes is feasible but slow with brute force inside;
  // sample a deterministic stride instead.
  const graph::NodeId n = 6;
  for (std::uint32_t bits = 0; bits < (1u << edge_slots(n)); bits += 13) {
    const graph::Graph g = graph_from_bits(n, bits);
    EXPECT_EQ(graph::exact_arboricity(g), nash_williams_brute_force(g))
        << "bits=" << bits;
  }
}

TEST(Exhaustive, DegeneracyNeverBelowArboricityOn5Nodes) {
  const graph::NodeId n = 5;
  for (std::uint32_t bits = 0; bits < (1u << edge_slots(n)); ++bits) {
    const graph::Graph g = graph_from_bits(n, bits);
    const graph::NodeId alpha = graph::exact_arboricity(g);
    EXPECT_GE(graph::degeneracy(g), alpha > 0 ? alpha : 0) << bits;
    if (alpha >= 1) {
      EXPECT_LE(graph::degeneracy(g), 2 * alpha - 1) << bits;
    }
  }
}

}  // namespace
}  // namespace arbmis
