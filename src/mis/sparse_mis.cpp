#include "mis/sparse_mis.h"

#include <stdexcept>

#include "mis/cole_vishkin.h"
#include "mis/color_sweep.h"
#include "mis/forest_decomposition.h"
#include "mis/slow_local.h"

namespace arbmis::mis {

SparseMisResult sparse_mis(graph::GraphView g, SparseMisOptions options,
                           std::uint64_t seed) {
  SparseMisResult result;
  sim::Network net(g, seed);

  // Stage 1: H-partition into forests (ForestDecomposition's default
  // eps = 2, the (2+eps)·α = 4α threshold).
  ForestDecomposition decomposition(g, {.alpha = options.alpha});
  result.mis.stats = net.run(decomposition, 1 << 20);
  for (graph::NodeId level : decomposition.levels()) {
    if (level == ForestDecomposition::kUnassigned) {
      throw std::invalid_argument(
          "sparse_mis: forest decomposition stalled — alpha is below the "
          "true arboricity");
    }
  }
  const graph::Orientation orientation = decomposition.orientation();
  const graph::ForestPartition forests =
      graph::forests_from_orientation(g, orientation);
  result.num_forests = forests.num_forests();

  std::uint64_t classes = 1;
  for (graph::NodeId f = 0;
       f < result.num_forests && classes <= kCompositeClassBudget; ++f) {
    classes *= 3;
  }
  result.composite_classes = classes;

  if (classes > kCompositeClassBudget) {
    // Fallback: deterministic election (still deterministic, as Lemma 3.8
    // requires, just without the coloring shortcut).
    result.used_fallback = true;
    ElectionMis election(g);
    const sim::RunStats stats = net.run(election, 1 << 24);
    result.mis.stats.absorb(stats);
    result.mis.state = election.states();
    return result;
  }

  // Stage 2: Cole–Vishkin 3-coloring of each forest in turn.
  std::vector<std::uint64_t> composite(g.num_nodes(), 0);
  std::uint64_t radix = 1;
  for (graph::NodeId f = 0; f < result.num_forests; ++f) {
    ColeVishkin coloring(g, forests.forest_parent[f],
                         ColeVishkin::Mode::kColorOnly);
    const sim::RunStats stats = net.run(
        coloring,
        ColeVishkin::total_rounds(g.num_nodes(), ColeVishkin::Mode::kColorOnly) + 1);
    result.mis.stats.absorb(stats);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      composite[v] += radix * coloring.colors()[v];
    }
    radix *= 3;
  }

  // Stage 3: sweep the composite classes.
  ColorSweepMis sweep(g, std::move(composite), classes);
  const sim::RunStats stats = net.run(sweep, sweep.total_rounds() + 1);
  result.mis.stats.absorb(stats);
  result.mis.state = sweep.states();
  return result;
}

}  // namespace arbmis::mis
