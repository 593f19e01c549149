#include "core/lw_tree_mis.h"

#include "graph/properties.h"
#include "mis/degree_reduction.h"
#include "mis/sparse_mis.h"

namespace arbmis::core {

LwTreeMisResult lw_tree_mis(graph::GraphView g, std::uint64_t seed) {
  LwTreeMisResult result;

  // Phase 1: budgeted Métivier competition (the shattering phase), for
  // 3·√(log₂ n · log₂ log₂ n) rounds.
  const std::uint32_t budget =
      mis::degree_reduction_budget(g.num_nodes(), /*c=*/3.0);
  mis::DegreeReductionResult shatter =
      mis::degree_reduction(g, budget, seed);
  result.shatter_stats = shatter.stats;
  result.mis.state = std::move(shatter.state);
  result.residual_components =
      shattering_stats(g, shatter.residual_mask);

  // Phase 2: deterministic parallel finish of the residual components
  // (they all live in one induced subgraph; the simulator runs them
  // concurrently, which is exactly the "in parallel" of the paper).
  result.finish_stats =
      mis::finish_stage(g, result.mis.state, shatter.residual_mask,
                        [&](graph::GraphView sub) {
                          return mis::sparse_mis(
                                     sub, {.alpha = graph::degeneracy(sub)},
                                     seed + 1)
                              .mis;
                        })
          .value_or(sim::RunStats{});

  result.mis.stats = result.shatter_stats;
  result.mis.stats.absorb(result.finish_stats);
  result.mis.stats.rounds += 1;  // final flush
  result.mis.stats.all_halted = true;
  return result;
}

}  // namespace arbmis::core
