#include "core/lw_tree_mis.h"

#include "graph/subgraph.h"
#include "mis/degree_reduction.h"
#include "mis/slow_local.h"
#include "mis/sparse_mis.h"

namespace arbmis::core {

LwTreeMisResult lw_tree_mis(graph::GraphView g, std::uint64_t seed,
                            LwTreeMisOptions options) {
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
  const graph::Subgraph sub =
      graph::induced_subgraph(g, shatter.residual_mask);
  if (sub.graph.num_nodes() > 0) {
    mis::MisResult finish;
    if (options.sparse_finish) {
      mis::SparseMisResult sparse =
          mis::sparse_mis(sub.graph, {.alpha = options.alpha}, seed + 1);
      finish = std::move(sparse.mis);
    } else {
      finish = mis::ElectionMis::run(sub.graph, seed + 1);
    }
    result.finish_stats = finish.stats;
    for (graph::NodeId local = 0; local < sub.graph.num_nodes(); ++local) {
      result.mis.state[sub.original(local)] = finish.state[local];
    }
  }
  mis::finalize_partial(g, result.mis.state);

  result.mis.stats = result.shatter_stats;
  result.mis.stats.absorb(result.finish_stats);
  result.mis.stats.rounds += 1;  // final flush
  result.mis.stats.all_halted = true;
  return result;
}

}  // namespace arbmis::core
