#include "core/ghaffari_arb.h"

#include "graph/subgraph.h"
#include "mis/degree_reduction.h"
#include "mis/ghaffari.h"

namespace arbmis::core {

GhaffariArbResult ghaffari_arb_mis(graph::GraphView g, std::uint64_t seed,
                                   GhaffariArbOptions options) {
  GhaffariArbResult result;
  result.mis.state.assign(g.num_nodes(), mis::MisState::kUndecided);

  std::vector<std::uint8_t> residual(g.num_nodes(), 1);
  if (!options.skip_reduction) {
    const std::uint32_t budget = mis::degree_reduction_budget(g.num_nodes());
    mis::DegreeReductionResult reduction =
        mis::degree_reduction(g, budget, seed);
    result.reduction_stats = reduction.stats;
    result.residual_max_degree = reduction.residual_max_degree;
    result.residual_nodes = reduction.residual_nodes;
    result.mis.state = std::move(reduction.state);
    residual = std::move(reduction.residual_mask);
  } else {
    result.residual_max_degree = g.max_degree();
    result.residual_nodes = g.num_nodes();
  }

  const graph::Subgraph sub = graph::induced_subgraph(g, residual);
  if (sub.graph.num_nodes() > 0) {
    mis::MisResult stage = mis::GhaffariMis::run(sub.graph, seed + 1);
    result.ghaffari_stats = stage.stats;
    for (graph::NodeId local = 0; local < sub.graph.num_nodes(); ++local) {
      result.mis.state[sub.original(local)] = stage.state[local];
    }
  }
  mis::finalize_partial(g, result.mis.state);

  result.mis.stats = result.reduction_stats;
  result.mis.stats.absorb(result.ghaffari_stats);
  result.mis.stats.rounds += 1;  // the final coverage flush
  result.mis.stats.all_halted = true;
  return result;
}

}  // namespace arbmis::core
