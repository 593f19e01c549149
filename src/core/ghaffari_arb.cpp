#include "core/ghaffari_arb.h"

#include "mis/degree_reduction.h"
#include "mis/ghaffari.h"

namespace arbmis::core {

GhaffariArbResult ghaffari_arb_mis(graph::GraphView g, std::uint64_t seed) {
  GhaffariArbResult result;
  const std::uint32_t budget = mis::degree_reduction_budget(g.num_nodes());
  mis::DegreeReductionResult reduction =
      mis::degree_reduction(g, budget, seed);
  result.reduction_stats = reduction.stats;
  result.residual_max_degree = reduction.residual_max_degree;
  result.residual_nodes = reduction.residual_nodes;
  result.mis.state = std::move(reduction.state);

  result.ghaffari_stats =
      mis::finish_stage(g, result.mis.state, reduction.residual_mask,
                        [&](graph::GraphView sub) {
                          return mis::GhaffariMis::run(sub, seed + 1);
                        })
          .value_or(sim::RunStats{});

  result.mis.stats = result.reduction_stats;
  result.mis.stats.absorb(result.ghaffari_stats);
  result.mis.stats.rounds += 1;  // the final coverage flush
  result.mis.stats.all_halted = true;
  return result;
}

}  // namespace arbmis::core
