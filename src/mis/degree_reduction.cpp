#include "mis/degree_reduction.h"

#include <algorithm>

#include "graph/subgraph.h"
#include "mis/metivier.h"

namespace arbmis::mis {

std::uint64_t finalize_partial(graph::GraphView g,
                               std::vector<MisState>& state) {
  std::uint64_t flushed = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (state[v] != MisState::kUndecided) continue;
    for (graph::NodeId w : g.neighbors(v)) {
      if (state[w] == MisState::kInMis) {
        state[v] = MisState::kCovered;
        ++flushed;
        break;
      }
    }
  }
  return flushed;
}

std::optional<sim::RunStats> finish_stage(
    graph::GraphView g, std::vector<MisState>& state,
    std::span<const std::uint8_t> stage,
    const std::function<MisResult(graph::GraphView)>& finisher) {
  std::vector<std::uint8_t> eligible(g.num_nodes(), 0);
  bool any = false;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    eligible[v] = (stage[v] != 0 && state[v] == MisState::kUndecided);
    any = any || eligible[v];
  }
  if (!any) return std::nullopt;

  const graph::Subgraph sub = graph::induced_subgraph(g, eligible);
  const MisResult finished = finisher(sub.graph);
  for (graph::NodeId local = 0; local < sub.graph.num_nodes(); ++local) {
    if (finished.state[local] != MisState::kUndecided) {
      state[sub.original(local)] = finished.state[local];
    }
  }
  finalize_partial(g, state);
  return finished.stats;
}

std::uint32_t degree_reduction_budget(graph::NodeId n, double c) noexcept {
  if (n < 4) return 1;
  const double log_n = std::log2(static_cast<double>(n));
  const double log_log_n = std::max(std::log2(log_n), 1.0);
  return static_cast<std::uint32_t>(std::ceil(c * std::sqrt(log_n * log_log_n)));
}

DegreeReductionResult degree_reduction(graph::GraphView g,
                                       std::uint32_t round_budget,
                                       std::uint64_t seed) {
  DegreeReductionResult result;
  MisResult partial = MetivierMis::run(g, seed, {}, round_budget);
  result.stats = partial.stats;
  result.stats.rounds += 1;  // the finalize flush round
  result.state = std::move(partial.state);
  finalize_partial(g, result.state);

  result.residual_mask.assign(g.num_nodes(), false);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    result.residual_mask[v] = (result.state[v] == MisState::kUndecided) ? 1 : 0;
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (result.residual_mask[v] == 0) continue;
    ++result.residual_nodes;
    graph::NodeId residual_degree = 0;
    for (graph::NodeId w : g.neighbors(v)) {
      residual_degree += result.residual_mask[w] ? 1 : 0;
    }
    result.residual_max_degree =
        std::max(result.residual_max_degree, residual_degree);
  }
  return result;
}

}  // namespace arbmis::mis
