#include "core/arb_mis.h"

#include <optional>
#include <stdexcept>

#include "graph/subgraph.h"
#include "obs/sink.h"
#include "mis/degree_reduction.h"
#include "mis/linial.h"
#include "mis/metivier.h"
#include "mis/slow_local.h"
#include "mis/gather_solve.h"
#include "mis/sparse_mis.h"

namespace arbmis::core {

namespace {

using mis::MisState;

/// Runs `finisher` on a subgraph and returns its labeling.
mis::MisResult run_finisher(graph::GraphView sub, Finisher finisher,
                            graph::NodeId alpha, std::uint64_t seed) {
  switch (finisher) {
    case Finisher::kMetivier:
      return mis::MetivierMis::run(sub, seed);
    case Finisher::kLinial:
      return mis::LinialMis::run(sub, sub.max_degree(), seed);
    case Finisher::kElection:
      return mis::ElectionMis::run(sub, seed);
    case Finisher::kSparse: {
      mis::SparseMisResult sparse =
          mis::sparse_mis(sub, {.alpha = alpha}, seed);
      return std::move(sparse.mis);
    }
    case Finisher::kGather:
      return mis::GatherSolveMis::run(sub, seed);
  }
  throw std::logic_error("run_finisher: unknown finisher");
}

/// Finishes the still-undecided nodes of stage_mask with `finisher`
/// (mis::finish_stage). Returns the stage's run stats plus its coverage
/// flush round; an empty stage costs nothing.
sim::RunStats run_stage(graph::GraphView g, std::vector<MisState>& state,
                        const std::vector<std::uint8_t>& stage_mask,
                        Finisher finisher, graph::NodeId alpha,
                        std::uint64_t seed) {
  std::optional<sim::RunStats> stats = mis::finish_stage(
      g, state, stage_mask, [&](graph::GraphView sub) {
        return run_finisher(sub, finisher, alpha, seed);
      });
  if (!stats) return {};
  stats->rounds += 1;  // the coverage flush between stages
  return *stats;
}

/// Pipeline-stage transition event (index = stage position, set_size =
/// nodes the stage ran on). No-op without an attached sink.
void emit_phase(std::string_view name, std::uint64_t index,
                std::uint64_t set_size, const sim::RunStats& stats) {
  obs::emit(obs::make_event<obs::EventKind::kPhase>(
      /*round=*/0, name, index, set_size, stats.rounds, stats.messages));
}

}  // namespace

ArbMisResult arb_mis(graph::GraphView g, const ArbMisOptions& options,
                     std::uint64_t seed) {
  ArbMisResult result;
  result.mis.state.assign(g.num_nodes(), MisState::kUndecided);
  result.shatter_outcome.assign(g.num_nodes(), ArbOutcome::kActive);

  // Stage 0 (optional): degree reduction.
  std::vector<std::uint8_t> residual(g.num_nodes(), 1);
  if (options.degree_reduction) {
    const std::uint32_t budget = mis::degree_reduction_budget(g.num_nodes());
    mis::DegreeReductionResult reduction =
        mis::degree_reduction(g, budget, seed);
    result.reduction_stats = reduction.stats;
    result.mis.state = std::move(reduction.state);
    residual = std::move(reduction.residual_mask);
    emit_phase("degree_reduction", 0, g.num_nodes(), result.reduction_stats);
  }

  // Stage 1: BoundedArbIndependentSet on the residual graph. Without
  // degree reduction the residual is every node, which restricts to g.
  const graph::Subgraph shatter_sub = graph::induced_subgraph(g, residual);
  const graph::GraphView shatter_graph = shatter_sub.graph;
  result.params =
      options.paper_faithful_params
          ? Params::paper_faithful(options.alpha, shatter_graph.max_degree())
          : Params::practical(options.alpha, shatter_graph.max_degree(),
                              options.tuning);
  BoundedArbIndependentSet::Result shatter;
  {
    BoundedArbIndependentSet algorithm(shatter_graph, result.params);
    std::optional<InvariantAuditor> auditor;
    if (options.audit_invariant) auditor.emplace(shatter_graph, algorithm);
    sim::Network net(shatter_graph, seed + 1);
    result.shatter_stats =
        net.run(algorithm, result.params.total_rounds(),
                auditor ? auditor->observer() : sim::Network::RoundObserver{});
    shatter.outcome = algorithm.outcomes();
    shatter.scale_stats = algorithm.scale_stats();
    if (auditor) {
      result.invariant_audits = auditor->audits();
      result.invariant_held = auditor->all_hold();
    }
  }

  std::vector<std::uint8_t> bad_mask(g.num_nodes(), 0);
  std::vector<std::uint8_t> remaining_mask(g.num_nodes(), 0);
  for (graph::NodeId local = 0; local < shatter_graph.num_nodes(); ++local) {
    const graph::NodeId v = shatter_sub.original(local);
    result.shatter_outcome[v] = shatter.outcome[local];
    switch (shatter.outcome[local]) {
      case ArbOutcome::kInMis:
        result.mis.state[v] = MisState::kInMis;
        break;
      case ArbOutcome::kCovered:
        result.mis.state[v] = MisState::kCovered;
        break;
      case ArbOutcome::kBad:
        bad_mask[v] = 1;
        break;
      case ArbOutcome::kRemaining:
        remaining_mask[v] = 1;
        break;
      case ArbOutcome::kActive:
        throw std::logic_error("arb_mis: shattering left an active node");
    }
  }
  mis::finalize_partial(g, result.mis.state);
  result.shatter_stats.rounds += 1;  // flush
  result.bad_components = shattering_stats(g, bad_mask);
  for (std::uint8_t b : bad_mask) result.bad_size += b;
  if (obs::telemetry_attached()) {
    emit_phase("shatter", 1, shatter_graph.num_nodes(),
               result.shatter_stats);
    for (const BoundedArbIndependentSet::ScaleStats& s : shatter.scale_stats) {
      obs::emit(obs::make_event<obs::EventKind::kScale>(
          /*round=*/0, s.scale, s.joined, s.covered, s.bad, s.active_after));
    }
  }

  // Stage 2: split VIB into Vlo / Vhi by residual degree against the
  // scale-Θ cut (paper §3.3), measured inside the remaining set.
  const std::uint64_t cut = result.params.residual_degree_cut();
  std::vector<std::uint8_t> vlo(g.num_nodes(), 0);
  std::vector<std::uint8_t> vhi(g.num_nodes(), 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!remaining_mask[v]) continue;
    std::uint64_t residual_degree = 0;
    for (graph::NodeId w : g.neighbors(v)) residual_degree += remaining_mask[w];
    if (residual_degree <= cut) {
      vlo[v] = 1;
    } else {
      vhi[v] = 1;
    }
  }
  for (std::uint8_t b : vlo) result.vlo_size += b;
  for (std::uint8_t b : vhi) result.vhi_size += b;
  if (obs::telemetry_attached()) {
    obs::emit(obs::make_event<obs::EventKind::kShatter>(
        /*round=*/0, result.bad_size, result.bad_components.num_components,
        result.bad_components.largest_component, result.vlo_size,
        result.vhi_size));
  }

  result.low_stats = run_stage(g, result.mis.state, vlo, options.finisher,
                               options.alpha, seed + 2);
  emit_phase("vlo", 2, result.vlo_size, result.low_stats);
  result.high_stats = run_stage(g, result.mis.state, vhi, options.finisher,
                                options.alpha, seed + 3);
  emit_phase("vhi", 3, result.vhi_size, result.high_stats);
  result.bad_stats = run_stage(g, result.mis.state, bad_mask,
                               options.bad_finisher, options.alpha, seed + 4);
  emit_phase("bad", 4, result.bad_size, result.bad_stats);

  // Defensive cleanup — must never trigger if the stage sets partition the
  // undecided nodes (tests assert cleanup_used == false).
  if (result.mis.undecided_count() > 0) {
    result.cleanup_used = true;
    const std::uint64_t leftover_count = result.mis.undecided_count();
    const std::vector<std::uint8_t> every_node(g.num_nodes(), 1);
    const sim::RunStats stats = run_stage(g, result.mis.state, every_node,
                                          Finisher::kElection, options.alpha,
                                          seed + 5);
    emit_phase("cleanup", 5, leftover_count, stats);
    result.bad_stats.absorb(stats);
  }

  result.mis.stats = result.reduction_stats;
  result.mis.stats.absorb(result.shatter_stats);
  result.mis.stats.absorb(result.low_stats);
  result.mis.stats.absorb(result.high_stats);
  result.mis.stats.absorb(result.bad_stats);
  result.mis.stats.all_halted = true;
  return result;
}

}  // namespace arbmis::core
