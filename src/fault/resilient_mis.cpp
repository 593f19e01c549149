#include "fault/resilient_mis.h"

#include <optional>

#include "core/bounded_arb.h"
#include "core/params.h"
#include "graph/subgraph.h"
#include "mis/distributed_verify.h"
#include "mis/luby.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "obs/span.h"

namespace arbmis::fault {

MisDriver shatter_driver(graph::NodeId alpha, core::PracticalTuning tuning) {
  return [alpha, tuning](graph::GraphView g, sim::Network& net,
                         std::uint32_t max_rounds, sim::RunStats& stats) {
    std::vector<mis::MisState> labels(g.num_nodes(),
                                      mis::MisState::kUndecided);
    if (g.num_edges() == 0) {
      // Edgeless residual: every node is trivially in the MIS.
      std::fill(labels.begin(), labels.end(), mis::MisState::kInMis);
      stats = sim::RunStats{};
      stats.all_halted = true;
      return labels;
    }
    const core::Params params =
        core::Params::practical(alpha, g.max_degree(), tuning);
    bool any_member = false;
    if (params.num_scales > 0) {
      core::BoundedArbIndependentSet algo(g, params);
      stats = net.run(algo,
                      std::min(max_rounds, params.total_rounds() + 2));
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        switch (algo.outcomes()[v]) {
          case core::ArbOutcome::kInMis:
            labels[v] = mis::MisState::kInMis;
            any_member = true;
            break;
          case core::ArbOutcome::kCovered:
            labels[v] = mis::MisState::kCovered;
            break;
          default:  // active / bad / remaining: finish in a later attempt
            break;
        }
      }
    } else {
      stats = sim::RunStats{};
      stats.all_halted = true;
    }
    if (!any_member) {
      // Θ = 0 (residual below the shattering regime) or faults wiped the
      // run: fall back to Luby B so the attempt still makes progress.
      mis::LubyBMis luby(g);
      stats.absorb(net.run(luby, max_rounds));
      labels = luby.states();
    }
    return labels;
  };
}

ResilientResult resilient_mis(graph::GraphView g, std::uint64_t seed,
                              Adversary& adversary, const MisDriver& driver,
                              const ResilientOptions& options) {
  // Child span: emits only inside an open request span (serving path), so
  // standalone resilient runs keep their pre-span event streams.
  const obs::ScopedChildSpan span("fault.resilient_mis", g.num_nodes());
  const graph::NodeId n = g.num_nodes();
  ResilientResult result;
  result.state.assign(n, mis::MisState::kUndecided);
  std::vector<std::uint8_t> undecided(n, 1);
  graph::NodeId undecided_count = n;
  const util::Rng seed_tree(seed);

  for (std::uint32_t attempt = 0;
       attempt < options.max_attempts && undecided_count > 0; ++attempt) {
    const graph::Subgraph res = graph::induced_subgraph(g, undecided);
    const std::uint64_t attempt_seed = seed_tree.child(attempt).next();
    const bool faulty = attempt < options.fault_free_after;

    AttemptReport rep;
    rep.attempt = attempt;
    rep.residual_nodes = res.graph.num_nodes();
    rep.faulty = faulty;

    std::vector<mis::MisState> labels;
    {
      // Only faulty attempts build a plan (and bind the adversary); the
      // serving path, with fault_free_after = 0, never does.
      std::optional<FaultPlan> plan;
      sim::NetworkOptions net_options;
      net_options.num_threads = options.num_threads;
      if (faulty) {
        net_options.fault = &plan.emplace(res.graph, attempt_seed, adversary);
      }
      sim::Network net(res.graph, attempt_seed, net_options);
      labels = driver(res.graph, net, options.max_rounds_per_attempt,
                      rep.stats);
    }

    // Certify fault-free within the residual; only verified members are
    // trusted. Two adjacent members both fail their local check, so the
    // committed set is independent by construction of the verifier.
    const mis::DistributedMisCheck::Result check =
        mis::DistributedMisCheck::run(res.graph, labels, attempt_seed);
    result.rounds_to_recovery += rep.stats.rounds + check.stats.rounds;

    for (graph::NodeId s = 0; s < res.graph.num_nodes(); ++s) {
      if (labels[s] != mis::MisState::kInMis || check.local_ok[s] == 0) {
        continue;
      }
      const graph::NodeId v = res.original(s);
      result.state[v] = mis::MisState::kInMis;
      undecided[v] = 0;
      --undecided_count;
      ++rep.committed;
    }
    // Coverage is recomputed from the committed members, never taken from
    // the faulty run's labels.
    for (graph::NodeId s = 0; s < res.graph.num_nodes(); ++s) {
      const graph::NodeId v = res.original(s);
      if (result.state[v] != mis::MisState::kInMis) continue;
      for (graph::NodeId w : g.neighbors(v)) {
        if (undecided[w] != 0) {
          result.state[w] = mis::MisState::kCovered;
          undecided[w] = 0;
          --undecided_count;
          ++rep.covered;
        }
      }
    }

    result.faults += rep.stats.faults;
    obs::emit(obs::make_event<obs::EventKind::kAttempt>(
        /*round=*/0, rep.attempt, rep.residual_nodes, rep.committed,
        rep.covered, rep.faulty ? 1 : 0, rep.stats.rounds));
    result.attempt_log.push_back(rep);
    ++result.attempts;
  }

  // Final fault-free certification on the full input graph.
  const mis::DistributedMisCheck::Result final_check =
      mis::DistributedMisCheck::run(g, result.state, seed);
  result.rounds_to_recovery += final_check.stats.rounds;
  result.certified = final_check.all_ok && undecided_count == 0;
  obs::emit(obs::make_event<obs::EventKind::kCertified>(
      /*round=*/0, result.certified ? 1 : 0, result.attempts,
      result.rounds_to_recovery));
  if (!result.certified) {
    // Failure seam: preserve the events leading up to the failed
    // certification while they are still in the ring.
    obs::recorder_auto_dump("certification_failure");
  }
  return result;
}

CertifyReport certify_labels(graph::GraphView g,
                             const std::vector<mis::MisState>& state,
                             std::uint64_t seed) {
  CertifyReport report;
  if (state.size() != g.num_nodes()) return report;
  for (const mis::MisState s : state) {
    if (s == mis::MisState::kUndecided) return report;
  }
  const mis::DistributedMisCheck::Result check =
      mis::DistributedMisCheck::run(g, state, seed);
  report.rounds = check.stats.rounds;
  report.certified = check.all_ok;
  return report;
}

}  // namespace arbmis::fault
