// ResilientMis — fault-tolerant MIS driver.
//
// Wraps any MIS algorithm and drives it to a *certified* MIS despite the
// faults a FaultPlan injects. The loop per attempt:
//
//   1. run the wrapped algorithm on the residual graph (the undecided
//      nodes) inside a Network wired to the attempt's fault plan;
//   2. certify the attempt's output fault-free with the existing
//      distributed verifier (mis/distributed_verify.h) on the residual —
//      labels produced under faults are never trusted directly;
//   3. commit exactly the members whose local verdict passed. Independence
//      inside the residual implies independence in the input graph,
//      because the residual excludes every neighbor of a previously
//      committed member. Coverage is then *recomputed* from the committed
//      set (a "covered" label from a faulty run proves nothing);
//   4. shrink the residual and repeat.
//
// Attempts from `fault_free_after` on run without faults, so the loop
// certifies a true MIS even under a 100% drop rate — that safety net is
// what the acceptance tests pin. The result reports rounds-to-recovery:
// total simulator rounds spent across attempts and verifications.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/params.h"
#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "graph/graph.h"
#include "mis/mis_types.h"
#include "sim/network.h"

namespace arbmis::fault {

/// One attempt of the wrapped algorithm: run on `g` inside `net` (already
/// wired to the attempt's fault plan) and return per-node labels indexed
/// by g's ids (kUndecided allowed). `stats` receives the attempt's stats:
/// a driver that runs `net` more than once absorbs every run into it.
using MisDriver = std::function<std::vector<mis::MisState>(
    graph::GraphView g, sim::Network& net, std::uint32_t max_rounds,
    sim::RunStats& stats)>;

/// Driver for any sim::Algorithm constructible from a const Graph& with a
/// states() accessor — LubyBMis, GhaffariMis, MetivierMis.
template <typename Algo>
MisDriver algorithm_driver() {
  return [](graph::GraphView g, sim::Network& net,
            std::uint32_t max_rounds, sim::RunStats& stats) {
    Algo algo(g);
    stats = net.run(algo, max_rounds);
    return algo.states();
  };
}

/// Driver running the paper's Algorithm 1 (BoundedArbIndependentSet with
/// Params::practical(alpha, Δ)). Bad/remaining nodes map to kUndecided and
/// are finished by the resilient retry loop — the role the finishing phase
/// plays in the paper. When a residual is too small for any scale to
/// execute (Θ = 0), the driver falls back to Luby B on the same network so
/// every attempt can make progress. `tuning` is forwarded to
/// Params::practical — benches lower shatter_constant so scales run on
/// workloads whose Δ sits below the default shattering regime.
MisDriver shatter_driver(graph::NodeId alpha,
                         core::PracticalTuning tuning = {});

struct ResilientOptions {
  std::uint32_t max_attempts = 10;
  /// Attempt index from which faults are disabled (safety net: guarantees
  /// progress even when the adversary drops everything).
  std::uint32_t fault_free_after = 6;
  std::uint32_t max_rounds_per_attempt = 1u << 16;
  std::uint32_t num_threads = 0;  ///< forwarded to every Network
};

struct AttemptReport {
  std::uint32_t attempt = 0;
  graph::NodeId residual_nodes = 0;  ///< size of the graph the attempt ran on
  graph::NodeId committed = 0;       ///< members certified and committed
  graph::NodeId covered = 0;         ///< newly covered by committed members
  bool faulty = false;               ///< faults enabled for this attempt
  /// The driver's runs on the attempt's Network, absorbed; stats.faults is
  /// what the plan injected into all of them.
  sim::RunStats stats;
};

struct ResilientResult {
  std::vector<mis::MisState> state;  ///< final labels on the input graph
  /// Fault-free DistributedMisCheck passed on the full input graph.
  bool certified = false;
  std::uint32_t attempts = 0;
  /// Total simulator rounds to the certified output: every attempt's run
  /// plus every verification pass.
  std::uint32_t rounds_to_recovery = 0;
  sim::FaultTotals faults;  ///< attempts' stats.faults, summed
  std::vector<AttemptReport> attempt_log;
};

/// Runs `driver` to a certified MIS on `g` under the faults `adversary`
/// injects (attempt k uses a FaultPlan seeded from (seed, k)).
ResilientResult resilient_mis(graph::GraphView g, std::uint64_t seed,
                              Adversary& adversary, const MisDriver& driver,
                              const ResilientOptions& options = {});

struct CertifyReport {
  bool certified = false;        ///< all local checks pass, no undecided
  std::uint32_t rounds = 0;      ///< verifier rounds spent
};

/// Fault-free distributed certification of a complete labeling on `g`:
/// every node's local DistributedMisCheck verdict passes and no node is
/// kUndecided. This is the independent acceptance check the serving layer
/// runs on the *full* graph after an incremental repair (docs/SERVING.md);
/// it lives here so serve/ never needs to include mis/ directly.
CertifyReport certify_labels(graph::GraphView g,
                             const std::vector<mis::MisState>& state,
                             std::uint64_t seed);

}  // namespace arbmis::fault
