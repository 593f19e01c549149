// ArbMIS — the paper's Algorithm 2: the full MIS pipeline around
// BoundedArbIndependentSet.
//
//   1. (optional) degree-reduction pre-phase (Theorem 7.2 substitute),
//   2. BoundedArbIndependentSet on the residual graph -> I, B, VIB,
//   3. VIB split by the scale-Θ degree cut into Vlo / Vhi, each finished
//      by a bounded-degree MIS (paper §3.3; see DESIGN.md for the
//      Theorem 7.4 substitution),
//   4. the small components of G[B] finished deterministically
//      (Lemma 3.8),
//   5. union of the stage MISes, with a coverage flush between stages so
//      later stages respect earlier joins.
//
// Vlo, Vhi and B each go through mis::finish_stage: the finisher runs on
// the subgraph induced by the still-undecided stage set; that is exactly
// the "process the sets one after the other" composition of the paper,
// and the round counts add up (components of a stage run in parallel
// inside one simulator run).
#pragma once

#include <cstdint>

#include "core/bounded_arb.h"
#include "core/invariant.h"
#include "core/params.h"
#include "core/shattering.h"
#include "mis/mis_types.h"

namespace arbmis::core {

/// Which algorithm finishes a stage's leftover subgraph.
enum class Finisher : std::uint8_t {
  kMetivier,  ///< randomized, O(log residual) whp — pipeline default
  kLinial,    ///< deterministic, O(log* n + D²) for degree-D leftovers
  kElection,  ///< deterministic id election — default for the bad set
  kSparse,    ///< Lemma 3.8 machinery: forest decomposition + Cole–Vishkin
  kGather,    ///< §2.1 literal: leaders gather small components and solve
};

struct ArbMisOptions {
  /// Arboricity bound; drives Params and the kSparse finisher.
  graph::NodeId alpha = 1;
  /// Use Params::practical (default) or Params::paper_faithful.
  bool paper_faithful_params = false;
  Params::PracticalTuning tuning{};

  /// Enable the degree-reduction pre-phase (paper Theorem 2.1's route to
  /// an n-only bound).
  bool degree_reduction = false;

  /// Finishes Vlo and Vhi; the bad set B has its own.
  Finisher finisher = Finisher::kMetivier;
  Finisher bad_finisher = Finisher::kElection;

  /// Attach the Invariant auditor to the shattering phase (paper §3's
  /// Invariant, re-derived globally at every scale end). Costs a global
  /// recomputation per scale; off by default.
  bool audit_invariant = false;
};

struct ArbMisResult {
  /// Final global labeling; stats hold the summed rounds of all stages.
  mis::MisResult mis;
  /// Algorithm 1 outcome on the (residual) graph it ran on, in original
  /// node ids.
  std::vector<ArbOutcome> shatter_outcome;
  Params params;
  /// Component statistics of the bad set (Lemma 3.7 measurement).
  ShatteringStats bad_components;

  // Per-stage round/message accounting.
  sim::RunStats reduction_stats;
  sim::RunStats shatter_stats;
  sim::RunStats low_stats;
  sim::RunStats high_stats;
  sim::RunStats bad_stats;

  std::uint64_t vlo_size = 0;
  std::uint64_t vhi_size = 0;
  std::uint64_t bad_size = 0;
  /// True if the defensive final cleanup pass had to run (a pipeline
  /// composition bug — tests assert this stays false).
  bool cleanup_used = false;

  /// Per-scale Invariant audits (only when options.audit_invariant).
  std::vector<InvariantAuditor::ScaleAudit> invariant_audits;
  bool invariant_held = true;
};

/// Runs the full pipeline. Seeds of the stages derive from `seed`.
ArbMisResult arb_mis(graph::GraphView g, const ArbMisOptions& options,
                     std::uint64_t seed);

}  // namespace arbmis::core
