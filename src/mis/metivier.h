// The Métivier–Robson–Saheb-Djahromi–Zemmari random-priority MIS algorithm
// (SIROCCO 2009) — the competition engine at the heart of every shattering
// algorithm in the paper (§1): in each iteration every active node draws a
// priority and joins the MIS iff its priority strictly beats all active
// neighbors; MIS nodes and their neighbors leave the graph.
//
// The priority rule (MetivierOptions::priority) is what a node competes
// with in each iteration:
//   * kRandom — a fresh random 64-bit word (Métivier et al.; the default);
//   * kLubyA  — uniform in {1, ..., n^4}, saturating (Luby's Algorithm A,
//               see luby_a_mis);
//   * kId     — the node's own id, with no draw: the deterministic
//               election that finishes the bad set (paper §2.1, Lemma 3.8;
//               Finisher::kElection, SparseMis's fallback). Over fixed
//               priorities the competition is parallel greedy — every
//               local maximum joins — so a path whose ids increase gains
//               one MIS node every two rounds: Θ(n) rounds, hence
//               kIdPriorityMaxRounds.
//
// Round layout: the protocol is fully pipelined at one round per
// iteration. In round t every active node (1) covers and halts if a
// neighbor announced kJoined in round t-1, else (2) resolves the
// competition among the priorities drawn in round t-1 — a strict local
// maximum joins the MIS, announces kJoined, and halts — and (3) losers
// draw and broadcast the next priority. Covering is checked before
// resolving, which makes adjacent wins in consecutive rounds impossible;
// a covered node's final in-flight priority can only cause a neighbor to
// lose one extra iteration, never a conflict.
#pragma once

#include <vector>

#include "mis/mis_types.h"
#include "sim/algorithm.h"
#include "sim/network.h"

namespace arbmis::mis {

/// What a node competes with in each iteration (see the header comment).
/// Ties never win, matching both papers.
enum class PriorityRule : std::uint8_t { kRandom, kLubyA, kId };

/// Round budget of an id-priority run: Θ(n) rounds in the worst case.
inline constexpr std::uint32_t kIdPriorityMaxRounds = 1 << 24;

/// Options for MetivierMis (namespace scope so it can carry default
/// member initializers and still be a default argument — GCC rejects that
/// combination for nested classes).
struct MetivierOptions {
  PriorityRule priority = PriorityRule::kRandom;
};

class MetivierMis : public sim::Algorithm {
 public:
  using Options = MetivierOptions;

  explicit MetivierMis(graph::GraphView g, Options options = {});

  std::string_view name() const override { return "metivier"; }
  void on_start(sim::NodeContext& ctx) override;
  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override;

  const std::vector<MisState>& states() const noexcept { return state_; }

  /// Runs to completion on a fresh network and packages the result.
  static MisResult run(graph::GraphView g, std::uint64_t seed,
                       Options options = {},
                       std::uint32_t max_rounds = 1 << 20);

 private:
  enum Tag : std::uint32_t { kPriority = 1, kJoined = 2 };

  void start_iteration(sim::NodeContext& ctx);

  Options options_;
  std::uint64_t luby_a_range_;  // n^4, saturated; read under kLubyA only
  std::vector<MisState> state_;
  std::vector<std::uint64_t> my_priority_;
};

/// Convenience wrapper running Luby's Algorithm A: MetivierMis with integer
/// priorities from {1, ..., n^4}.
MisResult luby_a_mis(graph::GraphView g, std::uint64_t seed,
                     std::uint32_t max_rounds = 1 << 20);

}  // namespace arbmis::mis
