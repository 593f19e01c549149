// Linial's deterministic color reduction (SIAM J. Comput. 1992) and the
// bounded-degree MIS built on it — our stand-in for the Barenboim et al.
// Theorem 7.4 finisher used by the paper's §3.3 (see DESIGN.md for the
// substitution note).
//
// One Linial round maps a proper m-coloring to a proper q²-coloring, where
// q is a prime chosen so that q > k·D and q^(k+1) >= m for some degree
// bound k: a color is read as a degree-<=k polynomial over GF(q) (its
// base-q digits); after hearing its neighbors' colors a node picks an
// evaluation point x where its polynomial differs from every neighbor's
// polynomial (at most k·D < q points are ruined) and adopts the color
// (x, p(x)). Distinct adjacent colors stay distinct regardless of the
// neighbors' own choices of x. Iterating reaches O(D²) colors in
// O(log* n) rounds; a color-class sweep then yields an MIS.
//
// Total rounds: O(log* n) + O(D²), independent of n up to the log* term —
// which is exactly the property the finishing phase needs (the shattering
// phase leaves only graphs of small max degree behind).
#pragma once

#include <cstdint>
#include <vector>

#include "mis/mis_types.h"
#include "sim/algorithm.h"
#include "sim/network.h"

namespace arbmis::mis {

/// The reduction schedule (m_0 = n, then m_{i+1} = q_i^2) is a pure
/// function of (n, D); every node computes it locally, so the rounds stay
/// in lockstep with no coordination.
struct LinialSchedule {
  struct Step {
    std::uint64_t colors_in = 0;   ///< m
    std::uint64_t degree_k = 0;    ///< polynomial degree bound k
    std::uint64_t prime_q = 0;     ///< field size q
    std::uint64_t colors_out = 0;  ///< q^2
  };
  std::vector<Step> steps;
  std::uint64_t final_colors = 0;

  static LinialSchedule compute(std::uint64_t n, std::uint64_t max_degree);
};

class LinialMis : public sim::Algorithm {
 public:
  struct Options {
    /// Max degree bound D the schedule is built for. Must be >= the true
    /// maximum degree; the run throws std::logic_error if a node ever
    /// fails to find an evaluation point (which certifies D was wrong).
    graph::NodeId max_degree = 0;
  };

  LinialMis(graph::GraphView g, Options options);

  std::string_view name() const override { return "linial"; }
  void on_start(sim::NodeContext& ctx) override;
  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override;

  const LinialSchedule& schedule() const noexcept { return schedule_; }
  /// Final colors, in [0, schedule().final_colors).
  const std::vector<std::uint64_t>& final_colors() const noexcept {
    return color_;
  }
  const std::vector<MisState>& states() const noexcept { return state_; }

  static MisResult run(graph::GraphView g, graph::NodeId max_degree,
                       std::uint64_t seed = 0,
                       std::uint32_t max_rounds = 1 << 24);

 private:
  enum Tag : std::uint32_t { kColor = 1, kJoined = 2 };

  std::uint64_t reduce_color(std::uint64_t my_color,
                             const std::vector<std::uint64_t>& neighbor_colors,
                             const LinialSchedule::Step& step) const;

  LinialSchedule schedule_;
  std::uint32_t final_round_;
  std::vector<std::uint64_t> color_;
  std::vector<MisState> state_;
  std::vector<std::uint8_t> covered_;  // byte-wide: written concurrently per node
};

}  // namespace arbmis::mis
