// Color-class sweep: given a proper coloring of the graph with C classes,
// computes an MIS in C+1 rounds by letting class c join in round c+1
// (minus nodes already covered by earlier classes). SparseMis's final
// step over its composite coloring; LinialMis and ColeVishkin's
// kForestMis mode run the same sweep built into their own schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "mis/mis_types.h"
#include "sim/algorithm.h"
#include "sim/network.h"

namespace arbmis::mis {

class ColorSweepMis : public sim::Algorithm {
 public:
  /// `colors[v]` must be in [0, num_classes) and proper on g's edges;
  /// properness is the caller's contract (violations surface as verifier
  /// failures, which is what the tests assert).
  ColorSweepMis(graph::GraphView g, std::vector<std::uint64_t> colors,
                std::uint64_t num_classes);

  std::string_view name() const override { return "color_sweep"; }
  void on_start(sim::NodeContext& ctx) override;
  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override;

  const std::vector<MisState>& states() const noexcept { return state_; }

  std::uint32_t total_rounds() const noexcept {
    return static_cast<std::uint32_t>(num_classes_) + 1;
  }

 private:
  enum Tag : std::uint32_t { kJoined = 1 };

  std::vector<std::uint64_t> colors_;
  std::uint64_t num_classes_;
  std::vector<MisState> state_;
  std::vector<std::uint8_t> covered_;  // byte-wide: written concurrently per node
};

}  // namespace arbmis::mis
