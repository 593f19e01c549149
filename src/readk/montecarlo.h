// Monte-Carlo estimation engine for read-k families: conjunction
// probabilities (Theorem 1.1 experiments) and lower-tail probabilities of
// the indicator sum (Theorem 1.2 experiments), with Wilson confidence
// intervals so benches can report statistically honest comparisons
// against the closed-form bounds.
//
// Every estimator here and in events.h samples on one seeded block grid:
// it takes one salt from the caller's rng (so an estimate advances that
// stream by exactly one draw), cuts the trials into blocks of 4096, draws
// block b from Rng(salt).child(b), and merges the block results in block
// order. The estimate is a pure function of the seed: every thread count
// returns the same bits.
#pragma once

#include <cstdint>
#include <vector>

#include "readk/family.h"
#include "util/rng.h"
#include "util/stats.h"

namespace arbmis::readk {

/// Execution options for the Monte-Carlo estimators.
struct McOptions {
  /// Who runs the block grid: 0 (default) runs the blocks inline, in
  /// order, on the calling thread; >= 1 runs them on that many pool
  /// workers. The estimate is the same for every value.
  std::uint32_t num_threads = 0;
};

struct ConjunctionEstimate {
  std::uint64_t trials = 0;
  std::uint64_t all_ones = 0;
  double probability = 0.0;      ///< P(Y_1 = ... = Y_n = 1)
  util::Interval ci;             ///< 95% Wilson interval
  double mean_indicator = 0.0;   ///< average P(Y_j = 1), pooled
};

/// Estimates P(all indicators are 1) over `trials` fresh base draws.
ConjunctionEstimate estimate_conjunction(const ReadKFamily& family,
                                         std::uint64_t trials,
                                         util::Rng& rng,
                                         McOptions options = {});

struct TailEstimate {
  std::uint64_t trials = 0;
  double expected_sum = 0.0;  ///< empirical E[Y]
  struct Point {
    double delta = 0.0;        ///< tail at (1-delta)·E[Y]
    double threshold = 0.0;
    double probability = 0.0;  ///< empirical P(Y <= threshold)
    util::Interval ci;
  };
  std::vector<Point> points;
  util::RunningStats sum_stats;  ///< distribution of Y across trials
};

/// Estimates the lower tail P(Y <= (1-delta)·E[Y]) for each delta. Uses a
/// first pass of `trials` draws to estimate E[Y] and a second independent
/// pass for the tail itself (the grid's streams blocks .. 2·blocks-1).
TailEstimate estimate_lower_tail(const ReadKFamily& family,
                                 std::uint64_t trials,
                                 std::span<const double> deltas,
                                 util::Rng& rng,
                                 McOptions options = {});

}  // namespace arbmis::readk
