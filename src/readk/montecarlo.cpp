#include "readk/montecarlo.h"

#include "readk/trial_grid.h"

namespace arbmis::readk {

using detail::ratio;
using detail::set_proportion;
using detail::TrialGrid;

ConjunctionEstimate estimate_conjunction(const ReadKFamily& family,
                                         std::uint64_t trials,
                                         util::Rng& rng,
                                         McOptions options) {
  struct Block {
    std::uint64_t all_ones = 0;
    std::uint64_t indicator_ones = 0;
  };
  const TrialGrid grid(rng, trials, options.num_threads);
  const std::vector<Block> blocks = grid.run(
      0, family.num_base(), Block{},
      [&](Block& block, std::span<const double> base) {
        bool all = true;
        for (std::uint32_t j = 0; j < family.num_indicators(); ++j) {
          const bool y = family.evaluate(j, base);
          block.indicator_ones += y;
          all = all && y;
          // No early exit: indicator_ones feeds mean_indicator.
        }
        block.all_ones += all;
      });

  ConjunctionEstimate estimate;
  estimate.trials = trials;
  std::uint64_t indicator_ones = 0;
  for (const Block& block : blocks) {
    estimate.all_ones += block.all_ones;
    indicator_ones += block.indicator_ones;
  }
  set_proportion(estimate, estimate.all_ones, trials);
  estimate.mean_indicator =
      ratio(static_cast<double>(indicator_ones),
            trials * static_cast<std::uint64_t>(family.num_indicators()));
  return estimate;
}

TailEstimate estimate_lower_tail(const ReadKFamily& family,
                                 std::uint64_t trials,
                                 std::span<const double> deltas,
                                 util::Rng& rng,
                                 McOptions options) {
  const auto sum_of = [&](std::span<const double> base) {
    std::uint32_t sum = 0;
    for (std::uint32_t j = 0; j < family.num_indicators(); ++j) {
      sum += family.evaluate(j, base);
    }
    return sum;
  };
  const TrialGrid grid(rng, trials, options.num_threads);
  TailEstimate estimate;
  estimate.trials = trials;

  // Pass 1 (streams 0 .. blocks-1): E[Y]. Block sums fold in block order,
  // since double addition is not associative.
  const std::vector<double> block_sums =
      grid.run(0, family.num_base(), 0.0,
               [&](double& sum, std::span<const double> base) {
                 sum += sum_of(base);
               });
  double sum_total = 0.0;
  for (const double s : block_sums) sum_total += s;
  estimate.expected_sum = ratio(sum_total, trials);

  estimate.points.reserve(deltas.size());
  for (const double delta : deltas) {
    TailEstimate::Point point;
    point.delta = delta;
    point.threshold = (1.0 - delta) * estimate.expected_sum;
    estimate.points.push_back(point);
  }

  // Pass 2 (independent streams, offset by the block count): tail hits at
  // each threshold and the Welford moments of Y.
  struct Block {
    util::RunningStats stats;
    std::vector<std::uint64_t> hits;
  };
  std::vector<std::uint64_t> hits(deltas.size(), 0);
  const std::vector<Block> blocks = grid.run(
      grid.blocks(), family.num_base(), Block{{}, hits},
      [&](Block& block, std::span<const double> base) {
        const auto sum = static_cast<double>(sum_of(base));
        block.stats.add(sum);
        for (std::size_t i = 0; i < estimate.points.size(); ++i) {
          if (sum <= estimate.points[i].threshold) ++block.hits[i];
        }
      });
  for (const Block& block : blocks) {
    estimate.sum_stats.merge(block.stats);
    for (std::size_t i = 0; i < hits.size(); ++i) hits[i] += block.hits[i];
  }
  for (std::size_t i = 0; i < estimate.points.size(); ++i) {
    set_proportion(estimate.points[i], hits[i], trials);
  }
  return estimate;
}

}  // namespace arbmis::readk
