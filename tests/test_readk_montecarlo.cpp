// Monte-Carlo engine tests: estimates match closed forms on analyzable
// families, the paper's bounds hold empirically (Theorems 1.1, 1.2), and
// the one block grid every estimator samples on is thread-count-invariant
// and takes one draw of the caller's rng.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>

#include "graph/generators.h"
#include "readk/bounds.h"
#include "readk/events.h"
#include "readk/family.h"
#include "readk/montecarlo.h"

namespace arbmis::readk {
namespace {

constexpr std::uint64_t kTrials = 20000;

TEST(Conjunction, IndependentFamilyMatchesClosedForm) {
  util::Rng rng(1);
  const ReadKFamily family = independent_family(8, 0.8);
  const ConjunctionEstimate estimate =
      estimate_conjunction(family, kTrials, rng);
  const double truth = std::pow(0.8, 8);  // ~0.168
  EXPECT_TRUE(estimate.ci.contains(truth))
      << estimate.probability << " vs " << truth;
  EXPECT_NEAR(estimate.mean_indicator, 0.8, 0.01);
}

TEST(Conjunction, SharedBlockIsExactlyTheTheorem11Bound) {
  // For the block family P(all) = p^(n/k) exactly — the bound is tight.
  util::Rng rng(2);
  const std::uint32_t n = 12, k = 4;
  const double p = 0.7;
  const ReadKFamily family = shared_block_family(n, k, p);
  const ConjunctionEstimate estimate =
      estimate_conjunction(family, kTrials, rng);
  const double bound = conjunction_bound(p, n, k);
  EXPECT_TRUE(estimate.ci.contains(bound))
      << estimate.probability << " vs " << bound;
}

TEST(Conjunction, Theorem11HoldsAcrossFamilies) {
  util::Rng rng(3);
  for (std::uint32_t k : {1u, 2u, 4u}) {
    for (double p : {0.5, 0.8}) {
      const ReadKFamily family = shared_block_family(16, k, p);
      const ConjunctionEstimate estimate =
          estimate_conjunction(family, kTrials, rng);
      const double bound = conjunction_bound(p, 16, family.read_k());
      // The bound must not be violated beyond CI noise.
      EXPECT_LE(estimate.ci.lo, bound + 1e-9)
          << "k=" << k << " p=" << p;
    }
  }
}

TEST(LowerTail, ExpectedSumMatches) {
  util::Rng rng(4);
  const ReadKFamily family = independent_family(64, 0.25);
  const std::vector<double> deltas{0.5};
  const TailEstimate estimate =
      estimate_lower_tail(family, kTrials, deltas, rng);
  EXPECT_NEAR(estimate.expected_sum, 16.0, 0.5);
}

TEST(LowerTail, Theorem12HoldsOnBlockFamily) {
  util::Rng rng(5);
  const std::uint32_t n = 64, k = 4;
  const double p = 0.5;
  const ReadKFamily family = shared_block_family(n, k, p);
  const std::vector<double> deltas{0.25, 0.5, 0.75};
  const TailEstimate estimate =
      estimate_lower_tail(family, kTrials, deltas, rng);
  for (const auto& point : estimate.points) {
    const double bound =
        lower_tail_form2(point.delta, estimate.expected_sum, k);
    EXPECT_LE(point.ci.lo, bound + 1e-9) << "delta=" << point.delta;
  }
}

TEST(LowerTail, BlockFamilyBeatsChernoffDemonstration) {
  // The point of read-k bounds: with k-correlated blocks the lower tail
  // is genuinely fatter than Chernoff allows for independent variables —
  // the empirical tail must exceed the k=1 Chernoff bound somewhere.
  util::Rng rng(6);
  const std::uint32_t n = 60, k = 6;
  const ReadKFamily family = shared_block_family(n, k, 0.5);
  const std::vector<double> deltas{0.6};
  const TailEstimate estimate =
      estimate_lower_tail(family, 50000, deltas, rng);
  const double chernoff =
      chernoff_lower_tail(0.6, estimate.expected_sum);
  EXPECT_GT(estimate.points[0].probability, chernoff)
      << "correlated family should violate the independent-case bound";
  // ...while the read-k bound still holds.
  const double readk_bound =
      lower_tail_form2(0.6, estimate.expected_sum, k);
  EXPECT_LE(estimate.points[0].ci.lo, readk_bound + 1e-9);
}

TEST(LowerTail, IndependentFamilyWithinChernoff) {
  util::Rng rng(7);
  const ReadKFamily family = independent_family(80, 0.5);
  const std::vector<double> deltas{0.3, 0.5};
  const TailEstimate estimate =
      estimate_lower_tail(family, kTrials, deltas, rng);
  for (const auto& point : estimate.points) {
    const double bound =
        chernoff_lower_tail(point.delta, estimate.expected_sum);
    EXPECT_LE(point.ci.lo, bound + 1e-9);
  }
}

TEST(MonteCarlo, ParallelSamplerIsThreadCountInvariant) {
  // Every estimator samples one grid of fixed 4096-trial blocks with
  // per-block child streams, merged in block order, so the estimate is a
  // pure function of the seed: the inline grid (0) and every pool size
  // must agree bit for bit. 9 blocks, the last one ragged, so 2, 3 and 8
  // workers each own a different set of blocks.
  const ReadKFamily family = shared_block_family(16, 4, 0.8);
  const std::uint64_t trials = 8ULL * 4096 + 1000;
  const std::vector<std::uint32_t> thread_counts{0, 1, 2, 3, 8};

  util::Rng base_rng(42);
  const ConjunctionEstimate base =
      estimate_conjunction(family, trials, base_rng);
  for (const std::uint32_t threads : thread_counts) {
    util::Rng rng(42);
    const ConjunctionEstimate estimate =
        estimate_conjunction(family, trials, rng, {.num_threads = threads});
    EXPECT_EQ(estimate.all_ones, base.all_ones) << "threads=" << threads;
    EXPECT_EQ(estimate.mean_indicator, base.mean_indicator)
        << "threads=" << threads;
  }

  const std::vector<double> deltas{0.25, 0.5};
  util::Rng tail_base_rng(43);
  const TailEstimate tail_base =
      estimate_lower_tail(family, trials, deltas, tail_base_rng);
  for (const std::uint32_t threads : thread_counts) {
    util::Rng rng(43);
    const TailEstimate tail = estimate_lower_tail(family, trials, deltas, rng,
                                                  {.num_threads = threads});
    EXPECT_EQ(tail.expected_sum, tail_base.expected_sum)
        << "threads=" << threads;
    ASSERT_EQ(tail.points.size(), tail_base.points.size());
    for (std::size_t i = 0; i < tail.points.size(); ++i) {
      EXPECT_EQ(tail.points[i].probability, tail_base.points[i].probability)
          << "threads=" << threads << " delta=" << tail.points[i].delta;
    }
    EXPECT_EQ(tail.sum_stats.count(), tail_base.sum_stats.count());
    EXPECT_EQ(tail.sum_stats.mean(), tail_base.sum_stats.mean())
        << "threads=" << threads;
    EXPECT_EQ(tail.sum_stats.variance(), tail_base.sum_stats.variance())
        << "threads=" << threads;
  }
}

TEST(MonteCarlo, ParallelSamplerAgreesStatisticallyWithLegacy) {
  // There is no second sampler left to compare against: the inline grid
  // is the pool's grid run on the calling thread. Its interval must hold
  // the closed form, and a 4-worker pool must return the same estimate.
  const ReadKFamily family = shared_block_family(12, 4, 0.7);
  const double truth = std::pow(0.7, 3);
  util::Rng inline_rng(9);
  const ConjunctionEstimate inline_grid =
      estimate_conjunction(family, kTrials, inline_rng);
  util::Rng pool_rng(9);
  const ConjunctionEstimate pool = estimate_conjunction(
      family, kTrials, pool_rng, {.num_threads = 4});
  EXPECT_TRUE(inline_grid.ci.contains(truth))
      << inline_grid.probability << " vs " << truth;
  EXPECT_EQ(inline_grid.all_ones, pool.all_ones);
  EXPECT_EQ(inline_grid.probability, pool.probability);
}

TEST(MonteCarlo, EachEstimatorTakesOneDrawOfTheCallersRng) {
  // The grid takes one salt from the caller's stream and draws every trial
  // from child streams of it, so each of the five estimators advances the
  // caller's rng by exactly one word, whatever the trial count.
  const ReadKFamily family = shared_block_family(8, 2, 0.5);
  const std::vector<double> deltas{0.5};
  util::Rng graph_rng(3);
  const graph::Graph g = graph::gen::union_of_random_forests(60, 2, graph_rng);
  const graph::Orientation orientation = graph::degeneracy_orientation(g);
  const auto children = nodes_with_children(orientation);
  const auto parents = nodes_with_parents(orientation);
  const std::vector<std::pair<
      const char*, std::function<void(std::uint64_t, util::Rng&)>>>
      estimators{
          {"conjunction",
           [&](std::uint64_t t, util::Rng& rng) {
             estimate_conjunction(family, t, rng);
           }},
          {"lower_tail",
           [&](std::uint64_t t, util::Rng& rng) {
             estimate_lower_tail(family, t, deltas, rng);
           }},
          {"event1",
           [&](std::uint64_t t, util::Rng& rng) {
             estimate_event1(g, orientation, children, 2, t, rng);
           }},
          {"event2",
           [&](std::uint64_t t, util::Rng& rng) {
             estimate_event2(g, orientation, parents, 2, t, rng);
           }},
          {"event3",
           [&](std::uint64_t t, util::Rng& rng) {
             estimate_event3(g, children, 2, t, rng);
           }},
      };
  util::Rng once(77);
  once.next();
  const std::uint64_t expected = once.next();
  for (const auto& [name, estimate] : estimators) {
    for (const std::uint64_t trials : {0ULL, 5000ULL}) {
      util::Rng rng(77);
      estimate(trials, rng);
      EXPECT_EQ(rng.next(), expected) << name << " trials=" << trials;
    }
  }
}

TEST(MonteCarlo, ZeroTrials) {
  util::Rng rng(8);
  const ReadKFamily family = independent_family(4, 0.5);
  const ConjunctionEstimate estimate = estimate_conjunction(family, 0, rng);
  EXPECT_EQ(estimate.probability, 0.0);
  EXPECT_EQ(estimate.trials, 0u);
}

}  // namespace
}  // namespace arbmis::readk
