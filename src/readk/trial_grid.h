// The one Monte-Carlo trial driver of src/readk, shared by all five
// estimators (montecarlo.h, events.h). Internal: only readk's .cpp files
// include it, so no public header sees the worker pool.
//
// The grid: the caller's util::Rng gives one salt, the trials are cut into
// blocks of kBlockTrials, and block b of a pass at stream offset `offset`
// draws from Rng(salt).child(offset + b). Each block folds its trials into
// its own accumulator, and the caller merges the accumulators in block
// order. An estimate is therefore a pure function of the seed:
// num_threads = 0 runs the blocks inline, in order, on the calling thread,
// and a pool of any size returns the same bits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/thread_pool.h"
#include "util/rng.h"
#include "util/stats.h"

namespace arbmis::readk::detail {

class TrialGrid {
 public:
  /// Trials per block. Part of the sample's definition: changing it
  /// changes every estimate.
  static constexpr std::uint64_t kBlockTrials = 4096;

  /// Takes the grid's salt: an estimate advances `rng` by exactly one draw.
  TrialGrid(util::Rng& rng, std::uint64_t trials, std::uint32_t num_threads)
      : salt_(rng.next()), trials_(trials), num_threads_(num_threads) {}

  std::uint64_t blocks() const noexcept {
    return (trials_ + kBlockTrials - 1) / kBlockTrials;
  }

  /// Runs every trial once on child streams offset + b. A trial draws
  /// `width` fresh Uniform[0,1) base variables and calls
  /// trial(block, base) on its block's accumulator, a copy of `fresh` that
  /// also carries any per-block scratch. Returns the accumulators in block
  /// order.
  template <typename Block, typename Trial>
  std::vector<Block> run(std::uint64_t offset, std::uint32_t width,
                         const Block& fresh, const Trial& trial) const {
    std::vector<Block> done(blocks(), fresh);
    const auto run_blocks = [&](std::uint64_t first, std::uint64_t stride) {
      std::vector<double> base(width);
      for (std::uint64_t b = first; b < done.size(); b += stride) {
        util::Rng block_rng = salt_.child(offset + b);
        const std::uint64_t end = std::min(trials_, (b + 1) * kBlockTrials);
        for (std::uint64_t t = b * kBlockTrials; t < end; ++t) {
          for (double& x : base) x = block_rng.uniform01();
          trial(done[b], std::span<const double>(base));
        }
      }
    };
    // The thread count only decides who runs the blocks.
    if (num_threads_ > 0) {
      sim::ThreadPool::shared().run(
          num_threads_, [&](std::uint32_t w) { run_blocks(w, num_threads_); });
    } else {
      run_blocks(0, 1);
    }
    return done;
  }

 private:
  util::Rng salt_;
  std::uint64_t trials_;
  std::uint32_t num_threads_;
};

/// num / den, or 0 when den is 0.
inline double ratio(double num, std::uint64_t den) noexcept {
  return den > 0 ? num / static_cast<double>(den) : 0.0;
}

/// Sets out.probability and its 95% Wilson interval out.ci from `hits`
/// successes in `trials`.
template <typename Estimate>
void set_proportion(Estimate& out, std::uint64_t hits, std::uint64_t trials) {
  out.probability = ratio(static_cast<double>(hits), trials);
  out.ci = util::wilson_interval(hits, trials);
}

}  // namespace arbmis::readk::detail
