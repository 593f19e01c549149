#include "readk/events.h"

#include <algorithm>

#include "readk/bounds.h"
#include "readk/trial_grid.h"

namespace arbmis::readk {

namespace {

std::uint64_t max_degree_of(graph::GraphView g,
                            std::span<const graph::NodeId> members) {
  std::uint64_t max_degree = 0;
  for (graph::NodeId v : members) {
    max_degree = std::max<std::uint64_t>(max_degree, g.degree(v));
  }
  return max_degree;
}

/// One grid block of an event kernel: its successes, its summed per-trial
/// metric, and event 3's winner flags (scratch, sized once per block).
struct EventBlock {
  std::uint64_t successes = 0;
  double metric_total = 0.0;
  std::vector<std::uint8_t> wins;

  void add(bool success, double metric) {
    successes += success;
    metric_total += metric;
  }
};

/// Runs an event kernel inline on the readk trial grid: each trial draws
/// one priority r[v] per node of `g` and calls trial(block, r).
template <typename Trial>
EventEstimate estimate_event(graph::GraphView g, std::uint64_t trials,
                             util::Rng& rng, double paper_bound,
                             const EventBlock& fresh, const Trial& trial) {
  const detail::TrialGrid grid(rng, trials, /*num_threads=*/0);
  const std::vector<EventBlock> blocks =
      grid.run(0, g.num_nodes(), fresh, trial);
  EventEstimate estimate;
  estimate.trials = trials;
  estimate.paper_bound = paper_bound;
  double metric_total = 0.0;
  for (const EventBlock& block : blocks) {
    estimate.successes += block.successes;
    metric_total += block.metric_total;
  }
  detail::set_proportion(estimate, estimate.successes, trials);
  estimate.mean_metric = detail::ratio(metric_total, trials);
  return estimate;
}

}  // namespace

EventEstimate estimate_event1(graph::GraphView g,
                              const graph::Orientation& orientation,
                              std::span<const graph::NodeId> members,
                              std::uint64_t alpha, std::uint64_t trials,
                              util::Rng& rng) {
  return estimate_event(
      g, trials, rng,
      event1_bound(members.size(), max_degree_of(g, members), alpha),
      EventBlock{}, [&](EventBlock& block, std::span<const double> r) {
        std::uint64_t winners = 0;
        for (graph::NodeId v : members) {
          bool beats_children = true;
          for (graph::NodeId c : orientation.children(v)) {
            if (r[c] >= r[v]) {
              beats_children = false;
              break;
            }
          }
          if (beats_children && !orientation.children(v).empty()) ++winners;
        }
        block.add(winners > 0, static_cast<double>(winners));
      });
}

EventEstimate estimate_event2(graph::GraphView g,
                              const graph::Orientation& orientation,
                              std::span<const graph::NodeId> members,
                              std::uint64_t alpha, std::uint64_t trials,
                              util::Rng& rng) {
  // All nodes are competitive in this kernel, so the read parameter is
  // the largest degree (a priority can influence at most that many
  // indicators); the theorem uses rho_k there.
  const double paper_bound =
      1.0 - event2_failure_bound(members.size(), max_degree_of(g, members),
                                 alpha);
  const double target = static_cast<double>(members.size()) /
                        (2.0 * static_cast<double>(std::max<std::uint64_t>(
                                   alpha, 1)));
  return estimate_event(
      g, trials, rng, paper_bound, EventBlock{},
      [&](EventBlock& block, std::span<const double> r) {
        std::uint64_t beat_parents = 0;
        for (graph::NodeId v : members) {
          bool beats = true;
          for (graph::NodeId p : orientation.parents(v)) {
            if (r[p] >= r[v]) {
              beats = false;
              break;
            }
          }
          beat_parents += beats;
        }
        block.add(static_cast<double>(beat_parents) > target,
                  static_cast<double>(beat_parents) /
                      std::max<double>(static_cast<double>(members.size()),
                                       1.0));
      });
}

EventEstimate estimate_event3(graph::GraphView g,
                              std::span<const graph::NodeId> members,
                              std::uint64_t alpha, std::uint64_t trials,
                              util::Rng& rng) {
  const double fraction = event3_elimination_fraction(alpha);
  return estimate_event(
      g, trials, rng, fraction,
      EventBlock{.wins = std::vector<std::uint8_t>(g.num_nodes())},
      [&](EventBlock& block, std::span<const double> r) {
        // One Métivier iteration on the whole graph: v wins iff r(v)
        // beats every neighbor.
        std::vector<std::uint8_t>& wins = block.wins;
        for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
          bool winner = true;
          for (graph::NodeId w : g.neighbors(v)) {
            if (r[w] >= r[v]) {
              winner = false;
              break;
            }
          }
          wins[v] = winner ? 1 : 0;
        }
        std::uint64_t eliminated = 0;
        for (graph::NodeId v : members) {
          bool gone = wins[v] != 0;
          if (!gone) {
            for (graph::NodeId w : g.neighbors(v)) {
              if (wins[w]) {
                gone = true;
                break;
              }
            }
          }
          eliminated += gone;
        }
        const double eliminated_fraction =
            static_cast<double>(eliminated) /
            std::max<double>(static_cast<double>(members.size()), 1.0);
        block.add(eliminated_fraction >= fraction, eliminated_fraction);
      });
}

std::vector<graph::NodeId> nodes_with_children(
    const graph::Orientation& orientation) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < orientation.num_nodes(); ++v) {
    if (!orientation.children(v).empty()) out.push_back(v);
  }
  return out;
}

std::vector<graph::NodeId> nodes_with_parents(
    const graph::Orientation& orientation) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < orientation.num_nodes(); ++v) {
    if (!orientation.parents(v).empty()) out.push_back(v);
  }
  return out;
}

}  // namespace arbmis::readk
