#include "mis/metivier.h"

#include <algorithm>
#include <limits>

namespace arbmis::mis {

namespace {

/// n^4 computed with saturation: at n = 2^16 the product is exactly 2^64
/// and plain multiplication wraps to 0, which would collapse every
/// priority to the same value (ties never win, so the competition would
/// spin forever).
std::uint64_t luby_a_range(graph::NodeId num_nodes) noexcept {
  const auto n = std::max<std::uint64_t>(num_nodes, 2);
  std::uint64_t range = 1;
  for (int i = 0; i < 4; ++i) {
    if (range > std::numeric_limits<std::uint64_t>::max() / n) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    range *= n;
  }
  return range;
}

}  // namespace

MetivierMis::MetivierMis(graph::GraphView g, Options options)
    : options_(options),
      luby_a_range_(luby_a_range(g.num_nodes())),
      state_(g.num_nodes(), MisState::kUndecided),
      my_priority_(g.num_nodes(), 0) {}

void MetivierMis::start_iteration(sim::NodeContext& ctx) {
  const graph::NodeId v = ctx.id();
  std::uint64_t r = v;
  switch (options_.priority) {
    case PriorityRule::kRandom:
      r = ctx.rng().next();
      break;
    case PriorityRule::kLubyA:
      r = ctx.rng().below(luby_a_range_) + 1;
      break;
    case PriorityRule::kId:
      break;
  }
  my_priority_[v] = r;
  ctx.broadcast(kPriority, r);
}

void MetivierMis::on_start(sim::NodeContext& ctx) {
  if (ctx.degree() == 0) {
    // Isolated nodes join immediately.
    state_[ctx.id()] = MisState::kInMis;
    ctx.halt();
    return;
  }
  start_iteration(ctx);
}

void MetivierMis::on_round(sim::NodeContext& ctx,
                           std::span<const sim::Message> inbox) {
  const graph::NodeId v = ctx.id();
  // A neighbor joined last round: leave covered. This takes precedence
  // over resolving, which is what keeps adjacent wins in consecutive
  // rounds impossible (a winner broadcasts kJoined instead of a priority,
  // so its neighbors cover before they could next win).
  for (const sim::Message& m : inbox) {
    if (m.tag == kJoined) {
      state_[v] = MisState::kCovered;
      ctx.halt();
      return;
    }
  }
  // Resolve the competition whose priorities were drawn last round. A
  // neighbor that halts covered this same round may have sent a final
  // priority; losing to such a ghost priority is harmless (it can only
  // delay this node by one iteration, never create a conflict).
  bool winner = true;
  bool any_active_neighbor = false;
  for (const sim::Message& m : inbox) {
    if (m.tag != kPriority) continue;
    any_active_neighbor = true;
    if (m.payload >= my_priority_[v]) winner = false;  // ties never win
  }
  if (winner) {
    state_[v] = MisState::kInMis;
    if (any_active_neighbor) ctx.broadcast(kJoined, 0);
    ctx.halt();
    return;
  }
  start_iteration(ctx);
}

MisResult MetivierMis::run(graph::GraphView g, std::uint64_t seed,
                           Options options, std::uint32_t max_rounds) {
  MetivierMis algorithm(g, options);
  sim::Network net(g, seed);
  MisResult result;
  result.stats = net.run(algorithm, max_rounds);
  result.state = algorithm.state_;
  return result;
}

MisResult luby_a_mis(graph::GraphView g, std::uint64_t seed,
                     std::uint32_t max_rounds) {
  return MetivierMis::run(g, seed, {.priority = PriorityRule::kLubyA},
                          max_rounds);
}

}  // namespace arbmis::mis
