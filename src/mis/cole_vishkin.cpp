#include "mis/cole_vishkin.h"

#include <bit>
#include <stdexcept>

#include "mis/color_sweep.h"

namespace arbmis::mis {

namespace {
constexpr std::uint32_t kHelloRounds = 1;     // child discovery
constexpr std::uint32_t kReducePairs = 3;     // colors 5, 4, 3 removed
}  // namespace

std::uint32_t ColeVishkin::reduction_iterations(graph::NodeId n) noexcept {
  std::uint64_t max_value = n > 0 ? n - 1 : 0;
  std::uint32_t iterations = 0;
  while (max_value > 5) {
    const auto bits = static_cast<std::uint64_t>(std::bit_width(max_value));
    max_value = 2 * (bits - 1) + 1;
    ++iterations;
  }
  return iterations;
}

std::uint32_t ColeVishkin::total_rounds(graph::NodeId n) noexcept {
  return kHelloRounds + reduction_iterations(n) + 2 * kReducePairs;
}

ColeVishkin::ColeVishkin(graph::GraphView g,
                         std::span<const graph::NodeId> parent)
    : graph_(g),
      reduction_rounds_(reduction_iterations(g.num_nodes())),
      parent_port_(g.num_nodes(), graph::kNoParent),
      child_ports_(g.num_nodes()),
      color_(g.num_nodes(), 0),
      pre_shift_color_(g.num_nodes(), 0),
      color3_(g.num_nodes(), 0) {
  if (parent.size() != g.num_nodes()) {
    throw std::invalid_argument("ColeVishkin: parent array size mismatch");
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (parent[v] == graph::kNoParent) continue;
    parent_port_[v] = g.port_of(v, parent[v]);  // throws if not an edge
  }
  // Reject cycles: follow pointers with path marking.
  std::vector<unsigned char> mark(g.num_nodes(), 0);
  for (graph::NodeId start = 0; start < g.num_nodes(); ++start) {
    if (mark[start] != 0) continue;
    std::vector<graph::NodeId> chain;
    graph::NodeId v = start;
    while (v != graph::kNoParent && mark[v] == 0) {
      mark[v] = 1;
      chain.push_back(v);
      v = parent[v];
    }
    if (v != graph::kNoParent && mark[v] == 1) {
      throw std::invalid_argument("ColeVishkin: parent pointers form a cycle");
    }
    for (graph::NodeId u : chain) mark[u] = 2;
  }
}

void ColeVishkin::send_color_to_children(sim::NodeContext& ctx,
                                         std::uint64_t color) {
  for (graph::NodeId port : child_ports_[ctx.id()]) {
    ctx.send(port, kColor, color);
  }
}

std::uint64_t ColeVishkin::parent_color(
    std::span<const sim::Message> inbox) const {
  for (const sim::Message& m : inbox) {
    if (m.tag == kColor) return m.payload;
  }
  return 0;  // roots never call this with a kColor expectation
}

void ColeVishkin::on_start(sim::NodeContext& ctx) {
  const graph::NodeId v = ctx.id();
  color_[v] = v;
  if (parent_port_[v] != graph::kNoParent) {
    ctx.send(parent_port_[v], kHello, 0);
  }
}

void ColeVishkin::on_round(sim::NodeContext& ctx,
                           std::span<const sim::Message> inbox) {
  const graph::NodeId v = ctx.id();
  const std::uint32_t round = ctx.round();
  const bool has_parent = parent_port_[v] != graph::kNoParent;

  if (round == 1) {
    // Child discovery: every kHello came from a child.
    for (const sim::Message& m : inbox) {
      if (m.tag == kHello) {
        child_ports_[v].push_back(graph_.port_of(v, m.src));
      }
    }
    send_color_to_children(ctx, color_[v]);
    return;
  }

  const std::uint32_t reduce_begin = kHelloRounds + 1;  // first CV round
  const std::uint32_t reduce_end = kHelloRounds + reduction_rounds_;
  const std::uint32_t pairs_begin = reduce_end + 1;
  const std::uint32_t pairs_end = reduce_end + 2 * kReducePairs;

  if (round >= reduce_begin && round <= reduce_end) {
    // One Cole–Vishkin iteration: new color = 2i + bit_i(old), where i is
    // the lowest bit position where old differs from the parent's color.
    if (has_parent) {
      const std::uint64_t pc = parent_color(inbox);
      const std::uint64_t diff = color_[v] ^ pc;
      const auto i = static_cast<std::uint64_t>(std::countr_zero(diff));
      color_[v] = 2 * i + ((color_[v] >> i) & 1);
    } else {
      color_[v] = color_[v] & 1;
    }
    send_color_to_children(ctx, color_[v]);
  } else if (round >= pairs_begin && round <= pairs_end) {
    const std::uint32_t offset = round - pairs_begin;  // 0..5
    const std::uint32_t target = 5 - offset / 2;       // 5, 5, 4, 4, 3, 3
    if (offset % 2 == 0) {
      // Shift-down: adopt the parent's color; all of v's children now
      // share v's previous color, so v keeps it for the recolor step.
      // Roots pick a fresh color from {0,1,2} different from their old
      // color — picking mod 6 could reintroduce a target color that an
      // earlier pair already cleared.
      pre_shift_color_[v] = color_[v];
      color_[v] = has_parent ? parent_color(inbox) : (color_[v] + 1) % 3;
    } else {
      // Recolor nodes of the target color into {0,1,2}. Excluded values:
      // the parent's current color and the children's common color.
      if (color_[v] == target) {
        const std::uint64_t parent_c =
            has_parent ? parent_color(inbox) : ~std::uint64_t{0};
        const std::uint64_t children_c = pre_shift_color_[v];
        for (std::uint64_t candidate = 0; candidate < 3; ++candidate) {
          if (candidate != parent_c && candidate != children_c) {
            color_[v] = candidate;
            break;
          }
        }
      }
    }
    send_color_to_children(ctx, color_[v]);
    if (round == pairs_end) {
      color3_[v] = static_cast<std::uint8_t>(color_[v]);
      ctx.halt();
    }
  }
}

ColeVishkin::Result ColeVishkin::run(graph::GraphView g,
                                     std::span<const graph::NodeId> parent,
                                     std::uint64_t seed) {
  ColeVishkin algorithm(g, parent);
  sim::Network net(g, seed);
  Result result;
  result.stats = net.run(algorithm, total_rounds(g.num_nodes()) + 1);
  result.colors = algorithm.color3_;
  return result;
}

MisResult cole_vishkin_mis(graph::GraphView g,
                           std::span<const graph::NodeId> parent,
                           std::uint64_t seed) {
  ColeVishkin coloring(g, parent);
  sim::Network net(g, seed);
  MisResult result;
  result.stats =
      net.run(coloring, ColeVishkin::total_rounds(g.num_nodes()) + 1);
  ColorSweepMis sweep(
      g, {coloring.colors().begin(), coloring.colors().end()}, 3);
  result.stats.absorb(net.run(sweep, sweep.total_rounds() + 1));
  result.state = sweep.states();
  return result;
}

}  // namespace arbmis::mis
