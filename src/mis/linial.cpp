#include "mis/linial.h"

#include <algorithm>
#include <stdexcept>

namespace arbmis::mis {

namespace {

bool is_prime(std::uint64_t x) noexcept {
  if (x < 2) return false;
  for (std::uint64_t d = 2; d * d <= x; ++d) {
    if (x % d == 0) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t x) noexcept {
  while (!is_prime(x)) ++x;
  return x;
}

/// True if base^exp >= target, without overflowing.
bool pow_at_least(std::uint64_t base, std::uint64_t exp,
                  std::uint64_t target) noexcept {
  std::uint64_t value = 1;
  for (std::uint64_t i = 0; i < exp; ++i) {
    if (value >= (target + base - 1) / base) return true;
    value *= base;
  }
  return value >= target;
}

/// Smallest r with r^exp >= target.
std::uint64_t ceil_root(std::uint64_t target, std::uint64_t exp) noexcept {
  std::uint64_t lo = 1;
  std::uint64_t hi = target;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pow_at_least(mid, exp, target)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

LinialSchedule::Step choose_step(std::uint64_t m, std::uint64_t degree) {
  LinialSchedule::Step best;
  best.colors_in = m;
  best.colors_out = ~std::uint64_t{0};
  for (std::uint64_t k = 1; k <= 64; ++k) {
    // Need q prime, q > k*degree (so a good evaluation point exists) and
    // q^(k+1) >= m (so every color has a distinct polynomial).
    const std::uint64_t q =
        next_prime(std::max(k * degree + 1, ceil_root(m, k + 1)));
    const std::uint64_t out = q * q;
    if (out < best.colors_out) {
      best.degree_k = k;
      best.prime_q = q;
      best.colors_out = out;
    }
    // Once k*degree alone forces q^2 past the best, no larger k helps.
    if ((k + 1) * degree + 1 > best.prime_q && best.colors_out <= m) break;
  }
  return best;
}

/// Evaluates the polynomial whose base-q digits are `color`, at point x.
std::uint64_t poly_eval(std::uint64_t color, std::uint64_t q, std::uint64_t k,
                        std::uint64_t x) noexcept {
  // Horner over the digits, most significant first.
  std::uint64_t digits[65];
  for (std::uint64_t i = 0; i <= k; ++i) {
    digits[i] = color % q;
    color /= q;
  }
  std::uint64_t value = 0;
  for (std::uint64_t i = k + 1; i-- > 0;) {
    value = (value * x + digits[i]) % q;
  }
  return value;
}

}  // namespace

LinialSchedule LinialSchedule::compute(std::uint64_t n,
                                       std::uint64_t max_degree) {
  LinialSchedule schedule;
  std::uint64_t m = std::max<std::uint64_t>(n, 1);
  const std::uint64_t degree = std::max<std::uint64_t>(max_degree, 1);
  while (true) {
    const Step step = choose_step(m, degree);
    if (step.colors_out >= m) break;  // fixed point reached
    schedule.steps.push_back(step);
    m = step.colors_out;
  }
  schedule.final_colors = m;
  return schedule;
}

LinialMis::LinialMis(graph::GraphView g, Options options)
    : schedule_(LinialSchedule::compute(g.num_nodes(),
                                        options.max_degree)),
      color_(g.num_nodes(), 0),
      state_(g.num_nodes(), MisState::kUndecided),
      covered_(g.num_nodes(), false) {
  final_round_ = static_cast<std::uint32_t>(schedule_.steps.size()) +
                 static_cast<std::uint32_t>(schedule_.final_colors) + 1;
}

std::uint64_t LinialMis::reduce_color(
    std::uint64_t my_color, const std::vector<std::uint64_t>& neighbor_colors,
    const LinialSchedule::Step& step) const {
  const std::uint64_t q = step.prime_q;
  const std::uint64_t k = step.degree_k;
  // Find x in GF(q) where my polynomial differs from every neighbor's.
  // At most k*degree <= k*D < q points are ruined, so some x works.
  for (std::uint64_t x = 0; x < q; ++x) {
    const std::uint64_t mine = poly_eval(my_color, q, k, x);
    bool good = true;
    for (std::uint64_t c : neighbor_colors) {
      if (poly_eval(c, q, k, x) == mine) {
        good = false;
        break;
      }
    }
    if (good) return x * q + mine;
  }
  throw std::logic_error(
      "LinialMis: no evaluation point found — the max_degree bound passed "
      "to the schedule is below the true maximum degree");
}

void LinialMis::on_start(sim::NodeContext& ctx) {
  color_[ctx.id()] = ctx.id();
  ctx.broadcast(kColor, color_[ctx.id()]);
}

void LinialMis::on_round(sim::NodeContext& ctx,
                         std::span<const sim::Message> inbox) {
  const graph::NodeId v = ctx.id();
  const std::uint32_t round = ctx.round();
  const auto reduction_rounds =
      static_cast<std::uint32_t>(schedule_.steps.size());

  if (round <= reduction_rounds) {
    std::vector<std::uint64_t> neighbor_colors;
    neighbor_colors.reserve(inbox.size());
    for (const sim::Message& m : inbox) {
      if (m.tag == kColor) neighbor_colors.push_back(m.payload);
    }
    color_[v] = reduce_color(color_[v], neighbor_colors,
                             schedule_.steps[round - 1]);
    if (round < reduction_rounds) {
      ctx.broadcast(kColor, color_[v]);
    }
    return;
  }

  // Color-class sweep: class (round - reduction_rounds - 1) joins.
  for (const sim::Message& m : inbox) {
    if (m.tag == kJoined) covered_[v] = true;
  }
  const std::uint64_t sweep_class = round - reduction_rounds - 1;
  if (sweep_class < schedule_.final_colors && !covered_[v] &&
      state_[v] == MisState::kUndecided && color_[v] == sweep_class) {
    state_[v] = MisState::kInMis;
    ctx.broadcast(kJoined, 0);
  }
  if (round == final_round_) {
    if (state_[v] == MisState::kUndecided) {
      state_[v] = covered_[v] ? MisState::kCovered : MisState::kInMis;
    }
    ctx.halt();
  }
}

MisResult LinialMis::run(graph::GraphView g, graph::NodeId max_degree,
                         std::uint64_t seed, std::uint32_t max_rounds) {
  LinialMis algorithm(g, Options{.max_degree = max_degree});
  sim::Network net(g, seed);
  MisResult result;
  result.stats = net.run(algorithm, max_rounds);
  result.state = algorithm.state_;
  return result;
}

}  // namespace arbmis::mis
