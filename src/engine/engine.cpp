#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "engine/internal.h"
#include "sim/thread_pool.h"
#include "util/rng.h"

namespace arbmis::engine {

namespace {
constexpr std::array<EngineKind, 2> kAllEngines{
    EngineKind::kTestAndSet, EngineKind::kSequentialGreedy};

/// Domain-separation constant so engine priorities are not the same stream
/// as any other mix64(seed, v) user (e.g. fault plan coins).
constexpr std::uint64_t kPriorityDomain = 0x9d5c1f8a2e6b4703ULL;
}  // namespace

std::span<const EngineKind> all_engines() noexcept { return kAllEngines; }

std::string_view engine_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kTestAndSet:
      return "tas";
    case EngineKind::kSequentialGreedy:
      return "greedy";
  }
  return "unknown";
}

std::uint64_t EngineResult::labels_hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, matching the
  for (const std::uint8_t m : in_mis) {     // determinism pins' style
    h ^= m;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint64_t> node_priorities(std::uint64_t seed,
                                           graph::NodeId n) {
  std::vector<std::uint64_t> priority(n);
  const std::uint64_t base = util::mix64(seed, kPriorityDomain);
  for (graph::NodeId v = 0; v < n; ++v) {
    priority[v] = util::mix64(base, v);
  }
  return priority;
}

std::vector<graph::NodeId> priority_order(
    std::span<const std::uint64_t> priority) {
  std::vector<graph::NodeId> order(priority.size());
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  std::sort(order.begin(), order.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return internal::less(priority, a, b);
            });
  return order;
}

std::uint32_t num_ranges(const EngineOptions& options) {
  return options.num_threads != 0 ? options.num_threads
                                  : sim::ThreadPool::shared().participants();
}

EngineResult solve(graph::GraphView g, EngineKind kind,
                   const EngineOptions& options) {
  const std::vector<std::uint64_t> priority =
      node_priorities(options.seed, g.num_nodes());
  switch (kind) {
    case EngineKind::kTestAndSet:
      return internal::solve_tas(g, options, priority);
    case EngineKind::kSequentialGreedy:
      return internal::solve_greedy(g, priority);
  }
  throw std::invalid_argument("engine::solve: unknown EngineKind");
}

}  // namespace arbmis::engine
