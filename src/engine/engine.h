// Shared-memory lock-free MIS engine family — the second execution model.
//
// The CONGEST simulator (sim/network.h) charges every algorithm per-message
// overhead that real shared-memory hardware does not pay; this module is
// the raw-speed ceiling it is measured against (DESIGN.md §8, EXPERIMENTS
// §E1). Two engines sit behind one `solve(GraphView, kind, options)`
// surface:
//
//   kTestAndSet       round-synchronous local-minima engine: every alive
//                     node with the smallest (priority, id) among its alive
//                     neighbors joins, then clears itself and its neighbors
//                     out of the alive set with relaxed stores. Each round
//                     scans only a frontier of the nodes still alive, which
//                     it compacts as it counts them.
//   kSequentialGreedy the reference oracle: plain sequential greedy over
//                     the priority order.
//
// Determinism contract. Priorities are a *pure function of (seed, node)* —
// one batched counter-based draw per node through util::mix64, no stateful
// generator — and every parallel phase reads only a snapshot written before
// the phase barrier, so the result is byte-identical for every thread
// count. Stronger still, both engines compute the *same set*: the
// lexicographically-first MIS with respect to the (priority, id) order,
// i.e. exactly what sequential greedy over that order produces. The
// EngineEquivalence matrix in tests/test_engine.cpp enforces both claims,
// and golden labels-hash pins in tests/test_determinism.cpp freeze the
// bytes per seed.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace arbmis::engine {

enum class EngineKind : std::uint8_t {
  kTestAndSet = 0,
  kSequentialGreedy = 1,
};

/// All engines, in declaration order (for test matrices and benches).
std::span<const EngineKind> all_engines() noexcept;

/// Stable lowercase name ("tas", "greedy").
std::string_view engine_name(EngineKind kind) noexcept;

struct EngineOptions {
  std::uint64_t seed = 12345;

  /// Worker threads for kTestAndSet; 0 and 1 both run on the calling
  /// thread. (sim::NetworkOptions::num_threads = 0 differs: it means the
  /// sim::ScopedNumThreads process default.) The result is byte-identical
  /// across all values by construction.
  std::uint32_t num_threads = 0;
};

struct EngineResult {
  /// Byte mask, 1 = member (uint8_t so it can feed mis::verify_mask).
  std::vector<std::uint8_t> in_mis;

  /// Frontier rounds (kTestAndSet; Fischer–Noever's dependency length),
  /// or 1 (kSequentialGreedy).
  std::uint64_t rounds = 0;

  std::uint64_t mis_size() const noexcept {
    std::uint64_t count = 0;
    for (const std::uint8_t m : in_mis) count += m;
    return count;
  }

  /// FNV-1a over the member mask — the byte-identity witness the
  /// cross-thread and golden-pin tests compare.
  std::uint64_t labels_hash() const noexcept;
};

/// Batched counter-based priority fill: priority[v] = mix64(seed', v),
/// a pure function of (seed, node) with no sequential generator state, so
/// the batch is trivially parallel and identical however it is chunked.
/// Ties (astronomically unlikely) break by node id everywhere.
std::vector<std::uint64_t> node_priorities(std::uint64_t seed,
                                           graph::NodeId n);

/// The processing order the priorities induce: node ids sorted by
/// (priority, id) ascending. This is the exact permutation kSequentialGreedy
/// scans — handing it to mis::greedy_mis must reproduce the engine's set.
std::vector<graph::NodeId> priority_order(
    std::span<const std::uint64_t> priority);

/// Runs one engine. Thread-count-invariant and a pure function of
/// (graph, kind, options.seed): num_threads must not change the set.
EngineResult solve(graph::GraphView g, EngineKind kind,
                   const EngineOptions& options = {});

}  // namespace arbmis::engine
