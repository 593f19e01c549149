// Offline side of the benchmark: the paper's regime (Δ ≫ α). One graph
// hubbed_forest_union(2^16, 2, 64) per seed, stored with write_gr and
// reopened through MappedGraph::open, then a fixed number of checked
// core::arb_mis solves and engine::solve(kTestAndSet) calls on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/arb_mis.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "mis/verifier.h"
#include "util/rng.h"

namespace perfbench {

namespace storage = arbmis::graph::storage;

/// Δ ≈ 1k ≫ α = 2. At 2^20 nodes (about 500 MiB in arb_mis) the solves'
/// time followed the memory system the whole host shares: the mean of 8
/// solves spread by up to 0.25 over ten runs, and the engine's mean of 30
/// calls by 0.19 and 0.31. At 2^16 the engine's arrays (about 3 MiB) stay
/// in one core's L2 and arb_mis peaks at about 35 MiB.
inline constexpr arbmis::graph::NodeId kOfflineNodes = 1u << 16;
inline constexpr arbmis::graph::NodeId kOfflineForests = 2;
inline constexpr arbmis::graph::NodeId kOfflineHubs = 64;
inline constexpr std::uint32_t kSetupRepeats = 7;

inline arbmis::graph::Graph make_offline_graph(std::uint64_t seed) {
  arbmis::util::Rng rng(mix64(seed, 0x0FF1));
  return arbmis::graph::gen::hubbed_forest_union(kOfflineNodes, kOfflineForests,
                                                 kOfflineHubs, rng);
}

inline std::uint64_t solve_seed(std::uint64_t seed, std::uint64_t i) {
  return mix64(seed, 0x5000 + i);
}
inline std::uint64_t engine_seed(std::uint64_t seed, std::uint64_t i) {
  return mix64(seed, 0xE000 + i);
}

/// Chained hash of a labeling (the determinism witness of a solve).
inline std::uint64_t state_hash(const std::vector<arbmis::mis::MisState>& s) {
  std::uint64_t h = s.size();
  for (const arbmis::mis::MisState v : s) {
    h = mix64(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

/// Generates the graph in a child process and writes it there
/// kSetupRepeats times, returning each write_gr time in ms. Generation is
/// the benchmark's input, not the program's work: keeping it out of this
/// process keeps its memory out of the measured peak RSS.
inline std::vector<double> write_graph_in_child(std::uint64_t seed,
                                                const std::string& path) {
  return in_child(kSetupRepeats, [&](double* times) {
    const arbmis::graph::Graph g = make_offline_graph(seed);
    for (std::uint32_t k = 0; k < kSetupRepeats; ++k) {
      const std::uint64_t start = now_ns();
      storage::write_gr(path, g);
      times[k] = ms_since(start);
    }
  });
}

/// Tallies of the offline stream.
struct OfflineTally {
  std::vector<double> solve_ms;   ///< arb_mis + mis::verify, per solve
  std::vector<double> engine_ms;  ///< engine::solve(kTestAndSet), per call
  std::uint64_t rounds = 0;         ///< arb_mis CONGEST rounds
  std::uint64_t messages = 0;
  std::uint64_t engine_rounds = 0;  ///< kTestAndSet fixpoint iterations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
};

/// The checked offline stream on `g`: `solves` arb_mis solves, each
/// verified by mis::verify, then `engine_calls` engine::solve(kTestAndSet)
/// calls, each compared with the kSequentialGreedy oracle (untimed).
inline OfflineTally run_offline_stream(arbmis::graph::GraphView g,
                                       std::uint64_t seed,
                                       std::uint64_t solves,
                                       std::uint64_t engine_calls) {
  OfflineTally t;
  arbmis::core::ArbMisOptions options;
  options.alpha = 2;
  for (std::uint64_t i = 0; i < solves; ++i) {
    const Span span("bench.solve", i + 1);
    const std::uint64_t start = now_ns();
    arbmis::core::ArbMisResult r = [&] {
      const Span call("core.arb_mis");
      return arbmis::core::arb_mis(g, options, solve_seed(seed, i));
    }();
    const bool ok = [&] {
      const Span call("mis.verify");
      return arbmis::mis::verify(g, r.mis).ok();
    }();
    t.solve_ms.push_back(ms_since(start));
    ++t.attempted;
    if (!ok) ++t.failed;
    t.rounds += r.mis.stats.rounds;
    t.messages += r.mis.stats.messages;
    t.digest = mix64(t.digest, state_hash(r.mis.state));
  }
  for (std::uint64_t j = 0; j < engine_calls; ++j) {
    arbmis::engine::EngineOptions eo;
    eo.seed = engine_seed(seed, j);
    const std::uint64_t start = now_ns();
    const arbmis::engine::EngineResult tas = [&] {
      const Span call("engine.solve", solves + j + 1);
      return arbmis::engine::solve(g, arbmis::engine::EngineKind::kTestAndSet,
                                   eo);
    }();
    t.engine_ms.push_back(ms_since(start));
    t.engine_rounds += tas.rounds;
    const arbmis::engine::EngineResult oracle = arbmis::engine::solve(
        g, arbmis::engine::EngineKind::kSequentialGreedy, eo);
    ++t.attempted;
    if (tas.in_mis != oracle.in_mis) ++t.failed;
    t.digest = mix64(t.digest, tas.labels_hash());
  }
  return t;
}

}  // namespace perfbench
