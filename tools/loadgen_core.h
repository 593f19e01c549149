// Shared mixed-workload core of tools/mis_loadgen and bench/bench_serve.
//
// Each simulated client owns one graph (distinct content and params seed
// per client index, so totals are independent of how the server
// interleaves connections) and walks a fixed phase sequence:
//
//   LOAD (inline arboricity-2 graph) -> COMPUTE xK (first a cache miss,
//   the rest must be cache hits with identical labels hashes) -> QUERY
//   batches -> UPDATE_EDGES batches (every reply must certify; repairs
//   counted) -> VERIFY -> STATS.
//
// The per-client op stream is a pure function of (seed, client index), so
// client-side totals are deterministic regardless of server thread count
// or connection interleaving — which is what lets the serve-smoke CI job
// gate them by exact equality via tools/bench_gate.py.
//
// This header is host code (tools/): wall-clock latency timing lives here,
// never inside src/serve.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "serve/client.h"
#include "util/rng.h"

namespace arbmis::loadgen {

/// Request types of the workload, in phase order. Indexes the per-op
/// latency samples; op_name() gives the registry/summary suffix.
enum Op : std::size_t {
  kOpLoad = 0,
  kOpCompute,
  kOpQuery,
  kOpUpdate,
  kOpVerify,
  kOpStats,
  kOpCount,
};

inline const char* op_name(std::size_t op) {
  static constexpr const char* kNames[kOpCount] = {
      "load", "compute", "query", "update", "verify", "stats"};
  return op < kOpCount ? kNames[op] : "?";
}

struct WorkloadOptions {
  std::uint32_t clients = 4;       ///< concurrent connections
  graph::NodeId nodes = 600;       ///< per-client graph size
  std::uint32_t computes = 3;      ///< COMPUTE_MIS calls per client
  std::uint32_t updates = 30;      ///< UPDATE_EDGES batches per client
  std::uint32_t ops_per_update = 4;
  std::uint32_t queries = 8;       ///< QUERY batches per client
  std::uint64_t seed = 12345;
};

struct ClientTotals {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t updates_total = 0;
  std::uint64_t updates_certified = 0;
  std::uint64_t repairs_incremental = 0;
  std::uint64_t repairs_full = 0;
  std::uint64_t verifies_ok = 0;
  std::uint64_t failures = 0;  ///< protocol/consistency violations
  std::vector<double> latencies_ms;
  /// Same samples split by request type (indexed by Op), for the per-op
  /// percentiles and the loadgen.latency_us.<op> registry histograms.
  std::array<std::vector<double>, kOpCount> latencies_by_op_ms;

  void merge(const ClientTotals& other) {
    requests += other.requests;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    updates_total += other.updates_total;
    updates_certified += other.updates_certified;
    repairs_incremental += other.repairs_incremental;
    repairs_full += other.repairs_full;
    verifies_ok += other.verifies_ok;
    failures += other.failures;
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    for (std::size_t op = 0; op < kOpCount; ++op) {
      latencies_by_op_ms[op].insert(latencies_by_op_ms[op].end(),
                                    other.latencies_by_op_ms[op].begin(),
                                    other.latencies_by_op_ms[op].end());
    }
  }
};

/// Sorted-percentile helper (returns 0 on an empty sample).
inline double percentile_ms(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double rank = p / 100.0 * static_cast<double>(sorted_ms.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

/// Runs one client's full workload against host:port. Throws on transport
/// failure; records consistency violations in ClientTotals::failures.
inline ClientTotals run_client(const std::string& host, std::uint16_t port,
                               std::uint32_t client_index,
                               const WorkloadOptions& options) {
  using clock = std::chrono::steady_clock;
  ClientTotals totals;
  serve::Client client(host, port);

  const std::uint64_t client_seed =
      util::mix64(options.seed, client_index + 1);
  util::Rng rng(client_seed);
  const std::uint64_t graph_id = client_index + 1;
  const serve::ComputeParams params{/*alpha=*/2, /*seed=*/client_seed};

  const auto timed = [&totals](Op op, auto&& fn) {
    const auto start = clock::now();
    auto result = fn();
    const auto stop = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    totals.latencies_ms.push_back(ms);
    totals.latencies_by_op_ms[op].push_back(ms);
    ++totals.requests;
    return result;
  };

  // LOAD: arboricity-2 graph, content distinct per client via the seed.
  graph::Graph g =
      graph::gen::union_of_random_forests(options.nodes, 2, rng);
  graph::NodeId n = g.num_nodes();
  serve::LoadGraphRequest load_request;
  load_request.graph_id = graph_id;
  load_request.num_nodes = n;
  load_request.edges = g.edges();
  const auto load =
      timed(kOpLoad, [&] { return client.call(load_request); });
  if (load.num_nodes != n) ++totals.failures;

  // COMPUTE xK: the first call must miss, repeats must hit and agree.
  std::uint64_t first_hash = 0;
  for (std::uint32_t i = 0; i < options.computes; ++i) {
    const auto reply = timed(kOpCompute, [&] {
      return client.call(serve::ComputeMisRequest{graph_id, params});
    });
    if (reply.cache_hit != 0) {
      ++totals.cache_hits;
    } else {
      ++totals.cache_misses;
    }
    if (reply.certified == 0) ++totals.failures;
    if (i == 0) {
      first_hash = reply.labels_hash;
      if (reply.cache_hit != 0) ++totals.failures;
    } else if (reply.cache_hit == 0 || reply.labels_hash != first_hash) {
      ++totals.failures;
    }
  }

  // QUERY batches over deterministic node samples.
  for (std::uint32_t q = 0; q < options.queries; ++q) {
    std::vector<graph::NodeId> nodes;
    for (std::uint32_t j = 0; j < 8; ++j) {
      nodes.push_back(static_cast<graph::NodeId>(rng.below(n)));
    }
    const auto count = nodes.size();
    const auto reply = timed(kOpQuery, [&] {
      return client.call(
          serve::QueryRequest{graph_id, params, std::move(nodes)});
    });
    if (reply.states.size() != count) ++totals.failures;
  }

  // UPDATE batches: mixed insert/remove/add-vertex/detach ops; every reply
  // must certify or the run fails loudly (mis_loadgen exits nonzero).
  for (std::uint32_t u = 0; u < options.updates; ++u) {
    std::vector<serve::EdgeUpdate> ops;
    for (std::uint32_t j = 0; j < options.ops_per_update; ++j) {
      const std::uint64_t kind = rng.below(10);
      serve::EdgeUpdate op;
      if (kind < 4) {
        op.op = serve::UpdateOp::kInsertEdge;
        op.u = static_cast<graph::NodeId>(rng.below(n));
        do {
          op.v = static_cast<graph::NodeId>(rng.below(n));
        } while (op.v == op.u);
      } else if (kind < 8) {
        op.op = serve::UpdateOp::kRemoveEdge;
        op.u = static_cast<graph::NodeId>(rng.below(n));
        do {
          op.v = static_cast<graph::NodeId>(rng.below(n));
        } while (op.v == op.u);
      } else if (kind == 8) {
        op.op = serve::UpdateOp::kAddVertex;
        ++n;  // mirror the server's id assignment
      } else {
        op.op = serve::UpdateOp::kDetachVertex;
        op.u = static_cast<graph::NodeId>(rng.below(n));
      }
      ops.push_back(op);
    }
    const auto reply = timed(kOpUpdate, [&] {
      return client.call(
          serve::UpdateEdgesRequest{graph_id, params, std::move(ops)});
    });
    ++totals.updates_total;
    if (reply.certified != 0) {
      ++totals.updates_certified;
    } else {
      ++totals.failures;
    }
    if (reply.incremental != 0) {
      ++totals.repairs_incremental;
    } else {
      ++totals.repairs_full;
    }
  }

  // VERIFY must pass on the final maintained labeling.
  const auto verify = timed(kOpVerify, [&] {
    return client.call(serve::VerifyRequest{graph_id, params});
  });
  if (verify.ok != 0) {
    ++totals.verifies_ok;
  } else {
    ++totals.failures;
  }

  // STATS: exercised for protocol coverage; totals are server-wide.
  (void)timed(kOpStats, [&] { return client.call(serve::StatsRequest{}); });

  return totals;
}

}  // namespace arbmis::loadgen
