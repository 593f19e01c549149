// MisService — the serving layer's request brain (docs/SERVING.md).
//
// Owns the graph table, the result cache, and the incremental-repair
// logic; the TCP server (serve/server.h) is a thin framing shell around
// handle(). Everything here is deterministic in the request sequence:
// results are produced by the fault/resilient_mis certify-commit-retry
// driver running the paper's shattering pipeline with a zero-rate
// adversary, every repair is re-certified on the full graph by the
// distributed verifier, and no wall-clock, entropy, or iteration-order
// nondeterminism enters any reply (DET001–DET005 apply to this module).
//
// Cache: results are keyed by (graph content hash, alpha, seed) — NOT by
// graph id — so two ids holding identical content share entries, and an
// update batch that returns a graph to previously seen content hits the
// cache again. FIFO eviction, bounded by ServiceOptions::max_cache_entries.
//
// Incremental repair (the creative core): after an update batch, members
// of the previous MIS are kept unless the batch connected two members
// (both conflict endpoints are dropped — deterministic and symmetric);
// coverage is recomputed from the kept members on the new graph; the
// leftover residual (new vertices, uncovered ex-covered nodes, dropped
// members) is re-solved by the same pipeline on the induced subgraph and
// merged. If the residual exceeds full_recompute_fraction of the graph the
// service falls back to a full recompute. Either way the final labeling is
// certified on the full graph before it is cached or served.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/resilient_mis.h"
#include "serve/dynamic_graph.h"
#include "serve/protocol.h"

namespace arbmis::serve {

/// A loaded graph plus the owner keeping its storage alive. The loader
/// callback hides graph/storage behind the GraphView seam: serve/ never
/// includes "graph/storage/...", hosts (tools/, tests/) inject a loader
/// that constructs MappedGraph and type-erases it into `owner`.
struct LoadedGraph {
  std::shared_ptr<void> owner;
  graph::GraphView view;
};

using GrLoader = std::function<LoadedGraph(const std::string& path)>;

struct ServiceOptions {
  /// Worker threads of the simulator executor (NetworkOptions::num_threads)
  /// — results are byte-identical across values by the PR 2 contract.
  std::uint32_t num_threads = 0;
  /// Repair falls back to a full recompute when the residual exceeds this
  /// fraction of the nodes.
  double full_recompute_fraction = 0.5;
  std::size_t max_cache_entries = 64;  ///< FIFO eviction bound
  std::uint32_t max_attempts = 16;     ///< forwarded to resilient_mis
  /// Loader for path-based LOAD_GRAPH; null rejects paths (kUnsupported).
  GrLoader gr_loader;
};

/// Deterministic 64-bit hash of a full labeling (chained util::mix64).
std::uint64_t labels_hash(const std::vector<mis::MisState>& state);

class MisService {
 public:
  explicit MisService(ServiceOptions options = {});

  /// Full dispatch: decodes a request frame, runs the operation, returns
  /// the reply frame (kError frame on ServeError/ProtocolError). Emits the
  /// request_begin/request_end event pair. Thread-safe; requests serialize
  /// on one service mutex, so the event stream is ordered by arrival.
  /// Typed in-process callers go through roundtrip() (serve/protocol.h).
  Frame handle(const Frame& request);

 private:
  struct CacheKey {
    std::uint64_t content_hash = 0;
    std::uint32_t alpha = 0;
    std::uint64_t seed = 0;
    friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
  };

  struct CacheEntry {
    std::vector<mis::MisState> state;
    std::uint64_t labels_hash = 0;
    std::uint64_t mis_size = 0;
    std::uint32_t attempts = 0;
    std::uint64_t rounds = 0;
    bool certified = false;
  };

  struct GraphSlot {
    DynamicGraph graph;
    std::uint64_t epoch = 0;  ///< update batches applied
  };

  struct RepairOutcome {
    CacheEntry entry;
    bool incremental = false;
    graph::NodeId residual = 0;
  };

  /// handle()'s one step for every table row: parse, request_begin, run,
  /// reply frame. Runs under mu_.
  template <typename Request>
  Frame step(const Frame& frame, std::uint64_t req);

  // One handler per table row; each throws ServeError on request-level
  // failures. Run under mu_.
#define ARBMIS_SERVE_HANDLER(name, type, wire, Request, Reply) \
  Reply run(const Request& request);
  ARBMIS_SERVE_MESSAGES(ARBMIS_SERVE_HANDLER)
#undef ARBMIS_SERVE_HANDLER

  GraphSlot& slot(std::uint64_t graph_id);
  /// Cache lookup + solve-on-miss; emits cache_hit/cache_miss.
  const CacheEntry& ensure_entry(std::uint64_t graph_id, GraphSlot& s,
                                 const ComputeParams& params, bool* hit);
  /// Full pipeline run (resilient_mis + certify) on `g`.
  CacheEntry solve_full(graph::GraphView g, const ComputeParams& params,
                        std::uint64_t run_seed);
  /// Incremental repair from `previous` (null = full), certified on `g`.
  RepairOutcome repair(std::uint64_t graph_id, std::uint64_t epoch,
                       graph::GraphView g,
                       const std::vector<mis::MisState>* previous,
                       const ComputeParams& params);
  void cache_insert(const CacheKey& key, CacheEntry entry);

  std::mutex mu_;
  ServiceOptions options_;
  std::map<std::uint64_t, GraphSlot> graphs_;
  std::map<CacheKey, CacheEntry> cache_;
  std::vector<CacheKey> cache_order_;  ///< FIFO insertion order
  StatsReply stats_;
  std::uint64_t request_seq_ = 0;
};

}  // namespace arbmis::serve
