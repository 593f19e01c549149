// Mutable graph wrapper behind the serving layer (docs/SERVING.md).
//
// A DynamicGraph starts from either an in-memory Graph or any GraphView
// (e.g. one backed by an mmap-mapped .gr file, whose owner is carried as a
// type-erased shared_ptr so serve/ never names graph/storage types). The
// base storage is used zero-copy until the first accepted update batch.
// Applying a batch edits the current view's edge list and builds one new
// in-memory CSR from it, which replaces the base storage — update batches
// are rare relative to reads, so per-batch O(n+m) rebuild keeps every
// read on the same immutable-CSR fast path as the rest of the repo.
//
// Update semantics (all deterministic):
//   * kInsertEdge {u,v}: u != v, both < n; inserting an existing edge is a
//     no-op.
//   * kRemoveEdge {u,v}: removing a non-edge is a no-op.
//   * kAddVertex: appends one isolated vertex (its id is the node count at
//     the time the op executes; ids are stable, never reused).
//   * kDetachVertex u: removes every edge incident to u. The vertex stays,
//     isolated, keeping all other ids stable.
// Ops inside a batch apply sequentially; a batch is atomic — any invalid
// op (self-loop, out-of-range id) rejects the whole batch unapplied.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "serve/protocol.h"

namespace arbmis::serve {

class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Takes ownership of an in-memory graph.
  explicit DynamicGraph(graph::Graph g);

  /// Wraps externally owned storage (e.g. a MappedGraph); `owner` keeps the
  /// bytes behind `view` alive. Zero-copy until the first accepted update
  /// batch, which releases `owner`.
  DynamicGraph(graph::GraphView view, std::shared_ptr<void> owner);

  graph::GraphView view() const noexcept {
    return materialized_ ? graph::GraphView(current_) : base_view_;
  }

  graph::NodeId num_nodes() const noexcept { return view().num_nodes(); }
  std::uint64_t num_edges() const noexcept { return view().num_edges(); }

  /// Structural hash of the current content (graph::content_hash), cached
  /// until the next update batch.
  std::uint64_t content_hash() const;

  /// Applies one batch atomically. Throws ServeError(kBadRequest) on any
  /// invalid op, leaving the graph untouched. Returns ops actually applied
  /// (no-ops excluded).
  std::uint64_t apply(std::span<const EdgeUpdate> ops);

 private:
  std::shared_ptr<void> owner_;
  graph::GraphView base_view_;
  graph::Graph current_{0};
  bool materialized_ = false;
  mutable std::optional<std::uint64_t> hash_;
};

}  // namespace arbmis::serve
