// Independent verification of MIS outputs. Every algorithm test funnels
// through verify(); it never trusts algorithm bookkeeping (it recomputes
// coverage from the graph).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "mis/mis_types.h"

namespace arbmis::mis {

struct Verification {
  bool independent = false;
  bool maximal = false;
  /// All nodes decided (no kUndecided) and kCovered labels are truthful.
  bool labels_consistent = false;
  /// First few offending nodes, for diagnostics.
  std::vector<graph::NodeId> violations;

  bool ok() const noexcept {
    return independent && maximal && labels_consistent;
  }
  std::string describe() const;
};

/// Full check of a labeled result.
Verification verify(graph::GraphView g, const MisResult& result);

/// Check of a bare membership mask (independence + maximality only).
Verification verify_mask(graph::GraphView g, std::span<const std::uint8_t> in_mis);

/// True iff no edge of g joins two members of `in_mis` (1 = member); no
/// maximality check, so it also accepts the partial independent sets that
/// pipeline stages produce.
bool is_independent(graph::GraphView g, std::span<const std::uint8_t> in_mis);

/// True iff `colors` is a proper coloring of g (adjacent nodes differ).
bool is_proper_coloring(graph::GraphView g,
                        std::span<const std::uint64_t> colors);

}  // namespace arbmis::mis
