#include "mis/verifier.h"

#include <sstream>

namespace arbmis::mis {

namespace {
constexpr std::size_t kMaxReportedViolations = 8;

void note(Verification& v, graph::NodeId node) {
  if (v.violations.size() < kMaxReportedViolations) v.violations.push_back(node);
}

/// True iff some neighbor of v is in the set; stops at the first one.
bool has_member_neighbor(graph::GraphView g, graph::NodeId v,
                         std::span<const std::uint8_t> in_mis) {
  for (graph::NodeId w : g.neighbors(v)) {
    if (in_mis[w]) return true;
  }
  return false;
}
}  // namespace

std::string Verification::describe() const {
  std::ostringstream out;
  out << "independent=" << independent << " maximal=" << maximal
      << " labels_consistent=" << labels_consistent;
  if (!violations.empty()) {
    out << " violations=[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
      if (i > 0) out << ',';
      out << violations[i];
    }
    out << ']';
  }
  return out.str();
}

Verification verify_mask(graph::GraphView g, std::span<const std::uint8_t> in_mis) {
  Verification result;
  result.independent = true;
  result.maximal = true;
  result.labels_consistent = true;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_mis[v]) {
      // Independence: every MIS neighbor is one more noted violation.
      for (graph::NodeId w : g.neighbors(v)) {
        if (in_mis[w]) {
          result.independent = false;
          note(result, v);
        }
      }
    } else if (!has_member_neighbor(g, v, in_mis)) {
      result.maximal = false;
      note(result, v);
    }
  }
  return result;
}

Verification verify(graph::GraphView g, const MisResult& result) {
  const auto mask = result.mis_mask();
  Verification v = verify_mask(g, mask);
  for (graph::NodeId node = 0; node < g.num_nodes(); ++node) {
    switch (result.state[node]) {
      case MisState::kUndecided:
        v.labels_consistent = false;
        note(v, node);
        break;
      case MisState::kCovered:
        if (!has_member_neighbor(g, node, mask)) {
          v.labels_consistent = false;
          note(v, node);
        }
        break;
      case MisState::kInMis:
        break;
    }
  }
  return v;
}

bool is_independent(graph::GraphView g, std::span<const std::uint8_t> in_mis) {
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!in_mis[v]) continue;
    for (graph::NodeId w : g.neighbors(v)) {
      if (in_mis[w]) return false;
    }
  }
  return true;
}

bool is_proper_coloring(graph::GraphView g,
                        std::span<const std::uint64_t> colors) {
  if (colors.size() != g.num_nodes()) return false;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (graph::NodeId w : g.neighbors(v)) {
      if (w > v && colors[v] == colors[w]) return false;
    }
  }
  return true;
}

}  // namespace arbmis::mis
