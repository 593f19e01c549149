// Tests for the MIS verifier and the sequential greedy reference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/properties.h"
#include "mis/greedy.h"
#include "mis/verifier.h"

namespace arbmis::mis {
namespace {

TEST(Verifier, AcceptsValidMis) {
  const graph::Graph g = graph::gen::path(5);
  std::vector<std::uint8_t> mask{1, 0, 1, 0, 1};
  const Verification v = verify_mask(g, mask);
  EXPECT_TRUE(v.independent);
  EXPECT_TRUE(v.maximal);
}

TEST(Verifier, RejectsDependentSet) {
  const graph::Graph g = graph::gen::path(3);
  std::vector<std::uint8_t> mask{1, 1, 0};
  const Verification v = verify_mask(g, mask);
  EXPECT_FALSE(v.independent);
  EXPECT_FALSE(v.violations.empty());
}

TEST(Verifier, RejectsNonMaximalSet) {
  const graph::Graph g = graph::gen::path(5);
  std::vector<std::uint8_t> mask{1, 0, 0, 0, 1};
  const Verification v = verify_mask(g, mask);
  EXPECT_TRUE(v.independent);
  EXPECT_FALSE(v.maximal);
}

TEST(Verifier, ChecksLabels) {
  const graph::Graph g = graph::gen::path(3);
  MisResult result;
  result.state = {MisState::kInMis, MisState::kCovered, MisState::kInMis};
  EXPECT_TRUE(verify(g, result).ok());

  result.state[2] = MisState::kUndecided;
  EXPECT_FALSE(verify(g, result).labels_consistent);

  // A "covered" node with no MIS neighbor is a lie.
  result.state = {MisState::kCovered, MisState::kInMis, MisState::kCovered};
  EXPECT_TRUE(verify(g, result).ok());
  result.state = {MisState::kInMis, MisState::kCovered, MisState::kCovered};
  EXPECT_FALSE(verify(g, result).labels_consistent);
}

TEST(Verifier, DescribeMentionsViolations) {
  const graph::Graph g = graph::gen::path(3);
  std::vector<std::uint8_t> mask{1, 1, 1};
  const Verification v = verify_mask(g, mask);
  EXPECT_NE(v.describe().find("violations"), std::string::npos);
}

// Adversarial battery: plant targeted corruptions in honest MIS outputs on
// each generator family and demand the verifier reject every one, naming a
// violator. The tiny hand-built cases above show each check can fire; this
// shows they fire on the graphs the experiments actually run, where a lazy
// verifier (sampling nodes, trusting labels, checking only members) would
// still pass honest outputs and slip planted defects through.
TEST(Verifier, AdversarialPlantedDefectsOnGeneratorBattery) {
  util::Rng rng(73);
  const std::vector<std::pair<const char*, graph::Graph>> graphs = [&] {
    std::vector<std::pair<const char*, graph::Graph>> out;
    out.emplace_back("random_tree", graph::gen::random_tree(200, rng));
    out.emplace_back("union_of_random_forests",
                     graph::gen::union_of_random_forests(200, 2, rng));
    out.emplace_back("random_apollonian",
                     graph::gen::random_apollonian(150, rng));
    out.emplace_back("gnp", graph::gen::gnp(200, 0.03, rng));
    return out;
  }();

  for (const auto& [name, g] : graphs) {
    const MisResult honest = greedy_mis(g);
    ASSERT_TRUE(verify(g, honest).ok()) << name;
    const std::vector<std::uint8_t> mask = honest.mis_mask();
    const std::vector<graph::NodeId> members = honest.mis_nodes();
    ASSERT_FALSE(members.empty()) << name;

    // Drop one member whose removal uncovers something: any member with a
    // neighbor covered only by it. Dropping an isolated-in-MIS member is
    // always non-maximal at the member itself.
    for (const graph::NodeId victim :
         {members.front(), members[members.size() / 2], members.back()}) {
      std::vector<std::uint8_t> planted = mask;
      planted[victim] = 0;
      const Verification v = verify_mask(g, planted);
      EXPECT_TRUE(v.independent) << name << " victim=" << victim;
      EXPECT_FALSE(v.maximal)
          << name << ": dropping member " << victim
          << " must leave an uncovered node";
      EXPECT_FALSE(v.violations.empty()) << name;
    }

    // Add a covered non-member: breaks independence (it has a member
    // neighbor by definition of covered).
    graph::NodeId covered = graph::kUnreachable;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (mask[v] == 0 && g.degree(v) > 0) {
        covered = v;
        break;
      }
    }
    if (covered != graph::kUnreachable) {
      std::vector<std::uint8_t> planted = mask;
      planted[covered] = 1;
      const Verification v = verify_mask(g, planted);
      EXPECT_FALSE(v.independent)
          << name << ": adding covered node " << covered
          << " must break independence";
      EXPECT_FALSE(v.violations.empty()) << name;

      // Both defects at once: neither flag may mask the other.
      planted[members.front()] = 0;
      if (members.front() != covered) {
        const Verification both = verify_mask(g, planted);
        EXPECT_FALSE(both.ok()) << name;
      }
    }

    // Label lies against the full verify(): an undecided node and a
    // "covered" claim with no member neighbor must each be caught.
    MisResult lying = honest;
    lying.state[members.front()] = MisState::kUndecided;
    EXPECT_FALSE(verify(g, lying).labels_consistent)
        << name << ": undecided member accepted";

    MisResult false_cover = honest;
    false_cover.state[members.front()] = MisState::kCovered;
    const Verification fc = verify(g, false_cover);
    EXPECT_FALSE(fc.ok())
        << name << ": relabeling a member as covered must fail "
        << "(false coverage or lost maximality)";
  }
}

/// The two-pass verifier as it stood before the early-exit scans: every
/// row is scanned in full, for independence and for coverage, and the
/// kCovered label pass scans each claimed node's row again. The reference
/// the early-exit verify()/verify_mask() must match exactly.
Verification full_scan_verify_mask(graph::GraphView g,
                                   std::span<const std::uint8_t> in_mis) {
  Verification result;
  result.independent = true;
  result.maximal = true;
  result.labels_consistent = true;
  const auto note = [&](graph::NodeId v) {
    if (result.violations.size() < 8) result.violations.push_back(v);
  };
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    bool covered = false;
    for (graph::NodeId w : g.neighbors(v)) {
      if (in_mis[w]) covered = true;
      if (in_mis[v] && in_mis[w]) {
        result.independent = false;
        note(v);
      }
    }
    if (!in_mis[v] && !covered) {
      result.maximal = false;
      note(v);
    }
  }
  return result;
}

Verification full_scan_verify(graph::GraphView g, const MisResult& result) {
  const auto mask = result.mis_mask();
  Verification v = full_scan_verify_mask(g, mask);
  for (graph::NodeId node = 0; node < g.num_nodes(); ++node) {
    if (result.state[node] == MisState::kUndecided) {
      v.labels_consistent = false;
      if (v.violations.size() < 8) v.violations.push_back(node);
    } else if (result.state[node] == MisState::kCovered) {
      bool covered = false;
      for (graph::NodeId w : g.neighbors(node)) covered |= mask[w] != 0;
      if (!covered) {
        v.labels_consistent = false;
        if (v.violations.size() < 8) v.violations.push_back(node);
      }
    }
  }
  return v;
}

void expect_same_verification(const Verification& a, const Verification& b,
                              const std::string& label) {
  EXPECT_EQ(a.independent, b.independent) << label;
  EXPECT_EQ(a.maximal, b.maximal) << label;
  EXPECT_EQ(a.labels_consistent, b.labels_consistent) << label;
  EXPECT_EQ(a.violations, b.violations) << label;
}

TEST(Verifier, EarlyExitMatchesFullScanOnCorruptedLabelings) {
  // Seeded corruptions of an honest MIS, alone and stacked: an adjacent
  // MIS pair, an uncovered node, an undecided node, a kCovered label on a
  // node with no MIS neighbor. Flags and the violation list, order
  // included, must equal the full-scan reference's.
  enum Corruption { kAdjacentPair, kUncovered, kUndecided, kFalseCover };
  util::Rng rng(1905);
  std::uint32_t failing = 0;
  for (std::uint32_t trial = 0; trial < 200; ++trial) {
    const graph::Graph g =
        trial % 2 == 0 ? graph::gen::gnp(120, 0.05, rng)
                       : graph::gen::union_of_random_forests(120, 2, rng);
    MisResult labels = greedy_mis_random(g, rng);
    const auto n = static_cast<std::uint32_t>(g.num_nodes());
    const std::uint64_t corruptions = 1 + rng.below(4);
    for (std::uint64_t c = 0; c < corruptions; ++c) {
      const auto v = static_cast<graph::NodeId>(rng.below(n));
      switch (static_cast<Corruption>(rng.below(4))) {
        case kAdjacentPair:
          // A covered node joins, next to the member that covers it.
          if (labels.state[v] == MisState::kCovered) {
            labels.state[v] = MisState::kInMis;
          }
          break;
        case kUncovered:
          // A member leaves: it and its neighbors may lose their only
          // member neighbor.
          if (labels.state[v] == MisState::kInMis) {
            labels.state[v] = MisState::kCovered;
          }
          break;
        case kUndecided:
          labels.state[v] = MisState::kUndecided;
          break;
        case kFalseCover:
          // A kCovered claim whatever the neighborhood holds.
          labels.state[v] = MisState::kCovered;
          break;
      }
    }
    const std::string label = "trial " + std::to_string(trial);
    const Verification early = verify(g, labels);
    expect_same_verification(early, full_scan_verify(g, labels), label);
    const std::vector<std::uint8_t> mask = labels.mis_mask();
    expect_same_verification(verify_mask(g, mask),
                             full_scan_verify_mask(g, mask), label);
    if (!early.ok()) ++failing;
  }
  // The corruptions must actually produce failing labelings, most of the
  // time, or the comparison above proves little.
  EXPECT_GT(failing, 150u);
}

TEST(Greedy, ProducesValidMisOnBattery) {
  util::Rng rng(61);
  const std::vector<graph::Graph> graphs{
      graph::gen::path(20),          graph::gen::cycle(21),
      graph::gen::star(15),          graph::gen::complete(8),
      graph::gen::grid(5, 7),        graph::gen::random_tree(64, rng),
      graph::gen::gnp(64, 0.1, rng), graph::gen::random_apollonian(64, rng),
  };
  for (const auto& g : graphs) {
    const MisResult result = greedy_mis(g);
    EXPECT_TRUE(verify(g, result).ok());
  }
}

TEST(Greedy, IdOrderPicksNodeZero) {
  const graph::Graph g = graph::gen::star(10);
  const MisResult result = greedy_mis(g);
  EXPECT_TRUE(result.in_mis(0));
  EXPECT_EQ(result.mis_size(), 1u);
}

TEST(Greedy, RandomOrderStillValid) {
  util::Rng rng(67);
  const graph::Graph g = graph::gen::random_apollonian(100, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const MisResult result = greedy_mis_random(g, rng);
    EXPECT_TRUE(verify(g, result).ok());
  }
}

TEST(Greedy, CustomOrderRespected) {
  const graph::Graph g = graph::gen::path(3);
  const std::vector<graph::NodeId> order{1, 0, 2};
  const MisResult result = greedy_mis(g, order);
  EXPECT_TRUE(result.in_mis(1));
  EXPECT_EQ(result.mis_size(), 1u);
}

TEST(Coloring, ProperColoringCheck) {
  const graph::Graph g = graph::gen::cycle(4);
  EXPECT_TRUE(is_proper_coloring(g, std::vector<std::uint64_t>{0, 1, 0, 1}));
  EXPECT_FALSE(is_proper_coloring(g, std::vector<std::uint64_t>{0, 0, 1, 1}));
  EXPECT_FALSE(is_proper_coloring(g, std::vector<std::uint64_t>{0, 1}));
}

TEST(MisResult, Accessors) {
  MisResult result;
  result.state = {MisState::kInMis, MisState::kCovered, MisState::kUndecided};
  EXPECT_EQ(result.mis_size(), 1u);
  EXPECT_EQ(result.undecided_count(), 1u);
  EXPECT_EQ(result.mis_nodes(), (std::vector<graph::NodeId>{0}));
  EXPECT_EQ(result.mis_mask(), (std::vector<std::uint8_t>{1, 0, 0}));
}

}  // namespace
}  // namespace arbmis::mis
