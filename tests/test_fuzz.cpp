// Randomized property tests ("fuzz"): differential checks of the graph
// substrate against naive reference implementations, end-to-end pipeline
// runs on randomly generated structures, and the serve codec under
// seeded malformed bytes for every message of the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "core/arb_mis.h"
#include "engine/engine.h"
#include "fault/adversary.h"
#include "fault/resilient_mis.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "fault/fault_plan.h"
#include "graph/storage/convert.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "graph/subgraph.h"
#include "mis/matching.h"
#include "mis/metivier.h"
#include "mis/verifier.h"
#include "obs/events.h"
#include "round_events.h"
#include "serve/protocol.h"
#include "sim/network.h"
#include "util/rng.h"

namespace arbmis {
namespace {

/// Random simple graph as a set of edges (reference representation).
std::set<std::pair<graph::NodeId, graph::NodeId>> random_edge_set(
    graph::NodeId n, std::uint64_t edge_attempts, util::Rng& rng) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (std::uint64_t i = 0; i < edge_attempts; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.below(n));
    const auto v = static_cast<graph::NodeId>(rng.below(n));
    if (u == v) continue;
    edges.insert({std::min(u, v), std::max(u, v)});
  }
  return edges;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, BuilderMatchesReferenceEdgeSet) {
  util::Rng rng(GetParam());
  const graph::NodeId n = 2 + static_cast<graph::NodeId>(rng.below(60));
  const auto reference = random_edge_set(n, 3 * n, rng);

  graph::Builder builder(n);
  // Insert in scrambled order with duplicates.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> inserts(
      reference.begin(), reference.end());
  for (const auto& e : inserts) builder.add_edge(e.second, e.first);
  for (std::size_t i = 0; i < inserts.size(); i += 2) {
    builder.add_edge(inserts[i].first, inserts[i].second);  // duplicate
  }
  const graph::Graph g = builder.build();

  EXPECT_EQ(g.num_edges(), reference.size());
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      EXPECT_EQ(g.has_edge(u, v), reference.count({u, v}) > 0)
          << u << "-" << v;
    }
  }
  // Degrees match reference counts.
  for (graph::NodeId v = 0; v < n; ++v) {
    graph::NodeId expected = 0;
    for (const auto& e : reference) {
      expected += (e.first == v || e.second == v);
    }
    EXPECT_EQ(g.degree(v), expected);
  }
}

TEST_P(Fuzz, DegeneracyMatchesBruteForceOnSmallGraphs) {
  util::Rng rng(GetParam() + 100);
  const graph::NodeId n = 2 + static_cast<graph::NodeId>(rng.below(14));
  const auto reference = random_edge_set(n, 2 * n, rng);
  graph::Builder builder(n);
  for (const auto& e : reference) builder.add_edge(e.first, e.second);
  const graph::Graph g = builder.build();

  // Brute-force degeneracy: repeatedly remove a minimum-degree node.
  std::vector<bool> removed(n, false);
  std::vector<graph::NodeId> degree(n, 0);
  for (graph::NodeId v = 0; v < n; ++v) degree[v] = g.degree(v);
  graph::NodeId reference_degeneracy = 0;
  for (graph::NodeId step = 0; step < n; ++step) {
    graph::NodeId best = graph::kUnreachable;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!removed[v] &&
          (best == graph::kUnreachable || degree[v] < degree[best])) {
        best = v;
      }
    }
    reference_degeneracy = std::max(reference_degeneracy, degree[best]);
    removed[best] = true;
    for (graph::NodeId w : g.neighbors(best)) {
      if (!removed[w]) --degree[w];
    }
  }
  EXPECT_EQ(graph::degeneracy(g), reference_degeneracy);
}

/// Test-local reference restriction of g to the nodes with mask[v] != 0:
/// keep the edges with both ends kept, relabel them by rank, build with
/// graph::from_edges.
void expect_matches_reference(graph::GraphView g,
                              const std::vector<std::uint8_t>& mask,
                              const graph::Subgraph& sub) {
  std::vector<graph::NodeId> to_original;
  std::vector<graph::NodeId> rank(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (mask[v] == 0) continue;
    rank[v] = static_cast<graph::NodeId>(to_original.size());
    to_original.push_back(v);
  }
  std::vector<graph::Edge> edges;
  for (const graph::Edge& e : g.edges()) {
    if (mask[e.u] != 0 && mask[e.v] != 0) {
      edges.push_back({rank[e.u], rank[e.v]});
    }
  }
  const graph::Graph reference = graph::from_edges(
      static_cast<graph::NodeId>(to_original.size()), edges);

  ASSERT_EQ(sub.graph.num_nodes(), reference.num_nodes());
  EXPECT_EQ(sub.graph.num_edges(), reference.num_edges());
  EXPECT_EQ(sub.graph.max_degree(), reference.max_degree());
  for (graph::NodeId local = 0; local < reference.num_nodes(); ++local) {
    EXPECT_EQ(sub.original(local), to_original[local]);
    EXPECT_TRUE(std::ranges::equal(sub.graph.neighbors(local),
                                   reference.neighbors(local)))
        << "row " << local;
  }
}

TEST_P(Fuzz, SubgraphOfSubgraphConsistent) {
  util::Rng rng(GetParam() + 200);
  const graph::Graph g = graph::gen::gnp(50, 0.15, rng);
  // A random mask, then the edge cases: empty, all ones, one node.
  std::vector<std::vector<std::uint8_t>> masks(
      4, std::vector<std::uint8_t>(50, 0));
  for (auto& b : masks[0]) b = rng.bernoulli(0.7) ? 1 : 0;
  std::fill(masks[2].begin(), masks[2].end(), 1);
  masks[3][GetParam() % 50] = 1;
  for (std::size_t m = 0; m < masks.size(); ++m) {
    SCOPED_TRACE("mask " + std::to_string(m));
    const std::vector<std::uint8_t>& mask1 = masks[m];
    const graph::Subgraph sub1 = graph::induced_subgraph(g, mask1);
    expect_matches_reference(g, mask1, sub1);
    std::vector<std::uint8_t> mask2(sub1.graph.num_nodes(), 0);
    for (auto& b : mask2) b = rng.bernoulli(0.7) ? 1 : 0;
    const graph::Subgraph sub2 = graph::induced_subgraph(sub1.graph, mask2);
    expect_matches_reference(sub1.graph, mask2, sub2);
    // Edges of the nested subgraph are edges of the original graph.
    for (const graph::Edge& e : sub2.graph.edges()) {
      const graph::NodeId u = sub1.original(sub2.original(e.u));
      const graph::NodeId v = sub1.original(sub2.original(e.v));
      EXPECT_TRUE(g.has_edge(u, v));
    }
  }
}

TEST_P(Fuzz, PipelineOnRandomStructures) {
  util::Rng rng(GetParam() + 300);
  // Random graph; alpha hint derived from its actual degeneracy.
  const graph::NodeId n = 100 + static_cast<graph::NodeId>(rng.below(400));
  const double p =
      2.0 / static_cast<double>(n) * static_cast<double>(1 + rng.below(4));
  const graph::Graph g = graph::gen::gnp(n, p, rng);
  const graph::NodeId alpha = std::max<graph::NodeId>(
      graph::degeneracy(g), 1);
  const core::ArbMisResult result =
      core::arb_mis(g, {.alpha = alpha}, GetParam());
  EXPECT_TRUE(mis::verify(g, result.mis).ok());
  EXPECT_FALSE(result.cleanup_used);
}

TEST_P(Fuzz, PipelineUnderRandomThreadCount) {
  // Randomized-schedule fuzz for the parallel round executor: a random
  // graph run with a random worker count must still produce a verified
  // MIS with the Invariant holding at every scale end — and must agree
  // exactly with the serial run, whatever the OS made of the schedule.
  util::Rng rng(GetParam() + 500);
  const graph::NodeId n = 80 + static_cast<graph::NodeId>(rng.below(300));
  const double p =
      2.0 / static_cast<double>(n) * static_cast<double>(1 + rng.below(3));
  const graph::Graph g = graph::gen::gnp(n, p, rng);
  const graph::NodeId alpha =
      std::max<graph::NodeId>(graph::degeneracy(g), 1);
  const std::uint32_t threads = 1 + static_cast<std::uint32_t>(rng.below(8));

  const core::ArbMisResult serial =
      core::arb_mis(g, {.alpha = alpha, .audit_invariant = true}, GetParam());
  core::ArbMisResult parallel;
  {
    const sim::ScopedNumThreads scoped(threads);
    parallel = core::arb_mis(g, {.alpha = alpha, .audit_invariant = true},
                             GetParam());
  }
  EXPECT_TRUE(mis::verify(g, parallel.mis).ok()) << "threads=" << threads;
  EXPECT_TRUE(parallel.invariant_held) << "threads=" << threads;
  EXPECT_EQ(serial.mis.state, parallel.mis.state) << "threads=" << threads;
  EXPECT_EQ(serial.mis.stats.rounds, parallel.mis.stats.rounds)
      << "threads=" << threads;
  EXPECT_EQ(serial.mis.stats.messages, parallel.mis.stats.messages)
      << "threads=" << threads;
}

TEST_P(Fuzz, ResilientMisSurvivesRandomAdversaries) {
  // Random-adversary fuzz for the fault subsystem: draw adversary
  // parameters (drop/duplicate/crash rates, recovery delay, adversary
  // family) from the seed, run the resilient driver, and assert the
  // safety property the subsystem exists for — a certified output is a
  // true MIS (independent, maximal, label-consistent) no matter what the
  // adversary did. Certification itself must always be reached because
  // the fault-free safety net kicks in after `fault_free_after` attempts.
  util::Rng rng(GetParam() + 600);
  const graph::NodeId n = 60 + static_cast<graph::NodeId>(rng.below(140));
  const double p =
      2.0 / static_cast<double>(n) * static_cast<double>(1 + rng.below(3));
  const graph::Graph g = graph::gen::gnp(n, p, rng);

  const double drop = rng.uniform01() * 0.6;
  const double dup = rng.uniform01() * 0.3;
  const double crash = rng.uniform01() * 0.05;
  const std::uint32_t delay = static_cast<std::uint32_t>(rng.below(4));

  fault::ResilientOptions options;
  options.max_rounds_per_attempt = 2048;
  fault::ResilientResult result;
  if (rng.bernoulli(0.5)) {
    fault::IidAdversary adversary({.drop_rate = drop,
                                   .duplicate_rate = dup,
                                   .crash_rate = crash,
                                   .recovery_delay = delay});
    result = fault::resilient_mis(g, GetParam(), adversary,
                                  fault::algorithm_driver<mis::MetivierMis>(),
                                  options);
  } else {
    fault::BurstyAdversary adversary({.base_drop_rate = drop / 4.0,
                                      .burst_drop_rate = drop,
                                      .period = 6,
                                      .burst_rounds = 2,
                                      .duplicate_rate = dup,
                                      .crash_rate = crash,
                                      .recovery_delay = delay});
    result = fault::resilient_mis(g, GetParam(), adversary,
                                  fault::shatter_driver(2), options);
  }

  ASSERT_TRUE(result.certified)
      << "drop=" << drop << " dup=" << dup << " crash=" << crash;
  mis::MisResult as_result;
  as_result.state = result.state;
  const mis::Verification verdict = mis::verify(g, as_result);
  EXPECT_TRUE(verdict.independent) << "certified output not independent";
  EXPECT_TRUE(verdict.maximal) << "certified output not maximal";
}

TEST_P(Fuzz, MisAndMatchingCoexistOnSameGraph) {
  util::Rng rng(GetParam() + 400);
  const graph::Graph g = graph::gen::k_degenerate(300, 3, rng);
  EXPECT_TRUE(
      mis::verify(g, mis::MetivierMis::run(g, GetParam())).ok());
  EXPECT_TRUE(mis::verify_maximal_matching(
      g, mis::IsraeliItaiMatching::run(g, GetParam())));
}

// ---------------------------------------------------------------------------
// Converter fuzz: random edge-list text — sparse out-of-order ids,
// duplicates in both orders, self-loops, '#'/'%' comments, blank lines,
// CRLF endings, erratic whitespace — through convert_edge_list and a full
// .gr disk round trip, differentially against an in-process reference
// adjacency built from the same lines. The stats struct must account for
// every input line exactly: edges are deduplicated and self-loops dropped
// *with a count*, never silently.
// ---------------------------------------------------------------------------

TEST_P(Fuzz, ConverterMatchesReferenceOnRandomEdgeListText) {
  util::Rng rng(GetParam() + 900);
  // Sparse id universe, including ids near the top of the 32-bit space.
  std::vector<graph::NodeId> universe;
  const std::uint64_t universe_size = 4 + rng.below(40);
  for (std::uint64_t i = 0; i < universe_size; ++i) {
    universe.push_back(rng.below(2) != 0
                           ? static_cast<graph::NodeId>(rng.below(1000))
                           : static_cast<graph::NodeId>(
                                 0xffffffffu - rng.below(1000)));
  }

  std::ostringstream text;
  std::set<std::pair<graph::NodeId, graph::NodeId>> reference;
  std::set<graph::NodeId> mentioned;
  std::uint64_t self_loops = 0;
  std::uint64_t edge_lines = 0;
  std::uint64_t comment_lines = 0;
  const std::uint64_t lines = 30 + rng.below(120);
  for (std::uint64_t i = 0; i < lines; ++i) {
    const std::string eol = rng.below(3) == 0 ? "\r\n" : "\n";
    const std::uint64_t kind = rng.below(10);
    if (kind == 0) {
      text << "# comment " << i << eol;
      ++comment_lines;
      continue;
    }
    if (kind == 1) {
      text << (rng.below(2) != 0 ? "% comment" : "   ") << eol;
      ++comment_lines;
      continue;
    }
    graph::NodeId u = universe[rng.below(universe.size())];
    graph::NodeId v = rng.below(4) == 0  // bias toward repeats
                          ? u
                          : universe[rng.below(universe.size())];
    if (rng.below(2) != 0) std::swap(u, v);  // both orders appear
    const std::string pad1 = rng.below(3) == 0 ? "  " : " ";
    const std::string lead = rng.below(4) == 0 ? "\t" : "";
    text << lead << u << pad1 << v << (rng.below(5) == 0 ? " " : "") << eol;
    ++edge_lines;
    mentioned.insert(u);
    mentioned.insert(v);
    if (u == v) {
      ++self_loops;
    } else {
      reference.insert({std::min(u, v), std::max(u, v)});
    }
  }

  std::istringstream in(text.str());
  const graph::storage::ConvertResult result =
      graph::storage::convert_edge_list(in);

  // Exact line accounting: nothing is silently dropped.
  EXPECT_EQ(result.stats.lines_total, lines);
  EXPECT_EQ(result.stats.lines_comment, comment_lines);
  EXPECT_EQ(result.stats.edges_input, edge_lines);
  EXPECT_EQ(result.stats.self_loops_dropped, self_loops);
  EXPECT_EQ(result.stats.edges_kept, reference.size());
  EXPECT_EQ(result.stats.duplicates_dropped,
            edge_lines - self_loops - reference.size());

  // Structural agreement with the reference adjacency, mapped back to
  // original ids (identity when the converter elides the permutation).
  ASSERT_EQ(result.graph.num_nodes(), mentioned.size());
  std::set<std::pair<graph::NodeId, graph::NodeId>> recovered;
  const auto original = [&](graph::NodeId v) {
    return result.new_to_old.empty() ? v : result.new_to_old[v];
  };
  for (const graph::Edge& e : result.graph.edges()) {
    const graph::NodeId u = original(e.u);
    const graph::NodeId v = original(e.v);
    recovered.insert({std::min(u, v), std::max(u, v)});
  }
  EXPECT_EQ(recovered, reference);

  // Disk round trip: written file reloads to the identical graph.
  const std::string path = ::testing::TempDir() + "arbmis_convfuzz_" +
                           std::to_string(GetParam()) + ".gr";
  graph::storage::GrWriteOptions write_options;
  write_options.new_to_old = result.new_to_old;
  write_options.degree_ordered = result.degree_ordered;
  graph::storage::write_gr(path, result.graph, write_options);
  const graph::storage::MappedGraph mapped =
      graph::storage::MappedGraph::open(path);
  ASSERT_EQ(mapped.num_nodes(), result.graph.num_nodes());
  ASSERT_EQ(mapped.num_edges(), result.graph.num_edges());
  for (graph::NodeId v = 0; v < result.graph.num_nodes(); ++v) {
    const auto want = result.graph.neighbors(v);
    const auto got = mapped.view().neighbors(v);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "neighbor mismatch at node " << v;
  }
}

TEST_P(Fuzz, ConverterFailsLoudlyOnMalformedLines) {
  util::Rng rng(GetParam() + 1700);
  // A valid prefix...
  std::ostringstream text;
  const std::uint64_t good_lines = 1 + rng.below(20);
  for (std::uint64_t i = 0; i < good_lines; ++i) {
    text << rng.below(50) << ' ' << rng.below(50) << '\n';
  }
  // ...then one malformed line: the converter must throw an error naming
  // this exact 1-based line number, never silently drop or truncate it.
  const std::vector<std::string> malformed = {
      "1 2 3",           // extra token
      "7",               // missing endpoint
      "a b",             // non-numeric
      "3 4x",            // trailing junk inside a token
      "4294967296 0",    // id does not fit in 32 bits
      "99999999999999999999 1",  // overflows even uint64
      "5 -1",            // negative
  };
  const std::string& bad = malformed[rng.below(malformed.size())];
  text << bad << '\n';

  std::istringstream in(text.str());
  try {
    graph::storage::convert_edge_list(in);
    FAIL() << "converter accepted malformed line '" << bad << "'";
  } catch (const std::invalid_argument& e) {
    const std::string expected =
        "line " + std::to_string(good_lines + 1) + ":";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << "error '" << e.what() << "' does not name line "
        << good_lines + 1;
  }
}

TEST_P(Fuzz, EngineRandomGraphSeedAndKind) {
  // Random graph x random seed, solved by the TAS engine: the result must
  // verify, hash identically across a second run AND across a random pair
  // of thread counts, and equal the sequential-greedy oracle over the same
  // priorities — the engine family's contract under arbitrary inputs.
  util::Rng rng(GetParam() + 1800);
  const graph::NodeId n = 2 + static_cast<graph::NodeId>(rng.below(300));
  const auto reference = random_edge_set(n, 4 * n, rng);
  graph::Builder builder(n);
  for (const auto& e : reference) builder.add_edge(e.first, e.second);
  const graph::Graph g = builder.build();

  constexpr engine::EngineKind kTas = engine::EngineKind::kTestAndSet;
  engine::EngineOptions options;
  options.seed = rng.next();
  options.num_threads = static_cast<std::uint32_t>(rng.below(5));

  const engine::EngineResult first = engine::solve(g, kTas, options);
  const mis::Verification check = mis::verify_mask(g, first.in_mis);
  ASSERT_TRUE(check.independent && check.maximal)
      << "n=" << n << ": " << check.describe();

  // Stable across a repeat run and across a different thread count.
  EXPECT_EQ(engine::solve(g, kTas, options).labels_hash(),
            first.labels_hash());
  engine::EngineOptions rethreaded = options;
  rethreaded.num_threads = static_cast<std::uint32_t>(rng.below(9));
  EXPECT_EQ(engine::solve(g, kTas, rethreaded).labels_hash(),
            first.labels_hash())
      << "threads " << options.num_threads << " vs "
      << rethreaded.num_threads;

  // Oracle: sequential greedy over the same (priority, id) order.
  const engine::EngineResult oracle =
      engine::solve(g, engine::EngineKind::kSequentialGreedy, options);
  EXPECT_EQ(first.in_mis, oracle.in_mis) << "diverged from the greedy oracle";
}

// --- Serve codec ------------------------------------------------------------

/// Fills a payload struct through its field list with seeded values: tags
/// in range, pinned fields at their one value, short strings and arrays —
/// a valid message of any struct the table names.
class RandomFill {
 public:
  explicit RandomFill(util::Rng& rng) : rng_(rng) {}

  template <typename... Fields>
  void operator()(Fields&... fields) {
    (fill(fields), ...);
  }
  template <typename T>
  void tag(T& field, std::type_identity_t<T> max) {
    field = static_cast<T>(rng_.below(static_cast<std::uint64_t>(max) + 1));
  }
  template <typename T>
  void pinned(T& field, std::type_identity_t<T> expected) {
    field = expected;
  }

 private:
  template <typename T>
  void fill(T& v) {
    if constexpr (std::is_unsigned_v<T>) {
      v = static_cast<T>(rng_.next());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v.resize(rng_.below(12));
      for (char& c : v) c = static_cast<char>(rng_.below(256));
    } else if constexpr (requires { typename T::value_type; }) {
      v.resize(rng_.below(6));
      for (auto& e : v) fill(e);
    } else {
      serve::visit_fields(*this, v);
    }
  }

  util::Rng& rng_;
};

template <typename Message>
serve::Frame random_frame(serve::MsgType type, util::Rng& rng) {
  Message m;
  RandomFill fill(rng);
  fill(m);
  return serve::make_frame(type, rng.next(), m);
}

/// One seeded valid frame of every request and reply the table names, and
/// of ErrorReply.
std::vector<serve::Frame> random_frames(util::Rng& rng) {
  std::vector<serve::Frame> frames;
#define FUZZ_SERVE_ROW(name, type, wire, Request, Reply)                   \
  frames.push_back(random_frame<serve::Request>(serve::MsgType::k##name,   \
                                                rng));                     \
  frames.push_back(                                                        \
      random_frame<serve::Reply>(serve::MsgType::kReply##name, rng));
  ARBMIS_SERVE_MESSAGES(FUZZ_SERVE_ROW)
#undef FUZZ_SERVE_ROW
  frames.push_back(
      random_frame<serve::ErrorReply>(serve::MsgType::kError, rng));
  return frames;
}

template <typename Message>
std::vector<std::uint8_t> reencode_as(const serve::Frame& frame) {
  return serve::make_frame(frame.type, 0,
                           serve::parse_payload<Message>(frame))
      .payload;
}

/// Strict decode of `frame` as the struct its type names, re-encoded.
std::vector<std::uint8_t> reencode(const serve::Frame& frame) {
  switch (frame.type) {
#define FUZZ_SERVE_DECODE(name, type, wire, Request, Reply) \
  case serve::MsgType::k##name:                             \
    return reencode_as<serve::Request>(frame);              \
  case serve::MsgType::kReply##name:                        \
    return reencode_as<serve::Reply>(frame);
    ARBMIS_SERVE_MESSAGES(FUZZ_SERVE_DECODE)
#undef FUZZ_SERVE_DECODE
    case serve::MsgType::kError:
      return reencode_as<serve::ErrorReply>(frame);
  }
  ADD_FAILURE() << "frame of unknown type "
                << static_cast<int>(frame.type);
  return {};
}

/// The codec contract for arbitrary payload bytes: the decode throws
/// ProtocolError, or it accepts and re-encodes byte-identically. Returns
/// whether it accepted.
bool decodes(serve::MsgType type, const std::vector<std::uint8_t>& payload,
             const std::string& what) {
  try {
    EXPECT_EQ(reencode(serve::Frame{type, 0, payload}), payload)
        << "type " << static_cast<int>(type) << ", " << what;
    return true;
  } catch (const serve::ProtocolError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "type " << static_cast<int>(type) << ", " << what
                  << ": " << e.what();
    return false;
  }
}

/// Overwrites `bytes` little-endian with `value` at `at`.
void put_at(std::vector<std::uint8_t>& bytes, std::size_t at,
            std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Pops frames until the reader waits or throws. ProtocolError ends the
/// stream; any other exception fails the test. Each frame popped must
/// satisfy the codec contract.
void drain_lying_stream(const std::vector<std::uint8_t>& stream,
                        const std::string& what) {
  serve::FrameReader reader;
  reader.feed(stream.data(), stream.size());
  serve::Frame frame;
  try {
    while (reader.next(frame)) decodes(frame.type, frame.payload, what);
  } catch (const serve::ProtocolError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
}

TEST_P(Fuzz, ServeCodecHoldsForEveryTableMessage) {
  util::Rng rng(GetParam() + 2000);
  std::vector<serve::Frame> frames = random_frames(rng);
  const std::vector<serve::Frame> more = random_frames(rng);
  frames.insert(frames.end(), more.begin(), more.end());

  // (a) A multi-frame stream split at every byte offset yields the same
  // frames.
  std::vector<std::uint8_t> stream;
  for (const serve::Frame& f : frames) {
    const std::vector<std::uint8_t> bytes = serve::encode_frame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    serve::FrameReader reader;
    std::vector<serve::Frame> got;
    serve::Frame out;
    reader.feed(stream.data(), split);
    while (reader.next(out)) got.push_back(out);
    reader.feed(stream.data() + split, stream.size() - split);
    while (reader.next(out)) got.push_back(out);
    ASSERT_EQ(got.size(), frames.size()) << "split " << split;
    EXPECT_EQ(reader.buffered(), 0u);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(got[i].type, frames[i].type) << "split " << split;
      ASSERT_EQ(got[i].request_id, frames[i].request_id);
      ASSERT_EQ(got[i].payload, frames[i].payload);
    }
  }

  // (b) Malformed payloads and frames end in ProtocolError or in a decode
  // that re-encodes byte-identically.
  const std::uint64_t count_lies[] = {0,
                                      1,
                                      255,
                                      std::uint64_t{1} << 32,
                                      std::uint64_t{1} << 61,
                                      std::uint64_t{1} << 62,
                                      0x1c71c71c71c71c72,
                                      ~std::uint64_t{0}};
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const serve::MsgType type = frames[f].type;
    const std::vector<std::uint8_t>& payload = frames[f].payload;
    ASSERT_TRUE(decodes(type, payload, "valid"));

    // Truncation at every length, and one trailing byte: the encoding is
    // self-delimiting, so both always reject.
    for (std::size_t k = 0; k < payload.size(); ++k) {
      EXPECT_FALSE(decodes(
          type, {payload.begin(), payload.begin() + static_cast<long>(k)},
          "truncated to " + std::to_string(k)));
    }
    std::vector<std::uint8_t> trailing = payload;
    trailing.push_back(static_cast<std::uint8_t>(rng.next()));
    EXPECT_FALSE(decodes(type, trailing, "one trailing byte"));

    // Every single-bit flip.
    for (std::size_t bit = 0; bit < 8 * payload.size(); ++bit) {
      std::vector<std::uint8_t> flipped = payload;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      decodes(type, flipped, "bit flip " + std::to_string(bit));
    }
    // Random bytes.
    for (int k = 0; k < 16; ++k) {
      std::vector<std::uint8_t> random(rng.below(2 * payload.size() + 2));
      for (std::uint8_t& b : random) b = static_cast<std::uint8_t>(rng.next());
      decodes(type, random, "random bytes");
    }
    // Count lies: every u64 window (so every array count) and every u32
    // window (every string length) overwritten.
    for (std::size_t at = 0; at + 4 <= payload.size(); ++at) {
      for (const std::uint64_t lie : count_lies) {
        for (const std::size_t width : {std::size_t{4}, std::size_t{8}}) {
          if (at + width > payload.size()) continue;
          std::vector<std::uint8_t> lying = payload;
          put_at(lying, at, lie, width);
          decodes(type, lying, "count lie at " + std::to_string(at));
        }
      }
    }
    // payload_len lies, with the next frame behind for a short lie to
    // run into.
    std::vector<std::uint8_t> bytes = serve::encode_frame(frames[f]);
    const std::vector<std::uint8_t> next =
        serve::encode_frame(frames[(f + 1) % frames.size()]);
    bytes.insert(bytes.end(), next.begin(), next.end());
    for (const std::uint64_t len :
         {std::uint64_t{0}, std::uint64_t{payload.size()} - 1,
          std::uint64_t{payload.size()} + 1, rng.below(64),
          std::uint64_t{serve::kMaxPayloadBytes} + 1,
          std::uint64_t{0xffffffff}}) {
      std::vector<std::uint8_t> lying = bytes;
      put_at(lying, 16, len, 4);
      drain_lying_stream(lying, "payload_len lie " + std::to_string(len));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---------------------------------------------------------------------------
// Arena differential fuzz (slow tier: ctest -L slow; excluded from tier1).
// Random graph x random adversary x random thread count: the Network's
// message arena against a test-local delivery model — agreeing not just on
// outputs but *message for message*. The workload is a chatter whose every
// step is a pure function of (node, round, inbox, draw), so the model can
// replay it without a Network: per-node vector inboxes filled in ascending
// sender order, the down set consulted at send time, fates from an
// identical (pure) fault plan. Each node hash-chains every delivered
// (src, tag, payload) triple into a digest, so any divergence in inbox
// contents or order anywhere in the run flips a hash.
// ---------------------------------------------------------------------------

/// The chatter's per-node state and step rule, shared by the Network
/// adapter and the delivery model.
class Chatter {
 public:
  explicit Chatter(graph::NodeId n) : digests_(n, 0x9e3779b97f4a7c15ULL) {}

  /// Node v's step in `round`: folds `inbox` into v's digest, then sends
  /// on a digest-dependent subset of its ports via send(port, tag,
  /// payload). `draw` is v's one random draw of the round, so every send
  /// is randomness-bearing. Returns true when v halts.
  template <typename Send>
  bool step(graph::NodeId v, std::uint32_t round, graph::NodeId degree,
            std::span<const sim::Message> inbox, std::uint64_t draw,
            Send&& send) {
    std::uint64_t& digest = digests_[v];
    for (const sim::Message& m : inbox) {
      digest = util::mix64(digest, m.src);
      digest = util::mix64(digest, m.tag);
      digest = util::mix64(digest, m.payload);
    }
    const std::uint64_t h = util::mix64(digest, util::mix64(round, draw));
    for (graph::NodeId port = 0; port < degree; ++port) {
      const std::uint64_t coin = util::mix64(h, port);
      // 3-bit tag + 56-bit payload stays inside the checker's budget.
      if ((coin & 3) != 0) {
        send(port, static_cast<std::uint32_t>(coin >> 61), coin >> 8);
      }
    }
    return round >= 3 && (h & 7) == 0;
  }

  const std::vector<std::uint64_t>& digests() const { return digests_; }

 private:
  std::vector<std::uint64_t> digests_;
};

class ChatterAlgorithm final : public sim::Algorithm {
 public:
  explicit ChatterAlgorithm(graph::NodeId n) : chatter_(n) {}

  std::string_view name() const override { return "chatter"; }
  void on_start(sim::NodeContext& ctx) override { act(ctx, {}); }
  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    act(ctx, inbox);
  }

  const Chatter& chatter() const { return chatter_; }

 private:
  void act(sim::NodeContext& ctx, std::span<const sim::Message> inbox) {
    const std::uint64_t draw = ctx.rng().next();
    const bool halt = chatter_.step(
        ctx.id(), ctx.round(), ctx.degree(), inbox, draw,
        [&](graph::NodeId port, std::uint32_t tag, std::uint64_t payload) {
          ctx.send(port, tag, payload);
        });
    if (halt) ctx.halt();
  }

  Chatter chatter_;
};

/// One observable snapshot of a fuzz run for exact comparison.
struct ArenaFuzzRun {
  std::vector<std::uint64_t> digests;
  /// FaultRound events: the Network's, or the model's own count of them.
  std::vector<obs::OwnedEvent> fault_rounds;
  std::uint64_t rng_draws = 0;
  std::uint32_t rounds = 0;
  std::uint64_t messages = 0;

  bool operator==(const ArenaFuzzRun&) const = default;
};

/// The delivery model: Network::run's round loop written out serially
/// with plain vector inboxes.
ArenaFuzzRun model_run(const graph::Graph& g, std::uint64_t seed,
                       fault::FaultPlan* plan, std::uint32_t max_rounds) {
  const graph::NodeId n = g.num_nodes();
  std::vector<util::Rng> rngs;
  for (graph::NodeId v = 0; v < n; ++v) {
    rngs.push_back(util::Rng(seed).child(v));
  }
  std::vector<std::vector<sim::Message>> inbox(n);
  std::vector<std::vector<sim::Message>> next(n);
  std::vector<std::uint8_t> halted(n, 0);
  std::vector<std::uint64_t> slot_base(n + 1, 0);  // CSR directed-edge slots
  for (graph::NodeId v = 0; v < n; ++v) {
    slot_base[v + 1] = slot_base[v] + g.degree(v);
  }
  Chatter chatter(n);
  ArenaFuzzRun run;
  if (plan != nullptr) plan->begin_run();
  const auto phase = [&](std::uint32_t round) {
    sim::RoundFaultEvents events;
    if (plan != nullptr) events = plan->begin_round(round, halted);
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (halted[v] != 0 || (plan != nullptr && plan->is_down(v))) continue;
      if (round > 0) run.messages += inbox[v].size();
      ++run.rng_draws;
      const auto nbrs = g.neighbors(v);
      const bool halt = chatter.step(
          v, round, g.degree(v), inbox[v], rngs[v].next(),
          [&](graph::NodeId port, std::uint32_t tag, std::uint64_t payload) {
            const graph::NodeId to = nbrs[port];
            std::uint8_t copies = 1;
            if (plan != nullptr) {
              copies = plan->is_down(to)
                           ? 0
                           : plan->on_message(v, to, slot_base[v] + port,
                                              round)
                                 .copies;
            }
            drops += copies == 0 ? 1 : 0;
            duplicates += copies > 1 ? copies - 1u : 0u;
            for (std::uint8_t c = 0; c < copies; ++c) {
              next[to].push_back(sim::Message{v, tag, payload});
            }
          });
      if (halt) halted[v] = 1;
    }
    if (plan != nullptr) {
      run.fault_rounds.emplace_back(
          obs::make_event<obs::EventKind::kFaultRound>(
              round, drops, duplicates, events.crashes, events.recoveries));
    }
  };
  phase(0);
  while (run.rounds < max_rounds) {
    const auto num_halted = static_cast<graph::NodeId>(
        std::count(halted.begin(), halted.end(), std::uint8_t{1}));
    if (num_halted >= n) break;
    if (plan != nullptr && !plan->recovery_pending() &&
        num_halted + plan->num_down() >= n) {
      break;
    }
    std::swap(inbox, next);
    for (auto& box : next) box.clear();
    phase(++run.rounds);
  }
  run.digests = chatter.digests();
  return run;
}

class ArenaSlowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaSlowFuzz, ArenaAgreesWithReferenceMessageForMessage) {
  constexpr int kCasesPerSeed = 10;
  constexpr std::uint32_t kMaxRounds = 2048;
  for (int c = 0; c < kCasesPerSeed; ++c) {
    const std::uint64_t case_seed = GetParam() * 1000 + std::uint64_t(c);
    util::Rng rng(case_seed + 700);
    const graph::NodeId n = 40 + static_cast<graph::NodeId>(rng.below(200));
    const double p =
        2.0 / static_cast<double>(n) * static_cast<double>(1 + rng.below(4));
    const graph::Graph g = graph::gen::gnp(n, p, rng);
    const auto threads = static_cast<std::uint32_t>(rng.below(9));  // 0..8
    const bool faulty = rng.bernoulli(0.5);
    const fault::IidOptions odds = {
        .drop_rate = faulty ? rng.uniform01() * 0.4 : 0.0,
        .duplicate_rate = faulty ? rng.uniform01() * 0.3 : 0.0,
        .crash_rate = faulty ? rng.uniform01() * 0.03 : 0.0,
        .recovery_delay = static_cast<std::uint32_t>(rng.below(4))};
    const std::string label = "case_seed=" + std::to_string(case_seed) +
                              " n=" + std::to_string(n) +
                              " threads=" + std::to_string(threads) +
                              (faulty ? " faulty" : " fault-free");

    // A fresh plan per run: plans are stateful, determinism comes from
    // (graph, seed, adversary) being identical across runs.
    fault::IidAdversary model_adversary(odds);
    fault::FaultPlan model_plan(g, case_seed, model_adversary);
    const ArenaFuzzRun reference =
        model_run(g, case_seed, faulty ? &model_plan : nullptr, kMaxRounds);

    fault::IidAdversary adversary(odds);
    fault::FaultPlan plan(g, case_seed, adversary);
    sim::NetworkOptions options;
    options.num_threads = threads;
    options.fault = faulty ? &plan : nullptr;
    sim::Network net(g, case_seed, options);
    ChatterAlgorithm algo(n);
    sim::RunStats stats;
    ArenaFuzzRun arena;
    arena.fault_rounds = test::capture_events(
        {obs::EventKind::kFaultRound},
        [&] { stats = net.run(algo, kMaxRounds); });
    arena.digests = algo.chatter().digests();
    arena.rng_draws = net.total_rng_draws();
    arena.rounds = stats.rounds;
    arena.messages = stats.messages;

    EXPECT_EQ(reference.digests, arena.digests) << label;
    EXPECT_EQ(reference.fault_rounds, arena.fault_rounds) << label;
    EXPECT_EQ(reference.rng_draws, arena.rng_draws) << label;
    EXPECT_EQ(reference.rounds, arena.rounds) << label;
    EXPECT_EQ(reference.messages, arena.messages) << label;
    EXPECT_EQ(net.model_check_report().violations, 0u) << label;
  }
}

// 21 seeds x 10 cases each = 210 random cases per suite run.
INSTANTIATE_TEST_SUITE_P(Seeds, ArenaSlowFuzz,
                         ::testing::Range<std::uint64_t>(1, 22));

}  // namespace
}  // namespace arbmis
