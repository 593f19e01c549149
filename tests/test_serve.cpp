// Tests for the serving layer (src/serve/): protocol framing and strict
// malformed-input rejection, dynamic-graph update semantics, the result
// cache's content-hash keying, and the incremental-repair differential
// suite — after a fuzzed update sequence the maintained MIS must verify
// independent+maximal on the final graph, and the full reply byte stream
// and telemetry event stream must be identical across simulator thread
// counts 0/2/8 and across storage backends. Also covers the live
// introspection surface: METRICS snapshots (which exclude their own
// request, keeping idle-daemon scrapes deterministic) and DUMP_RECORDER
// flight-recorder artifacts with clear-after-snapshot semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/resilient_mis.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "mis/verifier.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "serve/client.h"
#include "serve/dynamic_graph.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/rng.h"

namespace arbmis::serve {
namespace {

graph::Graph test_graph(graph::NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::gen::union_of_random_forests(n, 2, rng);
}

LoadGraphRequest inline_load(std::uint64_t graph_id, const graph::Graph& g) {
  LoadGraphRequest load;
  load.graph_id = graph_id;
  load.num_nodes = g.num_nodes();
  load.edges = g.edges();
  return load;
}

/// The shared typed round trip, in process through MisService::handle.
template <RequestMessage Request>
ReplyOf<Request> call(MisService& service, const Request& request) {
  return roundtrip([&service](const Frame& f) { return service.handle(f); },
                   request);
}

/// Feeds encoded bytes through a FrameReader in two chunks (exercising
/// incremental reassembly) and returns the single decoded frame.
Frame reread(const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  FrameReader reader;
  const std::size_t split = bytes.size() / 2;
  reader.feed(bytes.data(), split);
  Frame out;
  EXPECT_FALSE(reader.next(out)) << "half a frame decoded";
  reader.feed(bytes.data() + split, bytes.size() - split);
  EXPECT_TRUE(reader.next(out));
  EXPECT_EQ(reader.buffered(), 0u);
  return out;
}

TEST(ServeProtocol, FrameRoundTripAllTypes) {
  LoadGraphRequest load;
  load.graph_id = 7;
  load.num_nodes = 5;
  load.edges = {{0, 1}, {1, 2}, {3, 4}};
  {
    const Frame f = reread(make_frame(MsgType::kLoadGraph, 11, load));
    EXPECT_EQ(f.type, MsgType::kLoadGraph);
    EXPECT_EQ(f.request_id, 11u);
    const auto m = parse_payload<LoadGraphRequest>(f);
    EXPECT_EQ(m.graph_id, 7u);
    EXPECT_FALSE(m.from_path);
    EXPECT_EQ(m.num_nodes, 5u);
    ASSERT_EQ(m.edges.size(), 3u);
    EXPECT_EQ(m.edges[2].u, 3u);
    EXPECT_EQ(m.edges[2].v, 4u);
  }
  {
    LoadGraphRequest by_path;
    by_path.graph_id = 9;
    by_path.from_path = true;
    by_path.path = "/tmp/some graph.gr";
    const auto m = parse_payload<LoadGraphRequest>(
        reread(make_frame(MsgType::kLoadGraph, 12, by_path)));
    EXPECT_TRUE(m.from_path);
    EXPECT_EQ(m.path, "/tmp/some graph.gr");
  }
  {
    ComputeMisRequest req{42, {3, 999}};
    const auto m = parse_payload<ComputeMisRequest>(
        reread(make_frame(MsgType::kComputeMis, 13, req)));
    EXPECT_EQ(m.graph_id, 42u);
    EXPECT_EQ(m.params.alpha, 3u);
    EXPECT_EQ(m.params.seed, 999u);
  }
  {
    ComputeMisReply reply{10, 0xabcd, 0x1234, 1, 1, 2, 17};
    const auto m = parse_payload<ComputeMisReply>(
        reread(make_frame(MsgType::kReplyComputeMis, 13, reply)));
    EXPECT_EQ(m.mis_size, 10u);
    EXPECT_EQ(m.labels_hash, 0xabcdu);
    EXPECT_EQ(m.cache_hit, 1u);
    EXPECT_EQ(m.rounds, 17u);
  }
  {
    QueryRequest req{5, {2, 3}, {0, 2, 4}};
    const auto m = parse_payload<QueryRequest>(
        reread(make_frame(MsgType::kQuery, 14, req)));
    EXPECT_EQ(m.nodes, (std::vector<graph::NodeId>{0, 2, 4}));
  }
  {
    UpdateEdgesRequest req;
    req.graph_id = 5;
    req.ops = {{UpdateOp::kInsertEdge, 1, 2},
               {UpdateOp::kAddVertex, 0, 0},
               {UpdateOp::kDetachVertex, 3, 0}};
    const auto m = parse_payload<UpdateEdgesRequest>(
        reread(make_frame(MsgType::kUpdateEdges, 15, req)));
    ASSERT_EQ(m.ops.size(), 3u);
    EXPECT_EQ(m.ops[1].op, UpdateOp::kAddVertex);
    EXPECT_EQ(m.ops[2].u, 3u);
  }
  {
    StatsReply stats;
    stats.requests_total = 100;
    stats.cache_evictions = 3;
    const auto m = parse_payload<StatsReply>(
        reread(make_frame(MsgType::kReplyStats, 16, stats)));
    EXPECT_EQ(m, stats);
  }
  {
    ErrorReply err{static_cast<std::uint32_t>(ErrorCode::kUnknownGraph),
                   "no such graph"};
    const auto m = parse_payload<ErrorReply>(
        reread(make_frame(MsgType::kError, 17, err)));
    EXPECT_EQ(m.code, 2u);
    EXPECT_EQ(m.message, "no such graph");
  }
  {
    const auto m = parse_payload<MetricsRequest>(
        reread(make_frame(MsgType::kMetrics, 18, MetricsRequest{})));
    EXPECT_EQ(m.version, kMetricsPayloadVersion);
  }
  {
    MetricsReply reply;
    reply.json = "{\"schema\":\"arbmis.metrics.v2\",\"counters\":{}}";
    const auto m = parse_payload<MetricsReply>(
        reread(make_frame(MsgType::kReplyMetrics, 18, reply)));
    EXPECT_EQ(m.version, kMetricsPayloadVersion);
    EXPECT_EQ(m.json, reply.json);
  }
  {
    DumpRecorderRequest req;
    req.clear_after = 1;
    const auto m = parse_payload<DumpRecorderRequest>(
        reread(make_frame(MsgType::kDumpRecorder, 19, req)));
    EXPECT_EQ(m.clear_after, 1u);
  }
  {
    DumpRecorderReply reply;
    reply.recorder_attached = 1;
    reply.buffered_events = 42;
    reply.evicted_events = 7;
    reply.artifact = std::string("ARBMISEV\x01 binary bytes \x00 ok", 26);
    const auto m = parse_payload<DumpRecorderReply>(
        reread(make_frame(MsgType::kReplyDumpRecorder, 19, reply)));
    EXPECT_EQ(m.recorder_attached, 1u);
    EXPECT_EQ(m.buffered_events, 42u);
    EXPECT_EQ(m.evicted_events, 7u);
    EXPECT_EQ(m.artifact, reply.artifact);  // embedded NUL survives
  }
}

TEST(ServeProtocol, RejectsMalformedFrames) {
  const Frame good = make_frame(MsgType::kStats, 1, StatsReply{});
  std::vector<std::uint8_t> bytes = encode_frame(Frame{MsgType::kStats, 1, {}});

  {
    // Bad magic — detected from the first 4 bytes, before a full header.
    auto bad = bytes;
    bad[0] ^= 0xff;
    FrameReader reader;
    Frame out;
    reader.feed(bad.data(), 4);
    EXPECT_THROW(reader.next(out), ProtocolError);
  }
  {
    // Bad version.
    auto bad = bytes;
    bad[4] = 0x7f;
    FrameReader reader;
    Frame out;
    reader.feed(bad.data(), bad.size());
    EXPECT_THROW(reader.next(out), ProtocolError);
  }
  {
    // Unknown message type.
    auto bad = bytes;
    bad[6] = 99;
    FrameReader reader;
    Frame out;
    reader.feed(bad.data(), bad.size());
    EXPECT_THROW(reader.next(out), ProtocolError);
  }
  {
    // Oversized payload length.
    auto bad = bytes;
    bad[16] = 0xff;
    bad[17] = 0xff;
    bad[18] = 0xff;
    bad[19] = 0xff;
    FrameReader reader;
    Frame out;
    reader.feed(bad.data(), bad.size());
    EXPECT_THROW(reader.next(out), ProtocolError);
  }
  {
    // Truncated: header promises more payload than arrives — no frame,
    // no throw (the stream may simply still be in flight).
    const std::vector<std::uint8_t> full =
        encode_frame(make_frame(MsgType::kComputeMis, 2,
                                ComputeMisRequest{1, {2, 3}}));
    FrameReader reader;
    Frame out;
    reader.feed(full.data(), full.size() - 4);
    EXPECT_FALSE(reader.next(out));
  }
  {
    // Trailing payload bytes: framing accepts, strict parse rejects.
    Frame padded = good;
    padded.type = MsgType::kComputeMis;
    padded.payload = make_frame(MsgType::kComputeMis, 3,
                                ComputeMisRequest{1, {2, 3}})
                         .payload;
    padded.payload.push_back(0);
    EXPECT_THROW(parse_payload<ComputeMisRequest>(padded), ProtocolError);
  }
  {
    // Payload underflow inside a decoder.
    Frame short_frame{MsgType::kComputeMis, 4, {1, 2, 3}};
    EXPECT_THROW(parse_payload<ComputeMisRequest>(short_frame),
                 ProtocolError);
  }
  {
    // A huge element count prefix must be rejected before any allocation.
    Frame bad{MsgType::kQuery, 5, {}};
    PayloadWriter w(bad.payload);
    w(std::uint64_t{1},            // graph_id
      std::uint32_t{2},            // alpha
      std::uint64_t{3},            // seed
      std::uint64_t{0xffffffff});  // node count with no bytes behind it
    EXPECT_THROW(parse_payload<QueryRequest>(bad), ProtocolError);
  }
  {
    // Counts whose byte size wraps past 2^64 (count * element bytes
    // overflows to a small number) are rejected too, not sized.
    Frame query{MsgType::kQuery, 8, {}};
    PayloadWriter(query.payload)(std::uint64_t{1}, std::uint32_t{2},
                                 std::uint64_t{3}, std::uint64_t{1} << 62);
    EXPECT_THROW(parse_payload<QueryRequest>(query), ProtocolError);

    Frame update{MsgType::kUpdateEdges, 9, {}};
    PayloadWriter(update.payload)(std::uint64_t{1}, std::uint32_t{2},
                                  std::uint64_t{3},
                                  std::uint64_t{0x1c71c71c71c71c72},
                                  EdgeUpdate{});  // 9 * count wraps to 2
    EXPECT_THROW(parse_payload<UpdateEdgesRequest>(update), ProtocolError);

    Frame load{MsgType::kLoadGraph, 10, {}};
    PayloadWriter(load.payload)(std::uint64_t{1}, std::uint8_t{0},
                                std::uint32_t{4}, std::uint64_t{1} << 61);
    EXPECT_THROW(parse_payload<LoadGraphRequest>(load), ProtocolError);
  }
  {
    // Unknown metrics payload version: strict decoders refuse rather
    // than guess at a future exposition format, or serve a retired one
    // (version 1 carried the per-round series).
    for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{3}}) {
      Frame bad{MsgType::kMetrics, 6, {}};
      PayloadWriter w(bad.payload);
      w(version);  // only version 2 is defined
      EXPECT_THROW(parse_payload<MetricsRequest>(bad), ProtocolError);
    }
  }
  {
    // clear_after is a strict boolean on the wire.
    Frame bad{MsgType::kDumpRecorder, 7, {}};
    PayloadWriter w(bad.payload);
    w(std::uint8_t{2});
    EXPECT_THROW(parse_payload<DumpRecorderRequest>(bad), ProtocolError);
  }
}

TEST(ServeDynamicGraph, UpdateSemanticsAndAtomicity) {
  const auto base = std::make_shared<graph::Graph>(
      graph::from_edges(4, std::vector<graph::Edge>{{0, 1}, {1, 2}}));
  DynamicGraph g(*base);
  const std::uint64_t base_hash = g.content_hash();

  // The same content on externally owned storage. A rejected first batch
  // leaves it untouched (still the owner's bytes, nothing cached before).
  DynamicGraph viewed(graph::GraphView(*base), base);
  const std::vector<EdgeUpdate> poisoned = {{UpdateOp::kInsertEdge, 0, 2},
                                            {UpdateOp::kInsertEdge, 3, 3}};
  EXPECT_THROW(viewed.apply(poisoned), ServeError);
  EXPECT_EQ(viewed.content_hash(), base_hash);
  EXPECT_EQ(viewed.num_edges(), 2u);
  EXPECT_EQ(viewed.view().neighbors(1).data(), base->neighbors(1).data());

  // No-ops: inserting an existing edge (either orientation) and removing
  // a non-edge apply zero ops and keep the content hash.
  const std::vector<EdgeUpdate> noops = {{UpdateOp::kInsertEdge, 1, 0},
                                         {UpdateOp::kRemoveEdge, 0, 3}};
  EXPECT_EQ(g.apply(noops), 0u);
  EXPECT_EQ(g.content_hash(), base_hash);

  // Add a vertex, connect it, detach an old hub.
  const std::vector<EdgeUpdate> batch = {{UpdateOp::kAddVertex, 0, 0},
                                         {UpdateOp::kInsertEdge, 4, 0},
                                         {UpdateOp::kDetachVertex, 1, 0}};
  EXPECT_EQ(g.apply(batch), 3u);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 1u);  // {0,4} only; 1's edges detached
  EXPECT_NE(g.content_hash(), base_hash);
  EXPECT_EQ(viewed.apply(batch), 3u);
  EXPECT_EQ(viewed.content_hash(), g.content_hash());
  EXPECT_EQ(base.use_count(), 1);  // the accepted batch released the owner

  // Atomicity: an invalid op anywhere rejects the whole batch.
  const std::uint64_t pre = g.content_hash();
  EXPECT_THROW(g.apply(poisoned), ServeError);
  EXPECT_EQ(g.content_hash(), pre);
  EXPECT_EQ(g.num_edges(), 1u);

  const std::vector<EdgeUpdate> out_of_range = {{UpdateOp::kInsertEdge, 0,
                                                 99}};
  EXPECT_THROW(g.apply(out_of_range), ServeError);
  const std::vector<EdgeUpdate> detach_oob = {{UpdateOp::kDetachVertex, 99,
                                               0}};
  EXPECT_THROW(g.apply(detach_oob), ServeError);
}

TEST(ServeContentHash, TracksStructureNotIdentity) {
  const graph::Graph a = test_graph(120, 5);
  const graph::Graph b = test_graph(120, 5);
  const graph::Graph c = test_graph(120, 6);
  EXPECT_EQ(graph::content_hash(a), graph::content_hash(b));
  EXPECT_NE(graph::content_hash(a), graph::content_hash(c));

  // An update that round-trips the structure restores the hash.
  DynamicGraph d{test_graph(120, 5)};
  const std::uint64_t before = d.content_hash();
  const std::vector<EdgeUpdate> there = {{UpdateOp::kInsertEdge, 3, 99}};
  const std::vector<EdgeUpdate> back = {{UpdateOp::kRemoveEdge, 3, 99}};
  if (d.apply(there) == 1) {
    (void)d.apply(back);
    EXPECT_EQ(d.content_hash(), before);
  }
}

TEST(ServeService, CacheHitsByContentNotId) {
  MisService service;
  const graph::Graph g = test_graph(150, 21);
  const ComputeParams params{2, 77};

  const LoadGraphReply loaded = call(service, inline_load(1, g));
  EXPECT_EQ(loaded.content_hash, graph::content_hash(g));

  const ComputeMisReply first = call(service, ComputeMisRequest{1, params});
  EXPECT_EQ(first.cache_hit, 0u);
  EXPECT_EQ(first.certified, 1u);
  const ComputeMisReply second = call(service, ComputeMisRequest{1, params});
  EXPECT_EQ(second.cache_hit, 1u);
  EXPECT_EQ(second.labels_hash, first.labels_hash);
  EXPECT_EQ(second.mis_size, first.mis_size);

  // Same content under a different id shares the cache entry.
  call(service, inline_load(2, g));
  const ComputeMisReply other_id =
      call(service, ComputeMisRequest{2, params});
  EXPECT_EQ(other_id.cache_hit, 1u);
  EXPECT_EQ(other_id.labels_hash, first.labels_hash);

  // A different seed is a different key.
  const ComputeMisReply other_seed =
      call(service, ComputeMisRequest{1, {2, 78}});
  EXPECT_EQ(other_seed.cache_hit, 0u);

  const StatsReply stats = call(service, StatsRequest{});
  EXPECT_EQ(stats.computes, 4u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.graphs_loaded, 2u);
}

TEST(ServeService, CacheEvictsFifoAndCounts) {
  ServiceOptions options;
  options.max_cache_entries = 1;
  MisService service(options);
  call(service, inline_load(1, test_graph(100, 3)));

  const auto compute = [&](std::uint64_t seed) {
    return call(service, ComputeMisRequest{1, {2, seed}});
  };
  EXPECT_EQ(compute(1).cache_hit, 0u);
  EXPECT_EQ(compute(2).cache_hit, 0u);  // evicts seed 1
  EXPECT_EQ(compute(1).cache_hit, 0u);  // gone again
  EXPECT_GE(call(service, StatsRequest{}).cache_evictions, 2u);
}

TEST(ServeService, ErrorsCarryCodes) {
  MisService service;  // no gr_loader
  try {
    call(service, ComputeMisRequest{99, {2, 1}});
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownGraph);
  }
  LoadGraphRequest by_path;
  by_path.graph_id = 1;
  by_path.from_path = true;
  by_path.path = "/nonexistent.gr";
  try {
    call(service, by_path);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
  }
  // Malformed payloads in well-formed frames are BAD_REQUEST: a STATS
  // request with a payload, and a QUERY whose node count's byte size
  // wraps past 2^64.
  Frame stats_with_junk{MsgType::kStats, 1, {0}};
  Frame query_overflow{MsgType::kQuery, 2, {}};
  PayloadWriter(query_overflow.payload)(std::uint64_t{1}, std::uint32_t{2},
                                        std::uint64_t{3},
                                        std::uint64_t{1} << 62);
  for (const Frame& bad : {stats_with_junk, query_overflow}) {
    const Frame reply = service.handle(bad);
    ASSERT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(parse_payload<ErrorReply>(reply).code,
              static_cast<std::uint32_t>(ErrorCode::kBadRequest))
        << parse_payload<ErrorReply>(reply).message;
  }
}

TEST(ServeService, RepairFallsBackPastTheFullRecomputeFraction) {
  // Adding k isolated vertices to a fully decided n0-node graph leaves a
  // residual of exactly k out of n0 + k nodes. repair() recomputes fully
  // iff k > full_recompute_fraction * (n0 + k); at 0.5 the cliff sits
  // between k = 10 and k = 11.
  constexpr graph::NodeId kN0 = 10;
  struct Row {
    double fraction;
    graph::NodeId k;
    bool incremental;
  };
  for (const Row& row : {Row{0.5, 9, true}, Row{0.5, 10, true},
                         Row{0.5, 11, false}, Row{0.25, 4, false}}) {
    SCOPED_TRACE("fraction " + std::to_string(row.fraction) + ", k " +
                 std::to_string(row.k));
    ServiceOptions options;
    options.full_recompute_fraction = row.fraction;
    MisService service(options);
    call(service, inline_load(1, graph::gen::path(kN0)));
    const ComputeParams params{2, 3};
    ASSERT_EQ(call(service, ComputeMisRequest{1, params}).certified, 1u);

    const std::vector<EdgeUpdate> ops(row.k, {UpdateOp::kAddVertex, 0, 0});
    const UpdateEdgesReply reply =
        call(service, UpdateEdgesRequest{1, params, ops});
    EXPECT_EQ(reply.certified, 1u);
    EXPECT_EQ(reply.incremental, row.incremental ? 1u : 0u);
    EXPECT_EQ(reply.residual, row.incremental ? row.k : kN0 + row.k);
  }
}

// --- Live introspection (METRICS / DUMP_RECORDER) -------------------------

TEST(ServeService, MetricsWithoutRegistryIsEmptyDocument) {
  MisService service;
  const Frame reply =
      service.handle(make_frame(MsgType::kMetrics, 1, MetricsRequest{}));
  ASSERT_EQ(reply.type, MsgType::kReplyMetrics);
  const auto m = parse_payload<MetricsReply>(reply);
  EXPECT_EQ(m.version, kMetricsPayloadVersion);
  EXPECT_NE(m.json.find("\"arbmis.metrics.v2\""), std::string::npos);
  EXPECT_NE(m.json.find("\"counters\":{}"), std::string::npos);
  // The same bytes an attached but empty registry would give.
  EXPECT_EQ(m.json, obs::Registry().to_json());
}

TEST(ServeService, MetricsSnapshotExcludesItsOwnRequest) {
  obs::Registry registry;
  const obs::ScopedRegistry attach(&registry);
  MisService service;
  const graph::Graph g = test_graph(80, 9);
  service.handle(make_frame(MsgType::kLoadGraph, 1, inline_load(1, g)));
  service.handle(
      make_frame(MsgType::kComputeMis, 2, ComputeMisRequest{1, {2, 5}}));

  const Frame reply =
      service.handle(make_frame(MsgType::kMetrics, 3, MetricsRequest{}));
  const auto m = parse_payload<MetricsReply>(reply);
  // The reply is built before the end-of-handle registry feed, so a
  // snapshot reflects exactly the PRIOR workload and never its own
  // request — that makes a scrape of an idle daemon deterministic, which
  // the serve-smoke CI gate relies on (exact-equality counter diffs).
  EXPECT_NE(m.json.find("\"serve.requests\":2"), std::string::npos) << m.json;
  EXPECT_NE(m.json.find("\"serve.req.load_graph\":1"), std::string::npos);
  EXPECT_NE(m.json.find("\"serve.req.compute_mis\":1"), std::string::npos);
  EXPECT_EQ(m.json.find("\"serve.req.metrics\""), std::string::npos);
  // No embedded manifest either: thread/inbox provenance would break the
  // snapshot's determinism across executors.
  EXPECT_NE(m.json.find("\"manifest\":null"), std::string::npos);
  // Totals only: no per-round array grows with every simulated round (the
  // Round events record each round).
  EXPECT_EQ(m.json.find("\"sampled\""), std::string::npos) << m.json;
  // The registry itself HAS now metered the metrics request.
  EXPECT_EQ(registry.counter("serve.requests"), 3u);
  EXPECT_EQ(registry.counter("serve.req.metrics"), 1u);
}

TEST(ServeService, DumpRecorderReportsDetachedWithoutRecorder) {
  MisService service;
  const Frame reply = service.handle(
      make_frame(MsgType::kDumpRecorder, 1, DumpRecorderRequest{}));
  ASSERT_EQ(reply.type, MsgType::kReplyDumpRecorder);
  const auto m = parse_payload<DumpRecorderReply>(reply);
  EXPECT_EQ(m.recorder_attached, 0u);
  EXPECT_EQ(m.buffered_events, 0u);
  EXPECT_TRUE(m.artifact.empty());
}

TEST(ServeService, DumpRecorderSnapshotsRingAndClearsOnRequest) {
  obs::RecorderConfig config;
  config.max_bytes = std::size_t{1} << 16;
  obs::FlightRecorder recorder(config);
  const obs::ScopedRecorder attach(&recorder);
  MisService service;
  const graph::Graph g = test_graph(80, 9);
  service.handle(make_frame(MsgType::kLoadGraph, 1, inline_load(1, g)));
  service.handle(
      make_frame(MsgType::kComputeMis, 2, ComputeMisRequest{1, {2, 5}}));

  const auto first = parse_payload<DumpRecorderReply>(service.handle(
      make_frame(MsgType::kDumpRecorder, 3, DumpRecorderRequest{})));
  EXPECT_EQ(first.recorder_attached, 1u);
  EXPECT_GT(first.buffered_events, 0u);
  // The artifact is a complete ARBMISEV stream (magic + version byte),
  // consumable by tools/trace_inspect.py like any on-disk dump. Artifacts
  // embed the recorder's manifest (thread provenance), so tests compare
  // ring_bytes()/decoded events across executors, never artifact bytes.
  ASSERT_GE(first.artifact.size(), 9u);
  EXPECT_EQ(first.artifact.substr(0, 8), "ARBMISEV");
  EXPECT_EQ(static_cast<std::uint8_t>(first.artifact[8]), 0x01);

  // clear_after=1 snapshots, then resets the ring so a scraper can
  // collect disjoint windows. Events emitted after the clear (the tail
  // of the clearing request itself) are all that remains buffered.
  DumpRecorderRequest clear_req;
  clear_req.clear_after = 1;
  const auto cleared = parse_payload<DumpRecorderReply>(
      service.handle(make_frame(MsgType::kDumpRecorder, 4, clear_req)));
  EXPECT_EQ(cleared.recorder_attached, 1u);
  EXPECT_GE(cleared.buffered_events, first.buffered_events);

  const auto after = parse_payload<DumpRecorderReply>(service.handle(
      make_frame(MsgType::kDumpRecorder, 5, DumpRecorderRequest{})));
  EXPECT_LT(after.buffered_events, first.buffered_events);
  EXPECT_GT(after.buffered_events, 0u);  // the clearing request's tail
}

// --- Differential incremental-repair suite --------------------------------

/// Local mirror of the service's dynamic-graph semantics, used to verify
/// final labelings with mis::verify_mask against an independently
/// maintained edge set.
struct MirrorGraph {
  graph::NodeId n = 0;
  std::set<std::pair<graph::NodeId, graph::NodeId>> edges;

  void apply(const EdgeUpdate& op) {
    auto key = [](graph::NodeId a, graph::NodeId b) {
      return std::make_pair(std::min(a, b), std::max(a, b));
    };
    switch (op.op) {
      case UpdateOp::kInsertEdge:
        edges.insert(key(op.u, op.v));
        break;
      case UpdateOp::kRemoveEdge:
        edges.erase(key(op.u, op.v));
        break;
      case UpdateOp::kAddVertex:
        ++n;
        break;
      case UpdateOp::kDetachVertex:
        std::erase_if(edges, [&](const auto& e) {
          return e.first == op.u || e.second == op.u;
        });
        break;
    }
  }

  graph::Graph build() const {
    std::vector<graph::Edge> list;
    for (const auto& [u, v] : edges) list.push_back({u, v});
    return graph::from_edges(n, list);
  }
};

/// The fuzzed request sequence: LOAD, COMPUTE, `updates` mixed batches,
/// VERIFY, QUERY(all nodes), STATS — returned as encoded frames together
/// with the mirror applying the same ops.
std::vector<Frame> fuzzed_sequence(std::uint64_t seed, std::uint32_t updates,
                                   MirrorGraph* mirror) {
  util::Rng rng(seed);
  const graph::Graph g = test_graph(160, seed);
  mirror->n = g.num_nodes();
  for (const graph::Edge e : g.edges()) {
    mirror->edges.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }

  const ComputeParams params{2, seed};
  std::vector<Frame> frames;
  std::uint64_t rid = 1;
  frames.push_back(make_frame(MsgType::kLoadGraph, rid++, inline_load(1, g)));
  frames.push_back(
      make_frame(MsgType::kComputeMis, rid++, ComputeMisRequest{1, params}));

  graph::NodeId n = g.num_nodes();
  for (std::uint32_t b = 0; b < updates; ++b) {
    UpdateEdgesRequest req;
    req.graph_id = 1;
    req.params = params;
    for (std::uint32_t j = 0; j < 3; ++j) {
      const std::uint64_t kind = rng.below(10);
      EdgeUpdate op;
      if (kind < 4) {
        op.op = UpdateOp::kInsertEdge;
        op.u = static_cast<graph::NodeId>(rng.below(n));
        do {
          op.v = static_cast<graph::NodeId>(rng.below(n));
        } while (op.v == op.u);
      } else if (kind < 8) {
        op.op = UpdateOp::kRemoveEdge;
        op.u = static_cast<graph::NodeId>(rng.below(n));
        do {
          op.v = static_cast<graph::NodeId>(rng.below(n));
        } while (op.v == op.u);
      } else if (kind == 8) {
        op.op = UpdateOp::kAddVertex;
        ++n;
      } else {
        op.op = UpdateOp::kDetachVertex;
        op.u = static_cast<graph::NodeId>(rng.below(n));
      }
      req.ops.push_back(op);
      mirror->apply(op);
    }
    frames.push_back(make_frame(MsgType::kUpdateEdges, rid++, req));
  }

  frames.push_back(
      make_frame(MsgType::kVerify, rid++, VerifyRequest{1, params}));
  QueryRequest query;
  query.graph_id = 1;
  query.params = params;
  for (graph::NodeId v = 0; v < n; ++v) query.nodes.push_back(v);
  frames.push_back(make_frame(MsgType::kQuery, rid++, query));
  frames.push_back(Frame{MsgType::kStats, rid++, {}});
  return frames;
}

struct SequenceResult {
  std::vector<std::vector<std::uint8_t>> reply_bytes;
  std::string events_jsonl;
  std::uint32_t updates_total = 0;
  std::uint32_t updates_certified = 0;
  std::uint32_t repairs_incremental = 0;
  QueryReply final_query;
  VerifyReply verify;
};

SequenceResult run_sequence(const std::vector<Frame>& frames,
                            std::uint32_t num_threads) {
  ServiceOptions options;
  options.num_threads = num_threads;
  MisService service(options);
  obs::VectorSink sink;
  SequenceResult result;
  {
    obs::ScopedSink scope(&sink);
    for (const Frame& f : frames) {
      const Frame reply = service.handle(f);
      EXPECT_NE(reply.type, MsgType::kError)
          << "request " << f.request_id << ": "
          << parse_payload<ErrorReply>(reply).message;
      result.reply_bytes.push_back(encode_frame(reply));
      if (reply.type == MsgType::kReplyUpdateEdges) {
        const auto m = parse_payload<UpdateEdgesReply>(reply);
        ++result.updates_total;
        if (m.certified != 0) ++result.updates_certified;
        if (m.incremental != 0) ++result.repairs_incremental;
      } else if (reply.type == MsgType::kReplyQuery) {
        result.final_query = parse_payload<QueryReply>(reply);
      } else if (reply.type == MsgType::kReplyVerify) {
        result.verify = parse_payload<VerifyReply>(reply);
      }
    }
  }
  result.events_jsonl = sink.to_jsonl();
  return result;
}

TEST(ServeDifferential, FuzzedUpdatesRepairCertifyAndMatchAcrossThreads) {
  MirrorGraph mirror;
  const std::vector<Frame> frames = fuzzed_sequence(2026, 100, &mirror);

  const SequenceResult serial = run_sequence(frames, 0);
  EXPECT_EQ(serial.updates_total, 100u);
  EXPECT_EQ(serial.updates_certified, 100u) << "an update failed to certify";
  EXPECT_GT(serial.repairs_incremental, 0u)
      << "no update took the incremental path";
  EXPECT_EQ(serial.verify.ok, 1u);

  // Independent verification: rebuild the final graph from the mirror and
  // check the served labels are a genuine MIS of it.
  const graph::Graph final_graph = mirror.build();
  ASSERT_EQ(serial.final_query.states.size(), final_graph.num_nodes());
  std::vector<std::uint8_t> in_mis(final_graph.num_nodes(), 0);
  for (graph::NodeId v = 0; v < final_graph.num_nodes(); ++v) {
    if (serial.final_query.states[v] ==
        static_cast<std::uint8_t>(mis::MisState::kInMis)) {
      in_mis[v] = 1;
    }
  }
  const mis::Verification verification =
      mis::verify_mask(final_graph, in_mis);
  EXPECT_TRUE(verification.ok()) << verification.describe();

  // Byte-identical replies AND identical telemetry across thread counts.
  for (const std::uint32_t threads : {2u, 8u}) {
    const SequenceResult parallel = run_sequence(frames, threads);
    ASSERT_EQ(parallel.reply_bytes.size(), serial.reply_bytes.size());
    for (std::size_t i = 0; i < serial.reply_bytes.size(); ++i) {
      ASSERT_EQ(parallel.reply_bytes[i], serial.reply_bytes[i])
          << "reply " << i << " differs at threads=" << threads;
    }
    EXPECT_EQ(parallel.events_jsonl, serial.events_jsonl)
        << "event stream differs at threads=" << threads;
  }
}

TEST(ServeDifferential, StorageBackendsProduceIdenticalResults) {
  const graph::Graph g = test_graph(140, 9);
  const std::string path = ::testing::TempDir() + "arbmis_serve_backend.gr";
  graph::storage::write_gr(path, g);

  ServiceOptions options;
  options.gr_loader = [](const std::string& p) -> LoadedGraph {
    auto mapped = std::make_shared<graph::storage::MappedGraph>(
        graph::storage::MappedGraph::open(p));
    const graph::GraphView view = mapped->view();
    return {std::move(mapped), view};
  };
  MisService service(options);

  const LoadGraphReply from_memory = call(service, inline_load(1, g));

  LoadGraphRequest path_load;
  path_load.graph_id = 2;
  path_load.from_path = true;
  path_load.path = path;
  const LoadGraphReply from_disk = call(service, path_load);

  EXPECT_EQ(from_disk.num_nodes, from_memory.num_nodes);
  EXPECT_EQ(from_disk.num_edges, from_memory.num_edges);
  EXPECT_EQ(from_disk.content_hash, from_memory.content_hash);

  const ComputeParams params{2, 5};
  const ComputeMisReply memory_mis =
      call(service, ComputeMisRequest{1, params});
  const ComputeMisReply disk_mis = call(service, ComputeMisRequest{2, params});
  EXPECT_EQ(memory_mis.cache_hit, 0u);
  EXPECT_EQ(disk_mis.cache_hit, 1u)  // same content hash -> shared entry
      << "mapped backend produced a different cache key";
  EXPECT_EQ(disk_mis.labels_hash, memory_mis.labels_hash);

  // Updates work on mapped-backed graphs too (materialize-on-write).
  const UpdateEdgesReply updated = call(
      service, UpdateEdgesRequest{2, params, {{UpdateOp::kAddVertex, 0, 0}}});
  EXPECT_EQ(updated.certified, 1u);
  std::remove(path.c_str());
}

// --- TCP end-to-end -------------------------------------------------------

TEST(ServeServer, EndToEndOverLoopback) {
  MisService service;
  Server server(service, {});
  server.start();

  Client client("127.0.0.1", server.port());
  const graph::Graph g = test_graph(120, 31);
  const ComputeParams params{2, 8};
  const LoadGraphReply loaded = client.call(inline_load(1, g));
  EXPECT_EQ(loaded.num_nodes, g.num_nodes());

  const ComputeMisReply computed = client.call(ComputeMisRequest{1, params});
  EXPECT_EQ(computed.certified, 1u);
  EXPECT_GT(computed.mis_size, 0u);

  const QueryReply queried = client.call(QueryRequest{1, params, {0, 1, 2}});
  ASSERT_EQ(queried.states.size(), 3u);

  const UpdateEdgesReply updated = client.call(
      UpdateEdgesRequest{1, params, {{UpdateOp::kDetachVertex, 0, 0}}});
  EXPECT_EQ(updated.certified, 1u);
  EXPECT_EQ(updated.epoch, 1u);

  const VerifyReply verified = client.call(VerifyRequest{1, params});
  EXPECT_EQ(verified.ok, 1u);

  const StatsReply stats = client.call(StatsRequest{});
  EXPECT_EQ(stats.requests_total, 6u);  // the stats request counts itself
  EXPECT_EQ(stats.errors, 0u);

  // Request-level errors come back as typed ServeError, connection intact.
  EXPECT_THROW(client.call(ComputeMisRequest{99, params}), ServeError);
  EXPECT_EQ(client.stats().errors, 1u);

  server.stop();
}

TEST(ServeServer, MalformedBytesGetErrorFrameThenHangup) {
  MisService service;
  Server server(service, {});
  server.start();

  {
    // Garbage magic: the server answers one kError frame and drops the
    // connection (the reader is poisoned; resynchronization is impossible).
    Client client("127.0.0.1", server.port());
    const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00,
                                               0x01, 0x02, 0x03, 0x04, 0x05};
    const Frame reply = client.roundtrip_raw(garbage);
    EXPECT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(parse_payload<ErrorReply>(reply).code,
              static_cast<std::uint32_t>(ErrorCode::kBadRequest));
  }
  {
    // Valid framing, unparseable payload: error reply, connection stays up.
    Client client("127.0.0.1", server.port());
    Frame bad{MsgType::kComputeMis, 0, {1, 2, 3}};
    const Frame reply = client.roundtrip_raw(encode_frame(bad));
    EXPECT_EQ(reply.type, MsgType::kError);
    const graph::Graph g = test_graph(60, 1);
    const LoadGraphReply loaded = client.call(inline_load(1, g));
    EXPECT_EQ(loaded.num_nodes, g.num_nodes());
  }
  server.stop();
}

/// Lines of /proc/self/maps: one per mapping, so every thread stack that
/// was never released shows up here.
std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(ServeServer, SequentialConnectionsDoNotLeak) {
  // Each connection runs on its own thread. A server that keeps finished
  // threads until stop() keeps their stacks mapped, two regions per
  // connection, and aborts once the process runs out of mappings.
  MisService service;
  Server server(service, {});
  server.start();
  // Warm the allocators and the thread runtime. Under ThreadSanitizer the
  // first hundred or so connection threads add about 80 regions (per-thread
  // trace memory and shadow) that later threads reuse; 2000 more add 0-20.
  for (int i = 0; i < 200; ++i) Client("127.0.0.1", server.port()).stats();
  const std::size_t before = mapped_regions();
  for (int i = 0; i < 2000; ++i) {
    Client client("127.0.0.1", server.port());
    ASSERT_EQ(client.stats().errors, 0u);
  }
  const std::size_t after = mapped_regions();
  server.stop();
  EXPECT_LT(after, before + 64);
}

TEST(ServeFault, CertifyLabelsAcceptsGoodRejectsCorrupt) {
  const graph::Graph g = test_graph(100, 13);
  MisService service;
  call(service, inline_load(1, g));
  call(service, ComputeMisRequest{1, {2, 4}});

  QueryRequest all;
  all.graph_id = 1;
  all.params = {2, 4};
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) all.nodes.push_back(v);
  const QueryReply reply = call(service, all);
  std::vector<mis::MisState> state;
  for (const std::uint8_t s : reply.states) {
    state.push_back(static_cast<mis::MisState>(s));
  }

  const fault::CertifyReport good = fault::certify_labels(g, state, 99);
  EXPECT_TRUE(good.certified);
  EXPECT_GT(good.rounds, 0u);

  // Flip one member out of the set: coverage breaks somewhere.
  std::vector<mis::MisState> corrupt = state;
  for (mis::MisState& s : corrupt) {
    if (s == mis::MisState::kInMis) {
      s = mis::MisState::kCovered;
      break;
    }
  }
  EXPECT_FALSE(fault::certify_labels(g, corrupt, 99).certified);

  // Undecided labels can never certify.
  std::vector<mis::MisState> undecided = state;
  undecided[0] = mis::MisState::kUndecided;
  EXPECT_FALSE(fault::certify_labels(g, undecided, 99).certified);
}

}  // namespace
}  // namespace arbmis::serve
