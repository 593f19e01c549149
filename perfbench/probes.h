// Per-layer probes of the traced run. Each probe times the benchmark's own
// call into one module's public function, inside a span named after the
// call, on seed-derived inputs: the offline graph for graph/storage/sim/
// core/mis/engine, the serve graphs and streams for fault/serve/obs. The
// obs::Profiler's net.* scopes, attached by the caller, land inside these
// spans; trace_summary.py turns both into the per-layer table.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "core/bounded_arb.h"
#include "fault/adversary.h"
#include "fault/resilient_mis.h"
#include "graph/subgraph.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "offline.h"
#include "serve/dynamic_graph.h"
#include "serve_load.h"
#include "sim/network.h"

namespace perfbench {

/// Median wall time of `reps` calls of `fn`, in ms, each in a span.
template <typename Fn>
double median_ms(const char* span_name, int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Span span(span_name);
    const std::uint64_t start = now_ns();
    fn();
    times.push_back(ms_since(start));
  }
  return median(times);
}

/// Mean wall time of `reps` calls of `fn`, in ms (for sub-ms calls).
template <typename Fn>
double mean_ms(const char* span_name, int reps, Fn&& fn) {
  const Span span(span_name);
  const std::uint64_t start = now_ns();
  for (int i = 0; i < reps; ++i) fn();
  return ms_since(start) / reps;
}

/// Storage, graph, sim, core, mis and engine probes on the offline graph.
/// Returns false if a probe's answer is wrong.
inline bool offline_probes(std::uint64_t seed, const std::string& work_dir,
                           JsonObject& out) {
  const Span root("probe.offline");
  const std::string path = work_dir + "/probe.gr";
  bool ok = true;
  {
    const arbmis::graph::Graph generated = make_offline_graph(seed);
    out.add("storage.write_ms", median_ms("storage.write_gr", 3, [&] {
              storage::write_gr(path, generated);
            }));
  }
  out.add("storage.open_ms", median_ms("storage.MappedGraph.open", 3, [&] {
            storage::MappedGraph::open(path);
          }));
  out.add_int("storage.bytes", std::filesystem::file_size(path));
  const storage::MappedGraph mapped = storage::MappedGraph::open(path);
  const arbmis::graph::GraphView g = mapped.view();

  const std::vector<std::uint8_t> ones(g.num_nodes(), 1);
  out.add("graph.identity_copy_ms",
          median_ms("graph.induced_subgraph", 3,
                    [&] { arbmis::graph::induced_subgraph(g, ones); }));

  arbmis::sim::NetworkOptions nocheck;
  nocheck.model_check.enabled = false;
  out.add("sim.ctor_ms", median_ms("sim.Network", 3, [&] {
            const arbmis::sim::Network net(g, seed);
          }));
  out.add("sim.ctor_nocheck_ms", median_ms("sim.Network", 3, [&] {
            const arbmis::sim::Network net(g, seed, nocheck);
          }));

  // One arb_mis call with a registry attached: its time, counters and
  // the net.* spans under it (sim.run_ms, core.outside_sim_ms).
  arbmis::core::ArbMisOptions options;
  options.alpha = 2;
  arbmis::obs::Registry registry;
  arbmis::core::ArbMisResult r;
  {
    const arbmis::obs::ScopedRegistry scope(&registry);
    const Span span("core.arb_mis");
    const std::uint64_t start = now_ns();
    r = arbmis::core::arb_mis(g, options, solve_seed(seed, 0));
    out.add("core.arb_mis_ms", ms_since(start));
  }
  out.add_int("sim.messages", registry.counter("sim.messages"));
  out.add_int("sim.payload_bits", registry.counter("sim.payload_bits"));
  out.add_int("core.shatter_rounds", r.shatter_stats.rounds);
  out.add_int("core.residual_nodes", r.vlo_size + r.vhi_size + r.bad_size);
  out.add("mis.verify_ms", median_ms("mis.verify", 3, [&] {
            ok = arbmis::mis::verify(g, r.mis).ok() && ok;
          }));

  // Checker share: Algorithm 1 with the params arb_mis chose, on a
  // Network with the ModelChecker off, then on (run time only).
  double run_ms[2] = {};
  for (const bool checked : {false, true}) {
    arbmis::core::BoundedArbIndependentSet algo(g, r.params);
    arbmis::sim::NetworkOptions opts;
    opts.model_check.enabled = checked;
    arbmis::sim::Network net(g, solve_seed(seed, 0) + 1, opts);
    const Span span("sim.Network.run");
    const std::uint64_t start = now_ns();
    net.run(algo, r.params.total_rounds());
    run_ms[checked ? 1 : 0] = ms_since(start);
  }
  out.add("sim.checker_share", 1.0 - run_ms[0] / run_ms[1]);
  out.add("base.checker_off_ms", run_ms[0])
      .add("base.checker_on_ms", run_ms[1]);

  out.add("engine.priorities_ms", median_ms("engine.node_priorities", 3, [&] {
            arbmis::engine::node_priorities(engine_seed(seed, 0),
                                            g.num_nodes());
          }));
  arbmis::engine::EngineOptions eo;
  eo.seed = engine_seed(seed, 0);
  const auto tas = [&] {
    const Span span("engine.solve");
    return arbmis::engine::solve(g, arbmis::engine::EngineKind::kTestAndSet,
                                 eo);
  }();
  out.add_int("engine.tas_rounds", tas.rounds);
  std::filesystem::remove(path);
  return ok;
}

/// Mean and median of one request type's samples.
inline double type_mean(const Tally& t, serve::MsgType type) {
  return mean(t.by_type[type_index(type)]);
}
inline double type_p50(const Tally& t, serve::MsgType type) {
  return median(t.by_type[type_index(type)]);
}

/// Times encode_frame, FrameReader and parse_payload over captured request
/// and reply frames; mean microseconds per frame.
inline double codec_us(
    const std::vector<std::pair<serve::Frame, serve::Frame>>& frames) {
  const auto parse = [](const serve::Frame& f) {
    using serve::MsgType;
    switch (f.type) {
      case MsgType::kLoadGraph:
        return serve::parse_payload<serve::LoadGraphRequest>(f).graph_id != 0;
      case MsgType::kComputeMis:
        return serve::parse_payload<serve::ComputeMisRequest>(f).graph_id != 0;
      case MsgType::kQuery:
        return !serve::parse_payload<serve::QueryRequest>(f).nodes.empty();
      case MsgType::kUpdateEdges:
        return !serve::parse_payload<serve::UpdateEdgesRequest>(f).ops.empty();
      case MsgType::kVerify:
        return serve::parse_payload<serve::VerifyRequest>(f).graph_id != 0;
      case MsgType::kReplyLoadGraph:
        return serve::parse_payload<serve::LoadGraphReply>(f).num_nodes != 0;
      case MsgType::kReplyComputeMis:
        return serve::parse_payload<serve::ComputeMisReply>(f).certified != 0;
      case MsgType::kReplyQuery:
        return !serve::parse_payload<serve::QueryReply>(f).states.empty();
      case MsgType::kReplyUpdateEdges:
        return serve::parse_payload<serve::UpdateEdgesReply>(f).certified != 0;
      case MsgType::kReplyVerify:
        return serve::parse_payload<serve::VerifyReply>(f).ok != 0;
      default:
        return false;
    }
  };
  const Span span("serve.codec");
  std::uint64_t decoded = 0;
  const std::uint64_t start = now_ns();
  constexpr int kPasses = 3;
  for (int pass = 0; pass < kPasses; ++pass) {
    serve::FrameReader reader;
    serve::Frame out;
    for (const auto& [request, reply] : frames) {
      for (const serve::Frame* f : {&request, &reply}) {
        const std::vector<std::uint8_t> bytes = serve::encode_frame(*f);
        reader.feed(bytes.data(), bytes.size());
        if (reader.next(out) && parse(out)) ++decoded;
      }
    }
  }
  const double us = static_cast<double>(now_ns() - start) / 1e3;
  return decoded == 0 ? 0.0 : us / static_cast<double>(decoded);
}

/// fault, serve and obs probes: small-graph calls, in-process replays of a
/// prefix of both serve streams with a registry and a flight recorder
/// attached (as in the daemon), and one short daemon session per stream.
inline bool serve_probes(std::uint64_t seed, const std::string& daemon,
                         const std::string& work_dir, JsonObject& out) {
  const Span root("probe.serve");
  bool ok = true;
  std::vector<std::vector<ServeGraph>> graphs;
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    graphs.push_back(make_serve_graphs(seed, c));
  }
  const arbmis::graph::Graph& small = graphs[0][0].graph;
  const serve::ComputeParams& params = graphs[0][0].params;

  out.add("graph.content_hash_ms", mean_ms("graph.content_hash", 200, [&] {
            arbmis::graph::content_hash(small);
          }));
  out.add("sim.ctor_small_ms", mean_ms("sim.Network", 50, [&] {
            const arbmis::sim::Network net(small, params.seed);
          }));

  // The COMPUTE-miss path and the certification every update ends with.
  arbmis::fault::ResilientResult solved;
  out.add("fault.resilient_ms", mean_ms("fault.resilient_mis", 5, [&] {
            arbmis::fault::IidAdversary adversary{arbmis::fault::IidOptions{}};
            arbmis::fault::ResilientOptions opts;
            opts.max_attempts = 16;
            opts.fault_free_after = 0;
            solved = arbmis::fault::resilient_mis(
                small, params.seed, adversary,
                arbmis::fault::shatter_driver(2), opts);
          }));
  ok = ok && solved.certified;
  out.add("fault.certify_ms", mean_ms("fault.certify_labels", 20, [&] {
            ok = arbmis::fault::certify_labels(small, solved.state,
                                               params.seed)
                     .certified &&
                 ok;
          }));

  // DynamicGraph::apply of the update stream's batches for graph 0.
  {
    serve::DynamicGraph dg{arbmis::graph::Graph(small)};
    StreamGen gen(Stream::kUpdate, seed, 0, graphs[0]);
    std::vector<double> times;
    while (times.size() < 64) {
      const Request req = gen.next();
      if (req.frame.type != serve::MsgType::kUpdateEdges || req.slot != 0) {
        continue;
      }
      const auto batch = serve::parse_payload<serve::UpdateEdgesRequest>(
          req.frame);
      const Span span("serve.DynamicGraph.apply");
      const std::uint64_t start = now_ns();
      dg.apply(batch.ops);
      times.push_back(ms_since(start));
    }
    out.add("serve.apply_ms", mean(times));
  }

  // In-process replays: MisService::handle per request type.
  arbmis::obs::Registry registry;
  arbmis::obs::FlightRecorder recorder;
  std::vector<std::pair<serve::Frame, serve::Frame>> frames;
  Tally update_replay;
  Tally read_replay;
  {
    const arbmis::obs::ScopedRegistry registry_scope(&registry);
    const arbmis::obs::ScopedRecorder recorder_scope(&recorder);
    {
      const Span span("probe.replay_update");
      update_replay =
          replay_in_process(Stream::kUpdate, seed, graphs, 256, &frames);
    }
    const Span span("probe.replay_read");
    read_replay =
        replay_in_process(Stream::kRead, seed, graphs, 4096, &frames);
  }
  ok = ok && update_replay.failed == 0 && read_replay.failed == 0;
  out.add("serve.handle_us.update",
          type_mean(update_replay, serve::MsgType::kUpdateEdges));
  out.add("serve.handle_us.query",
          type_mean(read_replay, serve::MsgType::kQuery));
  out.add("serve.handle_us.compute",
          type_mean(read_replay, serve::MsgType::kComputeMis));
  out.add("serve.handle_us.verify",
          type_mean(update_replay, serve::MsgType::kVerify));
  out.add("serve.residual_nodes",
          static_cast<double>(update_replay.residual_sum) /
              static_cast<double>(update_replay.updates));
  out.add("serve.reply_bytes.update",
          static_cast<double>(update_replay.reply_bytes) /
              static_cast<double>(update_replay.attempted));
  out.add("serve.reply_bytes.read",
          static_cast<double>(read_replay.reply_bytes) /
              static_cast<double>(read_replay.attempted));
  out.add("serve.codec_us", codec_us(frames));

  // Daemon sessions: idle round trip, queueing behind the other
  // connection, cache and repair ratios, flight-recorder volume.
  double rtt_us = 0;
  double client_update_p50 = 0;
  {
    const Span span("probe.daemon_update");
    Daemon d(daemon, work_dir, 100);
    std::vector<Connection> conns;
    Tally setup;
    setup_connections(d, graphs, conns, setup);
    std::vector<double> rtts;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t start = now_ns();
      conns[0].client->stats();
      rtts.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
    rtt_us = median(rtts);
    double wall = 0;
    const Tally t =
        run_stream(Stream::kUpdate, seed, graphs, conns, 256, &wall);
    ok = ok && setup.failed == 0 && t.failed == 0;
    client_update_p50 = type_p50(t, serve::MsgType::kUpdateEdges);
    const serve::StatsReply stats = conns[0].client->stats();
    const serve::DumpRecorderReply dump = conns[0].client->dump_recorder();
    out.add("serve.incremental_ratio",
            static_cast<double>(stats.repairs_incremental) /
                static_cast<double>(stats.updates));
    out.add("obs.recorder_events_per_req",
            static_cast<double>(dump.buffered_events + dump.evicted_events) /
                static_cast<double>(stats.requests_total));
    out.add_int("base.repairs_incremental", stats.repairs_incremental)
        .add_int("base.updates", stats.updates)
        .add_int("base.recorder_events",
                 dump.buffered_events + dump.evicted_events)
        .add_int("base.daemon_requests", stats.requests_total);
  }
  const double handle_update_p50 =
      type_p50(update_replay, serve::MsgType::kUpdateEdges);
  out.add("serve.rtt_idle_us", rtt_us)
      .add("serve.wait_us", client_update_p50 - handle_update_p50 - rtt_us)
      .add("base.client_update_p50_us", client_update_p50)
      .add("base.handle_update_p50_us", handle_update_p50);
  {
    const Span span("probe.daemon_read");
    Daemon d(daemon, work_dir, 101);
    std::vector<Connection> conns;
    Tally setup;
    setup_connections(d, graphs, conns, setup);
    double wall = 0;
    const Tally t =
        run_stream(Stream::kRead, seed, graphs, conns, 4096, &wall);
    ok = ok && setup.failed == 0 && t.failed == 0;
    const serve::StatsReply stats = conns[0].client->stats();
    out.add("serve.cache_hit_ratio",
            static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.cache_hits + stats.cache_misses));
    out.add_int("base.cache_hits", stats.cache_hits)
        .add_int("base.cache_misses", stats.cache_misses);
  }
  return ok;
}

}  // namespace perfbench
