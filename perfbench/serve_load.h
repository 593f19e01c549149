// Serving side of the benchmark: the seed-determined AMSP request streams,
// the reply checks, the arbmis_serve daemon process, and the two ways a
// stream is driven — over loopback sockets against the daemon (untraced,
// end to end) or in-process through MisService::handle (traced, so the
// simulator's net.* spans land under the request that caused them).
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {

namespace serve = arbmis::serve;
namespace graph = arbmis::graph;

enum class Stream { kUpdate, kRead };

inline constexpr graph::NodeId kServeNodes = 4096;
inline constexpr std::uint32_t kConnections = 2;
inline constexpr std::uint32_t kGraphsPerConnection = 4;
inline constexpr std::uint32_t kOpsPerUpdate = 4;
inline constexpr std::uint32_t kUpdateQueryNodes = 8;
inline constexpr std::uint32_t kReadQueryNodes = 64;
inline constexpr std::uint32_t kVerifyEvery = 64;  ///< updates per VERIFY
/// Fresh daemons set up per run. One set-up takes about 0.13 s and varies
/// by about 12% between repeats (almost all of it in LOAD and COMPUTE, not
/// in the spawn), so the median needs many.
inline constexpr std::uint32_t kServeSetupRepeats = 21;

/// One graph a connection loads in set-up.
struct ServeGraph {
  std::uint64_t id = 0;
  graph::Graph graph{0};
  serve::ComputeParams params;
};

/// The connection's four graphs: union_of_random_forests(4096, 2), content
/// and pipeline seed derived from (seed, graph id).
inline std::vector<ServeGraph> make_serve_graphs(std::uint64_t seed,
                                                 std::uint32_t conn) {
  std::vector<ServeGraph> graphs;
  for (std::uint32_t j = 0; j < kGraphsPerConnection; ++j) {
    ServeGraph g;
    g.id = conn * kGraphsPerConnection + j + 1;
    arbmis::util::Rng rng(mix64(seed, 0x6000 + g.id));
    g.graph = graph::gen::union_of_random_forests(kServeNodes, 2, rng);
    g.params = {/*alpha=*/2, /*seed=*/mix64(seed, 0x7000 + g.id)};
    graphs.push_back(std::move(g));
  }
  return graphs;
}

/// One request of a stream plus what its reply is checked against.
struct Request {
  serve::Frame frame;
  std::size_t slot = 0;      ///< graph index within the connection
  std::uint32_t nodes = 0;   ///< QUERY size
};

/// Set-up requests of one connection: LOAD then COMPUTE per graph.
inline std::vector<Request> setup_requests(
    const std::vector<ServeGraph>& graphs) {
  std::vector<Request> out;
  for (std::size_t j = 0; j < graphs.size(); ++j) {
    serve::LoadGraphRequest load;
    load.graph_id = graphs[j].id;
    load.num_nodes = graphs[j].graph.num_nodes();
    load.edges = graphs[j].graph.edges();
    out.push_back({serve::make_frame(serve::MsgType::kLoadGraph, 0, load), j});
    out.push_back({serve::make_frame(serve::MsgType::kComputeMis, 0,
                                     serve::ComputeMisRequest{
                                         graphs[j].id, graphs[j].params}),
                   j});
  }
  return out;
}

/// The measured request stream of one connection, generated on demand as
/// a pure function of (kind, seed, connection).
///   kUpdate: UPDATE_EDGES of 4 ops (40% insert, 40% remove, 10% add
///            vertex, 10% detach), each followed by a QUERY of 8 nodes, and
///            a VERIFY after every 64th update; round-robin over graphs.
///   kRead:   COMPUTE_MIS and QUERY of 64 nodes at 1:3, round-robin.
class StreamGen {
 public:
  StreamGen(Stream kind, std::uint64_t seed, std::uint32_t conn,
            const std::vector<ServeGraph>& graphs)
      : kind_(kind), rng_(mix64(seed, 0x8000 + conn)) {
    for (const ServeGraph& g : graphs) {
      ids_.push_back(g.id);
      params_.push_back(g.params);
      nodes_.push_back(g.graph.num_nodes());
    }
  }

  Request next() {
    return kind_ == Stream::kUpdate ? next_update() : next_read();
  }

 private:
  graph::NodeId pick(std::size_t slot) {
    return static_cast<graph::NodeId>(rng_.below(nodes_[slot]));
  }

  Request query(std::size_t slot, std::uint32_t count) {
    serve::QueryRequest q{ids_[slot], params_[slot], {}};
    for (std::uint32_t i = 0; i < count; ++i) q.nodes.push_back(pick(slot));
    return {serve::make_frame(serve::MsgType::kQuery, 0, q), slot, count};
  }

  Request next_update() {
    const std::uint32_t phase = phase_;
    const std::size_t slot = last_slot_;
    if (phase == 1) {  // the QUERY after an update
      phase_ = pending_verify_ ? 2 : 0;
      return query(slot, kUpdateQueryNodes);
    }
    if (phase == 2) {  // the VERIFY after every 64th update
      phase_ = 0;
      pending_verify_ = false;
      return {serve::make_frame(
                  serve::MsgType::kVerify, 0,
                  serve::VerifyRequest{ids_[slot], params_[slot]}),
              slot};
    }
    const std::size_t s = static_cast<std::size_t>(step_++ % ids_.size());
    serve::UpdateEdgesRequest u{ids_[s], params_[s], {}};
    for (std::uint32_t i = 0; i < kOpsPerUpdate; ++i) {
      const std::uint64_t kind = rng_.below(10);
      serve::EdgeUpdate op;
      if (kind < 8) {
        op.op = kind < 4 ? serve::UpdateOp::kInsertEdge
                         : serve::UpdateOp::kRemoveEdge;
        op.u = pick(s);
        do {
          op.v = pick(s);
        } while (op.v == op.u);
      } else if (kind == 8) {
        op.op = serve::UpdateOp::kAddVertex;
        ++nodes_[s];  // mirrors the server's id assignment
      } else {
        op.op = serve::UpdateOp::kDetachVertex;
        op.u = pick(s);
      }
      u.ops.push_back(op);
    }
    last_slot_ = s;
    phase_ = 1;
    pending_verify_ = step_ % kVerifyEvery == 0;
    return {serve::make_frame(serve::MsgType::kUpdateEdges, 0, u), s};
  }

  Request next_read() {
    const std::uint64_t t = step_++;
    const std::size_t slot = static_cast<std::size_t>(t % ids_.size());
    if ((t / ids_.size()) % 4 == 0) {
      return {serve::make_frame(
                  serve::MsgType::kComputeMis, 0,
                  serve::ComputeMisRequest{ids_[slot], params_[slot]}),
              slot};
    }
    return query(slot, kReadQueryNodes);
  }

  Stream kind_;
  arbmis::util::Rng rng_;
  std::vector<std::uint64_t> ids_;
  std::vector<serve::ComputeParams> params_;
  std::vector<graph::NodeId> nodes_;
  std::uint64_t step_ = 0;
  std::uint32_t phase_ = 0;
  std::size_t last_slot_ = 0;
  bool pending_verify_ = false;
};

/// What one checked reply contributed.
struct Checked {
  bool ok = false;
  std::uint64_t labels_hash = 0;  ///< 0 when the reply carries none
  std::int64_t residual = -1;     ///< UPDATE replies only
  std::uint64_t rounds = 0;       ///< COMPUTE replies only
};

/// Decodes `reply` and checks it the way tools/loadgen_core.h does:
/// updates certified, COMPUTE hits return the set-up labels hash (or, in
/// set-up, miss and certify), VERIFY passes, one decided state per queried
/// node, never an ERROR frame. `setup_hash` is indexed by slot; a set-up
/// COMPUTE records into it.
inline Checked check_reply(const Request& req, const serve::Frame& reply,
                           std::vector<std::uint64_t>& setup_hash,
                           bool in_setup) {
  Checked c;
  if (reply.type == serve::MsgType::kError ||
      reply.type != serve::reply_type(req.frame.type)) {
    return c;
  }
  switch (req.frame.type) {
    case serve::MsgType::kLoadGraph: {
      const auto r = serve::parse_payload<serve::LoadGraphReply>(reply);
      c.ok = r.num_nodes == kServeNodes;
      c.labels_hash = r.content_hash;
      break;
    }
    case serve::MsgType::kComputeMis: {
      const auto r = serve::parse_payload<serve::ComputeMisReply>(reply);
      c.labels_hash = r.labels_hash;
      c.rounds = r.rounds;
      if (in_setup) {
        c.ok = r.certified != 0 && r.cache_hit == 0;
        setup_hash[req.slot] = r.labels_hash;
      } else {
        c.ok = r.certified != 0 && r.cache_hit != 0 &&
               r.labels_hash == setup_hash[req.slot];
      }
      break;
    }
    case serve::MsgType::kQuery: {
      const auto r = serve::parse_payload<serve::QueryReply>(reply);
      c.ok = r.states.size() == req.nodes;
      for (const std::uint8_t s : r.states) c.ok = c.ok && (s == 1 || s == 2);
      break;
    }
    case serve::MsgType::kUpdateEdges: {
      const auto r = serve::parse_payload<serve::UpdateEdgesReply>(reply);
      c.ok = r.certified != 0;
      c.labels_hash = r.labels_hash;
      c.residual = r.residual;
      break;
    }
    case serve::MsgType::kVerify: {
      const auto r = serve::parse_payload<serve::VerifyReply>(reply);
      c.ok = r.ok != 0;
      c.labels_hash = r.labels_hash;
      break;
    }
    default:
      break;
  }
  return c;
}

/// Per-type sample vectors, indexed by request MsgType value.
using ByType = std::vector<std::vector<double>>;

inline std::size_t type_index(serve::MsgType t) {
  return static_cast<std::size_t>(t);
}

/// Tallies of a checked request sequence.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< chained labels/content hashes, in order
  std::uint64_t updates = 0;
  std::uint64_t residual_sum = 0;
  std::uint64_t computes = 0;
  std::uint64_t compute_rounds = 0;
  std::uint64_t reply_bytes = 0;
  std::vector<double> latency_us;  ///< every measured request
  ByType by_type = ByType(16);

  void count(const Request& req, const serve::Frame& reply, const Checked& c,
             double us) {
    ++attempted;
    if (!c.ok) ++failed;
    if (c.labels_hash != 0) digest = mix64(digest, c.labels_hash);
    if (c.residual >= 0) {
      ++updates;
      residual_sum += static_cast<std::uint64_t>(c.residual);
    }
    if (c.rounds != 0) {
      ++computes;
      compute_rounds += c.rounds;
    }
    reply_bytes += reply.payload.size();
    latency_us.push_back(us);
    by_type[type_index(req.frame.type)].push_back(us);
  }

  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    digest = mix64(digest, o.digest);
    updates += o.updates;
    residual_sum += o.residual_sum;
    computes += o.computes;
    compute_rounds += o.compute_rounds;
    reply_bytes += o.reply_bytes;
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    for (std::size_t t = 0; t < by_type.size(); ++t) {
      by_type[t].insert(by_type[t].end(), o.by_type[t].begin(),
                        o.by_type[t].end());
    }
  }
};

// --- The daemon process ----------------------------------------------------

/// An arbmis_serve child started with default flags plus an ephemeral port
/// and a port file; stdout/stderr go to a log file in the work directory.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& work_dir, int index) {
    const std::string port_file =
        work_dir + "/port-" + std::to_string(index);
    const std::string log_file = work_dir + "/daemon-" +
                                 std::to_string(index) + ".log";
    ::unlink(port_file.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<std::string> args = {binary, "--port", "0", "--port-file",
                                     port_file};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (port_ == 0) {
      std::ifstream in(port_file);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::stoul(text));
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      if (std::chrono::steady_clock::now() > deadline) {
        stop();
        throw std::runtime_error("daemon did not write its port file");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  double peak_rss_mb() const {
    return perfbench::peak_rss_mb(std::to_string(pid_));
  }
  /// SIGTERM, then wait for the process to end.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One client connection with its graphs and set-up labels hashes.
struct Connection {
  std::uint32_t index = 0;
  std::unique_ptr<serve::Client> client;
  std::vector<std::uint64_t> setup_hash =
      std::vector<std::uint64_t>(kGraphsPerConnection, 0);
};

/// Sends one request, checks its reply and counts it in `tally` with its
/// latency from send until the reply is decoded and checked. Transport
/// failures count as failed requests.
inline void timed_call(Connection& conn, const Request& req, Tally& tally,
                       bool in_setup) {
  const Span span("serve.request");
  const std::uint64_t start = now_ns();
  serve::Frame reply;
  Checked c;
  try {
    reply = conn.client->call(req.frame);
    c = check_reply(req, reply, conn.setup_hash, in_setup);
  } catch (const std::exception&) {
    c = Checked{};
  }
  tally.count(req, reply, c, static_cast<double>(now_ns() - start) / 1e3);
}

/// Connects the connections and runs their set-up (LOAD + first COMPUTE of
/// every graph) against `daemon`.
inline void setup_connections(
    const Daemon& daemon, const std::vector<std::vector<ServeGraph>>& graphs,
    std::vector<Connection>& conns, Tally& tally) {
  conns.clear();
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    Connection conn;
    conn.index = c;
    conn.client = std::make_unique<serve::Client>("127.0.0.1", daemon.port());
    conns.push_back(std::move(conn));
  }
  for (Connection& conn : conns) {
    for (const Request& req : setup_requests(graphs[conn.index])) {
      timed_call(conn, req, tally, /*in_setup=*/true);
    }
  }
}

/// Runs `per_connection` stream requests on every connection, one closed-
/// loop thread per connection. Returns the merged tally (connection order)
/// and the stream's wall time in seconds.
inline Tally run_stream(Stream kind, std::uint64_t seed,
                        const std::vector<std::vector<ServeGraph>>& graphs,
                        std::vector<Connection>& conns,
                        std::uint64_t per_connection, double* wall_s) {
  std::vector<Tally> tallies(conns.size());
  for (Tally& t : tallies) t.latency_us.reserve(per_connection);
  std::vector<std::thread> threads;
  const std::uint64_t start = now_ns();
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      set_span_thread(static_cast<std::uint32_t>(100 + c));
      StreamGen gen(kind, seed, conns[c].index, graphs[conns[c].index]);
      for (std::uint64_t i = 0; i < per_connection; ++i) {
        timed_call(conns[c], gen.next(), tallies[c], /*in_setup=*/false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = static_cast<double>(now_ns() - start) / 1e9;
  Tally merged;
  for (const Tally& t : tallies) merged.merge(t);
  return merged;
}

// --- In-process replay -----------------------------------------------------

/// Replays set-up plus `per_connection` stream requests of every connection
/// through one MisService::handle, alternating connections, with a
/// "serve.handle" span per request. Returns the stream's tally (latency
/// samples are handle() times); a failed set-up request counts in
/// `failed`. `frames`, when given, receives up to 4096 (request, reply)
/// pairs for the codec probe.
inline Tally replay_in_process(
    Stream kind, std::uint64_t seed,
    const std::vector<std::vector<ServeGraph>>& graphs,
    std::uint64_t per_connection,
    std::vector<std::pair<serve::Frame, serve::Frame>>* frames = nullptr) {
  serve::MisService service;
  std::uint64_t seq = 0;
  std::vector<std::vector<std::uint64_t>> setup_hash(
      kConnections, std::vector<std::uint64_t>(kGraphsPerConnection, 0));
  const auto handle = [&](std::uint32_t c, Request req, Tally& tally,
                          bool in_setup) {
    req.frame.request_id = ++seq;
    const Span span("serve.handle", seq);
    const std::uint64_t start = now_ns();
    const serve::Frame reply = service.handle(req.frame);
    const double us = static_cast<double>(now_ns() - start) / 1e3;
    const Checked checked = check_reply(req, reply, setup_hash[c], in_setup);
    tally.count(req, reply, checked, us);
    if (frames != nullptr && frames->size() < 4096) {
      frames->emplace_back(req.frame, reply);
    }
  };
  Tally setup;
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    for (const Request& req : setup_requests(graphs[c])) {
      handle(c, req, setup, /*in_setup=*/true);
    }
  }
  Tally tally;
  tally.failed = setup.failed;
  std::vector<StreamGen> gens;
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    gens.emplace_back(kind, seed, c, graphs[c]);
  }
  for (std::uint64_t i = 0; i < per_connection; ++i) {
    for (std::uint32_t c = 0; c < kConnections; ++c) {
      handle(c, gens[c].next(), tally, /*in_setup=*/false);
    }
  }
  return tally;
}

}  // namespace perfbench
