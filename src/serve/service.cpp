#include "serve/service.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "fault/adversary.h"
#include "graph/subgraph.h"
#include "obs/events.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "util/rng.h"

namespace arbmis::serve {

namespace {

/// Salt separating the repair-time verifier seed from the pipeline seed.
constexpr std::uint64_t kCertifySalt = 0x43455254;  // "CERT"

std::uint64_t count_members(const std::vector<mis::MisState>& state) {
  return static_cast<std::uint64_t>(
      std::count(state.begin(), state.end(), mis::MisState::kInMis));
}

}  // namespace

std::uint64_t labels_hash(const std::vector<mis::MisState>& state) {
  std::uint64_t h = util::mix64(0x4C41424Cu /*"LABL"*/, state.size());
  for (const mis::MisState s : state) {
    h = util::mix64(h, static_cast<std::uint64_t>(s));
  }
  return h;
}

MisService::MisService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.max_cache_entries == 0) options_.max_cache_entries = 1;
}

MisService::GraphSlot& MisService::slot(std::uint64_t graph_id) {
  const auto it = graphs_.find(graph_id);
  if (it == graphs_.end()) {
    throw ServeError(ErrorCode::kUnknownGraph, "graph id not loaded");
  }
  return it->second;
}

void MisService::cache_insert(const CacheKey& key, CacheEntry entry) {
  const auto [it, inserted] = cache_.insert_or_assign(key, std::move(entry));
  (void)it;
  if (inserted) cache_order_.push_back(key);
  while (cache_.size() > options_.max_cache_entries) {
    cache_.erase(cache_order_.front());
    cache_order_.erase(cache_order_.begin());
    ++stats_.cache_evictions;
  }
}

MisService::CacheEntry MisService::solve_full(graph::GraphView g,
                                              const ComputeParams& params,
                                              std::uint64_t run_seed) {
  // Zero-rate adversary: the serving path reuses the certify-commit-retry
  // driver purely for its certification loop — no faults are injected.
  fault::IidAdversary adversary{fault::IidOptions{}};
  fault::ResilientOptions opts;
  opts.max_attempts = options_.max_attempts;
  opts.fault_free_after = 0;
  opts.num_threads = options_.num_threads;
  const fault::ResilientResult result = fault::resilient_mis(
      g, run_seed, adversary,
      fault::shatter_driver(static_cast<graph::NodeId>(params.alpha)), opts);
  CacheEntry entry;
  entry.state = result.state;
  entry.certified = result.certified;
  entry.attempts = result.attempts;
  entry.rounds = result.rounds_to_recovery;
  entry.mis_size = count_members(entry.state);
  entry.labels_hash = labels_hash(entry.state);
  return entry;
}

const MisService::CacheEntry& MisService::ensure_entry(
    std::uint64_t graph_id, GraphSlot& s, const ComputeParams& params,
    bool* hit) {
  const CacheKey key{s.graph.content_hash(), params.alpha, params.seed};
  const std::uint64_t key_hash =
      util::mix64(util::mix64(key.content_hash, key.alpha), key.seed);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    *hit = true;
    ++stats_.cache_hits;
    obs::emit(obs::make_event<obs::EventKind::kCacheHit>(
        /*round=*/0, graph_id, params.seed, key_hash));
    return it->second;
  }
  *hit = false;
  ++stats_.cache_misses;
  obs::emit(obs::make_event<obs::EventKind::kCacheMiss>(/*round=*/0, graph_id,
                                                        params.seed, key_hash));
  CacheEntry entry = solve_full(s.graph.view(), params, params.seed);
  if (!entry.certified) {
    throw ServeError(ErrorCode::kInternal, "pipeline failed to certify");
  }
  cache_insert(key, std::move(entry));
  return cache_.find(key)->second;
}

MisService::RepairOutcome MisService::repair(
    std::uint64_t graph_id, std::uint64_t epoch, graph::GraphView g,
    const std::vector<mis::MisState>* previous, const ComputeParams& params) {
  const obs::ScopedChildSpan repair_span("serve.repair", graph_id);
  const graph::NodeId n = g.num_nodes();
  const std::uint64_t repair_seed = util::mix64(params.seed, epoch);
  RepairOutcome out;

  bool full = previous == nullptr;
  graph::NodeId residual_count = n;
  std::vector<mis::MisState> state(n, mis::MisState::kUndecided);
  if (!full) {
    // Keep previous members unless the update connected two of them; both
    // conflict endpoints are dropped (symmetric, hence deterministic).
    std::vector<std::uint8_t> member(n, 0);
    const graph::NodeId prev_n = static_cast<graph::NodeId>(
        std::min<std::size_t>(previous->size(), n));
    for (graph::NodeId v = 0; v < prev_n; ++v) {
      member[v] = (*previous)[v] == mis::MisState::kInMis ? 1 : 0;
    }
    std::vector<std::uint8_t> drop(n, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (member[v] == 0) continue;
      for (const graph::NodeId w : g.neighbors(v)) {
        if (member[w] != 0) {
          drop[v] = 1;
          drop[w] = 1;
        }
      }
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (member[v] != 0 && drop[v] == 0) state[v] = mis::MisState::kInMis;
    }
    // Coverage is recomputed from the kept members on the *new* graph —
    // an ex-covered node whose last member neighbor disappeared falls into
    // the residual, exactly like a brand-new vertex.
    for (graph::NodeId v = 0; v < n; ++v) {
      if (state[v] != mis::MisState::kInMis) continue;
      for (const graph::NodeId w : g.neighbors(v)) {
        if (state[w] == mis::MisState::kUndecided) {
          state[w] = mis::MisState::kCovered;
        }
      }
    }
    residual_count = static_cast<graph::NodeId>(
        std::count(state.begin(), state.end(), mis::MisState::kUndecided));
    if (static_cast<double>(residual_count) >
        options_.full_recompute_fraction * static_cast<double>(n)) {
      full = true;
      residual_count = n;
    }
  }

  obs::emit(obs::make_event<obs::EventKind::kRepairBegin>(
      /*round=*/0, graph_id, epoch, residual_count, full ? 1 : 0));

  if (full) {
    out.entry = solve_full(g, params, repair_seed);
    out.incremental = false;
    out.residual = n;
    ++stats_.repairs_full;
  } else {
    std::uint32_t attempts = 0;
    std::uint64_t rounds = 0;
    bool sub_ok = true;
    if (residual_count > 0) {
      std::vector<std::uint8_t> mask(n, 0);
      for (graph::NodeId v = 0; v < n; ++v) {
        mask[v] = state[v] == mis::MisState::kUndecided ? 1 : 0;
      }
      const graph::Subgraph sub = graph::induced_subgraph(g, mask);
      const CacheEntry sub_entry =
          solve_full(sub.graph, params, repair_seed);
      attempts = sub_entry.attempts;
      rounds = sub_entry.rounds;
      sub_ok = sub_entry.certified;
      if (sub_ok) {
        for (graph::NodeId local = 0; local < sub.graph.num_nodes();
             ++local) {
          state[sub.original(local)] = sub_entry.state[local];
        }
      }
    }
    if (!sub_ok) {
      // The residual run failed to certify (pipeline exhausted attempts);
      // fall back to a full recompute rather than serve a dubious merge.
      out.entry = solve_full(g, params, repair_seed);
      out.incremental = false;
      out.residual = n;
      ++stats_.repairs_full;
    } else {
      // Independent re-certification of the merged labeling on the full
      // graph — the merge argument is sound, but we never serve a repair
      // the distributed verifier has not signed off on.
      const fault::CertifyReport report = fault::certify_labels(
          g, state, util::mix64(repair_seed, kCertifySalt));
      out.entry.state = std::move(state);
      out.entry.certified = report.certified;
      out.entry.attempts = attempts;
      out.entry.rounds = rounds + report.rounds;
      out.entry.mis_size = count_members(out.entry.state);
      out.entry.labels_hash = labels_hash(out.entry.state);
      out.incremental = true;
      out.residual = residual_count;
      ++stats_.repairs_incremental;
    }
  }
  if (out.entry.certified) ++stats_.repairs_certified;
  obs::emit(obs::make_event<obs::EventKind::kRepairCertified>(
      /*round=*/0, graph_id, epoch, out.entry.certified ? 1 : 0,
      out.entry.mis_size, out.entry.rounds));
  return out;
}

LoadGraphReply MisService::run(const LoadGraphRequest& request) {
  GraphSlot s;
  if (request.from_path) {
    if (!options_.gr_loader) {
      throw ServeError(ErrorCode::kUnsupported,
                       "path loads not configured on this server");
    }
    LoadedGraph loaded;
    try {
      loaded = options_.gr_loader(request.path);
    } catch (const std::exception& e) {
      throw ServeError(ErrorCode::kBadRequest, e.what());
    }
    s.graph = DynamicGraph(loaded.view, std::move(loaded.owner));
  } else {
    try {
      s.graph = DynamicGraph(
          graph::from_edges(request.num_nodes, request.edges));
    } catch (const std::exception& e) {
      throw ServeError(ErrorCode::kBadRequest, e.what());
    }
  }
  LoadGraphReply reply;
  reply.num_nodes = s.graph.num_nodes();
  reply.num_edges = s.graph.num_edges();
  reply.content_hash = s.graph.content_hash();
  graphs_.insert_or_assign(request.graph_id, std::move(s));
  ++stats_.graphs_loaded;
  return reply;
}

ComputeMisReply MisService::run(const ComputeMisRequest& request) {
  GraphSlot& s = slot(request.graph_id);
  ++stats_.computes;
  bool hit = false;
  const CacheEntry& entry =
      ensure_entry(request.graph_id, s, request.params, &hit);
  ComputeMisReply reply;
  reply.mis_size = entry.mis_size;
  reply.labels_hash = entry.labels_hash;
  reply.content_hash = s.graph.content_hash();
  reply.cache_hit = hit ? 1 : 0;
  reply.certified = entry.certified ? 1 : 0;
  reply.attempts = entry.attempts;
  reply.rounds = entry.rounds;
  return reply;
}

QueryReply MisService::run(const QueryRequest& request) {
  GraphSlot& s = slot(request.graph_id);
  ++stats_.queries;
  bool hit = false;
  const CacheEntry& entry =
      ensure_entry(request.graph_id, s, request.params, &hit);
  QueryReply reply;
  reply.cache_hit = hit ? 1 : 0;
  reply.states.reserve(request.nodes.size());
  const graph::NodeId n = s.graph.num_nodes();
  for (const graph::NodeId v : request.nodes) {
    if (v >= n) {
      throw ServeError(ErrorCode::kBadRequest, "query: node out of range");
    }
    reply.states.push_back(static_cast<std::uint8_t>(entry.state[v]));
  }
  return reply;
}

UpdateEdgesReply MisService::run(const UpdateEdgesRequest& request) {
  GraphSlot& s = slot(request.graph_id);
  ++stats_.updates;

  // The previous labeling (if this params key was ever computed for the
  // pre-update content) seeds the incremental repair. Copied out because
  // the repair may evict cache entries.
  const CacheKey old_key{s.graph.content_hash(), request.params.alpha,
                         request.params.seed};
  std::vector<mis::MisState> previous;
  bool have_previous = false;
  if (const auto it = cache_.find(old_key); it != cache_.end()) {
    previous = it->second.state;
    have_previous = true;
  }

  stats_.update_ops += s.graph.apply(request.ops);
  ++s.epoch;

  RepairOutcome out =
      repair(request.graph_id, s.epoch, s.graph.view(),
             have_previous ? &previous : nullptr, request.params);
  const std::uint64_t new_hash = s.graph.content_hash();
  if (out.entry.certified) {
    cache_insert(CacheKey{new_hash, request.params.alpha,
                          request.params.seed},
                 out.entry);
  }

  UpdateEdgesReply reply;
  reply.epoch = s.epoch;
  reply.incremental = out.incremental ? 1 : 0;
  reply.certified = out.entry.certified ? 1 : 0;
  reply.residual = out.residual;
  reply.mis_size = out.entry.mis_size;
  reply.labels_hash = out.entry.labels_hash;
  reply.content_hash = new_hash;
  return reply;
}

VerifyReply MisService::run(const VerifyRequest& request) {
  GraphSlot& s = slot(request.graph_id);
  ++stats_.verifies;
  bool hit = false;
  const CacheEntry& entry =
      ensure_entry(request.graph_id, s, request.params, &hit);
  // Fresh certification pass — VERIFY never trusts the cached verdict.
  const fault::CertifyReport report = fault::certify_labels(
      s.graph.view(), entry.state,
      util::mix64(request.params.seed, kCertifySalt));
  VerifyReply reply;
  reply.ok = report.certified ? 1 : 0;
  reply.mis_size = entry.mis_size;
  reply.labels_hash = entry.labels_hash;
  return reply;
}

StatsReply MisService::run(const StatsRequest& /*request*/) {
  return stats_;
}

MetricsReply MisService::run(const MetricsRequest& request) {
  MetricsReply reply;
  reply.version = request.version;
  // No embedded manifest: the snapshot must stay a deterministic function
  // of the request sequence (manifests carry thread/inbox provenance that
  // legitimately varies across executors). Without a registry the reply
  // is an empty one's document.
  const obs::Registry* const reg = obs::registry();
  reply.json = reg != nullptr ? reg->to_json() : obs::Registry().to_json();
  return reply;
}

DumpRecorderReply MisService::run(const DumpRecorderRequest& request) {
  DumpRecorderReply reply;
  if (obs::FlightRecorder* const rec = obs::recorder()) {
    reply.recorder_attached = 1;
    const obs::RecorderStats rs = rec->stats();
    reply.buffered_events = rs.buffered_events;
    reply.evicted_events = rs.evicted_events;
    reply.artifact = rec->snapshot("dump_recorder_request");
    if (request.clear_after != 0) rec->clear();
  }
  return reply;
}

template <typename Request>
Frame MisService::step(const Frame& frame, std::uint64_t req) {
  const auto request = parse_payload<Request>(frame);
  std::uint64_t graph_id = 0;
  if constexpr (requires { request.graph_id; }) graph_id = request.graph_id;
  obs::emit(obs::make_event<obs::EventKind::kRequestBegin>(
      0, message_name(frame.type), req, graph_id));
  return make_frame(reply_type(frame.type), frame.request_id, run(request));
}

Frame MisService::handle(const Frame& request) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t req = ++request_seq_;
  ++stats_.requests_total;
  const char* const name = message_name(request.type);
  // Root span per request: the id is the deterministic request sequence
  // number (nonzero — pre-incremented), the ref echoes the client-chosen
  // request id. Child spans below (repair, resilient_mis, Network::run)
  // activate only inside this bracket.
  const obs::ScopedSpan span(name, req, request.request_id);
  Frame reply;
  std::uint32_t status = 0;
  try {
    switch (request.type) {
#define ARBMIS_SERVE_DISPATCH(name, type, wire, Request, Reply) \
  case MsgType::k##name:                                        \
    reply = step<Request>(request, req);                        \
    break;
      ARBMIS_SERVE_MESSAGES(ARBMIS_SERVE_DISPATCH)
#undef ARBMIS_SERVE_DISPATCH
      default:
        throw ServeError(ErrorCode::kBadRequest, "not a request type");
    }
  } catch (const ProtocolError& e) {
    ++stats_.errors;
    status = static_cast<std::uint32_t>(ErrorCode::kBadRequest);
    reply = make_frame(MsgType::kError, request.request_id,
                       ErrorReply{status, e.what()});
  } catch (const ServeError& e) {
    ++stats_.errors;
    status = static_cast<std::uint32_t>(e.code());
    reply = make_frame(MsgType::kError, request.request_id,
                       ErrorReply{status, e.what()});
  } catch (const std::exception& e) {
    ++stats_.errors;
    status = static_cast<std::uint32_t>(ErrorCode::kInternal);
    reply = make_frame(MsgType::kError, request.request_id,
                       ErrorReply{status, e.what()});
  }
  obs::emit(obs::make_event<obs::EventKind::kRequestEnd>(0, req, status,
                                                         reply.payload.size()));
  // Registry feed: requests serialize on mu_, so this is a second
  // sanctioned deterministic metering point (tools/layering.toml).
  if (obs::Registry* const reg = obs::registry()) {
    reg->add("serve.requests");
    reg->add(std::string("serve.req.") + name);
    if (status != 0) reg->add("serve.errors");
    reg->set("serve.graphs", static_cast<std::int64_t>(graphs_.size()));
    reg->set("serve.cache.entries",
             static_cast<std::int64_t>(cache_.size()));
    reg->add("serve.reply_payload_bytes", reply.payload.size());
  }
  return reply;
}

}  // namespace arbmis::serve
