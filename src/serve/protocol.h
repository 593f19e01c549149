// Wire protocol of the MIS serving daemon (docs/SERVING.md).
//
// Every message is one length-prefixed frame: a fixed 20-byte little-endian
// header (magic "AMSP", protocol version, message type, request id, payload
// length) followed by `payload_len` bytes of type-specific payload. Replies
// echo the request id; the reply type is the request type + 128, and errors
// use the dedicated kError type. All integers are little-endian and the
// decoder is strict: unknown magic/version/type, truncated payloads, and
// trailing payload bytes are all rejected with ProtocolError — a malformed
// frame can never be half-read.
//
// ARBMIS_SERVE_MESSAGES below is the one list of message kinds: it
// generates MsgType, the frame reader's known-type check, message_name()
// and the request → (type, reply) trait MessageTraits. Each payload struct
// carries one field list, `fields(io, m)`, that PayloadWriter and
// PayloadReader both run, so each wire layout and each strictness check is
// written once.
//
// Determinism contract: encode/decode are pure byte-for-byte inverses with
// no timestamps, process ids, or other ambient state in any frame, so a
// reply is a deterministic function of the request sequence alone.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/graph.h"

namespace arbmis::serve {

inline constexpr std::uint32_t kMagic = 0x50534D41u;  // "AMSP" little-endian
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Hard cap on one frame's payload; a header announcing more is malformed.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

// The message table. One row per request kind:
//   X(Name, type byte, wire name, request struct, reply struct)
// The reply's type byte is the request's + 128. The wire name names the
// request's span, its request_begin event and its serve.req.<name>
// registry counter. Rows 7/8 are the live-introspection surface, additive
// at protocol version 1: old servers reject them as unknown types.
#define ARBMIS_SERVE_MESSAGES(X)                                           \
  X(LoadGraph, 1, "load_graph", LoadGraphRequest, LoadGraphReply)          \
  X(ComputeMis, 2, "compute_mis", ComputeMisRequest, ComputeMisReply)      \
  X(Query, 3, "query", QueryRequest, QueryReply)                           \
  X(UpdateEdges, 4, "update_edges", UpdateEdgesRequest, UpdateEdgesReply)  \
  X(Verify, 5, "verify", VerifyRequest, VerifyReply)                       \
  X(Stats, 6, "stats", StatsRequest, StatsReply)                           \
  X(Metrics, 7, "metrics", MetricsRequest, MetricsReply)                   \
  X(DumpRecorder, 8, "dump_recorder", DumpRecorderRequest, DumpRecorderReply)

enum class MsgType : std::uint16_t {
#define ARBMIS_SERVE_TYPE(name, type, wire, Request, Reply) \
  k##name = (type), kReply##name = (type) + 128,
  ARBMIS_SERVE_MESSAGES(ARBMIS_SERVE_TYPE)
#undef ARBMIS_SERVE_TYPE
  kError = 255,  ///< reply-only: the request failed (ErrorReply)
};

/// Reply type of a request type (request value + 128).
constexpr MsgType reply_type(MsgType request) noexcept {
  return static_cast<MsgType>(static_cast<std::uint16_t>(request) + 128);
}

/// Wire name of a request type ("load_graph", ...); "unknown" for reply
/// types and kError.
constexpr const char* message_name(MsgType type) noexcept {
#define ARBMIS_SERVE_NAME(name, type_byte, wire, Request, Reply) \
  if (type == MsgType::k##name) return wire;
  ARBMIS_SERVE_MESSAGES(ARBMIS_SERVE_NAME)
#undef ARBMIS_SERVE_NAME
  return "unknown";
}

/// Error codes carried by kError replies (and ServeError).
enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,    ///< malformed payload, invalid ids, bad op
  kUnknownGraph = 2,  ///< graph_id was never loaded
  kUnsupported = 3,   ///< e.g. path load on a server without a loader
  kInternal = 4,      ///< pipeline failure (uncertified result)
};

/// Malformed bytes on the wire (bad magic/version/type, truncation,
/// trailing payload bytes, oversized frames).
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("serve: " + what) {}
};

/// A request that parsed but cannot be served; the server turns this into
/// a kError reply carrying `code`.
class ServeError : public std::runtime_error {
 public:
  ServeError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Serializes header + payload into wire bytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental frame decoder for a byte stream. feed() appends raw bytes;
/// next() pops the earliest complete frame. Malformed input throws
/// ProtocolError and poisons the reader (the connection must be dropped).
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  /// True if a complete frame was popped into `out`.
  bool next(Frame& out);
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::deque<std::uint8_t> buffer_;
};

// --- Payload codec ----------------------------------------------------------
//
// A field list is a static member `fields(io, m)` that hands the struct's
// fields, in wire order, to `io`:
//   io(a, b, ...)              scalars (u8/u16/u32/u64), strings (u32
//                              length + bytes), arrays (u64 count +
//                              elements) and nested payload structs;
//   io.tag(field, max)         a u8 on the wire in [0, max] (bool or enum);
//   io.pinned(field, expected) a field whose only accepted value is
//                              `expected` (a payload version, a count).
// A list may branch on a field it has already handed over: by then the
// reader has filled it in (LoadGraphRequest's source tag).

/// Runs the field list of `m` on `io`. graph::Edge lives below serve, so
/// its list ({u, v}) is kept here.
template <typename Io, typename Message>
void visit_fields(Io& io, Message& m) {
  if constexpr (std::is_same_v<std::remove_const_t<Message>, graph::Edge>) {
    io(m.u, m.v);
  } else {
    std::remove_const_t<Message>::fields(io, m);
  }
}

/// The write-side visitor: appends each field little-endian.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (put(fields), ...);
  }
  template <typename T>
  void tag(const T& field, std::type_identity_t<T> /*max*/) {
    put(static_cast<std::uint8_t>(field));
  }
  template <typename T>
  void pinned(const T& field, std::type_identity_t<T> /*expected*/) {
    put(field);
  }

 private:
  void put_le(std::uint64_t v, std::size_t bytes);
  void put_bytes(const std::string& s);  ///< u32 length + raw bytes

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
      put_le(v, sizeof(T));
    } else if constexpr (std::is_same_v<T, std::string>) {
      put_bytes(v);
    } else if constexpr (requires { typename T::value_type; }) {
      put_le(v.size(), 8);
      for (const auto& e : v) put(e);
    } else {
      visit_fields(*this, v);
    }
  }

  std::vector<std::uint8_t>& out_;
};

/// The read-side visitor: bounds-checked little-endian reads that throw
/// ProtocolError on underflow, a tag out of range, or a pinned mismatch.
/// An array count is checked against the bytes left before the array is
/// sized. finish() additionally rejects trailing bytes.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  template <typename... Fields>
  void operator()(Fields&... fields) {
    (get(fields), ...);
  }
  template <typename T>
  void tag(T& field, std::type_identity_t<T> max) {
    const auto v = static_cast<std::uint8_t>(le(1));
    if (v > static_cast<std::uint8_t>(max)) {
      throw ProtocolError("flag or tag byte out of range");
    }
    field = static_cast<T>(v);
  }
  template <typename T>
  void pinned(T& field, std::type_identity_t<T> expected) {
    get(field);
    if (field != expected) {
      throw ProtocolError("unsupported payload version or field count");
    }
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }
  void finish() const;

 private:
  std::uint64_t le(std::size_t bytes);
  std::string get_bytes();  ///< u32 length + raw bytes

  /// Wire size of an array element. Elements have a fixed size: that of
  /// a default one.
  template <typename Element>
  static std::size_t fixed_size() {
    std::vector<std::uint8_t> bytes;
    PayloadWriter w(bytes);
    w(Element{});
    return bytes.size();
  }

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
      v = static_cast<T>(le(sizeof(T)));
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = get_bytes();
    } else if constexpr (requires { typename T::value_type; }) {
      static const std::size_t element_bytes =
          fixed_size<typename T::value_type>();
      const std::uint64_t count = le(8);
      if (count > remaining() / element_bytes) {
        throw ProtocolError("payload truncated");
      }
      v.resize(count);
      for (auto& e : v) get(e);
    } else {
      visit_fields(*this, v);
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- Message payloads -----------------------------------------------------

/// Parameters every compute-like request carries; together with the graph
/// content hash they form the result-cache key.
struct ComputeParams {
  std::uint32_t alpha = 2;   ///< arboricity bound fed to shatter_driver
  std::uint64_t seed = 1;    ///< pipeline seed
  friend bool operator==(const ComputeParams&, const ComputeParams&) = default;
  static void fields(auto& io, auto& m) { io(m.alpha, m.seed); }
};

/// One dynamic-graph update op. Vertex ops ignore `v`; kAddVertex also
/// ignores `u` (the new vertex id is the current node count).
enum class UpdateOp : std::uint8_t {
  kInsertEdge = 0,
  kRemoveEdge = 1,
  kAddVertex = 2,
  kDetachVertex = 3,
};

struct EdgeUpdate {
  UpdateOp op = UpdateOp::kInsertEdge;
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  static void fields(auto& io, auto& m) {
    io.tag(m.op, UpdateOp::kDetachVertex);
    io(m.u, m.v);
  }
};

struct LoadGraphRequest {
  std::uint64_t graph_id = 0;
  bool from_path = false;
  std::string path;                     ///< when from_path
  graph::NodeId num_nodes = 0;          ///< when inline
  std::vector<graph::Edge> edges;       ///< when inline
  static void fields(auto& io, auto& m) {
    io(m.graph_id);
    io.tag(m.from_path, true);
    if (m.from_path) {
      io(m.path);
    } else {
      io(m.num_nodes, m.edges);
    }
  }
};

struct LoadGraphReply {
  graph::NodeId num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t content_hash = 0;
  static void fields(auto& io, auto& m) {
    io(m.num_nodes, m.num_edges, m.content_hash);
  }
};

struct ComputeMisRequest {
  std::uint64_t graph_id = 0;
  ComputeParams params;
  static void fields(auto& io, auto& m) { io(m.graph_id, m.params); }
};

struct ComputeMisReply {
  std::uint64_t mis_size = 0;
  std::uint64_t labels_hash = 0;
  std::uint64_t content_hash = 0;
  std::uint8_t cache_hit = 0;
  std::uint8_t certified = 0;
  std::uint32_t attempts = 0;
  std::uint64_t rounds = 0;
  static void fields(auto& io, auto& m) {
    io(m.mis_size, m.labels_hash, m.content_hash, m.cache_hit, m.certified,
       m.attempts, m.rounds);
  }
};

struct QueryRequest {
  std::uint64_t graph_id = 0;
  ComputeParams params;
  std::vector<graph::NodeId> nodes;
  static void fields(auto& io, auto& m) { io(m.graph_id, m.params, m.nodes); }
};

struct QueryReply {
  std::vector<std::uint8_t> states;  ///< mis::MisState per queried node
  std::uint8_t cache_hit = 0;
  static void fields(auto& io, auto& m) { io(m.states, m.cache_hit); }
};

struct UpdateEdgesRequest {
  std::uint64_t graph_id = 0;
  ComputeParams params;
  std::vector<EdgeUpdate> ops;
  static void fields(auto& io, auto& m) { io(m.graph_id, m.params, m.ops); }
};

struct UpdateEdgesReply {
  std::uint64_t epoch = 0;       ///< update batches applied so far
  std::uint8_t incremental = 0;  ///< repaired on the residual only
  std::uint8_t certified = 0;
  graph::NodeId residual = 0;    ///< nodes the repair re-ran on
  std::uint64_t mis_size = 0;
  std::uint64_t labels_hash = 0;
  std::uint64_t content_hash = 0;
  static void fields(auto& io, auto& m) {
    io(m.epoch, m.incremental, m.certified, m.residual, m.mis_size,
       m.labels_hash, m.content_hash);
  }
};

struct VerifyRequest {
  std::uint64_t graph_id = 0;
  ComputeParams params;
  static void fields(auto& io, auto& m) { io(m.graph_id, m.params); }
};

struct VerifyReply {
  std::uint8_t ok = 0;
  std::uint64_t mis_size = 0;
  std::uint64_t labels_hash = 0;
  static void fields(auto& io, auto& m) {
    io(m.ok, m.mis_size, m.labels_hash);
  }
};

/// STATS carries an empty payload.
struct StatsRequest {
  static void fields(auto& /*io*/, auto& /*m*/) {}
};

/// Service counters, encoded after a leading field count.
struct StatsReply {
  std::uint64_t requests_total = 0;
  std::uint64_t errors = 0;
  std::uint64_t graphs_loaded = 0;
  std::uint64_t computes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t queries = 0;
  std::uint64_t updates = 0;
  std::uint64_t update_ops = 0;
  std::uint64_t repairs_incremental = 0;
  std::uint64_t repairs_full = 0;
  std::uint64_t repairs_certified = 0;
  std::uint64_t verifies = 0;
  std::uint64_t cache_evictions = 0;
  friend bool operator==(const StatsReply&, const StatsReply&) = default;
  static void fields(auto& io, auto& m) {
    // Leading field count: bump it together with the list below.
    std::uint32_t count = 14;
    io.pinned(count, 14);
    io(m.requests_total, m.errors, m.graphs_loaded, m.computes,
       m.cache_hits, m.cache_misses, m.queries, m.updates, m.update_ops,
       m.repairs_incremental, m.repairs_full, m.repairs_certified,
       m.verifies, m.cache_evictions);
  }
};

/// Metrics snapshot request. The request carries its own payload version
/// so the exposition format can evolve without bumping the frame
/// protocol; version 2 is the only one defined and selects the
/// arbmis.metrics.v2 JSON document.
inline constexpr std::uint16_t kMetricsPayloadVersion = 2;

struct MetricsRequest {
  std::uint16_t version = kMetricsPayloadVersion;
  static void fields(auto& io, auto& m) {
    io.pinned(m.version, kMetricsPayloadVersion);
  }
};

struct MetricsReply {
  std::uint16_t version = kMetricsPayloadVersion;
  std::string json;  ///< arbmis.metrics.v2 document (obs/registry.h)
  static void fields(auto& io, auto& m) {
    io.pinned(m.version, kMetricsPayloadVersion);
    io(m.json);
  }
};

struct DumpRecorderRequest {
  /// When nonzero the server clears the ring after snapshotting, so a
  /// scraper can collect disjoint windows.
  std::uint8_t clear_after = 0;
  static void fields(auto& io, auto& m) { io.tag(m.clear_after, 1); }
};

struct DumpRecorderReply {
  std::uint8_t recorder_attached = 0;  ///< 0 => `artifact` is empty
  std::uint64_t buffered_events = 0;
  std::uint64_t evicted_events = 0;
  /// Complete ARBMISEV binary artifact (obs/recorder.h snapshot()).
  std::string artifact;
  static void fields(auto& io, auto& m) {
    io.tag(m.recorder_attached, 1);
    io(m.buffered_events, m.evicted_events, m.artifact);
  }
};

struct ErrorReply {
  std::uint32_t code = 0;
  std::string message;
  static void fields(auto& io, auto& m) { io(m.code, m.message); }
};

// --- Message kinds of the payload structs -----------------------------------

/// Request struct → its message type and reply struct. Defined for the
/// request struct of every table row and nothing else.
template <typename Request>
struct MessageTraits;

#define ARBMIS_SERVE_TRAITS(name, type, wire, RequestT, ReplyT) \
  template <>                                                   \
  struct MessageTraits<RequestT> {                              \
    static constexpr MsgType kType = MsgType::k##name;          \
    using Reply = ReplyT;                                       \
  };
ARBMIS_SERVE_MESSAGES(ARBMIS_SERVE_TRAITS)
#undef ARBMIS_SERVE_TRAITS

/// A request struct of the table.
template <typename T>
concept RequestMessage = requires { MessageTraits<T>::kType; };

template <RequestMessage Request>
using ReplyOf = typename MessageTraits<Request>::Reply;

/// Builds a complete frame for `message` (encode + header).
template <typename Message>
Frame make_frame(MsgType type, std::uint64_t request_id,
                 const Message& message) {
  Frame f;
  f.type = type;
  f.request_id = request_id;
  PayloadWriter w(f.payload);
  w(message);
  return f;
}

/// Decodes a frame payload as `Message`, strictly (no trailing bytes).
template <typename Message>
Message parse_payload(const Frame& frame) {
  PayloadReader r(frame.payload);
  Message m;
  r(m);
  r.finish();
  return m;
}

/// The typed round trip every caller shares: frames `request`, hands it to
/// `transport` (Client's socket, MisService::handle in process) and parses
/// the reply. A kError reply is re-thrown as ServeError with its code; any
/// other reply type but the request's is a ProtocolError.
template <RequestMessage Request, typename Transport>
ReplyOf<Request> roundtrip(Transport&& transport, const Request& request) {
  constexpr MsgType kType = MessageTraits<Request>::kType;
  const Frame reply = transport(make_frame(kType, 0, request));
  if (reply.type == MsgType::kError) {
    const auto err = parse_payload<ErrorReply>(reply);
    throw ServeError(static_cast<ErrorCode>(err.code), err.message);
  }
  if (reply.type != reply_type(kType)) {
    throw ProtocolError("unexpected reply type");
  }
  return parse_payload<ReplyOf<Request>>(reply);
}

}  // namespace arbmis::serve
