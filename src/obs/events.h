// Structured telemetry events.
//
// Every observable fact about a run — round barriers, pipeline phase
// transitions, fault decisions, model-checker verdicts — is expressed as
// one Event: a kind, a logical round, up to kMaxEventValues named 64-bit
// values, and an optional text payload. ARBMIS_OBS_EVENT_TABLE below is
// the one definition of every kind: it generates EventKind, the schema
// array, event_category, and make_event's compile-time arity check, and
// every artifact header carries the table (obs/manifest.h), so
// tools/trace_inspect.py reads kinds and fields from the file itself.
//
// Determinism contract: events use *logical* time only (the round number
// and emission order); wall-clock lives exclusively in the profiler
// (obs/profile.h). Kinds in the kSemantic category are emitted at serial
// points (round barriers, run boundaries, pipeline stage transitions)
// and are byte-identical across executor thread counts —
// tests/test_parallel_equivalence.cpp enforces this. Kinds in the kExec
// category describe executor internals (per-lane merge volumes) and
// legitimately vary by thread count; the default sink configuration
// excludes them (obs/sink.h).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace arbmis::obs {

inline constexpr std::size_t kMaxEventValues = 8;

/// Coarse grouping used by sink filtering (obs/sink.h).
enum class EventCategory : std::uint8_t {
  kSemantic = 0,  ///< deterministic in (graph, seed, algorithm, plan)
  kLogText,       ///< log lines (deterministic content, free-form)
  kExec,          ///< executor internals; vary by thread count
};

// The event table. One row per kind, in kind-byte order:
//   X(Kind, wire name, category, text field or nullptr, (field names...))
// A row's index is the kind byte binary records carry, so new kinds are
// appended at the end; each row's comment says where it is emitted.
#define ARBMIS_OBS_EVENT_TABLE(X)                                            \
  /* Network::run entry. enforce_congest is always 1 (the cap is fixed);   \
     the field stays so streams remain byte-identical. */                    \
  X(RunBegin, "run_begin", kSemantic, "algorithm",                           \
    ("nodes", "edges", "seed", "max_rounds", "enforce_congest"))             \
  /* Every round barrier, including the round-0 on_start flush.              \
     payload_bits is the actual per-message width sum (8 tag bits +          \
     bit_width(payload)), unlike RunStats' nominal charge; k_prev is the     \
     read-k ledger entry of the previous round, because draws staged in      \
     round r are consumed at barrier r + 1. */                               \
  X(Round, "round", kSemantic, nullptr,                                      \
    ("halted", "messages", "payload_bits", "in_flight", "rng_draws",         \
     "max_message_bits", "k_prev"))                                          \
  /* Network::run return. */                                                 \
  X(RunEnd, "run_end", kSemantic, nullptr,                                   \
    ("rounds", "messages", "payload_bits", "max_edge_load", "all_halted",    \
     "rng_draws"))                                                           \
  /* End of every checked run: the CONGEST checker summary. */               \
  X(ModelCheck, "model_check", kSemantic, nullptr,                           \
    ("k", "max_message_bits", "max_edge_bits", "max_rng_reads",              \
     "violations", "edge_bit_budget"))                                       \
  /* One model-check violation. */                                           \
  X(Violation, "violation", kSemantic, "what", ())                           \
  /* Round barrier of fault-injected runs only. */                           \
  X(FaultRound, "fault_round", kSemantic, nullptr,                           \
    ("drops", "duplicates", "crashes", "recoveries"))                        \
  /* Each crash decision, serially in node order. */                         \
  X(FaultCrash, "fault_crash", kSemantic, nullptr, ("node", "recover_at"))   \
  /* Each recovery resolved at a round barrier. */                           \
  X(FaultRecovery, "fault_recovery", kSemantic, nullptr, ("node"))           \
  /* core::arb_mis stage transitions (text = phase name). */                 \
  X(Phase, "phase", kSemantic, "name",                                       \
    ("index", "set_size", "rounds", "messages"))                             \
  /* Per scale of Algorithm 1. */                                            \
  X(Scale, "scale", kSemantic, nullptr,                                      \
    ("scale", "joined", "covered", "bad", "active_after"))                   \
  /* After the bad-set split. */                                             \
  X(Shatter, "shatter", kSemantic, nullptr,                                  \
    ("set_size", "components", "largest", "vlo", "vhi"))                     \
  /* Each resilient_mis attempt. */                                          \
  X(Attempt, "attempt", kSemantic, nullptr,                                  \
    ("attempt", "residual", "committed", "covered", "faulty", "rounds"))     \
  /* The resilient_mis certification verdict. */                             \
  X(Certified, "certified", kSemantic, nullptr,                              \
    ("certified", "attempts", "rounds_to_recovery"))                         \
  /* Every util/log line while a sink is attached. */                        \
  X(Log, "log", kLogText, "message", ("level"))                              \
  /* Per lane at pool barriers (sends = send + broadcast calls); off. */     \
  X(LaneMerge, "lane_merge", kExec, nullptr,                                 \
    ("lane", "sends", "messages", "halts"))                                  \
  /* MisService::handle dispatch (text = op name; docs/SERVING.md). */       \
  X(RequestBegin, "request_begin", kSemantic, "op", ("request", "graph"))    \
  /* After every request, success or error. */                               \
  X(RequestEnd, "request_end", kSemantic, nullptr,                           \
    ("request", "status", "payload_bytes"))                                  \
  /* A result-cache lookup served without a solve. */                        \
  X(CacheHit, "cache_hit", kSemantic, nullptr, ("graph", "seed", "key_hash")) \
  /* A result-cache lookup that triggers a solve. */                         \
  X(CacheMiss, "cache_miss", kSemantic, nullptr,                             \
    ("graph", "seed", "key_hash"))                                           \
  /* Start of an update batch's repair. */                                   \
  X(RepairBegin, "repair_begin", kSemantic, nullptr,                         \
    ("graph", "epoch", "residual", "full_recompute"))                        \
  /* The repair's re-certification verdict. */                               \
  X(RepairCertified, "repair_certified", kSemantic, nullptr,                 \
    ("graph", "epoch", "certified", "committed", "rounds"))                  \
  /* A span opened (obs/span.h; serving path only; text = span name). */     \
  X(SpanBegin, "span_begin", kSemantic, "name", ("span", "parent", "ref"))   \
  /* The matching span closed. */                                            \
  X(SpanEnd, "span_end", kSemantic, nullptr, ("span"))                       \
  /* Trailer of every flight-recorder dump (text = reason). */               \
  X(RecorderDump, "recorder_dump", kSemantic, "reason",                      \
    ("buffered_events", "buffered_bytes", "evicted_events",                  \
     "evicted_bytes"))

enum class EventKind : std::uint8_t {
#define ARBMIS_OBS_KIND(kind, wire, category, text, fields) k##kind,
  ARBMIS_OBS_EVENT_TABLE(ARBMIS_OBS_KIND)
#undef ARBMIS_OBS_KIND
  kCount
};

/// One row of the table. `text_field` is the JSON key of the text payload
/// (nullptr = the kind carries no text).
struct EventSchema {
  const char* name = nullptr;  ///< stable wire name, e.g. "round"
  EventCategory category = EventCategory::kSemantic;
  const char* text_field = nullptr;
  std::array<const char*, kMaxEventValues> fields{};
  std::uint32_t num_fields = 0;
};

namespace detail {

struct FieldNames {
  std::array<const char*, kMaxEventValues> names{};
  std::uint32_t size = 0;
};

template <typename... Names>
constexpr FieldNames field_names(Names... names) {
  static_assert(sizeof...(Names) <= kMaxEventValues,
                "an event kind has at most kMaxEventValues fields");
  return {{names...}, sizeof...(Names)};
}

}  // namespace detail

inline constexpr std::array<EventSchema,
                            static_cast<std::size_t>(EventKind::kCount)>
    kEventSchemas = {{
#define ARBMIS_OBS_SCHEMA(kind, wire, category, text, fields)  \
  {wire, EventCategory::category, text,                        \
   detail::field_names fields.names, detail::field_names fields.size},
        ARBMIS_OBS_EVENT_TABLE(ARBMIS_OBS_SCHEMA)
#undef ARBMIS_OBS_SCHEMA
    }};

/// Schema of `kind`; valid for every kind < kCount.
constexpr const EventSchema& event_schema(EventKind kind) noexcept {
  return kEventSchemas[static_cast<std::size_t>(kind)];
}

constexpr EventCategory event_category(EventKind kind) noexcept {
  return event_schema(kind).category;
}

/// One telemetry record. `text` is borrowed — valid only for the duration
/// of the emit call (sinks that buffer must copy; see OwnedEvent).
struct Event {
  EventKind kind = EventKind::kCount;
  std::uint32_t round = 0;
  std::string_view text{};
  std::array<std::uint64_t, kMaxEventValues> values{};
  std::uint32_t num_values = 0;
};

/// Deep copy of an Event for buffering sinks (obs::VectorSink).
struct OwnedEvent {
  EventKind kind = EventKind::kCount;
  std::uint32_t round = 0;
  std::string text;
  std::array<std::uint64_t, kMaxEventValues> values{};
  std::uint32_t num_values = 0;

  OwnedEvent() = default;
  explicit OwnedEvent(const Event& e)
      : kind(e.kind), round(e.round), text(e.text), values(e.values),
        num_values(e.num_values) {}
  Event view() const noexcept {
    return Event{kind, round, text, values, num_values};
  }
  friend bool operator==(const OwnedEvent&, const OwnedEvent&) = default;
};

namespace detail {

template <EventKind K, typename... Values>
Event build_event(std::uint32_t round, std::string_view text,
                  Values... values) {
  static_assert(sizeof...(Values) == event_schema(K).num_fields,
                "make_event: value count differs from the kind's field "
                "count");
  return Event{K, round, text, {static_cast<std::uint64_t>(values)...},
               sizeof...(Values)};
}

}  // namespace detail

/// Builds a `K` event from exactly the row's values, in field order:
///   make_event<EventKind::kFaultCrash>(round, node, recover_at)
/// Kinds whose row has a text field take the text first:
///   make_event<EventKind::kPhase>(round, name, index, set_size, ...)
/// A wrong value count, or text for a textless kind, fails to compile.
template <EventKind K, typename... Values>
  requires(event_schema(K).text_field == nullptr)
Event make_event(std::uint32_t round, Values... values) {
  static_assert(!(std::is_convertible_v<Values, std::string_view> || ...),
                "make_event: this event kind has no text field");
  return detail::build_event<K>(round, {}, values...);
}

template <EventKind K, typename... Values>
  requires(event_schema(K).text_field != nullptr)
Event make_event(std::uint32_t round, std::string_view text,
                 Values... values) {
  return detail::build_event<K>(round, text, values...);
}

/// Canonical single-line JSON rendering, shared by the JSONL writer and
/// the capture sink so stream comparisons and files use identical bytes:
///   {"ev":"round","round":3,"messages":8,...}
std::string to_json_line(const Event& e);

/// The table as the JSON array every artifact header carries, in kind-byte
/// order: [{"name":"run_begin","text":"algorithm","fields":[...]},...].
std::string event_table_json();

/// JSON string escaping for the writers (quotes, backslashes, control
/// characters; input treated as raw bytes).
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace arbmis::obs
