// Tests for the telemetry subsystem (src/obs): event schemas and JSON
// rendering, sink filtering/sampling/rotation, the binary wire format,
// the util/log → event bridge, the flight-recorder ring, the metrics
// registry, profiling scopes, and the simulator's emission contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "mis/luby.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "sim/network.h"
#include "util/log.h"

namespace arbmis {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// RAII guard restoring the log level and capturing std::clog, so the
/// log-bridge tests do not spam test output (mirrors test_log.cpp).
class LogCapture {
 public:
  LogCapture()
      : previous_level_(util::log_level()), old_buffer_(std::clog.rdbuf()) {
    std::clog.rdbuf(captured_.rdbuf());
  }
  ~LogCapture() {
    std::clog.rdbuf(old_buffer_);
    util::set_log_level(previous_level_);
  }
  std::string text() const { return captured_.str(); }

 private:
  util::LogLevel previous_level_;
  std::streambuf* old_buffer_;
  std::ostringstream captured_;
};

// ---------------------------------------------------------------------------
// Events: schema table and JSON rendering.
// ---------------------------------------------------------------------------

TEST(ObsEvents, EveryKindHasASchema) {
  // Binary records and old artifacts carry the kind byte: rows are only
  // ever appended to the table, never reordered or renamed.
  const std::vector<std::string> wire = {
      "run_begin", "round", "run_end", "model_check", "violation",
      "fault_round", "fault_crash", "fault_recovery", "phase", "scale",
      "shatter", "attempt", "certified", "log", "lane_merge",
      "request_begin", "request_end", "cache_hit", "cache_miss",
      "repair_begin", "repair_certified", "span_begin", "span_end",
      "recorder_dump"};
  ASSERT_EQ(wire.size(), static_cast<std::size_t>(obs::EventKind::kCount));
  for (std::uint8_t k = 0;
       k < static_cast<std::uint8_t>(obs::EventKind::kCount); ++k) {
    const obs::EventSchema& schema =
        obs::event_schema(static_cast<obs::EventKind>(k));
    ASSERT_NE(schema.name, nullptr) << "kind " << static_cast<int>(k);
    EXPECT_EQ(schema.name, wire[k]) << "kind byte " << static_cast<int>(k);
    EXPECT_LE(schema.num_fields, obs::kMaxEventValues);
    for (std::uint32_t i = 0; i < schema.num_fields; ++i) {
      EXPECT_NE(schema.fields[i], nullptr)
          << schema.name << " field " << i;
    }
  }
}

TEST(ObsEvents, CategoryPartition) {
  EXPECT_EQ(obs::event_category(obs::EventKind::kRound),
            obs::EventCategory::kSemantic);
  EXPECT_EQ(obs::event_category(obs::EventKind::kPhase),
            obs::EventCategory::kSemantic);
  EXPECT_EQ(obs::event_category(obs::EventKind::kLog),
            obs::EventCategory::kLogText);
  EXPECT_EQ(obs::event_category(obs::EventKind::kLaneMerge),
            obs::EventCategory::kExec);
}

TEST(ObsEvents, JsonLineMatchesSchemaFieldOrder) {
  const obs::Event recovery =
      obs::make_event<obs::EventKind::kFaultRecovery>(2, 7);
  EXPECT_EQ(obs::to_json_line(recovery),
            "{\"ev\":\"fault_recovery\",\"round\":2,\"node\":7}");

  const obs::Event phase =
      obs::make_event<obs::EventKind::kPhase>(0, "vlo", 2, 10, 3, 5);
  EXPECT_EQ(obs::to_json_line(phase),
            "{\"ev\":\"phase\",\"round\":0,\"index\":2,\"set_size\":10,"
            "\"rounds\":3,\"messages\":5,\"name\":\"vlo\"}");
}

TEST(ObsEvents, EscapesJsonText) {
  std::string out;
  obs::append_json_escaped(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
}

// ---------------------------------------------------------------------------
// Sinks: filtering, sampling, rotation, binary round-trip, log bridge.
// ---------------------------------------------------------------------------

TEST(ObsSink, DefaultConfigExcludesExecutorKinds) {
  obs::VectorSink capture;
  capture.emit(
      obs::make_event<obs::EventKind::kRound>(1, 0, 4, 0, 0, 0, 0, 0));
  capture.emit(obs::make_event<obs::EventKind::kLaneMerge>(1, 0, 2, 2, 0));
  ASSERT_EQ(capture.size(), 1u);
  EXPECT_EQ(capture.events()[0].kind, obs::EventKind::kRound);

  obs::SinkConfig exec_on;
  exec_on.exec = true;
  obs::VectorSink full(exec_on);
  full.emit(obs::make_event<obs::EventKind::kLaneMerge>(1, 0, 2, 2, 0));
  EXPECT_EQ(full.size(), 1u);
}

TEST(ObsSink, RoundSamplingKeepsBoundaries) {
  obs::SinkConfig config;
  config.round_sample = 3;
  obs::VectorSink capture(config);
  capture.emit(
      obs::make_event<obs::EventKind::kRunBegin>(0, "x", 8, 7, 1, 100, 1));
  for (std::uint32_t r = 1; r <= 9; ++r) {
    capture.emit(
        obs::make_event<obs::EventKind::kRound>(r, 0, 1, 0, 0, 0, 0, 0));
  }
  capture.emit(
      obs::make_event<obs::EventKind::kRunEnd>(9, 9, 9, 72, 1, 1, 0));
  // Kept: run_begin, rounds 3/6/9, run_end — boundaries always pass.
  const std::vector<obs::OwnedEvent> events = capture.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().kind, obs::EventKind::kRunBegin);
  EXPECT_EQ(events[1].round, 3u);
  EXPECT_EQ(events[2].round, 6u);
  EXPECT_EQ(events[3].round, 9u);
  EXPECT_EQ(events.back().kind, obs::EventKind::kRunEnd);
}

TEST(ObsSink, ScopedSinkInstallsAndRestores) {
  EXPECT_EQ(obs::sink(), nullptr);
  obs::VectorSink outer;
  {
    const obs::ScopedSink attach_outer(&outer);
    EXPECT_EQ(obs::sink(), &outer);
    obs::VectorSink inner;
    {
      const obs::ScopedSink attach_inner(&inner);
      EXPECT_EQ(obs::sink(), &inner);
      obs::emit(obs::make_event<obs::EventKind::kFaultRecovery>(1, 3));
    }
    EXPECT_EQ(obs::sink(), &outer);
    EXPECT_EQ(inner.size(), 1u);
    EXPECT_EQ(outer.size(), 0u);
  }
  EXPECT_EQ(obs::sink(), nullptr);
  // Detached emission is a no-op, not a crash.
  obs::emit(obs::make_event<obs::EventKind::kFaultRecovery>(1, 3));
}

TEST(ObsSink, LogLinesBecomeEventsWhileAttached) {
  LogCapture quiet;
  util::set_log_level(util::LogLevel::kInfo);
  obs::VectorSink capture;
  {
    const obs::ScopedSink attach(&capture);
    ARBMIS_LOG(Warn) << "telemetry bridge check " << 42;
  }
  ARBMIS_LOG(Warn) << "after detach";  // must NOT land in the sink

  const std::vector<obs::OwnedEvent> events = capture.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kLog);
  EXPECT_EQ(events[0].values[0],
            static_cast<std::uint64_t>(util::LogLevel::kWarn));
  EXPECT_NE(events[0].text.find("telemetry bridge check 42"),
            std::string::npos);
  // The clog line still goes out — the bridge tees, it does not reroute.
  EXPECT_NE(quiet.text().find("telemetry bridge check 42"),
            std::string::npos);
}

TEST(ObsSink, LogTextCategoryCanBeDisabled) {
  LogCapture quiet;
  util::set_log_level(util::LogLevel::kInfo);
  obs::SinkConfig config;
  config.log_text = false;
  obs::VectorSink capture(config);
  {
    const obs::ScopedSink attach(&capture);
    ARBMIS_LOG(Warn) << "should be filtered";
  }
  EXPECT_EQ(capture.size(), 0u);
}

TEST(ObsSink, JsonlWriterWritesManifestHeaderThenEvents) {
  const std::string path = tmp_path("obs_jsonl_writer.jsonl");
  obs::Manifest m = obs::make_manifest("test_obs");
  m.workload = "jsonl";
  m.seed = 7;
  obs::VectorSink mirror;
  {
    obs::JsonlWriter writer(path);
    writer.attach_manifest(m);
    for (const std::uint32_t round : {1u, 2u}) {
      const obs::Event e =
          obs::make_event<obs::EventKind::kFaultRecovery>(round, round + 2);
      writer.emit(e);
      mirror.emit(e);
    }
  }
  // The file stands alone: the manifest header, then exactly the bytes
  // VectorSink::to_jsonl renders for the same events.
  EXPECT_EQ(read_file(path), obs::to_json_line(m) + "\n" + mirror.to_jsonl());
}

namespace binary {

std::uint64_t read_varint(const std::string& buf, std::size_t& pos) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    const auto byte = static_cast<unsigned char>(buf.at(pos++));
    value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) break;
    shift += 7;
  }
  return value;
}

}  // namespace binary

TEST(ObsSink, BinaryWriterRoundTrips) {
  const std::string path = tmp_path("obs_roundtrip.bin");
  const obs::Event phase =
      obs::make_event<obs::EventKind::kPhase>(0, "shatter", 1, 200, 31, 4096);
  const obs::Event round = obs::make_event<obs::EventKind::kRound>(
      300, 12, 345, 6789, 0, 24, 18, 2);
  {
    obs::BinaryWriter writer(path);
    obs::Manifest m = obs::make_manifest("test_obs");
    m.seed = 99;
    writer.attach_manifest(m);
    writer.emit(phase);
    writer.emit(round);
    writer.flush();
  }
  const std::string buf = read_file(path);
  ASSERT_GE(buf.size(), 9u);
  EXPECT_EQ(buf.substr(0, 8), "ARBMISEV");
  EXPECT_EQ(buf[8], '\x01');

  std::size_t pos = 9;
  // Manifest record.
  ASSERT_EQ(buf.at(pos++), '\x00');
  const std::uint64_t manifest_len = binary::read_varint(buf, pos);
  const std::string manifest_json =
      buf.substr(pos, static_cast<std::size_t>(manifest_len));
  pos += static_cast<std::size_t>(manifest_len);
  EXPECT_EQ(manifest_json.rfind("{\"manifest\":", 0), 0u);
  EXPECT_NE(manifest_json.find("\"seed\":99"), std::string::npos);

  // Event records, decoded back into Events.
  for (const obs::Event& expected : {phase, round}) {
    ASSERT_EQ(buf.at(pos++), '\x01');
    const auto kind = static_cast<obs::EventKind>(
        static_cast<unsigned char>(buf.at(pos++)));
    const auto round_no =
        static_cast<std::uint32_t>(binary::read_varint(buf, pos));
    const std::uint64_t num_values = binary::read_varint(buf, pos);
    EXPECT_EQ(kind, expected.kind);
    EXPECT_EQ(round_no, expected.round);
    ASSERT_EQ(num_values, expected.num_values);
    for (std::uint32_t i = 0; i < expected.num_values; ++i) {
      EXPECT_EQ(binary::read_varint(buf, pos), expected.values[i]) << i;
    }
    const std::uint64_t text_len = binary::read_varint(buf, pos);
    EXPECT_EQ(buf.substr(pos, static_cast<std::size_t>(text_len)),
              expected.text);
    pos += static_cast<std::size_t>(text_len);
  }
  EXPECT_EQ(pos, buf.size());
}

// ---------------------------------------------------------------------------
// Flight recorder: ring eviction, truncation, dumps (obs/recorder.h).
// ---------------------------------------------------------------------------

struct DecodedRecord {
  obs::EventKind kind;
  std::uint32_t round;
  std::vector<std::uint64_t> values;
  std::string text;
};

/// Decodes concatenated ARBMISEV 0x01 event records starting at `pos`.
std::vector<DecodedRecord> decode_records(const std::string& buf,
                                          std::size_t pos = 0) {
  std::vector<DecodedRecord> out;
  while (pos < buf.size()) {
    EXPECT_EQ(buf.at(pos), '\x01');
    ++pos;
    DecodedRecord rec;
    rec.kind = static_cast<obs::EventKind>(
        static_cast<unsigned char>(buf.at(pos++)));
    rec.round = static_cast<std::uint32_t>(binary::read_varint(buf, pos));
    const std::uint64_t num_values = binary::read_varint(buf, pos);
    for (std::uint64_t i = 0; i < num_values; ++i) {
      rec.values.push_back(binary::read_varint(buf, pos));
    }
    const std::uint64_t text_len = binary::read_varint(buf, pos);
    rec.text = buf.substr(pos, static_cast<std::size_t>(text_len));
    pos += static_cast<std::size_t>(text_len);
    out.push_back(std::move(rec));
  }
  return out;
}

/// Checks the artifact header (magic, version, manifest record) and
/// returns the offset of the first event record.
std::size_t skip_header(const std::string& buf) {
  EXPECT_GE(buf.size(), 10u);
  EXPECT_EQ(buf.substr(0, 8), "ARBMISEV");
  EXPECT_EQ(buf[8], '\x01');
  std::size_t pos = 9;
  EXPECT_EQ(buf.at(pos++), '\x00');
  const std::uint64_t manifest_len = binary::read_varint(buf, pos);
  EXPECT_EQ(buf.substr(pos, 12), "{\"manifest\":");
  return pos + static_cast<std::size_t>(manifest_len);
}

TEST(ObsRecorder, ScopedRecorderReceivesEmitsAlongsideSink) {
  EXPECT_EQ(obs::recorder(), nullptr);
  EXPECT_FALSE(obs::telemetry_attached());
  obs::FlightRecorder recorder;
  obs::VectorSink sink_capture;
  {
    const obs::ScopedRecorder attach(&recorder);
    EXPECT_EQ(obs::recorder(), &recorder);
    // Recorder-only attachment still counts as telemetry: the simulator's
    // emission guards must not skip event assembly.
    EXPECT_TRUE(obs::telemetry_attached());
    const obs::ScopedSink attach_sink(&sink_capture);
    obs::emit(obs::make_event<obs::EventKind::kFaultRecovery>(1, 3));
  }
  EXPECT_EQ(obs::recorder(), nullptr);
  EXPECT_EQ(recorder.stats().recorded_events, 1u);
  EXPECT_EQ(sink_capture.size(), 1u);  // emit() fans out to both globals
}

TEST(ObsRecorder, WrapAroundEvictsOldestFirst) {
  obs::RecorderConfig config;
  config.max_bytes = 64;  // each fault_recovery record is 6 + 4 bytes
  obs::FlightRecorder recorder(config);
  for (std::uint32_t r = 1; r <= 20; ++r) {
    recorder.record(obs::make_event<obs::EventKind::kFaultRecovery>(r, 2));
  }
  const obs::RecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.recorded_events, 20u);
  EXPECT_EQ(stats.buffered_events, 6u);
  EXPECT_EQ(stats.evicted_events, 14u);
  EXPECT_EQ(stats.buffered_bytes, 36u);
  EXPECT_EQ(stats.evicted_bytes, 84u);
  EXPECT_EQ(stats.dropped_oversized, 0u);

  // Only the newest six survive, in emission order.
  const std::vector<DecodedRecord> records =
      decode_records(recorder.ring_bytes());
  ASSERT_EQ(records.size(), 6u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].kind, obs::EventKind::kFaultRecovery);
    EXPECT_EQ(records[i].round, 15u + i);
  }
}

TEST(ObsRecorder, OversizedEventIsDroppedNotBuffered) {
  obs::RecorderConfig config;
  config.max_bytes = 64;
  obs::FlightRecorder recorder(config);
  recorder.record(obs::make_event<obs::EventKind::kFaultRecovery>(1, 2));
  recorder.record(obs::make_event<obs::EventKind::kLog>(
      0, std::string(100, 'x'), 2));
  const obs::RecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.recorded_events, 2u);
  EXPECT_EQ(stats.dropped_oversized, 1u);
  // The oversized record neither lands nor evicts what was already there.
  EXPECT_EQ(stats.buffered_events, 1u);
  EXPECT_EQ(stats.evicted_events, 0u);
  const std::vector<DecodedRecord> records =
      decode_records(recorder.ring_bytes());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::EventKind::kFaultRecovery);
}

TEST(ObsRecorder, PathologicalLogTextIsTruncated) {
  obs::RecorderConfig config;
  config.max_bytes = 16u << 10;
  obs::FlightRecorder recorder(config);
  recorder.record(obs::make_event<obs::EventKind::kLog>(
      0, std::string(5000, 'y'), 1));
  const std::vector<DecodedRecord> records =
      decode_records(recorder.ring_bytes());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].text.size(), obs::kMaxRecorderText);
}

TEST(ObsRecorder, DumpWhileAttachedIsAValidArtifactWithTrailer) {
  const std::string path = tmp_path("obs_recorder_dump.flightrec");
  obs::FlightRecorder recorder;
  {
    const obs::ScopedRecorder attach(&recorder);
    obs::emit(obs::make_event<obs::EventKind::kFaultRecovery>(1, 3));
    obs::emit(obs::make_event<obs::EventKind::kFaultRecovery>(2, 4));
    // Dumping while attached must not disturb recording.
    ASSERT_TRUE(recorder.dump(path, "unit_test"));
    obs::emit(obs::make_event<obs::EventKind::kFaultRecovery>(3, 5));
  }
  EXPECT_EQ(recorder.stats().dumps, 1u);
  EXPECT_EQ(recorder.stats().buffered_events, 3u);

  const std::string buf = read_file(path);
  const std::vector<DecodedRecord> records =
      decode_records(buf, skip_header(buf));
  ASSERT_EQ(records.size(), 3u);  // two events + the kRecorderDump trailer
  EXPECT_EQ(records[0].round, 1u);
  EXPECT_EQ(records[1].round, 2u);
  const DecodedRecord& trailer = records.back();
  EXPECT_EQ(trailer.kind, obs::EventKind::kRecorderDump);
  EXPECT_EQ(trailer.text, "unit_test");
  ASSERT_EQ(trailer.values.size(), 4u);
  EXPECT_EQ(trailer.values[0], 2u);  // buffered events at dump time
  EXPECT_EQ(trailer.values[2], 0u);  // nothing evicted
}

TEST(ObsRecorder, ClearDropsBufferedButKeepsCumulativeCounters) {
  obs::FlightRecorder recorder;
  recorder.record(obs::make_event<obs::EventKind::kFaultRecovery>(1, 2));
  recorder.clear();
  const obs::RecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.buffered_events, 0u);
  EXPECT_EQ(stats.buffered_bytes, 0u);
  EXPECT_EQ(stats.recorded_events, 1u);
  EXPECT_TRUE(recorder.ring_bytes().empty());
  // The ring keeps working after a clear.
  recorder.record(obs::make_event<obs::EventKind::kFaultRecovery>(2, 2));
  EXPECT_EQ(recorder.stats().buffered_events, 1u);
}

TEST(ObsRecorder, AutoDumpWithoutPathIsANoOp) {
  obs::FlightRecorder recorder;  // default config: no dump_path
  recorder.record(obs::make_event<obs::EventKind::kFaultRecovery>(1, 2));
  EXPECT_FALSE(recorder.auto_dump("nowhere"));
  EXPECT_EQ(recorder.stats().dumps, 0u);
  // Detached helper is a safe no-op too.
  EXPECT_FALSE(obs::recorder_auto_dump("nobody_attached"));
}

// ---------------------------------------------------------------------------
// Registry: counters, gauges, histograms, JSON stability.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CountersGaugesAndHistograms) {
  obs::Registry reg;
  reg.add("sim.messages", 5);
  reg.add("sim.messages", 2);
  reg.add("sim.runs");
  reg.set("sim.model.k", -3);
  reg.observe("sim.message_bits", 9);
  reg.observe("sim.message_bits", 1024);

  EXPECT_EQ(reg.counter("sim.messages"), 7u);
  EXPECT_EQ(reg.counter("sim.runs"), 1u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_EQ(reg.gauge("sim.model.k"), -3);

  const std::string json = reg.to_json();
  EXPECT_EQ(json.rfind("{\"schema\":\"arbmis.metrics.v2\"", 0), 0u);
  EXPECT_NE(json.find("\"manifest\":null"), std::string::npos);
  EXPECT_NE(json.find("\"sim.messages\":7"), std::string::npos);
  EXPECT_NE(json.find("\"sim.model.k\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"log2\""), std::string::npos);
  // map storage ⇒ byte-stable key order regardless of insertion order.
  obs::Registry mirrored;
  mirrored.observe("sim.message_bits", 9);
  mirrored.observe("sim.message_bits", 1024);
  mirrored.set("sim.model.k", -3);
  mirrored.add("sim.runs");
  mirrored.add("sim.messages", 7);
  EXPECT_EQ(mirrored.to_json(), json);
  // Histograms staged elsewhere (as each simulator lane stages its
  // message widths) and merged read exactly as the values observed.
  util::Log2Histogram lane_a;
  util::Log2Histogram lane_b;
  lane_a.add(1024);
  lane_b.add(9);
  obs::Registry merged;
  merged.merge("sim.message_bits", lane_a);
  merged.merge("sim.message_bits", lane_b);
  merged.set("sim.model.k", -3);
  merged.add("sim.runs");
  merged.add("sim.messages", 7);
  EXPECT_EQ(merged.to_json(), json);
}

TEST(ObsRegistry, ScopedRegistryInstallsAndRestores) {
  EXPECT_EQ(obs::registry(), nullptr);
  obs::Registry reg;
  {
    const obs::ScopedRegistry attach(&reg);
    EXPECT_EQ(obs::registry(), &reg);
  }
  EXPECT_EQ(obs::registry(), nullptr);
}

TEST(ObsRegistry, EmbedsManifestWhenGiven) {
  obs::Registry reg;
  reg.add("sim.runs");
  obs::Manifest m = obs::make_manifest("test_obs");
  m.workload = "gnp(150,0.05)";
  const std::string json = reg.to_json(&m);
  EXPECT_NE(json.find("\"manifest\":{\"schema\":\"arbmis.obs.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"gnp(150,0.05)\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

TEST(ObsManifest, JsonShapes) {
  obs::Manifest m = obs::make_manifest("test_obs");
  m.workload = "path(64)";
  m.seed = 7;
  m.nodes = 64;
  m.edges = 63;
  m.threads = 4;
  EXPECT_EQ(m.schema, std::string(obs::kSchemaVersion));
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_EQ(m.tool, "test_obs");

  const std::string object = obs::to_json_object(m);
  EXPECT_EQ(object.front(), '{');
  EXPECT_EQ(object.back(), '}');
  EXPECT_NE(object.find("\"tool\":\"test_obs\""), std::string::npos);
  EXPECT_NE(object.find("\"threads\":4"), std::string::npos);
  // The header line carries the event table after the manifest.
  EXPECT_EQ(obs::to_json_line(m), "{\"manifest\":" + object +
                                      ",\"events\":" +
                                      obs::event_table_json() + "}");
  EXPECT_EQ(obs::event_table_json().rfind(
                "[{\"name\":\"run_begin\",\"text\":\"algorithm\","
                "\"fields\":[\"nodes\",\"edges\",\"seed\",\"max_rounds\","
                "\"enforce_congest\"]},{\"name\":\"round\",\"text\":null,",
                0),
            0u);
}

// ---------------------------------------------------------------------------
// Profiler.
// ---------------------------------------------------------------------------

TEST(ObsProfiler, RecordsScopesAndExportsChromeTrace) {
  obs::Profiler profiler;
  EXPECT_EQ(obs::Profiler::active(), nullptr);
  {
    const obs::ScopedProfiler attach(&profiler);
    ASSERT_EQ(obs::Profiler::active(), &profiler);
    OBS_SCOPE("outer");
    { OBS_SCOPE("inner"); }
  }
  EXPECT_EQ(obs::Profiler::active(), nullptr);
  EXPECT_EQ(profiler.span_count(), 2u);

  const std::string json = profiler.to_chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(ObsProfiler, ScopeStraddlingDetachDropsItsSpan) {
  obs::Profiler profiler;
  auto attach = std::make_unique<obs::ScopedProfiler>(&profiler);
  {
    const obs::ProfileScope straddler("straddle");
    attach.reset();  // detach before the scope closes
  }
  EXPECT_EQ(profiler.span_count(), 0u);
}

TEST(ObsProfiler, DisabledScopeIsANoOp) {
  ASSERT_EQ(obs::Profiler::active(), nullptr);
  OBS_SCOPE("no profiler attached");
}

// ---------------------------------------------------------------------------
// Simulator emission contract.
// ---------------------------------------------------------------------------

TEST(ObsNetwork, EmitsRunEventsIdenticallyAcrossThreadCounts) {
  const graph::Graph g = graph::gen::path(32);
  const auto run_with = [&](std::uint32_t threads) {
    const sim::ScopedNumThreads scoped(threads);
    obs::VectorSink capture;
    sim::RunStats stats;
    {
      const obs::ScopedSink attach(&capture);
      mis::LubyBMis algorithm(g);
      sim::Network net(g, /*seed=*/11);
      stats = net.run(algorithm, 1u << 12);
    }
    return std::make_pair(stats, capture.to_jsonl());
  };

  const auto [stats, serial] = run_with(0);
  EXPECT_TRUE(stats.all_halted);
  EXPECT_EQ(serial.rfind("{\"ev\":\"run_begin\"", 0), 0u);
  EXPECT_NE(serial.find("\"ev\":\"run_end\""), std::string::npos);
  EXPECT_NE(serial.find("\"ev\":\"model_check\""), std::string::npos);
  // One round event per round barrier: the on_start flush (round 0) plus
  // one per counted round.
  std::size_t rounds_seen = 0;
  for (std::size_t at = serial.find("{\"ev\":\"round\"");
       at != std::string::npos;
       at = serial.find("{\"ev\":\"round\"", at + 1)) {
    ++rounds_seen;
  }
  EXPECT_EQ(rounds_seen, stats.rounds + 1);
  for (const std::uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(serial, run_with(threads).second) << threads;
  }
}

TEST(ObsNetwork, FeedsAttachedRegistry) {
  const graph::Graph g = graph::gen::path(24);
  obs::Registry reg;
  sim::RunStats stats;
  {
    const obs::ScopedRegistry attach(&reg);
    mis::LubyBMis algorithm(g);
    sim::Network net(g, /*seed=*/5);
    stats = net.run(algorithm, 1u << 12);
  }
  EXPECT_EQ(reg.counter("sim.runs"), 1u);
  EXPECT_EQ(reg.counter("sim.rounds"), stats.rounds);
  EXPECT_EQ(reg.counter("sim.messages"), stats.messages);
  // The counter sums actual per-message widths, which are bounded by the
  // nominal per-message budget RunStats charges.
  EXPECT_GT(reg.counter("sim.payload_bits"), 0u);
  EXPECT_LE(reg.counter("sim.payload_bits"), stats.payload_bits);
  EXPECT_NE(reg.to_json().find("\"sim.message_bits\""), std::string::npos);
}

}  // namespace
}  // namespace arbmis
