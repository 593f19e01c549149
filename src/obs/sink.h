// Event sinks: where telemetry events go.
//
// A sink is attached process-wide with ScopedSink (mirroring
// sim::ScopedNumThreads); instrumentation sites check
// `obs::sink() != nullptr` — a single relaxed atomic load — so a build
// with no sink attached pays one predictable branch per serial
// instrumentation point and nothing per message or per node.
//
// Filtering happens in the base class before the write virtual: a
// SinkConfig selects event categories (executor-internal kinds are off by
// default to keep streams byte-identical across thread counts) and can
// subsample per-round kinds (kRound / kFaultRound / kLaneMerge) to every
// Nth round for long runs. Run-boundary and phase events always pass.
//
// Writers emit the attached Manifest at the head of every file, so any
// artifact on disk is self-describing.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/manifest.h"
#include "util/log.h"

namespace arbmis::obs {

struct SinkConfig {
  bool semantic = true;   ///< kSemantic kinds (deterministic run facts)
  bool log_text = true;   ///< kLog (routed util/log lines)
  bool exec = false;      ///< kExec kinds; vary by thread count
  /// Keep per-round kinds only for rounds where round % round_sample == 0
  /// (0 is treated as 1, i.e. keep everything).
  std::uint32_t round_sample = 1;

  bool accepts_category(EventCategory category) const noexcept;
};

/// True for kinds emitted once per round barrier — the only kinds subject
/// to round sampling.
bool is_per_round(EventKind kind) noexcept;

/// The ARBMISEV binary encoding (layout at BinaryWriter), shared by
/// BinaryWriter and the flight recorder (obs/recorder.h).
inline constexpr std::string_view kBinaryMagic{"ARBMISEV\x01", 9};

/// Upper bound on an event record's bytes before its text: tag, kind, and
/// the round, count, value and text-length varints.
inline constexpr std::size_t kMaxRecordHeadBytes =
    2 + 10 * (kMaxEventValues + 3);

/// Writes the 0x01 record of `e` into `out` up to and including the
/// varint announcing `text_len` text bytes, which the caller appends.
/// Returns the bytes written. Allocation-free.
std::size_t encode_record_head(const Event& e, std::size_t text_len,
                               unsigned char* out) noexcept;

/// kBinaryMagic followed by the 0x00 header record of `m`: the head of
/// every binary artifact.
std::string binary_header(const Manifest& m);

/// Base sink: thread-safe filtered emission. Derived classes implement
/// write()/write_manifest(), which are always called under the sink lock.
class EventSink {
 public:
  explicit EventSink(SinkConfig config = {}) : config_(config) {}
  virtual ~EventSink() = default;
  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;

  /// Filter by config, then hand to the writer. Safe from any thread.
  void emit(const Event& e);

  /// Attach the run manifest; written immediately as the file header (a
  /// later one replaces it for readers).
  void attach_manifest(const Manifest& m);

  const SinkConfig& config() const noexcept { return config_; }

  virtual void flush() {}

 protected:
  virtual void write(const Event& e) = 0;
  virtual void write_manifest(const Manifest& m) { (void)m; }

  std::mutex& mutex() noexcept { return mu_; }

 private:
  SinkConfig config_;
  std::mutex mu_;
};

/// One JSON object per line; first line is the manifest.
class JsonlWriter : public EventSink {
 public:
  explicit JsonlWriter(std::string path, SinkConfig config = {});
  ~JsonlWriter() override;

  const std::string& path() const noexcept { return path_; }
  void flush() override;

 protected:
  void write(const Event& e) override;
  void write_manifest(const Manifest& m) override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// Compact binary stream (see docs/OBSERVABILITY.md for the layout):
///   magic "ARBMISEV", version byte 0x01, then records:
///     0x00  header: varint length + to_json_line(manifest) bytes
///     0x01  event: kind byte, varint round, varint num_values,
///           num_values varints, varint text length, text bytes
/// All varints are unsigned LEB128.
class BinaryWriter : public EventSink {
 public:
  explicit BinaryWriter(std::string path, SinkConfig config = {});
  ~BinaryWriter() override;

  const std::string& path() const noexcept { return path_; }
  void flush() override;

 protected:
  void write(const Event& e) override;
  void write_manifest(const Manifest& m) override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// In-memory capture for tests and the differential harness.
class VectorSink : public EventSink {
 public:
  explicit VectorSink(SinkConfig config = {}) : EventSink(config) {}

  std::vector<OwnedEvent> events() const;
  std::size_t size() const;

  /// The captured stream rendered exactly as JsonlWriter would write it
  /// (manifest excluded) — the unit of comparison for event-stream
  /// equality in tests/test_parallel_equivalence.cpp.
  std::string to_jsonl() const;

 protected:
  void write(const Event& e) override;

 private:
  mutable std::mutex events_mu_;
  std::vector<OwnedEvent> events_;
};

/// Process-wide sink, or nullptr when telemetry is detached (the common,
/// zero-cost case).
EventSink* sink() noexcept;

/// Emit to the attached sink and flight recorder, if any. The two null
/// checks are the entire cost of a disabled instrumentation point.
void emit(const Event& e);

/// True when any consumer — sink or flight recorder (obs/recorder.h) —
/// is attached. Instrumentation sites that gather data before building
/// events should test this rather than sink() alone, so a recorder-only
/// process (the serving daemon's default) still observes the run.
bool telemetry_attached() noexcept;

/// RAII attachment of a sink (and of the util/log → event bridge, so log
/// lines become kLog events while attached). Non-owning; restores the
/// previous sink and log hook on destruction. Mirrors the repo's other
/// scoped process-wide overrides.
class ScopedSink {
 public:
  explicit ScopedSink(EventSink* s);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  EventSink* prev_;
  util::LogEventHook prev_hook_;
};

}  // namespace arbmis::obs
