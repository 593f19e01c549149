// Profiling scopes: the only place wall-clock time exists in the
// telemetry subsystem (events carry logical time exclusively; see
// obs/events.h).
//
//   OBS_SCOPE("net.round");
//
// opens an RAII timer recording a span into a thread-local buffer owned
// by the active Profiler — no lock on the hot path; the buffer is
// registered once per (thread, profiler) pair. With no profiler attached
// the macro costs one relaxed atomic load and a branch.
//
// Spans carry a lane id (set_thread_lane) assigned by the parallel
// executor, so to_chrome_trace_json() can group tracks by lane and order
// spans deterministically by (lane, start) even though worker threads are
// pooled. The export is Chrome trace_event JSON ("ph":"X" complete
// events) and opens directly in chrome://tracing or Perfetto.
//
// Staleness guard: a ProfileScope captures the active profiler at
// construction and only records at destruction if that same profiler is
// still active — a scope that straddles a ScopedProfiler boundary drops
// its span instead of writing into a dead or different profiler. Each
// Profiler also has a process-unique generation id; thread-local buffer
// caches are keyed by it, so a stale cache from a destroyed profiler can
// never be written through.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/manifest.h"

namespace arbmis::obs {

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The attached profiler, or nullptr (the common, zero-cost case).
  static Profiler* active() noexcept;

  /// Record one closed span. `name` must be a string literal (spans store
  /// the pointer). Safe from any thread.
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// Total spans across all thread buffers. Takes the registry lock; call
  /// from serial code.
  std::size_t span_count() const;

  /// Chrome trace_event JSON ("traceEvents" of "ph":"X" complete events,
  /// timestamps in microseconds relative to the earliest span, one tid
  /// per lane). Call from serial code after all scopes have closed.
  std::string to_chrome_trace_json(const Manifest* manifest = nullptr) const;

 private:
  friend class ScopedProfiler;

  struct Span {
    const char* name;
    std::uint32_t lane;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };
  struct Buffer {
    std::vector<Span> spans;
  };

  Buffer* buffer_for_this_thread();

  const std::uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII attachment of a profiler as the process-wide active one; restores
/// the previous on destruction. Non-owning.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(Profiler* p);
  ~ScopedProfiler();
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  Profiler* prev_;
};

/// Lane id attached to spans recorded by this thread (0 = main/serial;
/// the parallel executor tags workers with lane + 1).
void set_thread_lane(std::uint32_t lane) noexcept;

/// Monotonic nanoseconds for span timestamps.
std::uint64_t profile_now_ns() noexcept;

/// RAII span: records [construction, destruction) into the active
/// profiler, if any. Prefer the OBS_SCOPE macro.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) noexcept
      : name_(name), profiler_(Profiler::active()),
        start_ns_(profiler_ != nullptr ? profile_now_ns() : 0) {}
  ~ProfileScope() {
    if (profiler_ != nullptr && profiler_ == Profiler::active()) {
      profiler_->record(name_, start_ns_, profile_now_ns());
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  const char* name_;
  Profiler* profiler_;
  std::uint64_t start_ns_;
};

}  // namespace arbmis::obs

#define ARBMIS_OBS_CONCAT_INNER(a, b) a##b
#define ARBMIS_OBS_CONCAT(a, b) ARBMIS_OBS_CONCAT_INNER(a, b)
/// Times the enclosing scope under `name` (a string literal) when a
/// profiler is attached; a relaxed load and a branch otherwise.
#define OBS_SCOPE(name)                                 \
  const ::arbmis::obs::ProfileScope ARBMIS_OBS_CONCAT(  \
      arbmis_obs_scope_, __LINE__)(name)
