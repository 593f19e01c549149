// Metrics registry: named counters, gauges, and histograms accumulated
// over a run and dumped as one stable JSON document ("arbmis.metrics.v2")
// next to the existing results/BENCH_*.json artifacts.
//
// Metric names are dotted paths ("sim.messages", "core.phase_rounds");
// docs/OBSERVABILITY.md lists every name the simulator emits. Storage is
// ordered (std::map), so the JSON is byte-stable for a given sequence of
// updates — tools/bench_gate.py diffs selected counters against committed
// baselines by exact equality.
//
// The registry holds run totals only: what happened in each round is the
// simulator's Round event (obs/events.h), with its messages and payload
// bits.
//
// Attachment mirrors the sink: a process-wide pointer installed by
// ScopedRegistry, nullptr when detached. Updates are mutex-guarded —
// instrumentation calls happen at serial points (round barriers, driver
// code), so the lock is uncontended; it exists so stray worker-thread
// updates (e.g. from log hooks) stay safe.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/manifest.h"
#include "util/histogram.h"

namespace arbmis::obs {

inline constexpr const char* kMetricsSchemaVersion = "arbmis.metrics.v2";

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Monotonic counter.
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Last-write-wins gauge.
  void set(std::string_view name, std::int64_t value);
  /// Power-of-two-bucket histogram (util::Log2Histogram) — the default
  /// for heavy-tailed integer quantities such as payload widths.
  void observe(std::string_view name, std::uint64_t value);
  /// Adds every value of a histogram staged elsewhere (e.g. per simulator
  /// lane, folded at a round barrier) to `name`, as observe() would.
  void merge(std::string_view name, const util::Log2Histogram& staged);

  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;

  /// The full "arbmis.metrics.v2" document; embeds `manifest` when given.
  std::string to_json(const Manifest* manifest = nullptr) const;

 private:
  /// `name`'s histogram, created empty on first use; mu_ must be held.
  util::Log2Histogram& histogram(std::string_view name);

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, util::Log2Histogram, std::less<>> log2_histograms_;
};

/// Process-wide registry, or nullptr when metrics are detached.
Registry* registry() noexcept;

/// RAII attachment of a registry; restores the previous one on
/// destruction. Non-owning.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* r);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

}  // namespace arbmis::obs
