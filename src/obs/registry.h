// Metrics registry: named counters, gauges, and histograms accumulated
// over a run and dumped as one stable JSON document ("arbmis.metrics.v1")
// next to the existing results/BENCH_*.json artifacts.
//
// Metric names are dotted paths ("sim.messages", "core.phase_rounds");
// docs/OBSERVABILITY.md lists every name the simulator emits. Storage is
// ordered (std::map), so the JSON is byte-stable for a given sequence of
// updates — tools/bench_gate.py diffs selected counters against committed
// baselines by exact equality.
//
// Counters opted in via track_round_series() additionally record a
// per-round delta series at each snapshot_round() call (subsampled by
// round_sample), giving "messages per round" style curves without a
// second instrumentation pass.
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
#include <vector>

#include "obs/manifest.h"
#include "util/histogram.h"

namespace arbmis::obs {

inline constexpr const char* kMetricsSchemaVersion = "arbmis.metrics.v1";

class Registry {
 public:
  explicit Registry(std::uint32_t round_sample = 1)
      : round_sample_(round_sample == 0 ? 1 : round_sample) {}
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

  /// Opt `name` (a counter) into the per-round delta series recorded by
  /// snapshot_round().
  void track_round_series(std::string_view name);

  /// Record one round boundary: for every tracked counter, append the
  /// delta since the previous snapshot. Rounds where
  /// round % round_sample != 0 are skipped.
  void snapshot_round(std::uint32_t round);

  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;
  std::uint32_t round_sample() const noexcept { return round_sample_; }

  /// The full "arbmis.metrics.v1" document; embeds `manifest` when given.
  std::string to_json(const Manifest* manifest = nullptr) const;

 private:
  struct Series {
    std::uint64_t last = 0;
    std::vector<std::uint64_t> deltas;
  };

  /// `name`'s histogram, created empty on first use; mu_ must be held.
  util::Log2Histogram& histogram(std::string_view name);

  mutable std::mutex mu_;
  std::uint32_t round_sample_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, util::Log2Histogram, std::less<>> log2_histograms_;
  std::map<std::string, Series, std::less<>> series_;
  std::vector<std::uint32_t> sampled_rounds_;
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
