// Shared helpers for the experiment benches: command-line trial counts,
// consistent headers, the standard workload constructors, the timer and
// the results/BENCH_*.json writer, and the telemetry session
// (--events/--trace/--metrics, docs/OBSERVABILITY.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "sim/network.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"

namespace arbmis::bench {

/// Build flavor of *this* translation unit (the system libbenchmark is a
/// Debian Debug build and warns about itself; our code is what matters for
/// timing validity). run_benches.sh refuses to record results from a
/// non-Release binary via `--build-info`.
inline constexpr const char* build_type() noexcept {
#ifdef NDEBUG
  return "Release";
#else
  return "Debug";
#endif
}

/// Parses "--trials N" / "--quick" style options shared by all benches.
struct BenchOptions {
  std::uint64_t trials = 0;  ///< 0 = bench default
  bool quick = false;        ///< shrink sweeps for smoke runs
  bool csv = false;          ///< also emit each table as CSV
  std::uint64_t seed = 12345;
  std::uint32_t threads = 0;  ///< simulator workers; 0 = serial
  std::string json_out;       ///< machine-readable copy; "" = bench default
  std::string events_out;     ///< telemetry event stream (.jsonl or .bin)
  std::string trace_out;      ///< Chrome trace_event JSON from OBS_SCOPE
  std::string metrics_out;    ///< "arbmis.metrics.v2" registry dump
  std::string flightrec_out;  ///< attach a flight recorder; dump here at exit
  std::size_t recorder_bytes = std::size_t{1} << 20;  ///< ring capacity
  std::uint32_t trace_sample = 1;  ///< keep every Nth round's events

  /// Parses argv before any work. `extra_flags` are the bare flags a bench
  /// reads from argv itself (bench_mmap_graph's --large). --help prints the
  /// usage and exits 0; any other argument it does not know, or a flag
  /// whose value is missing or not a number it takes, prints the usage to
  /// stderr and exits 2.
  static BenchOptions parse(
      int argc, char** argv,
      std::initializer_list<std::string_view> extra_flags = {}) {
    const auto usage = [&](std::ostream& out) {
      out << "usage: " << argv[0]
          << " [--quick] [--csv] [--build-info] [--trials N] [--seed N]"
             " [--json PATH] [--threads N] [--events=PATH] [--trace=PATH]"
             " [--metrics=PATH] [--flightrec=PATH] [--recorder-bytes=N]"
             " [--trace-sample=N]";
      for (const std::string_view flag : extra_flags) {
        out << " [" << flag << "]";
      }
      out << "\n";
    };
    const auto reject = [&](std::string_view what) {
      std::cerr << argv[0] << ": cannot parse '" << what << "'\n";
      usage(std::cerr);
      std::exit(2);
    };
    // The whole of `text` must be a decimal that fits `out`.
    const auto number = [&](std::string_view what, std::string_view text,
                            auto& out) {
      if (!util::parse_number(text, out)) reject(what);
    };
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        usage(std::cout);
        std::exit(0);
      } else if (arg == "--quick") {
        options.quick = true;
      } else if (arg == "--csv") {
        options.csv = true;
      } else if (arg == "--build-info") {
        std::cout << "build=" << build_type() << "\n";
        std::exit(0);
      } else if (arg == "--trials" && i + 1 < argc) {
        ++i;
        number(arg + " " + argv[i], argv[i], options.trials);
      } else if (arg == "--seed" && i + 1 < argc) {
        ++i;
        number(arg + " " + argv[i], argv[i], options.seed);
      } else if (arg == "--json" && i + 1 < argc) {
        options.json_out = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        ++i;
        number(arg + " " + argv[i], argv[i], options.threads);
      } else if (arg.rfind("--events=", 0) == 0) {
        options.events_out = arg.substr(9);
      } else if (arg.rfind("--trace=", 0) == 0) {
        options.trace_out = arg.substr(8);
      } else if (arg.rfind("--metrics=", 0) == 0) {
        options.metrics_out = arg.substr(10);
      } else if (arg.rfind("--flightrec=", 0) == 0) {
        options.flightrec_out = arg.substr(12);
      } else if (arg.rfind("--recorder-bytes=", 0) == 0) {
        number(arg, std::string_view(arg).substr(17), options.recorder_bytes);
      } else if (arg.rfind("--trace-sample=", 0) == 0) {
        number(arg, std::string_view(arg).substr(15), options.trace_sample);
      } else if (std::find(extra_flags.begin(), extra_flags.end(), arg) ==
                 extra_flags.end()) {
        reject(arg);
      }
    }
    return options;
  }
};

/// Best wall-clock time of `reps` runs of `body`, in milliseconds.
inline double time_best_ms(std::uint64_t reps,
                           const std::function<void()>& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Flat JSON object, keys in insertion order: a report's top-level fields
/// or one of its rows (write_report).
class JsonFields {
 public:
  JsonFields& add(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    obs::append_json_escaped(quoted, value);
    return raw(key, quoted + '"');
  }
  JsonFields& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  JsonFields& add(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonFields& add(std::string_view key, T value) {
    std::ostringstream out;
    out << +value;  // + prints an 8-bit integer as a number, not a char
    return raw(key, out.str());
  }

  /// `"key": value` pairs joined by `separator`.
  std::string join(std::string_view separator) const {
    std::string out;
    for (const auto& [key, value] : fields_) {
      if (!out.empty()) out += separator;
      out += '"' + key + "\": " + value;
    }
    return out;
  }

 private:
  JsonFields& raw(std::string_view key, std::string value) {
    fields_.emplace_back(std::string(key), std::move(value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Writes a results/BENCH_*.json report: `header`'s fields, then `rows`
/// under "benchmarks", the gbench-style array tools/bench_gate.py reads
/// (each row's "name" and "items_per_second"). Says where it wrote.
inline void write_report(const std::string& path, const JsonFields& header,
                         const std::vector<JsonFields>& rows) {
  std::ofstream json(path);
  if (!json) {
    std::cout << "could not open " << path << " for writing\n";
    return;
  }
  json << "{\n  " << header.join(",\n  ") << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {" << rows[i].join(", ") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// RAII telemetry session for a bench binary: routes every Network the
/// bench builds without an explicit worker count to --threads N (the
/// manifest records that count), and attaches (per the options) an event
/// sink (--events=path, binary when the path ends in .bin), a flight
/// recorder (--flightrec=path, sized by --recorder-bytes=N), a metrics
/// registry (--metrics=path), and a profiler (--trace=path), all
/// process-wide via the obs Scoped* guards. On destruction the metrics
/// JSON and the Chrome trace are written next to the bench's other
/// artifacts, each embedding the run manifest. With none of the telemetry
/// flags given, constructing the session attaches nothing and the run
/// pays the usual zero cost.
class ObsSession {
 public:
  ObsSession(const BenchOptions& options, std::string tool)
      : threads_(options.threads),
        manifest_(obs::make_manifest(std::move(tool))),
        trace_out_(options.trace_out),
        metrics_out_(options.metrics_out) {
    manifest_.seed = options.seed;
    manifest_.threads = options.threads;
    if (!options.events_out.empty()) {
      obs::SinkConfig config;
      config.round_sample =
          options.trace_sample == 0 ? 1 : options.trace_sample;
      const bool binary = options.events_out.size() >= 4 &&
                          options.events_out.compare(
                              options.events_out.size() - 4, 4, ".bin") == 0;
      if (binary) {
        events_ = std::make_unique<obs::BinaryWriter>(options.events_out,
                                                      config);
      } else {
        events_ = std::make_unique<obs::JsonlWriter>(options.events_out,
                                                     config);
      }
      events_->attach_manifest(manifest_);
    }
    if (!metrics_out_.empty()) registry_ = std::make_unique<obs::Registry>();
    if (!options.flightrec_out.empty()) {
      // --flightrec attaches a flight recorder for the whole bench run
      // and snapshots the ring on destruction — used to measure the
      // recorder-attached overhead against the perf-smoke gate.
      obs::RecorderConfig config;
      config.max_bytes = options.recorder_bytes;
      config.dump_path = options.flightrec_out;
      recorder_ = std::make_unique<obs::FlightRecorder>(config);
      recorder_->attach_manifest(manifest_);
    }
    if (!trace_out_.empty()) profiler_ = std::make_unique<obs::Profiler>();
    if (events_ != nullptr) sink_scope_.emplace(events_.get());
    if (recorder_ != nullptr) recorder_scope_.emplace(recorder_.get());
    if (registry_ != nullptr) registry_scope_.emplace(registry_.get());
    if (profiler_ != nullptr) profiler_scope_.emplace(profiler_.get());
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Stamp the workload description into the manifest. Call before the
  /// measured work; an attached events file gets the updated manifest as
  /// an additional record (readers use the latest one).
  void set_workload(std::string description, std::uint64_t nodes,
                    std::uint64_t edges) {
    manifest_.workload = std::move(description);
    manifest_.nodes = nodes;
    manifest_.edges = edges;
    if (events_ != nullptr) events_->attach_manifest(manifest_);
    if (recorder_ != nullptr) recorder_->attach_manifest(manifest_);
  }

  obs::Registry* metrics() noexcept { return registry_.get(); }

  ~ObsSession() {
    profiler_scope_.reset();
    registry_scope_.reset();
    recorder_scope_.reset();
    sink_scope_.reset();
    if (recorder_ != nullptr) {
      if (recorder_->auto_dump("bench_exit")) {
        const obs::RecorderStats rs = recorder_->stats();
        std::cout << "[obs] flightrec -> " << recorder_->config().dump_path
                  << " (" << rs.buffered_events << " buffered, "
                  << rs.evicted_events << " evicted)\n";
      }
    }
    if (events_ != nullptr) {
      events_->flush();
      std::cout << "[obs] events -> " << events_path_of(events_.get())
                << "\n";
    }
    if (registry_ != nullptr && !metrics_out_.empty()) {
      std::ofstream out(metrics_out_);
      out << registry_->to_json(&manifest_) << "\n";
      std::cout << "[obs] metrics -> " << metrics_out_ << "\n";
    }
    if (profiler_ != nullptr && !trace_out_.empty()) {
      std::ofstream out(trace_out_);
      out << profiler_->to_chrome_trace_json(&manifest_) << "\n";
      std::cout << "[obs] trace -> " << trace_out_ << " ("
                << profiler_->span_count()
                << " spans; open in chrome://tracing or Perfetto)\n";
    }
  }

 private:
  static std::string events_path_of(const obs::EventSink* sink) {
    if (const auto* jsonl = dynamic_cast<const obs::JsonlWriter*>(sink)) {
      return jsonl->path();
    }
    if (const auto* binary = dynamic_cast<const obs::BinaryWriter*>(sink)) {
      return binary->path();
    }
    return "<sink>";
  }

  const sim::ScopedNumThreads threads_;
  obs::Manifest manifest_;
  std::string trace_out_;
  std::string metrics_out_;
  std::unique_ptr<obs::EventSink> events_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::optional<obs::ScopedSink> sink_scope_;
  std::optional<obs::ScopedRecorder> recorder_scope_;
  std::optional<obs::ScopedRegistry> registry_scope_;
  std::optional<obs::ScopedProfiler> profiler_scope_;
};

inline void print_header(std::string_view experiment_id,
                         std::string_view claim) {
  std::cout << "# " << experiment_id << ": " << claim << "\n";
}

/// Prints the aligned table, plus a CSV copy when --csv was passed.
inline void emit(const util::Table& table, const BenchOptions& options) {
  table.print(std::cout);
  if (options.csv) {
    std::cout << "\n[csv]\n";
    table.print_csv(std::cout);
  }
}

/// Workload families keyed by name, used by the comparison benches.
inline graph::Graph make_workload(const std::string& name, graph::NodeId n,
                                  util::Rng& rng) {
  if (name == "tree") return graph::gen::random_tree(n, rng);
  if (name == "pa_tree") return graph::gen::preferential_attachment_tree(n, rng);
  if (name == "planar") return graph::gen::random_apollonian(n, rng);
  if (name == "arb2") return graph::gen::union_of_random_forests(n, 2, rng);
  if (name == "arb4") return graph::gen::union_of_random_forests(n, 4, rng);
  if (name == "gnp") {
    return graph::gen::gnp(n, 8.0 / static_cast<double>(n), rng);
  }
  if (name == "powerlaw") {
    return graph::gen::chung_lu_power_law(n, 2.5, 6.0, rng);
  }
  if (name == "grid") {
    const auto side = static_cast<graph::NodeId>(std::sqrt(double(n)));
    return graph::gen::grid(side, side);
  }
  return graph::gen::random_tree(n, rng);
}

/// Arboricity hint matching make_workload's families.
inline graph::NodeId workload_alpha(const std::string& name) {
  if (name == "tree" || name == "pa_tree") return 1;
  if (name == "planar") return 3;
  if (name == "arb2") return 2;
  if (name == "arb4") return 4;
  if (name == "grid") return 2;
  return 4;  // gnp / power-law fallback hint
}

}  // namespace arbmis::bench
