// perfbench: runs one workload of the end-to-end benchmark and prints its
// metrics (perfbench/README.md). Normally started by perfbench/run.py,
// which builds this package first:
//
//   perfbench --workload offline|engine|serve_update|serve_read --seed N
//             --seconds S --trace 0|1 --work-dir DIR --daemon PATH
//   perfbench --build-info
//
// Every input derives from --seed. --seconds sets the amount of work
// through fixed per-workload rates (solves or requests per second on the
// reference machine), so a run's work is a count, never a time budget.
// Untraced runs print the end-to-end metrics; traced runs (--trace 1)
// attach an obs::Profiler, an obs::Registry and the benchmark's span
// tracer, run the per-layer probes and write bench_spans.json and
// profile.json into the work directory for trace_summary.py. The last
// stdout line is "RESULT {json}".
#include <sys/stat.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "offline.h"
#include "probes.h"
#include "serve_load.h"

namespace perfbench {
namespace {

// Work per second of --seconds, sized on the reference machine (4 vCPU) so
// that a run's stream takes about --seconds. Offline is the exception: its
// solves take 0.1 to 0.14 s each, so its run is up to 40% longer, because
// its fastest solve steadies as a run holds more of them. Offline's engine
// calls only feed the report; the engine workload times the engine.
constexpr double kSolvesPerSecond = 10;
constexpr double kEngineCallsPerSecond = 0.1;
constexpr double kEngineWorkloadCallsPerSecond = 50;  // ~4 ms + ~12 ms oracle
constexpr double kUpdateRequestsPerSecond = 450;
constexpr double kReadRequestsPerSecond = 50000;
// Traced streams are capped: they only price tracing, and the span file
// and the traced run's length stay small.
constexpr std::uint64_t kTracedSolvesCap = 20;
constexpr std::uint64_t kTracedEngineCap = 200;
constexpr std::uint64_t kTracedUpdateCap = 1024;
constexpr std::uint64_t kTracedReadCap = 16384;

constexpr const char* kBuildType =
#ifdef NDEBUG
    "Release";
#else
    "Debug";
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string daemon;
};

std::uint64_t work(double seconds, double rate, std::uint64_t floor) {
  return std::max<std::uint64_t>(
      floor, static_cast<std::uint64_t>(std::llround(seconds * rate)));
}

/// The traced run's profiler and span tracer; TraceOn attaches both.
struct Tracing {
  Tracer* tracer = nullptr;
  arbmis::obs::Profiler* profiler = nullptr;
};

class TraceOn {
 public:
  explicit TraceOn(const Tracing& t)
      : prev_(Tracer::active()), profiler_scope_(t.profiler) {
    Tracer::active() = t.tracer;
  }
  ~TraceOn() { Tracer::active() = prev_; }
  TraceOn(const TraceOn&) = delete;
  TraceOn& operator=(const TraceOn&) = delete;

 private:
  Tracer* prev_;
  arbmis::obs::ScopedProfiler profiler_scope_;
};

/// One workload run's outcome: contract metrics plus the full report.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonObject metrics;
  JsonObject report;

  /// Prints one measured number with its unit and sample count, and keeps
  /// it in the report.
  void put(const std::string& name, double value, const char* unit,
           std::uint64_t samples) {
    std::cout << "  " << name << " = " << num(value) << " " << unit
              << "  (n=" << samples << ")\n";
    report.add(name, value);
  }

  double fail_ratio() const {
    return static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).
JsonObject end_to_end(double setup_s, double latency_ms, double rounds,
                      double rss_mb) {
  const auto metric = [](double value, const char* unit) {
    return JsonObject().add("value", value).add_str("unit", unit).str();
  };
  JsonObject m;
  m.raw("setup_s", metric(setup_s, "s"))
      .raw("latency_ms", metric(latency_ms, "ms"))
      .raw("rounds", metric(rounds, "count"))
      .raw("peak_rss_mb", metric(rss_mb, "MiB"));
  return m;
}

// --- offline and engine -----------------------------------------------------

/// Set-up of the offline graph: the seed's graph written kSetupRepeats
/// times with write_gr, then reopened with MappedGraph::open kSetupRepeats
/// times, split into a half before the stream and a half after it (the
/// machine's speed drifts within seconds, so the median should span the
/// run, not one moment of it). The file is removed on destruction.
class OfflineSetup {
 public:
  OfflineSetup(std::uint64_t seed, std::string path)
      : path_(std::move(path)), write_ms_(write_graph_in_child(seed, path_)) {}
  ~OfflineSetup() { std::remove(path_.c_str()); }
  OfflineSetup(const OfflineSetup&) = delete;
  OfflineSetup& operator=(const OfflineSetup&) = delete;

  /// Times `count` opens; returns the last mapping.
  storage::MappedGraph open(std::uint32_t count) {
    std::optional<storage::MappedGraph> mapped;
    for (std::uint32_t k = 0; k < count; ++k) {
      mapped.reset();
      const std::uint64_t start = now_ns();
      mapped.emplace(storage::MappedGraph::open(path_));
      open_ms_.push_back(ms_since(start));
    }
    return std::move(*mapped);
  }

  /// The median write_gr plus the median open, in s.
  double seconds() const {
    return (median(write_ms_) + median(open_ms_)) / 1e3;
  }

 private:
  std::string path_;
  std::vector<double> write_ms_;
  std::vector<double> open_ms_;
};

Outcome run_offline(const Args& a, const Tracing* tracing) {
  Outcome o;
  OfflineSetup setup(a.seed, a.work_dir + "/offline.gr");
  const storage::MappedGraph mapped =
      setup.open(kSetupRepeats - kSetupRepeats / 2);
  const arbmis::graph::GraphView g = mapped.view();

  const std::uint64_t solves = work(a.seconds, kSolvesPerSecond, 1);
  const std::uint64_t engine_calls = work(a.seconds, kEngineCallsPerSecond, 1);
  const OfflineTally t = run_offline_stream(g, a.seed, solves, engine_calls);
  const double rss = peak_rss_mb();
  setup.open(kSetupRepeats / 2);
  const double setup_s = setup.seconds();
  o.attempted = t.attempted;
  o.failed = t.failed;
  const double n = static_cast<double>(solves);
  const double mean_ms = perfbench::mean(t.solve_ms);
  // As for the engine below: the fastest of the run's solves.
  const double min_ms =
      *std::min_element(t.solve_ms.begin(), t.solve_ms.end());
  const double rounds = static_cast<double>(t.rounds) / n;

  std::cout << "offline: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " max_degree=" << g.max_degree() << "\n";
  o.put("setup_s", setup_s, "s", kSetupRepeats);
  o.put("solve_s", mean_ms / 1e3, "s", solves);
  o.put("solve_min_ms", min_ms, "ms", solves);
  o.put("rounds", rounds, "count", solves);
  o.put("messages", static_cast<double>(t.messages) / n, "count", solves);
  o.put("engine_solve_s", perfbench::mean(t.engine_ms) / 1e3, "s",
        engine_calls);
  o.put("fail_ratio", o.fail_ratio(), "ratio", o.attempted);
  o.put("peak_rss_mb", rss, "MiB", 1);
  o.metrics = end_to_end(setup_s, min_ms, rounds, rss);
  o.report.add_int("rounds_total", t.rounds)
      .add_int("messages_total", t.messages)
      .add_int("requests", t.attempted)
      .add_str("labels_digest", std::to_string(t.digest))
      .add_str("content_hash",
               std::to_string(arbmis::graph::content_hash(g)));

  if (tracing != nullptr) {
    // The stream's first solves again, untraced and then traced: the cost
    // of tracing. The stream's own first solves are no base: they pay the
    // page faults of the first allocations.
    const std::uint64_t cap = std::min(solves, kTracedSolvesCap);
    const OfflineTally untraced = run_offline_stream(g, a.seed, cap, 0);
    arbmis::obs::Registry registry;
    const arbmis::obs::ScopedRegistry registry_scope(&registry);
    const TraceOn on(*tracing);
    const Span span("stage.stream");
    const OfflineTally traced = run_offline_stream(g, a.seed, cap, cap);
    o.failed += untraced.failed + traced.failed;
    o.attempted += untraced.attempted + traced.attempted;
    o.report.add("traced_mean_ms", perfbench::mean(traced.solve_ms));
    o.report.add("obs.trace_overhead", perfbench::mean(traced.solve_ms) /
                                           perfbench::mean(untraced.solve_ms));
  }
  return o;
}

Outcome run_engine(const Args& a, const Tracing* tracing) {
  Outcome o;
  OfflineSetup setup(a.seed, a.work_dir + "/offline.gr");
  const storage::MappedGraph mapped =
      setup.open(kSetupRepeats - kSetupRepeats / 2);
  const arbmis::graph::GraphView g = mapped.view();

  const std::uint64_t calls = work(a.seconds, kEngineWorkloadCallsPerSecond, 1);
  const OfflineTally t = run_offline_stream(g, a.seed, 0, calls);
  const double rss = peak_rss_mb();
  setup.open(kSetupRepeats / 2);
  const double setup_s = setup.seconds();
  o.attempted = t.attempted;
  o.failed = t.failed;
  // Every call does about the same work, and the shared host's bursts only
  // add time, so the fastest call is the engine's own cost. Within one run,
  // successive blocks of calls switch between two speeds about 30% apart,
  // and some runs spend most of their time in the slow one: over five runs
  // on a busy host, the calls' lower quartile spread by 0.14 and their 10th
  // percentile by 0.15, their minimum by 0.08.
  const double min_ms =
      *std::min_element(t.engine_ms.begin(), t.engine_ms.end());
  const double rounds =
      static_cast<double>(t.engine_rounds) / static_cast<double>(calls);

  std::cout << "engine: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " max_degree=" << g.max_degree() << "\n";
  o.put("setup_s", setup_s, "s", kSetupRepeats);
  o.put("engine_solve_s", perfbench::mean(t.engine_ms) / 1e3, "s", calls);
  o.put("engine_min_ms", min_ms, "ms", calls);
  o.put("rounds", rounds, "count", calls);
  o.put("fail_ratio", o.fail_ratio(), "ratio", o.attempted);
  o.put("peak_rss_mb", rss, "MiB", 1);
  o.metrics = end_to_end(setup_s, min_ms, rounds, rss);
  o.report.add_int("rounds_total", t.engine_rounds)
      .add_int("requests", t.attempted)
      .add_str("labels_digest", std::to_string(t.digest))
      .add_str("content_hash",
               std::to_string(arbmis::graph::content_hash(g)));

  if (tracing != nullptr) {
    // The first calls again, untraced and then traced: the cost of tracing.
    // The stream's own first call is no base: it pays the page faults of
    // the engine's first allocations.
    const std::uint64_t cap = std::min(calls, kTracedEngineCap);
    const OfflineTally untraced = run_offline_stream(g, a.seed, 0, cap);
    arbmis::obs::Registry registry;
    const arbmis::obs::ScopedRegistry registry_scope(&registry);
    const TraceOn on(*tracing);
    const Span span("stage.stream");
    const OfflineTally traced = run_offline_stream(g, a.seed, 0, cap);
    o.failed += untraced.failed + traced.failed;
    o.attempted += untraced.attempted + traced.attempted;
    o.report.add("traced_mean_ms", perfbench::mean(traced.engine_ms));
    o.report.add("obs.trace_overhead", perfbench::mean(traced.engine_ms) /
                                           perfbench::mean(untraced.engine_ms));
  }
  return o;
}

// --- serve -------------------------------------------------------------------

Outcome run_serve(const Args& a, Stream kind, const Tracing* tracing) {
  Outcome o;
  std::vector<std::vector<ServeGraph>> graphs;
  std::uint64_t content = 0;
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    graphs.push_back(make_serve_graphs(a.seed, c));
    for (const ServeGraph& g : graphs.back()) {
      content = mix64(content, arbmis::graph::content_hash(g.graph));
    }
  }
  const std::uint64_t per_connection =
      kind == Stream::kUpdate
          ? work(a.seconds, kUpdateRequestsPerSecond / kConnections, 64)
          : work(a.seconds, kReadRequestsPerSecond / kConnections, 1024);

  // Set-up, kServeSetupRepeats times on fresh daemons: a half before the
  // stream, whose last daemon serves it, and a half after it, so that the
  // median spans the run rather than one moment of a drifting machine.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<Connection> conns;
  Tally setup;
  const auto set_up = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t k = from; k < to; ++k) {
      conns.clear();
      daemon.reset();
      setup = Tally{};
      const std::uint64_t start = now_ns();
      daemon = std::make_unique<Daemon>(a.daemon, a.work_dir,
                                        static_cast<int>(k));
      setup_connections(*daemon, graphs, conns, setup);
      setup_s.push_back(ms_since(start) / 1e3);
      o.attempted += setup.attempted;
      o.failed += setup.failed;
    }
  };
  set_up(0, kServeSetupRepeats - kServeSetupRepeats / 2);
  double wall = 0;
  const Tally t = run_stream(kind, a.seed, graphs, conns, per_connection,
                             &wall);
  const double rss = daemon->peak_rss_mb();
  set_up(kServeSetupRepeats - kServeSetupRepeats / 2, kServeSetupRepeats);
  conns.clear();
  daemon.reset();
  o.attempted += t.attempted;
  o.failed += t.failed;

  std::vector<double> ms(t.latency_us);
  for (double& v : ms) v /= 1e3;
  const double p99 = percentile(ms, 99.0);
  std::uint64_t beyond = 0;
  for (const double v : ms) beyond += v > p99 ? 1 : 0;
  const double p50 = percentile(ms, 50.0);
  // Rounds per from-scratch solve, as the set-up COMPUTE replies report.
  const double rounds = static_cast<double>(setup.compute_rounds) /
                        static_cast<double>(setup.computes);

  std::cout << (kind == Stream::kUpdate ? "serve_update" : "serve_read")
            << ": " << kConnections << " closed-loop connections, "
            << per_connection << " requests each\n";
  o.put("setup_s", median(setup_s), "s", kServeSetupRepeats);
  o.put("req_per_s", static_cast<double>(t.attempted) / wall, "1/s",
        t.attempted);
  o.put("mean_ms", perfbench::mean(ms), "ms", t.attempted);
  o.put("p50_ms", p50, "ms", t.attempted);
  o.put("p99_ms", p99, "ms", t.attempted);
  std::cout << "    (" << beyond << " samples beyond p99)\n";
  o.put("rounds", rounds, "count", setup.computes);
  o.put("fail_ratio", o.fail_ratio(), "ratio", o.attempted);
  o.put("peak_rss_mb", rss, "MiB", 1);
  // serve_read's requests all cost about the same, so its median is a
  // typical request. serve_update's QUERY replies take either microseconds
  // or, behind the other connection's UPDATE, milliseconds, so a median
  // would fall between those modes; its mean (by Little's law, the
  // connection count over req/s) does not.
  const double latency_ms = kind == Stream::kRead ? p50 : perfbench::mean(ms);
  o.metrics = end_to_end(median(setup_s), latency_ms, rounds, rss);
  o.report.add_int("samples_beyond_p99", beyond)
      .add_int("requests", t.attempted)
      .add_int("updates", t.updates)
      .add_int("residual_total", t.residual_sum)
      .add_str("labels_digest", std::to_string(t.digest))
      .add_str("content_hash", std::to_string(content));

  if (tracing != nullptr) {
    // The same frames in-process, untraced then traced: the cost of the
    // profiler and the spans on the request path. A registry and a flight
    // recorder are attached to both, as in the daemon.
    const std::uint64_t cap =
        std::min(per_connection,
                 kind == Stream::kUpdate ? kTracedUpdateCap : kTracedReadCap);
    arbmis::obs::Registry registry;
    arbmis::obs::FlightRecorder recorder;
    const arbmis::obs::ScopedRegistry registry_scope(&registry);
    const arbmis::obs::ScopedRecorder recorder_scope(&recorder);
    const double untraced = perfbench::mean(
        replay_in_process(kind, a.seed, graphs, cap).latency_us);
    const TraceOn on(*tracing);
    const Span span("stage.stream");
    const Tally traced = replay_in_process(kind, a.seed, graphs, cap);
    o.failed += traced.failed;
    o.attempted += traced.attempted;
    o.report.add("traced_mean_us", perfbench::mean(traced.latency_us));
    o.report.add("obs.trace_overhead",
                 perfbench::mean(traced.latency_us) / untraced);
  }
  return o;
}

int run(const Args& a) {
  ::mkdir(a.work_dir.c_str(), 0755);
  const double calib_start = calibration_ms();
  std::cout << "perfbench: workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
            << " build=" << kBuildType << "\n";

  // Traced runs: the anchor is the profiler's earliest span, so its
  // Chrome trace and the benchmark's share one time origin.
  const std::uint64_t origin = now_ns();
  Tracer tracer(origin);
  arbmis::obs::Profiler profiler;
  profiler.record("bench.anchor", origin, origin);
  const Tracing tracing{&tracer, &profiler};
  const Tracing* traced = a.trace ? &tracing : nullptr;

  Outcome o;
  if (a.workload == "offline") {
    o = run_offline(a, traced);
  } else if (a.workload == "engine") {
    o = run_engine(a, traced);
  } else {
    o = run_serve(a,
                  a.workload == "serve_update" ? Stream::kUpdate
                                               : Stream::kRead,
                  traced);
  }

  JsonObject layers;
  if (a.trace) {
    const TraceOn on(tracing);
    const Span span("stage.probes");
    const bool offline_ok = offline_probes(a.seed, a.work_dir, layers);
    const bool serve_ok = serve_probes(a.seed, a.daemon, a.work_dir, layers);
    o.attempted += 2;
    o.failed += (offline_ok ? 0 : 1) + (serve_ok ? 0 : 1);
  }
  const double calib_end = calibration_ms();
  const double calib = (calib_start + calib_end) / 2;
  o.put("bench.calib_ms", calib, "ms", 2);

  if (a.trace) {
    tracer.write(a.work_dir + "/bench_spans.json");
    std::ofstream(a.work_dir + "/profile.json")
        << profiler.to_chrome_trace_json() << "\n";
    layers.add("bench.calib_ms", calib);
  }
  std::cout << "RESULT "
            << JsonObject()
                   .raw("correct", o.failed == 0 ? "true" : "false")
                   .add_int("attempted", o.attempted)
                   .add_int("failed", o.failed)
                   .raw("metrics", a.trace ? layers.str() : o.metrics.str())
                   .raw("report", o.report.str())
                   .str()
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--build-info") {
      std::cout << "build=" << perfbench::kBuildType << "\n";
      return 0;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir" && has_value) {
      a.work_dir = argv[++i];
    } else if (arg == "--daemon" && has_value) {
      a.daemon = argv[++i];
    } else {
      std::cerr << "perfbench: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  if (a.workload != "offline" && a.workload != "engine" &&
      a.workload != "serve_update" && a.workload != "serve_read") {
    std::cerr << "perfbench: --workload must be offline, engine, "
                 "serve_update or serve_read\n";
    return 2;
  }
  if (std::string(perfbench::kBuildType) != "Release") {
    std::cerr << "perfbench: refusing to time a build without NDEBUG\n";
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
