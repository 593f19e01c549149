// Experiment M1: google-benchmark microbenchmarks of the substrate (not a
// paper claim — a regression guard for the simulator and graph library
// that every other experiment's wall-clock depends on).
//
// The binary wraps google-benchmark's flag handling so run_benches.sh and
// CI can drive it with the same vocabulary as the bench_common.h benches:
//   --quick           short timing windows for smoke runs
//   --json FILE       machine-readable results (gbench JSON format)
//   --flightrec=FILE  attach a flight recorder for the whole run (dump on
//                     exit) — measures the recorder-attached overhead of
//                     the same benchmarks the perf-smoke gate watches
//   --build-info      print "build=Release|Debug" for this binary and exit
// plus any native --benchmark_* flag, passed through untouched.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/recorder.h"

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "mis/metivier.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {

using namespace arbmis;

void BM_GraphBuildCsr(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(1);
  std::vector<graph::Edge> edges =
      graph::gen::union_of_random_forests(n, 2, rng).edges();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::from_edges(n, edges));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuildCsr)->Arg(1 << 12)->Arg(1 << 16);

void BM_Bfs(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(2);
  const graph::Graph g = graph::gen::union_of_random_forests(n, 2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_distances(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Bfs)->Arg(1 << 12)->Arg(1 << 16);

void BM_CoreDecomposition(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(3);
  const graph::Graph g = graph::gen::random_apollonian(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::core_decomposition(g));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoreDecomposition)->Arg(1 << 12)->Arg(1 << 16);

void BM_NetworkRoundThroughput(benchmark::State& state) {
  // Full Métivier runs: measures simulator round dispatch + delivery.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(4);
  const graph::Graph g = graph::gen::union_of_random_forests(n, 2, rng);
  std::uint64_t seed = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const mis::MisResult result = mis::MetivierMis::run(g, ++seed);
    messages += result.stats.messages;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_NetworkRoundThroughput)->Arg(1 << 12)->Arg(1 << 15);

void BM_RngDraws(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngDraws);

// The system libbenchmark (Debian 1.7.1) is itself compiled without NDEBUG,
// so ConsoleReporter::ReportContext prints "***WARNING*** Library was built
// as DEBUG" on every run no matter how this binary was compiled. The
// warning travels through the reporter's error stream; buffer that stream
// and drop the one line. (--build-info reports the flavor that actually
// matters: this binary's.)
class DebianDebugWarningFilter : public benchmark::ConsoleReporter {
 public:
  // No OO_Color: the reporter is constructed directly (bypassing gbench's
  // tty detection), and the captured results/bench_micro.txt must not
  // contain ANSI escapes.
  DebianDebugWarningFilter() : benchmark::ConsoleReporter(OO_Tabular) {}

  bool ReportContext(const Context& context) override {
    std::ostream& err = GetErrorStream();
    std::ostringstream buffered;
    SetErrorStream(&buffered);
    const bool keep_going =
        benchmark::ConsoleReporter::ReportContext(context);
    SetErrorStream(&err);
    std::istringstream lines(buffered.str());
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("Library was built as DEBUG") != std::string::npos) {
        continue;
      }
      err << line << '\n';
    }
    return keep_going;
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Translate the repo-wide flags into native gbench flags before
  // Initialize sees them (gbench hard-errors on unknown flags).
  std::unique_ptr<arbmis::obs::FlightRecorder> recorder;
  std::vector<std::string> translated;
  translated.reserve(static_cast<std::size_t>(argc) + 2);
  translated.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--build-info") {
      std::cout << "build=" << arbmis::bench::build_type() << "\n";
      return 0;
    }
    if (arg == "--quick") {
      translated.emplace_back("--benchmark_min_time=0.05");
    } else if (arg == "--json" && i + 1 < argc) {
      translated.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      translated.emplace_back("--benchmark_out_format=json");
    } else if (arg.rfind("--flightrec=", 0) == 0) {
      arbmis::obs::RecorderConfig config;
      config.dump_path = arg.substr(12);
      recorder = std::make_unique<arbmis::obs::FlightRecorder>(config);
    } else {
      translated.emplace_back(arg);
    }
  }
  std::vector<char*> raw;
  raw.reserve(translated.size());
  for (std::string& s : translated) raw.push_back(s.data());
  int raw_argc = static_cast<int>(raw.size());
  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) return 1;
  DebianDebugWarningFilter display;
  {
    std::optional<arbmis::obs::ScopedRecorder> recorder_scope;
    if (recorder != nullptr) recorder_scope.emplace(recorder.get());
    benchmark::RunSpecifiedBenchmarks(&display);
  }
  if (recorder != nullptr && recorder->auto_dump("bench_exit")) {
    std::cerr << "[obs] flightrec -> " << recorder->config().dump_path
              << "\n";
  }
  benchmark::Shutdown();
  return 0;
}
