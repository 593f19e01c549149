// mis_loadgen: concurrent load generator for arbmis_serve (docs/SERVING.md).
//
//   mis_loadgen --port N [--host A] [--clients N] [--nodes N]
//               [--computes N] [--updates N] [--ops-per-update N]
//               [--queries N] [--seed S] [--quick]
//               [--json PATH] [--metrics PATH]
//
// Drives the mixed workload of tools/loadgen_core.h from --clients
// concurrent connections, then reports p50/p99 latency and request
// throughput as a gbench-style JSON document (--json, gated by
// tools/bench_gate.py --benchmark) and the deterministic client-side
// totals as an "arbmis.metrics.v2" dump (--metrics, gated exactly).
//
// Exit status is the assertion: nonzero when any reply violated the
// workload's invariants — an update that failed to certify, a compute
// repeat that missed the cache or changed its labels hash, a failed
// verify. The serve-smoke CI job relies on this.
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loadgen_core.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "util/parse.h"

namespace {

using arbmis::util::parse_number;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --port N [--host A] [--clients N] [--nodes N]\n"
               "       [--computes N] [--updates N] [--ops-per-update N]\n"
               "       [--queries N] [--seed S] [--quick] [--json PATH]\n"
               "       [--metrics PATH]\n"
               "  --quick  small preset for CI smoke runs\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using arbmis::loadgen::ClientTotals;
  using arbmis::loadgen::WorkloadOptions;

  WorkloadOptions workload;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string json_out;
  std::string metrics_out;
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool parsed = true;
    if (arg == "--port" && i + 1 < argc) {
      parsed = parse_number(argv[++i], port);
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--clients" && i + 1 < argc) {
      parsed = parse_number(argv[++i], workload.clients, 1u);
    } else if (arg == "--nodes" && i + 1 < argc) {
      parsed = parse_number(argv[++i], workload.nodes);
    } else if (arg == "--computes" && i + 1 < argc) {
      parsed = parse_number(argv[++i], workload.computes);
    } else if (arg == "--updates" && i + 1 < argc) {
      parsed = parse_number(argv[++i], workload.updates);
    } else if (arg == "--ops-per-update" && i + 1 < argc) {
      parsed = parse_number(argv[++i], workload.ops_per_update);
    } else if (arg == "--queries" && i + 1 < argc) {
      parsed = parse_number(argv[++i], workload.queries);
    } else if (arg == "--seed" && i + 1 < argc) {
      parsed = parse_number(argv[++i], workload.seed);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::cerr << "mis_loadgen: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    }
    if (!parsed) {
      std::cerr << "mis_loadgen: cannot parse '" << arg << " " << argv[i]
                << "'\n";
      return usage(argv[0]);
    }
  }
  if (port == 0) {
    std::cerr << "mis_loadgen: --port is required\n";
    return usage(argv[0]);
  }
  if (quick) {
    // ≥100 fuzzed updates total (4 clients x 30), small graphs: the CI
    // smoke preset that still exercises every request type and repair path.
    workload.clients = 4;
    workload.nodes = 240;
    workload.computes = 3;
    workload.updates = 30;
    workload.queries = 6;
  }

  std::vector<ClientTotals> per_client(workload.clients);
  std::vector<std::thread> threads;
  std::vector<std::string> errors(workload.clients);
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::uint32_t c = 0; c < workload.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        per_client[c] = arbmis::loadgen::run_client(host, port, c, workload);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();

  int exit_code = 0;
  ClientTotals totals;
  for (std::uint32_t c = 0; c < workload.clients; ++c) {
    if (!errors[c].empty()) {
      std::cerr << "mis_loadgen: client " << c << ": " << errors[c] << "\n";
      exit_code = 2;
    }
    totals.merge(per_client[c]);
  }
  if (totals.failures != 0 ||
      totals.updates_certified != totals.updates_total) {
    std::cerr << "mis_loadgen: " << totals.failures
              << " invariant violation(s); " << totals.updates_certified
              << "/" << totals.updates_total << " updates certified\n";
    exit_code = 2;
  }

  const double p50 = arbmis::loadgen::percentile_ms(totals.latencies_ms, 50);
  const double p99 = arbmis::loadgen::percentile_ms(totals.latencies_ms, 99);
  const double req_s = wall_ms > 0
                           ? static_cast<double>(totals.requests) /
                                 (wall_ms / 1000.0)
                           : 0.0;

  std::cout << "mis_loadgen: " << totals.requests << " requests from "
            << workload.clients << " clients in " << wall_ms << " ms ("
            << req_s << " req/s, p50=" << p50 << " ms, p99=" << p99
            << " ms)\n"
            << "  cache " << totals.cache_hits << " hit / "
            << totals.cache_misses << " miss; updates "
            << totals.updates_certified << "/" << totals.updates_total
            << " certified (" << totals.repairs_incremental
            << " incremental, " << totals.repairs_full << " full); "
            << totals.failures << " failure(s)\n";
  for (std::size_t op = 0; op < arbmis::loadgen::kOpCount; ++op) {
    const std::vector<double>& samples = totals.latencies_by_op_ms[op];
    if (samples.empty()) continue;
    std::cout << "  " << arbmis::loadgen::op_name(op) << ": "
              << samples.size() << " requests, p50="
              << arbmis::loadgen::percentile_ms(samples, 50) << " ms, p99="
              << arbmis::loadgen::percentile_ms(samples, 99) << " ms\n";
  }

  const std::string bench_name = quick ? "serve_mixed_quick" : "serve_mixed";
  if (!json_out.empty()) {
    std::ostringstream json;
    json << "{\n  \"context\": {\"tool\": \"mis_loadgen\", \"clients\": "
         << workload.clients << ", \"seed\": " << workload.seed << "},\n"
         << "  \"benchmarks\": [\n    {\"name\": \"" << bench_name
         << "\", \"run_type\": \"iteration\", \"iterations\": "
         << totals.requests << ", \"real_time\": " << wall_ms
         << ", \"cpu_time\": " << wall_ms
         << ", \"time_unit\": \"ms\", \"items_per_second\": " << req_s
         << ", \"p50_ms\": " << p50 << ", \"p99_ms\": " << p99 << "}\n"
         << "  ]\n}\n";
    std::ofstream out(json_out);
    out << json.str();
    std::cout << "[json] -> " << json_out << "\n";
  }

  if (!metrics_out.empty()) {
    // Client-side totals only: they are deterministic in (seed, workload)
    // regardless of server threading, so bench_gate.py compares them by
    // exact equality in the serve-smoke job. Latency stays out — it is
    // gated by tolerance through the gbench JSON above instead.
    arbmis::obs::Registry registry;
    registry.add("loadgen.requests", totals.requests);
    registry.add("loadgen.failures", totals.failures);
    registry.add("loadgen.cache_hits", totals.cache_hits);
    registry.add("loadgen.cache_misses", totals.cache_misses);
    registry.add("loadgen.updates_total", totals.updates_total);
    registry.add("loadgen.updates_certified", totals.updates_certified);
    registry.add("loadgen.repairs_incremental", totals.repairs_incremental);
    registry.add("loadgen.repairs_full", totals.repairs_full);
    registry.add("loadgen.verifies_ok", totals.verifies_ok);
    // Per-request-type latency distributions as log2 histograms (in
    // microseconds, so the buckets resolve sub-millisecond replies). They
    // land in the "histograms" section, which the exact-equality counter
    // gate never reads — timing stays tolerance-gated only.
    for (std::size_t op = 0; op < arbmis::loadgen::kOpCount; ++op) {
      const std::string name =
          std::string("loadgen.latency_us.") + arbmis::loadgen::op_name(op);
      for (const double ms : totals.latencies_by_op_ms[op]) {
        registry.observe(name, static_cast<std::uint64_t>(ms * 1000.0));
      }
    }
    arbmis::obs::Manifest manifest = arbmis::obs::make_manifest("mis_loadgen");
    manifest.seed = workload.seed;
    manifest.workload = bench_name;
    std::ofstream out(metrics_out);
    out << registry.to_json(&manifest) << "\n";
    std::cout << "[metrics] -> " << metrics_out << "\n";
  }

  return exit_code;
}
