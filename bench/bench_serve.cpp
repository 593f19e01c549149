// Experiment S1: MIS-as-a-service end-to-end throughput (docs/SERVING.md).
//
// Spins up an in-process serve::Server + serve::MisService on an ephemeral
// loopback port and drives the mixed loadgen workload (tools/loadgen_core.h:
// LOAD -> COMPUTE xK -> QUERY -> fuzzed UPDATE_EDGES -> VERIFY -> STATS)
// from concurrent client threads — the same code path mis_loadgen exercises
// against an external daemon, minus process startup.
//
// Rows:
//   serve_mixed_quick  the CI smoke workload (4 clients x 240 nodes,
//                      120 fuzzed updates); tools/bench_gate.py gates its
//                      items_per_second (requests/s) against the committed
//                      results/BENCH_serve.json in the serve-smoke job.
//   serve_mixed        the full workload (omitted under --quick).
//
// Every workload pass must finish with zero client-side invariant
// violations and all updates certified — the bench exits nonzero
// otherwise, so run_benches.sh fails loudly on a serving regression, not
// just a slow one.
#include <limits>
#include <thread>

#include "bench_common.h"
#include "loadgen_core.h"
#include "serve/server.h"
#include "serve/service.h"

namespace {

using namespace arbmis;

struct PassResult {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  bool all_certified = true;
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double requests_per_second() const {
    return wall_ms > 0.0
               ? static_cast<double>(requests) / (wall_ms / 1000.0)
               : 0.0;
  }
};

/// One full workload pass against a fresh service (fresh cache, epoch 0),
/// so repeated passes see identical hit/miss behavior.
PassResult run_pass(const loadgen::WorkloadOptions& workload,
                    std::uint32_t service_threads) {
  serve::ServiceOptions service_options;
  service_options.num_threads = service_threads;
  serve::MisService service(service_options);
  serve::Server server(service, {});
  server.start();

  std::vector<loadgen::ClientTotals> per_client(workload.clients);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t c = 0; c < workload.clients; ++c) {
    threads.emplace_back([&, c] {
      per_client[c] =
          loadgen::run_client("127.0.0.1", server.port(), c, workload);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto stop = std::chrono::steady_clock::now();
  server.stop();

  loadgen::ClientTotals totals;
  for (const loadgen::ClientTotals& t : per_client) totals.merge(t);
  PassResult result;
  result.requests = totals.requests;
  result.failures = totals.failures;
  result.all_certified = totals.updates_certified == totals.updates_total;
  result.wall_ms = std::chrono::duration<double, std::milli>(stop - start)
                       .count();
  result.p50_ms = loadgen::percentile_ms(totals.latencies_ms, 50);
  result.p99_ms = loadgen::percentile_ms(totals.latencies_ms, 99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t reps = options.quick ? 2 : 3;
  const std::string json_path = options.json_out.empty()
                                    ? "results/BENCH_serve.json"
                                    : options.json_out;

  bench::print_header(
      "S1", "serving daemon — mixed-workload request throughput");
  bench::ObsSession session(options, "bench_serve");
  session.set_workload("serve_mixed", 0, 0);
  std::cout << "best of " << reps << " passes per row; threads="
            << options.threads << "\n\n";

  struct Row {
    std::string name;
    loadgen::WorkloadOptions workload;
  };
  std::vector<Row> rows;
  {
    // Mirror the mis_loadgen --quick preset exactly: the gated row must
    // mean the same thing whether produced here or by the CI smoke job.
    loadgen::WorkloadOptions quick;
    quick.clients = 4;
    quick.nodes = 240;
    quick.computes = 3;
    quick.updates = 30;
    quick.queries = 6;
    quick.seed = options.seed;
    rows.push_back({"serve_mixed_quick", quick});
  }
  if (!options.quick) {
    loadgen::WorkloadOptions full;
    full.seed = options.seed;
    rows.push_back({"serve_mixed", full});
  }

  std::vector<std::pair<std::string, PassResult>> results;
  bool ok = true;
  for (const Row& row : rows) {
    PassResult best;
    best.wall_ms = std::numeric_limits<double>::infinity();
    for (std::uint64_t r = 0; r < reps; ++r) {
      const PassResult pass = run_pass(row.workload, options.threads);
      ok = ok && pass.failures == 0 && pass.all_certified;
      if (pass.wall_ms < best.wall_ms) best = pass;
    }
    results.emplace_back(row.name, best);
  }

  util::Table table(
      {"row", "requests", "best_ms", "req_per_s", "p50_ms", "p99_ms", "ok"});
  table.set_double_precision(3);
  for (const auto& [name, r] : results) {
    table.row()
        .cell(name)
        .cell(r.requests)
        .cell(r.wall_ms)
        .cell(r.requests_per_second())
        .cell(r.p50_ms)
        .cell(r.p99_ms)
        .cell(r.failures == 0 && r.all_certified ? "yes" : "NO");
  }
  bench::emit(table, options);
  std::cout << "\ninvariants: "
            << (ok ? "all passes certified, zero violations"
                   : "VIOLATION (see table)")
            << "\n";

  std::vector<bench::JsonFields> json_rows;
  for (const auto& [name, r] : results) {
    json_rows.push_back(bench::JsonFields()
                            .add("name", name)
                            .add("requests", r.requests)
                            .add("best_ms", r.wall_ms)
                            .add("items_per_second", r.requests_per_second())
                            .add("p50_ms", r.p50_ms)
                            .add("p99_ms", r.p99_ms));
  }
  bench::write_report(json_path,
                      bench::JsonFields()
                          .add("bench", "serve")
                          .add("reps", reps)
                          .add("seed", options.seed),
                      json_rows);
  return ok ? 0 : 1;
}
