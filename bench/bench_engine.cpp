// Experiment E1: shared-memory engine family (src/engine/) vs the CONGEST
// simulator, head-to-head on the same graphs — the raw-speed ceiling of
// ROADMAP item 3 made a number. items/s counts nodes decided per second
// per solve; the simulator rows run MetivierMis (the repo's flagship
// CONGEST MIS) through sim::Network on the identical GraphView.
//
// Correctness is checked inline on every engine row: the mask must be
// independent + maximal and byte-equal to the sequential-greedy oracle
// over the same (priority, id) order; the run exits nonzero on any
// mismatch so run_benches.sh fails loudly. The full sweep covers
// n = 2^12..2^18 plus a mapped ~10^6-edge row (engines running off an
// mmap-backed .gr file through the GraphView seam); --quick keeps n=2^12,
// which contains the perf-smoke gated row engine_tas_n4096.
//
// Prints a table and writes results/BENCH_engine.json (path via --json)
// with a gbench-style "benchmarks" array for tools/bench_gate.py.
#include <cstdio>

#include "bench_common.h"
#include "engine/engine.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "mis/metivier.h"
#include "mis/verifier.h"

namespace {

using namespace arbmis;

struct CaseResult {
  std::string name;
  std::uint64_t items = 0;  ///< nodes decided per solve
  double ms = 0.0;
  std::uint64_t mis_size = 0;
  bool ok = true;  ///< verified + matched the greedy oracle
  double items_per_second() const {
    return ms > 0.0 ? static_cast<double>(items) / (ms / 1000.0) : 0.0;
  }
};

/// One engine row: best-of-reps solve, then the inline contract check
/// (verify_mask + byte-equality with the greedy oracle's mask).
CaseResult run_engine_case(graph::GraphView g, engine::EngineKind kind,
                           const engine::EngineOptions& options,
                           const std::string& suffix, std::uint64_t reps,
                           const std::vector<std::uint8_t>& oracle_mask) {
  CaseResult c{std::string("engine_") + std::string(engine::engine_name(kind))
                   + suffix,
               g.num_nodes(), 0.0, 0, true};
  engine::EngineResult result;
  c.ms = bench::time_best_ms(
      reps, [&] { result = engine::solve(g, kind, options); });
  c.mis_size = result.mis_size();
  const mis::Verification check = mis::verify_mask(g, result.in_mis);
  c.ok = check.independent && check.maximal && result.in_mis == oracle_mask;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t reps =
      options.trials != 0 ? options.trials : (options.quick ? 2 : 3);
  const std::string json_path = options.json_out.empty()
                                    ? "results/BENCH_engine.json"
                                    : options.json_out;
  std::vector<graph::NodeId> sizes = {4096};
  if (!options.quick) {
    sizes.push_back(16384);
    sizes.push_back(65536);
    sizes.push_back(262144);
  }

  bench::print_header(
      "E1", "shared-memory engines vs CONGEST simulator, items/s per node");
  std::cout << "best of " << reps << " reps per cell, engine threads="
            << options.threads << "\n\n";

  std::vector<CaseResult> cases;
  bool all_ok = true;

  for (const graph::NodeId n : sizes) {
    util::Rng rng(options.seed);
    const graph::Graph g = graph::gen::hubbed_forest_union(n, 2, 64, rng);
    const std::string suffix = "_n" + std::to_string(n);

    engine::EngineOptions engine_options;
    engine_options.seed = options.seed;
    engine_options.num_threads = options.threads;
    const std::vector<std::uint8_t> oracle_mask =
        engine::solve(g, engine::EngineKind::kSequentialGreedy,
                      engine_options)
            .in_mis;

    for (const engine::EngineKind kind : engine::all_engines()) {
      cases.push_back(run_engine_case(g, kind, engine_options, suffix, reps,
                                      oracle_mask));
      all_ok = all_ok && cases.back().ok;
    }
    {
      CaseResult c{"sim_metivier" + suffix, n, 0.0, 0, true};
      mis::MisResult result;
      c.ms = bench::time_best_ms(
          reps, [&] { result = mis::MetivierMis::run(g, options.seed); });
      c.mis_size = result.mis_size();
      c.ok = mis::verify(g, result).ok();
      all_ok = all_ok && c.ok;
      cases.push_back(c);
    }
  }

  if (!options.quick) {
    // The mapped row: a ~10^6-edge forest union written to .gr and solved
    // off the mmap-backed view — the engines are storage-oblivious through
    // the GraphView seam, so items/s here is the out-of-core figure.
    const graph::NodeId n = 524288;
    util::Rng rng(options.seed);
    const graph::Graph g = graph::gen::union_of_random_forests(n, 2, rng);
    const std::string path = "/tmp/arbmis_bench_engine.gr";
    graph::storage::write_gr(path, g);
    const auto mapped = graph::storage::MappedGraph::open(path);
    std::cout << "mapped row: n=" << n << " m=" << mapped.num_edges()
              << " via " << path << "\n";

    engine::EngineOptions engine_options;
    engine_options.seed = options.seed;
    engine_options.num_threads = options.threads;
    const std::vector<std::uint8_t> oracle_mask =
        engine::solve(mapped.view(), engine::EngineKind::kSequentialGreedy,
                      engine_options)
            .in_mis;
    for (const engine::EngineKind kind : engine::all_engines()) {
      cases.push_back(run_engine_case(mapped.view(), kind, engine_options,
                                      "_mapped_m1e6", reps, oracle_mask));
      all_ok = all_ok && cases.back().ok;
    }
    std::remove(path.c_str());
  }

  util::Table table({"case", "nodes", "best_ms", "nodes_per_s", "mis_size",
                     "ok"});
  table.set_double_precision(3);
  for (const CaseResult& c : cases) {
    table.row()
        .cell(c.name)
        .cell(c.items)
        .cell(c.ms)
        .cell(c.items_per_second())
        .cell(c.mis_size)
        .cell(c.ok ? "yes" : "NO");
  }
  bench::emit(table, options);
  std::cout << "\ncontract: "
            << (all_ok ? "all rows verified and matched the greedy oracle"
                       : "MISMATCH")
            << "\n";

  std::vector<bench::JsonFields> rows;
  for (const CaseResult& c : cases) {
    rows.push_back(bench::JsonFields()
                       .add("name", c.name)
                       .add("nodes", c.items)
                       .add("best_ms", c.ms)
                       .add("items_per_second", c.items_per_second())
                       .add("mis_size", c.mis_size)
                       .add("ok", c.ok));
  }
  bench::write_report(json_path,
                      bench::JsonFields()
                          .add("bench", "engine")
                          .add("reps", reps)
                          .add("seed", options.seed)
                          .add("threads", options.threads)
                          .add("ok", all_ok),
                      rows);
  return all_ok ? 0 : 1;
}
