// Experiment P1: the simulator's one executor, inline lane (threads 0)
// against the worker pool, and the Monte-Carlo samplers, with the
// equivalence contract checked inline — every simulator case must hash
// identically on both, and the sampler case must be thread-count-invariant
// (parallel at T == parallel at 1). The Métivier sweep over
// union_of_random_forests(n, 2), n in {4096, 32768, 262144}, also reports
// the simulator's message throughput (messages per second on the inline
// lane). Prints a table and writes
// results/BENCH_sim_parallel.json (path via --json); exits nonzero on any
// mismatch, so the sweep in run_benches.sh fails loudly.
#include <thread>

#include "bench_common.h"
#include "core/arb_mis.h"
#include "mis/metivier.h"
#include "readk/family.h"
#include "readk/montecarlo.h"
#include "sim/network.h"
#include "util/stats.h"

namespace {

using namespace arbmis;

/// Order-sensitive fold of a run's observable output, so "identical"
/// below means identical byte-for-byte, not merely same-MIS.
std::uint64_t fold(std::uint64_t h, std::uint64_t x) {
  return util::mix64(h, x);
}

struct CaseResult {
  std::string name;
  std::uint64_t messages = 0;  ///< simulator messages per run; 0 = sampler
  double serial_ms = 0.0;      ///< inline lane (threads 0) / one worker
  double parallel_ms = 0.0;
  bool identical = false;
  double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
  double messages_per_second() const {
    return serial_ms > 0.0
               ? static_cast<double>(messages) / (serial_ms / 1000.0)
               : 0.0;
  }
};

std::uint64_t hash_mis(const mis::MisResult& r) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const mis::MisState s : r.state) {
    h = fold(h, static_cast<std::uint64_t>(s));
  }
  h = fold(h, r.stats.rounds);
  h = fold(h, r.stats.messages);
  h = fold(h, r.stats.payload_bits);
  h = fold(h, r.stats.max_edge_load);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint32_t hardware = std::thread::hardware_concurrency();
  const std::uint32_t threads =
      options.threads != 0 ? options.threads
                           : std::max<std::uint32_t>(hardware, 2);
  const std::uint64_t reps = options.quick ? 2 : 3;
  const std::string json_path = options.json_out.empty()
                                    ? "results/BENCH_sim_parallel.json"
                                    : options.json_out;

  bench::print_header(
      "P1", "inline lane vs worker pool — speedup with identical output");
  std::cout << "threads: " << threads
            << "  (hardware_concurrency: " << hardware << ")\n"
            << "best of " << reps << " reps per cell\n\n";

  std::vector<CaseResult> cases;

  // --- Simulator cases: the pool must reproduce the inline lane. ---
  std::vector<graph::NodeId> sizes = {4096, 32768};
  if (!options.quick) sizes.push_back(262144);
  for (const graph::NodeId n : sizes) {
    util::Rng rng(options.seed);
    const graph::Graph g = graph::gen::union_of_random_forests(n, 2, rng);

    CaseResult c;
    c.name = "metivier_arb2_n" + std::to_string(n);
    std::uint64_t serial_hash = 0;
    std::uint64_t parallel_hash = 0;
    c.serial_ms = bench::time_best_ms(reps, [&] {
      const mis::MisResult r = mis::MetivierMis::run(g, options.seed);
      serial_hash = hash_mis(r);
      c.messages = r.stats.messages;
    });
    c.parallel_ms = bench::time_best_ms(reps, [&] {
      const sim::ScopedNumThreads scoped(threads);
      parallel_hash = hash_mis(mis::MetivierMis::run(g, options.seed));
    });
    c.identical = serial_hash == parallel_hash;
    cases.push_back(c);
  }
  {
    const graph::NodeId n = options.quick ? 4000 : 16000;
    util::Rng rng(options.seed + 1);
    const graph::Graph g =
        graph::gen::hubbed_forest_union(n, 2, n / 512, rng);

    CaseResult c;
    c.name = "arb_mis_pipeline_n" + std::to_string(n);
    std::uint64_t serial_hash = 0;
    std::uint64_t parallel_hash = 0;
    c.serial_ms = bench::time_best_ms(reps, [&] {
      const mis::MisResult r =
          core::arb_mis(g, {.alpha = 2}, options.seed).mis;
      serial_hash = hash_mis(r);
      c.messages = r.stats.messages;
    });
    c.parallel_ms = bench::time_best_ms(reps, [&] {
      const sim::ScopedNumThreads scoped(threads);
      parallel_hash =
          hash_mis(core::arb_mis(g, {.alpha = 2}, options.seed).mis);
    });
    c.identical = serial_hash == parallel_hash;
    cases.push_back(c);
  }

  // --- Sampler case: the readk block grid is thread-count-invariant, so
  // the contract here is T workers == 1 worker, draw for draw. ---
  {
    const std::uint64_t trials =
        options.trials ? options.trials : (options.quick ? 20000 : 200000);
    const readk::ReadKFamily family =
        readk::shared_block_family(2000, 8, 0.999);

    CaseResult c;
    c.name = "mc_conjunction_" + std::to_string(trials) + "trials";
    readk::ConjunctionEstimate one, many;
    c.serial_ms = bench::time_best_ms(reps, [&] {
      util::Rng local(options.seed + 3);
      one = readk::estimate_conjunction(family, trials, local,
                                        {.num_threads = 1});
    });
    c.parallel_ms = bench::time_best_ms(reps, [&] {
      util::Rng local(options.seed + 3);
      many = readk::estimate_conjunction(family, trials, local,
                                         {.num_threads = threads});
    });
    c.identical = one.all_ones == many.all_ones &&
                  one.mean_indicator == many.mean_indicator;
    cases.push_back(c);
  }

  util::Table table({"case", "messages", "serial_ms", "messages_per_s",
                     "parallel_ms", "speedup", "identical"});
  table.set_double_precision(3);
  for (const CaseResult& c : cases) {
    table.row()
        .cell(c.name)
        .cell(c.messages)
        .cell(c.serial_ms)
        .cell(c.messages_per_second())
        .cell(c.parallel_ms)
        .cell(c.speedup())
        .cell(c.identical ? "yes" : "NO");
  }
  bench::emit(table, options);

  bool all_identical = true;
  for (const CaseResult& c : cases) all_identical = all_identical && c.identical;
  std::cout << "\nequivalence: "
            << (all_identical ? "all cases identical" : "MISMATCH") << "\n";

  std::vector<bench::JsonFields> rows;
  for (const CaseResult& c : cases) {
    rows.push_back(bench::JsonFields()
                       .add("name", c.name)
                       .add("messages", c.messages)
                       .add("serial_ms", c.serial_ms)
                       .add("messages_per_second", c.messages_per_second())
                       .add("parallel_ms", c.parallel_ms)
                       .add("speedup", c.speedup())
                       .add("identical", c.identical));
  }
  bench::write_report(json_path,
                      bench::JsonFields()
                          .add("bench", "sim_parallel")
                          .add("threads", threads)
                          .add("hardware_concurrency", hardware)
                          .add("reps", reps)
                          .add("seed", options.seed),
                      rows);
  return all_identical ? 0 : 1;
}
