// Experiment R1: fault tolerance of the MIS stack. Sweeps message drop
// rate x node crash rate x algorithm (the paper's Algorithm 1 via
// shatter_driver, Luby B, Ghaffari), runs each cell through ResilientMis
// (fault/resilient_mis.h), and reports whether a certified MIS was
// reached, how many attempts it took, and the rounds-to-recovery. Prints
// a table and writes machine-readable results to
// results/BENCH_fault_tolerance.json (path via --json).
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/adversary.h"
#include "fault/resilient_mis.h"
#include "mis/ghaffari.h"
#include "mis/luby.h"
#include "util/table.h"

namespace {

using namespace arbmis;

struct CellResult {
  std::string algorithm;
  double drop_rate = 0.0;
  double crash_rate = 0.0;
  bool certified = false;
  std::uint32_t attempts = 0;
  std::uint32_t rounds_to_recovery = 0;
  std::uint64_t mis_size = 0;
  std::uint64_t drops = 0;
  std::uint32_t crashes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::string json_path = options.json_out.empty()
                                    ? "results/BENCH_fault_tolerance.json"
                                    : options.json_out;

  bench::print_header(
      "R1", "certified MIS under message loss and node crashes");

  const graph::NodeId n = options.quick ? 200 : 600;
  util::Rng rng(options.seed);
  const graph::Graph g = graph::gen::union_of_random_forests(n, 2, rng);
  bench::ObsSession obs_session(options, "bench_fault_tolerance");
  obs_session.set_workload("arb2 forest union", g.num_nodes(),
                           g.num_edges());
  std::cout << "workload: arb2 forest union, n=" << n
            << ", m=" << g.num_edges() << ", threads=" << options.threads
            << "\n\n";

  const std::vector<double> drop_rates =
      options.quick ? std::vector<double>{0.0, 0.3}
                    : std::vector<double>{0.0, 0.1, 0.3};
  const std::vector<double> crash_rates =
      options.quick ? std::vector<double>{0.0, 0.02}
                    : std::vector<double>{0.0, 0.01, 0.05};

  struct Algo {
    std::string name;
    fault::MisDriver driver;
  };
  // shatter_constant lowered so Algorithm 1 runs real scales on this
  // workload's modest Δ instead of degenerating to the Luby fallback.
  const std::vector<Algo> algos = {
      {"arbmis", fault::shatter_driver(2, {.shatter_constant = 0.05})},
      {"luby", fault::algorithm_driver<mis::LubyBMis>()},
      {"ghaffari", fault::algorithm_driver<mis::GhaffariMis>()},
  };

  std::vector<CellResult> cells;
  for (const Algo& algo : algos) {
    for (const double drop : drop_rates) {
      for (const double crash : crash_rates) {
        fault::IidAdversary adversary(
            {.drop_rate = drop, .duplicate_rate = drop / 4.0,
             .crash_rate = crash, .recovery_delay = 0});
        fault::ResilientOptions resilient;
        resilient.max_rounds_per_attempt = 4096;
        resilient.num_threads = options.threads;
        const fault::ResilientResult result = fault::resilient_mis(
            g, options.seed, adversary, algo.driver, resilient);

        CellResult cell;
        cell.algorithm = algo.name;
        cell.drop_rate = drop;
        cell.crash_rate = crash;
        cell.certified = result.certified;
        cell.attempts = result.attempts;
        cell.rounds_to_recovery = result.rounds_to_recovery;
        for (const mis::MisState s : result.state) {
          cell.mis_size += (s == mis::MisState::kInMis) ? 1 : 0;
        }
        cell.drops = result.faults.drops;
        cell.crashes = result.faults.crashes;
        cells.push_back(cell);
      }
    }
  }

  util::Table table({"algorithm", "drop", "crash", "certified", "attempts",
                     "rounds", "mis_size", "drops_injected",
                     "crashes_injected"});
  table.set_double_precision(2);
  for (const CellResult& cell : cells) {
    table.row()
        .cell(cell.algorithm)
        .cell(cell.drop_rate)
        .cell(cell.crash_rate)
        .cell(cell.certified ? "yes" : "NO")
        .cell(std::uint64_t{cell.attempts})
        .cell(std::uint64_t{cell.rounds_to_recovery})
        .cell(cell.mis_size)
        .cell(cell.drops)
        .cell(std::uint64_t{cell.crashes});
  }
  bench::emit(table, options);

  bool all_certified = true;
  for (const CellResult& cell : cells) {
    all_certified = all_certified && cell.certified;
  }
  std::cout << "\ncertification: "
            << (all_certified ? "every cell certified" : "CELL FAILED")
            << "\n";

  std::vector<bench::JsonFields> rows;
  for (const CellResult& c : cells) {
    rows.push_back(bench::JsonFields()
                       .add("algorithm", c.algorithm)
                       .add("drop_rate", c.drop_rate)
                       .add("crash_rate", c.crash_rate)
                       .add("certified", c.certified)
                       .add("attempts", c.attempts)
                       .add("rounds_to_recovery", c.rounds_to_recovery)
                       .add("mis_size", c.mis_size)
                       .add("drops_injected", c.drops)
                       .add("crashes_injected", c.crashes));
  }
  bench::write_report(json_path,
                      bench::JsonFields()
                          .add("bench", "fault_tolerance")
                          .add("workload", "arb2")
                          .add("n", n)
                          .add("seed", options.seed)
                          .add("threads", options.threads),
                      rows);
  return all_certified ? 0 : 1;
}
