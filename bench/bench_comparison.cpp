// Experiment T4 (paper §1 / §1.2 discussion): who wins where. Luby's
// algorithm is Θ(log n) everywhere; the shattering pipeline targets
// bounded-arboricity graphs; Ghaffari's algorithm (O(log Δ) + small) is
// conceded by the paper to dominate. Every algorithm runs on every
// workload; rows report rounds, messages, and MIS size vs the greedy
// reference.
#include "bench_common.h"
#include "core/arb_mis.h"
#include "core/ghaffari_arb.h"
#include "mis/bit_metivier.h"
#include "mis/ghaffari.h"
#include "mis/greedy.h"
#include "mis/luby.h"
#include "mis/metivier.h"
#include "mis/verifier.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace arbmis;
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t runs =
      options.trials ? options.trials : (options.quick ? 3 : 10);
  const graph::NodeId n = options.quick ? 4000 : 32000;

  bench::ObsSession obs_session(options, "bench_comparison");
  obs_session.set_workload(
      "comparison sweep: tree,pa_tree,planar,arb2,arb4,gnp,powerlaw", n, 0);

  bench::print_header(
      "T4", "who-wins comparison across workloads (paper §1, §1.2)");
  std::cout << "n = " << n << ", runs per cell: " << runs << "\n\n";

  util::Table table({"workload", "algorithm", "rounds(mean)", "rounds(max)",
                     "messages(mean)", "mis/greedy", "verified"});
  table.set_double_precision(4);

  const std::vector<std::string> workloads{"tree",  "pa_tree", "planar",
                                           "arb2",  "arb4",    "gnp",
                                           "powerlaw"};

  bool all_verified = true;
  for (const std::string& workload : workloads) {
    struct Row {
      std::string name;
      util::RunningStats rounds, messages;
      double mis_ratio_sum = 0;
      bool verified = true;
    };
    std::vector<Row> rows(7);
    rows[0].name = "luby_b";
    rows[1].name = "metivier";
    rows[2].name = "ghaffari";
    rows[3].name = "arb_mis(paper)";
    rows[4].name = "arb_mis+degred";
    rows[5].name = "ghaffari_arb(§1.2)";
    rows[6].name = "bit_metivier[11]";

    for (std::uint64_t run = 0; run < runs; ++run) {
      util::Rng rng(options.seed + run * 131);
      const graph::Graph g = bench::make_workload(workload, n, rng);
      const graph::NodeId alpha = bench::workload_alpha(workload);
      const double greedy_size =
          static_cast<double>(mis::greedy_mis(g).mis_size());

      auto record = [&](Row& row, const mis::MisResult& result) {
        row.rounds.add(result.stats.rounds);
        row.messages.add(static_cast<double>(result.stats.messages));
        row.mis_ratio_sum +=
            greedy_size > 0
                ? static_cast<double>(result.mis_size()) / greedy_size
                : 1.0;
        row.verified = row.verified && mis::verify(g, result).ok();
      };

      record(rows[0], mis::LubyBMis::run(g, options.seed + run));
      record(rows[1], mis::MetivierMis::run(g, options.seed + run));
      record(rows[2], mis::GhaffariMis::run(g, options.seed + run));
      record(rows[3],
             core::arb_mis(g, {.alpha = alpha}, options.seed + run).mis);
      core::ArbMisOptions with_reduction;
      with_reduction.alpha = alpha;
      with_reduction.degree_reduction = true;
      record(rows[4],
             core::arb_mis(g, with_reduction, options.seed + run).mis);
      record(rows[5], core::ghaffari_arb_mis(g, options.seed + run).mis);
      record(rows[6],
             mis::BitMetivierMis::run(g, options.seed + run).mis);
    }

    for (const Row& row : rows) {
      table.row()
          .cell(workload)
          .cell(row.name)
          .cell(row.rounds.mean())
          .cell(row.rounds.max())
          .cell(row.messages.mean())
          .cell(row.mis_ratio_sum / static_cast<double>(runs))
          .cell(row.verified ? "yes" : "NO");
      all_verified = all_verified && row.verified;
    }
  }
  bench::emit(table, options);
  std::cout << "\nexpected ordering (paper): ghaffari <= shattering "
               "pipeline < luby on bounded-arboricity workloads; all "
               "within a constant factor of greedy's MIS size.\n";
  return all_verified ? 0 : 1;
}
