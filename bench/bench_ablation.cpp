// Ablation bench (DESIGN.md §4/§6): how the practical-preset knobs move
// the pipeline's behavior.
//
//   A1. iteration_constant — fewer competition iterations per scale means
//       less elimination before the bad check: the bad set grows and the
//       rounds shrink (the Λ ↔ |B| trade the paper's Λ formula is sized
//       to win decisively).
//   A2. rho_log_factor — the competitiveness cap ρ_k: with a tiny cap
//       many nodes sit out (priority 0) and progress slows; with a huge
//       cap the algorithm degenerates toward plain Métivier.
//   A3. shatter_constant — where the scale cascade stops, i.e. how much
//       work is left for the finishing stage.
//   A4. finisher choice for the leftovers.
#include "bench_common.h"
#include "core/arb_mis.h"
#include "mis/verifier.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace arbmis;
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t runs =
      options.trials ? options.trials : (options.quick ? 3 : 10);
  const graph::NodeId n = options.quick ? 4000 : 20000;
  const graph::NodeId alpha = 2;

  bench::print_header("A1-A4", "ablations of the practical parameterization");
  std::cout << "n = " << n << ", alpha = " << alpha
            << ", runs per cell: " << runs << "\n\n";

  auto sweep = [&](const std::string& label, auto make_options) {
    util::Table table({"setting", "scales", "iters/scale", "shatter_rounds",
                       "finish_rounds", "total_rounds", "bad_nodes(mean)",
                       "verified"});
    table.set_double_precision(4);
    std::cout << label << "\n\n";
    make_options(table);
    bench::emit(table, options);
    std::cout << "\n";
  };

  bool all_verified = true;
  auto run_cell = [&](util::Table& table, const std::string& setting,
                      const core::ArbMisOptions& arb_options) {
    util::RunningStats shatter, finish, total, bad;
    std::uint32_t scales = 0, iterations = 0;
    bool verified = true;
    for (std::uint64_t run = 0; run < runs; ++run) {
      util::Rng rng(options.seed + run * 53);
      const graph::Graph g =
          graph::gen::hubbed_forest_union(n, alpha, 8, rng);
      const core::ArbMisResult result =
          core::arb_mis(g, arb_options, options.seed + run);
      verified = verified && mis::verify(g, result.mis).ok();
      shatter.add(result.shatter_stats.rounds);
      finish.add(result.low_stats.rounds + result.high_stats.rounds +
                 result.bad_stats.rounds);
      total.add(result.mis.stats.rounds);
      bad.add(static_cast<double>(result.bad_size));
      scales = result.params.num_scales;
      iterations = result.params.iterations_per_scale;
    }
    table.row()
        .cell(setting)
        .cell(std::uint64_t{scales})
        .cell(std::uint64_t{iterations})
        .cell(shatter.mean())
        .cell(finish.mean())
        .cell(total.mean())
        .cell(bad.mean())
        .cell(verified ? "yes" : "NO");
    all_verified = all_verified && verified;
  };

  sweep("A1: iteration budget Λ (iteration_constant)", [&](util::Table& t) {
    for (double c : {0.05, 0.15, 0.5, 1.0, 2.0}) {
      core::ArbMisOptions arb_options;
      arb_options.alpha = alpha;
      arb_options.tuning.iteration_constant = c;
      run_cell(t, "c_iter=" + std::to_string(c), arb_options);
    }
  });

  sweep("A2: competitiveness cap ρ (rho_log_factor)", [&](util::Table& t) {
    for (double c : {0.25, 1.0, 4.0, 16.0}) {
      core::ArbMisOptions arb_options;
      arb_options.alpha = alpha;
      arb_options.tuning.rho_log_factor = c;
      run_cell(t, "c_rho=" + std::to_string(c), arb_options);
    }
  });

  sweep("A3: scale cascade depth (shatter_constant)", [&](util::Table& t) {
    for (double c : {0.25, 0.5, 1.0, 4.0, 16.0}) {
      core::ArbMisOptions arb_options;
      arb_options.alpha = alpha;
      arb_options.tuning.shatter_constant = c;
      run_cell(t, "c_shatter=" + std::to_string(c), arb_options);
    }
  });

  sweep("A4: finisher for the leftovers (shattering disabled so the whole "
        "graph reaches the finisher)",
        [&](util::Table& t) {
          const std::pair<const char*, core::Finisher> finishers[] = {
              {"metivier", core::Finisher::kMetivier},
              {"linial", core::Finisher::kLinial},
              {"election", core::Finisher::kElection},
              {"sparse", core::Finisher::kSparse},
              {"gather", core::Finisher::kGather},
          };
          for (const auto& [name, finisher] : finishers) {
            core::ArbMisOptions arb_options;
            arb_options.alpha = alpha;
            // Push the scale cut above Δ: zero scales, pure finisher.
            arb_options.tuning.shatter_constant = 1e9;
            arb_options.finisher = finisher;
            arb_options.bad_finisher = finisher;
            run_cell(t, name, arb_options);
          }
        });

  return all_verified ? 0 : 1;
}
