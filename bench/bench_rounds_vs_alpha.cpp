// Experiment F6 (paper Theorem 2.1): the poly(α) dependence of the
// pipeline's round complexity. n and Δ are held (approximately) fixed
// while α sweeps; the measured rounds should grow polynomially in α
// (practical preset: ~α², see DESIGN.md — the paper's α⁸·(...)·log Δ
// constants are proof slack it explicitly offers to reduce).
#include "bench_common.h"
#include "core/arb_mis.h"
#include "mis/verifier.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace arbmis;
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t runs =
      options.trials ? options.trials : (options.quick ? 3 : 10);

  bench::print_header("F6",
                      "Theorem 2.1 — ArbMIS rounds vs alpha at fixed n");
  std::cout << "runs per cell: " << runs << "\n\n";

  util::Table table({"alpha", "max_degree", "scales", "iters/scale",
                     "scheduled_rounds", "shatter_rounds", "total_rounds",
                     "alpha^2_reference", "verified"});
  table.set_double_precision(4);

  const graph::NodeId n = options.quick ? 4000 : 32000;
  bool all_verified = true;
  for (graph::NodeId alpha : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    util::RunningStats shatter, total;
    double max_degree = 0;
    std::uint32_t scales = 0, iterations = 0, scheduled = 0;
    bool verified = true;
    for (std::uint64_t run = 0; run < runs; ++run) {
      util::Rng rng(options.seed + run * 11 + alpha);
      const graph::Graph g =
          graph::gen::hubbed_forest_union(n, alpha, 4, rng);
      max_degree = static_cast<double>(g.max_degree());
      core::ArbMisOptions arb_options;
      arb_options.alpha = alpha;
      // Lower shattering cut so the scale machinery engages across the
      // whole alpha sweep at this Δ (ablation knob; see DESIGN.md).
      arb_options.tuning.shatter_constant = 0.25;
      const core::ArbMisResult result =
          core::arb_mis(g, arb_options, options.seed + run);
      verified = verified && mis::verify(g, result.mis).ok();
      shatter.add(result.shatter_stats.rounds);
      total.add(result.mis.stats.rounds);
      scales = result.params.num_scales;
      iterations = result.params.iterations_per_scale;
      scheduled = result.params.total_rounds();
    }
    table.row()
        .cell(std::uint64_t{alpha})
        .cell(max_degree)
        .cell(std::uint64_t{scales})
        .cell(std::uint64_t{iterations})
        .cell(std::uint64_t{scheduled})
        .cell(shatter.mean())
        .cell(total.mean())
        .cell(static_cast<double>(alpha) * static_cast<double>(alpha))
        .cell(verified ? "yes" : "NO");
    all_verified = all_verified && verified;
  }
  bench::emit(table, options);
  std::cout << "\nclaim shape: the scheduled shattering budget (Θ·(3Λ+2)) "
               "scales polynomially with alpha (compare the alpha² "
               "reference); measured rounds are far smaller because the "
               "competitions decide every node long before the budget — "
               "the poly(alpha) cost lives in the worst-case schedule, "
               "not the typical run.\n";
  return all_verified ? 0 : 1;
}
