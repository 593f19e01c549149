// Experiment F5 (paper Theorems 1.3 / 2.1): the full ArbMIS pipeline runs
// in O(poly(α)·√(log n)·log log n) rounds — sublogarithmic growth in n for
// fixed α. We sweep n with α fixed and print the measured rounds of each
// pipeline stage next to two reference curves, √(log₂ n · log₂ log₂ n)
// and log₂ n. The claim's shape: total rounds should track the first
// reference (up to a constant), clearly flatter than the Luby baseline,
// whose rounds track log₂ n.
#include "bench_common.h"
#include "core/arb_mis.h"
#include "mis/metivier.h"
#include "mis/verifier.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace arbmis;
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t runs =
      options.trials ? options.trials : (options.quick ? 3 : 10);

  bench::print_header(
      "F5",
      "Theorem 2.1 — ArbMIS rounds vs n at fixed alpha (sublogarithmic "
      "shape)");
  std::cout << "runs per cell: " << runs << "\n\n";

  util::Table table({"n", "max_degree", "shatter_rounds", "finish_rounds",
                     "total_rounds", "metivier_rounds",
                     "sqrt(log2 n*loglog2 n)", "log2(n)", "verified"});
  table.set_double_precision(4);

  const graph::NodeId alpha = 2;
  const std::vector<graph::NodeId> ns =
      options.quick
          ? std::vector<graph::NodeId>{1 << 10, 1 << 12}
          : std::vector<graph::NodeId>{1 << 10, 1 << 12, 1 << 14, 1 << 16,
                                       1 << 18};

  std::vector<double> log_ns, totals;
  bool all_verified = true;
  for (graph::NodeId n : ns) {
    util::RunningStats shatter, finish, total, metivier;
    double max_degree = 0;
    bool verified = true;
    for (std::uint64_t run = 0; run < runs; ++run) {
      util::Rng rng(options.seed + run * 101 + n);
      const graph::Graph g =
          graph::gen::hubbed_forest_union(n, alpha, n / 512, rng);
      max_degree = static_cast<double>(g.max_degree());
      const core::ArbMisResult result =
          core::arb_mis(g, {.alpha = alpha}, options.seed + run);
      verified = verified && mis::verify(g, result.mis).ok();
      shatter.add(result.shatter_stats.rounds);
      finish.add(result.low_stats.rounds + result.high_stats.rounds +
                 result.bad_stats.rounds);
      total.add(result.mis.stats.rounds);
      metivier.add(
          mis::MetivierMis::run(g, options.seed + run + 7).stats.rounds);
    }
    const double log_n = std::log2(static_cast<double>(n));
    const double reference = std::sqrt(log_n * std::log2(log_n));
    table.row()
        .cell(std::uint64_t{n})
        .cell(max_degree)
        .cell(shatter.mean())
        .cell(finish.mean())
        .cell(total.mean())
        .cell(metivier.mean())
        .cell(reference)
        .cell(log_n)
        .cell(verified ? "yes" : "NO");
    all_verified = all_verified && verified;
    log_ns.push_back(log_n);
    totals.push_back(total.mean());
  }
  bench::emit(table, options);

  const util::LinearFit fit = util::linear_fit(log_ns, totals);
  std::cout << "\nfit: total_rounds ~ " << fit.slope << "·log2(n) + "
            << fit.intercept << " (r² = " << fit.r_squared << ")\n";
  std::cout << "claim shape: rounds grow sublogarithmically — the slope "
               "against log2(n) should shrink as n grows, while the "
               "Métivier baseline tracks log2(n) with a constant slope.\n";
  return all_verified ? 0 : 1;
}
