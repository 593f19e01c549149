// Experiment T5 (paper Lemma 3.8 machinery): the finishing toolbox —
// (a) Barenboim–Elkin H-partition: ceil((2+eps)α) forests in O(log n)
//     rounds,
// (b) Cole–Vishkin: 3-coloring of a forest in O(log* n) rounds, then the
//     3-class sweep to an MIS,
// (c) Linial bounded-degree MIS: O(log* n + D²) rounds, n-independent.
#include "bench_common.h"
#include "graph/properties.h"
#include "mis/cole_vishkin.h"
#include "mis/forest_decomposition.h"
#include "mis/linial.h"
#include "mis/sparse_mis.h"
#include "mis/verifier.h"

int main(int argc, char** argv) {
  using namespace arbmis;
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);

  bench::print_header("T5", "Lemma 3.8 machinery round counts");
  // Every table's last column; any NO fails the run.
  bool all_ok = true;
  const auto verdict = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok ? "yes" : "NO";
  };

  std::cout << "\n(a) Barenboim–Elkin forest decomposition (eps = 2)\n\n";
  util::Table fd({"n", "alpha", "forests", "rounds", "log2(n)", "valid"});
  fd.set_double_precision(4);
  const std::vector<graph::NodeId> ns =
      options.quick ? std::vector<graph::NodeId>{1 << 10, 1 << 13}
                    : std::vector<graph::NodeId>{1 << 10, 1 << 13, 1 << 16};
  for (graph::NodeId n : ns) {
    for (graph::NodeId alpha : {1u, 2u, 4u}) {
      util::Rng rng(options.seed + n + alpha);
      const graph::Graph g =
          graph::gen::union_of_random_forests(n, alpha, rng);
      const auto result = mis::ForestDecomposition::run(
          g, {.alpha = alpha, .eps = 2.0}, options.seed);
      fd.row()
          .cell(std::uint64_t{n})
          .cell(std::uint64_t{alpha})
          .cell(std::uint64_t{result.forests.num_forests()})
          .cell(std::uint64_t{result.stats.rounds})
          .cell(std::log2(static_cast<double>(n)))
          .cell(verdict(result.complete &&
                        graph::valid_forest_partition(g, result.forests)));
    }
  }
  bench::emit(fd, options);

  std::cout << "\n(b) Cole–Vishkin forest MIS (rounds are a fixed function "
               "of n — log* growth)\n\n";
  util::Table cv({"n", "rounds", "log*(ish)", "verified"});
  for (graph::NodeId n : ns) {
    util::Rng rng(options.seed + n);
    const graph::Graph t = graph::gen::random_tree(n, rng);
    // Root by BFS.
    std::vector<graph::NodeId> parent(t.num_nodes(), graph::kNoParent);
    {
      std::vector<bool> seen(t.num_nodes(), false);
      std::vector<graph::NodeId> stack{0};
      seen[0] = true;
      while (!stack.empty()) {
        const graph::NodeId v = stack.back();
        stack.pop_back();
        for (graph::NodeId w : t.neighbors(v)) {
          if (!seen[w]) {
            seen[w] = true;
            parent[w] = v;
            stack.push_back(w);
          }
        }
      }
    }
    const auto result = mis::cole_vishkin_mis(t, parent, options.seed);
    cv.row()
        .cell(std::uint64_t{n})
        .cell(std::uint64_t{result.stats.rounds})
        .cell(std::uint64_t{mis::ColeVishkin::reduction_iterations(n)})
        .cell(verdict(mis::verify(t, result).ok()));
  }
  bench::emit(cv, options);

  std::cout << "\n(c) Linial bounded-degree MIS (rounds independent of n, "
               "quadratic in D)\n\n";
  util::Table linial({"n", "max_degree_D", "reduction_steps", "final_colors",
                      "rounds", "verified"});
  for (graph::NodeId n : ns) {
    util::Rng rng(options.seed + 3 * n);
    const graph::Graph g =
        graph::gen::union_of_random_forests(n, 2, rng);
    mis::LinialMis algorithm(g, {.max_degree = g.max_degree()});
    sim::Network net(g, options.seed);
    const sim::RunStats stats = net.run(algorithm, 1 << 24);
    mis::MisResult result;
    result.state = algorithm.states();
    linial.row()
        .cell(std::uint64_t{n})
        .cell(std::uint64_t{g.max_degree()})
        .cell(std::uint64_t{algorithm.schedule().steps.size()})
        .cell(algorithm.schedule().final_colors)
        .cell(std::uint64_t{stats.rounds})
        .cell(verdict(mis::verify(g, result).ok()));
  }
  bench::emit(linial, options);

  std::cout << "\n(d) SparseMis composite pipeline (decomposition + per-"
               "forest Cole–Vishkin + 3^k sweep)\n\n";
  util::Table sparse({"n", "alpha", "forests", "classes", "fallback",
                      "rounds", "verified"});
  for (graph::NodeId n : ns) {
    for (graph::NodeId alpha : {1u, 2u}) {
      util::Rng rng(options.seed + 7 * n + alpha);
      const graph::Graph g =
          graph::gen::union_of_random_forests(n, alpha, rng);
      const auto result = mis::sparse_mis(g, {.alpha = alpha}, options.seed);
      sparse.row()
          .cell(std::uint64_t{n})
          .cell(std::uint64_t{alpha})
          .cell(std::uint64_t{result.num_forests})
          .cell(result.composite_classes)
          .cell(result.used_fallback ? "yes" : "no")
          .cell(std::uint64_t{result.mis.stats.rounds})
          .cell(verdict(mis::verify(g, result.mis).ok()));
    }
  }
  bench::emit(sparse, options);
  return all_ok ? 0 : 1;
}
