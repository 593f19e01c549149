#include "core/tree_mis.h"

#include <stdexcept>

#include "graph/properties.h"

namespace arbmis::core {

ArbMisResult tree_independent_set(graph::GraphView g, std::uint64_t seed) {
  if (!graph::is_forest(g)) {
    throw std::invalid_argument(
        "tree_independent_set: input contains a cycle — use arb_mis() for "
        "general bounded-arboricity graphs");
  }
  // Deterministic forest finishing (Lemma 3.8 machinery) on every stage:
  // the leftovers of a forest are forests, where the composite
  // Cole–Vishkin path is cheap (<= 4 forests, <= 81 sweep classes).
  return arb_mis(g,
                 {.alpha = 1,
                  .finisher = Finisher::kSparse,
                  .bad_finisher = Finisher::kSparse},
                 seed);
}

}  // namespace arbmis::core
