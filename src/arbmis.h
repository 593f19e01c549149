// Umbrella header: everything in the arbmis library.
//
// Prefer the per-module headers in production code; this exists for quick
// experiments and the examples.
#pragma once

#include "core/arb_mis.h"         // IWYU pragma: export
#include "core/bounded_arb.h"     // IWYU pragma: export
#include "core/ghaffari_arb.h"    // IWYU pragma: export
#include "core/invariant.h"       // IWYU pragma: export
#include "core/lw_tree_mis.h"     // IWYU pragma: export
#include "core/params.h"          // IWYU pragma: export
#include "core/shattering.h"      // IWYU pragma: export
#include "core/tree_mis.h"        // IWYU pragma: export
#include "graph/arboricity_exact.h"  // IWYU pragma: export
#include "graph/generators.h"     // IWYU pragma: export
#include "graph/graph.h"          // IWYU pragma: export
#include "graph/io.h"             // IWYU pragma: export
#include "graph/orientation.h"    // IWYU pragma: export
#include "graph/orientation_opt.h"  // IWYU pragma: export
#include "graph/properties.h"     // IWYU pragma: export
#include "graph/subgraph.h"       // IWYU pragma: export
#include "mis/cole_vishkin.h"     // IWYU pragma: export
#include "mis/color_sweep.h"      // IWYU pragma: export
#include "mis/degree_reduction.h"  // IWYU pragma: export
#include "mis/distributed_verify.h"  // IWYU pragma: export
#include "mis/forest_decomposition.h"  // IWYU pragma: export
#include "mis/ghaffari.h"         // IWYU pragma: export
#include "mis/greedy.h"           // IWYU pragma: export
#include "mis/linial.h"           // IWYU pragma: export
#include "mis/luby.h"             // IWYU pragma: export
#include "mis/matching.h"         // IWYU pragma: export
#include "mis/metivier.h"         // IWYU pragma: export
#include "mis/sparse_mis.h"       // IWYU pragma: export
#include "mis/verifier.h"         // IWYU pragma: export
#include "readk/bounds.h"         // IWYU pragma: export
#include "readk/events.h"         // IWYU pragma: export
#include "readk/family.h"         // IWYU pragma: export
#include "readk/montecarlo.h"     // IWYU pragma: export
#include "mis/bit_metivier.h"     // IWYU pragma: export
#include "mis/gather_solve.h"     // IWYU pragma: export
#include "sim/aggregate.h"        // IWYU pragma: export
#include "sim/algorithm.h"        // IWYU pragma: export
#include "sim/bfs_rooting.h"      // IWYU pragma: export
#include "sim/message.h"          // IWYU pragma: export
#include "sim/network.h"          // IWYU pragma: export
#include "sim/trace.h"            // IWYU pragma: export
#include "util/histogram.h"       // IWYU pragma: export
#include "util/log.h"             // IWYU pragma: export
#include "util/rng.h"             // IWYU pragma: export
#include "util/stats.h"           // IWYU pragma: export
#include "util/table.h"           // IWYU pragma: export
