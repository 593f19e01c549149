// Must not compile: a temporary Graph parent (see tests/CMakeLists.txt).
#include <vector>

#include "graph/subgraph.h"
const std::vector<std::uint8_t> mask(2, 1);
auto bad = arbmis::graph::induced_subgraph(arbmis::graph::Graph(2), mask);
