// Must not compile: `round` has seven fields (see tests/CMakeLists.txt).
#include "obs/events.h"
auto bad = arbmis::obs::make_event<arbmis::obs::EventKind::kRound>(1, 2, 3);
