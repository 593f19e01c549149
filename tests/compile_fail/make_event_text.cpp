// Must not compile: `fault_recovery` carries no text (tests/CMakeLists.txt).
#include "obs/events.h"
auto bad = arbmis::obs::make_event<arbmis::obs::EventKind::kFaultRecovery>(
    1, "text", 7);
