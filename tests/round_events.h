// Test helpers over the simulator's per-round record: the Round and
// FaultRound events (obs/events.h) that every round barrier emits, round 0
// included, while a sink is attached.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "obs/events.h"
#include "obs/sink.h"
#include "sim/fault_hooks.h"

namespace arbmis::test {

/// Runs `fn` with a VectorSink attached and returns the events of `kinds`
/// it emitted, in emission order.
template <typename Fn>
std::vector<obs::OwnedEvent> capture_events(
    std::initializer_list<obs::EventKind> kinds, Fn&& fn) {
  obs::VectorSink sink;
  {
    const obs::ScopedSink scoped(&sink);
    fn();
  }
  std::vector<obs::OwnedEvent> kept;
  for (obs::OwnedEvent& e : sink.events()) {
    if (std::find(kinds.begin(), kinds.end(), e.kind) != kinds.end()) {
      kept.push_back(std::move(e));
    }
  }
  return kept;
}

/// The value of the field `name` of `e`, looked up in its kind's schema.
inline std::uint64_t field(const obs::OwnedEvent& e, std::string_view name) {
  const obs::EventSchema& schema = obs::event_schema(e.kind);
  for (std::uint32_t i = 0; i < schema.num_fields; ++i) {
    if (name == schema.fields[i]) return e.values[i];
  }
  ADD_FAILURE() << schema.name << " has no field " << name;
  return 0;
}

/// The FaultRound events among `events`, summed.
inline sim::FaultTotals sum_fault_rounds(
    const std::vector<obs::OwnedEvent>& events) {
  sim::FaultTotals sum;
  for (const obs::OwnedEvent& e : events) {
    if (e.kind != obs::EventKind::kFaultRound) continue;
    sum += sim::FaultTotals{
        field(e, "drops"), field(e, "duplicates"),
        static_cast<std::uint32_t>(field(e, "crashes")),
        static_cast<std::uint32_t>(field(e, "recoveries"))};
  }
  return sum;
}

}  // namespace arbmis::test
