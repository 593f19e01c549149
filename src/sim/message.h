// CONGEST message format.
//
// Every message carries an algorithm-defined 32-bit tag plus one 64-bit
// payload word; the network fills in the sender id on delivery. This is a
// deliberate straitjacket: a tag + one machine word is O(log n) bits for
// every graph this repository can hold, so any algorithm expressible on
// this interface is a CONGEST algorithm. The network additionally enforces
// "at most one message per directed edge per round" (the standard CONGEST
// normalization) as a fixed rule, and reserves the tag's top bit for its
// read-k mark on the stored message, an outbox or port slot, which the
// receiver's gather strips (sim::Network::kReadKTagBit): a send with that
// bit set throws.
#pragma once

#include <bit>
#include <cstdint>

#include "graph/graph.h"

namespace arbmis::sim {

struct Message {
  graph::NodeId src = 0;     ///< sender's node id (set by the network)
  std::uint32_t tag = 0;     ///< algorithm-defined message kind
  std::uint64_t payload = 0; ///< one CONGEST word
};

/// Bits accounted per message: tag is bounded by O(1) distinct kinds in all
/// our algorithms, payload is one word, src is implicit from the port. We
/// charge the full 64-bit word plus an 8-bit kind.
inline constexpr std::uint64_t kBitsPerMessage = 72;

/// Bits charged for the message tag in the *actual*-width accounting below.
inline constexpr std::uint32_t kTagBits = 8;

/// Actual width of one message on the wire: the tag's O(1) kind bits plus
/// the significant bits of the payload word — the same formula the model
/// checker budgets with. Per-round accounting (the Round event's
/// payload_bits, the sim.message_bits histogram) uses this; the nominal
/// run-wide RunStats::payload_bits keeps charging the full kBitsPerMessage
/// word.
constexpr std::uint64_t message_bits(const Message& m) noexcept {
  return kTagBits + static_cast<std::uint64_t>(std::bit_width(m.payload));
}

}  // namespace arbmis::sim
