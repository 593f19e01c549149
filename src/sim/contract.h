// Compile-time CONGEST contracts (see docs/TOOLING.md §9).
//
// static_asserts that pin the simulator's message layout and the model
// checker's nominal accounting to each other. They run in every build
// (sim/network.cpp includes this header), so a drive-by edit to Message,
// kBitsPerMessage, or ModelCheckOptions' defaults fails to compile instead
// of silently skewing every budget the paper's read-k analysis is
// calibrated against. The determinism bans (no std entropy, no
// environment reads in semantic code) live in one place: the static
// audit, tools/arbmis_audit.py (DET001-DET005).
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

#include "sim/message.h"
#include "sim/model_check.h"

namespace arbmis::sim::contract {

// --- Message layout -------------------------------------------------------
// The simulator copies Messages from its outboxes into inbox buffers, and
// the trace writer dumps them as raw bytes.
static_assert(std::is_trivially_copyable_v<Message>,
              "Message must stay trivially copyable: the simulator's inbox "
              "gather and binary trace writer move it with memcpy");
static_assert(std::is_standard_layout_v<Message>,
              "Message must stay standard-layout for the binary trace "
              "format to be well-defined");

// --- Nominal bit accounting ----------------------------------------------
// One CONGEST message = an 8-bit kind tag + one 64-bit payload word.
// These three constants are the single source the asserts below compare
// everything else against; change them only together with the model and
// the paper-facing docs.
inline constexpr std::uint32_t kNominalTagBits = 8;
inline constexpr std::uint32_t kNominalPayloadBits = 64;
inline constexpr std::uint64_t kNominalMessageBits =
    kNominalTagBits + kNominalPayloadBits;

static_assert(sizeof(Message{}.payload) * 8 == kNominalPayloadBits,
              "payload must be exactly one 64-bit CONGEST word");
static_assert(kBitsPerMessage == kNominalMessageBits,
              "sim/message.h kBitsPerMessage must equal tag + payload");
static_assert(kTagBits == kNominalTagBits,
              "sim/message.h kTagBits must match the nominal tag width");

// message_bits() is the actual-width formula the model checker budgets
// with: tag bits plus the significant bits of the payload word.
static_assert(message_bits(Message{0, 0, 0}) == kNominalTagBits,
              "an empty payload must cost exactly the tag bits");
static_assert(message_bits(Message{0, 0, 1}) == kNominalTagBits + 1,
              "message_bits must charge significant payload bits");
static_assert(message_bits(Message{0, 0, ~std::uint64_t{0}}) ==
                  kNominalMessageBits,
              "a full payload word must cost exactly kBitsPerMessage");

// --- Model checker defaults ----------------------------------------------
// The runtime ModelChecker charges message_bits() per message and floors
// the per-edge budget at min_edge_bits; that default must agree with the
// nominal layout or the budgets in tests/test_model_check.cpp drift.
static_assert(ModelCheckOptions{}.min_edge_bits == kNominalMessageBits,
              "ModelCheckOptions::min_edge_bits default must floor at one "
              "full message");

}  // namespace arbmis::sim::contract

