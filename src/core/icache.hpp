// Instruction cache: direct-mapped, 16 lines × 16 bytes, blocking miss.
//
// Tags and the miss state machine are FUNC latches (injectable, parity on
// the tag); line data lives in a parity-protected array (an SRAM in the real
// design — struck by the beam, not by latch-mode SFI). A tag-parity or
// data-parity hit is reported as a recoverable IFU checker event and the
// access is retried as a miss, which is how parity-protected I-caches
// self-heal: the line is clean by construction (write-through from memory).
#pragma once

#include <string>

#include "core/config.hpp"
#include "core/mode_ring.hpp"
#include "core/signals.hpp"
#include "mem/ecc_memory.hpp"
#include "netlist/array.hpp"
#include "netlist/field.hpp"
#include "netlist/registry.hpp"

namespace sfi::core {

class ICache {
 public:
  ICache(netlist::LatchRegistry& reg, u8 scan_ring);

  /// Physical addresses are 16-bit (64 KiB memory).
  struct Plan {
    bool want = false;        ///< a fetch was requested this cycle
    bool hit = false;
    u32 word = 0;             ///< instruction word when hit
    bool start_miss = false;  ///< begin refill for `addr`
    bool invalidate = false;  ///< tag/data parity error: drop the line
    bool refill = false;      ///< miss completed: write tags+data this cycle
    u32 addr = 0;
    u32 line = 0;
  };

  /// Detect phase: attempt to fetch the word at `addr` (4-byte aligned).
  /// Raises checker events through `sig` honouring `mode` enables.
  [[nodiscard]] Plan plan_fetch(const netlist::CycleFrame& f, u32 addr,
                                bool want, const ModeRing& mode,
                                Signals& sig);

  /// Update phase: advance the miss FSM, perform refills/invalidates.
  void update(const netlist::CycleFrame& f, const Plan& plan,
              mem::EccMemory& mem);

  void reset(netlist::StateVector& sv);

  [[nodiscard]] netlist::ProtectedArray& data_array() { return data_; }
  [[nodiscard]] const netlist::ProtectedArray& data_array() const {
    return data_;
  }

 private:
  static constexpr u32 kLines = CoreConfig::kIcacheLines;
  static constexpr u32 kLineBytes = CoreConfig::kLineBytes;

  [[nodiscard]] static u32 line_of(u32 addr) {
    return (addr / kLineBytes) % kLines;
  }
  [[nodiscard]] static u32 tag_of(u32 addr) {
    return (addr & 0xFFFF) / (kLineBytes * kLines);
  }

  std::vector<netlist::Flag> valid_;
  std::vector<netlist::Field> tag_;     // 8-bit tag
  std::vector<netlist::Flag> tag_par_;  // parity over {valid, tag}
  netlist::Flag busy_;                  // miss FSM active
  netlist::Field miss_addr_;            // 16-bit line-aligned address
  netlist::Field wait_;                 // countdown to refill

  netlist::ProtectedArray data_;        // kLines*2 entries of 64 bits
};

}  // namespace sfi::core
