// Model: the contract between the emulation harness and a device under test.
//
// This is the moral equivalent of "the VHDL loaded onto AWAN" (paper
// Figure 1): the harness knows nothing about the design except its latch
// inventory, its protected arrays, how to evaluate one cycle, and a small
// RAS status window — the same observability a real emulator's fault
// isolation registers provide.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "isa/arch_state.hpp"
#include "netlist/array.hpp"
#include "netlist/field.hpp"
#include "netlist/registry.hpp"
#include "netlist/state_vector.hpp"

namespace sfi::emu {

/// The machine-status window the harness can observe: the paper's
/// "system/processor status registers which flag errors such as checkstops,
/// recoveries and machine errors".
struct RasStatus {
  bool checkstop = false;        ///< fatal error latched; machine stopped
  bool hang_detected = false;    ///< completion watchdog fired
  bool recovery_active = false;  ///< recovery sequence in progress
  u32 recovery_count = 0;        ///< completed recovery actions
  u32 corrected_count = 0;       ///< in-line corrected events (array ECC)
  u64 instructions_completed = 0;
  bool test_finished = false;    ///< workload executed STOP
};

/// A byte range of Model::save_aux()'s stream.
struct AuxSpan {
  std::size_t offset = 0;
  std::size_t size = 0;
};

class Model {
 public:
  virtual ~Model() = default;

  Model() = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Latch inventory (must be finalized before the first evaluate call).
  [[nodiscard]] virtual const netlist::LatchRegistry& registry() const = 0;

  /// Protected-array inventory (beam strike targets).
  [[nodiscard]] virtual netlist::ArrayRegistry& arrays() = 0;

  /// Initialize latch reset values and non-latch state (arrays/memory) for
  /// the currently loaded workload.
  virtual void reset(netlist::StateVector& sv) = 0;

  /// Evaluate one cycle: combinational logic reads frame.cur, latch inputs
  /// are staged into frame.nxt (pre-seeded as a copy of frame.cur).
  virtual void evaluate(const netlist::CycleFrame& frame) = 0;

  /// Read the RAS status window from the given latch state.
  [[nodiscard]] virtual RasStatus ras_status(
      const netlist::StateVector& sv) const = 0;

  /// Extract the architected state (AVP end-of-test compare).
  [[nodiscard]] virtual isa::ArchState arch_state(
      const netlist::StateVector& sv) const = 0;

  /// Snapshot / restore of all non-latch state (arrays, memory).
  virtual void save_aux(std::vector<u8>& out) const = 0;
  virtual void restore_aux(std::span<const u8> in) = 0;

  /// The bytes of save_aux()'s stream that hold only a free-running
  /// scrubber's phase — LatchRole::Phase's counterpart off the latch state
  /// (size 0: none). DESIGN §16, "Recovery tails".
  [[nodiscard]] virtual AuxSpan aux_phase() const = 0;
};

}  // namespace sfi::emu
