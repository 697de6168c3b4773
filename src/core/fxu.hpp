// FXU — fixed point unit.
//
// Owns the parity-protected GPR file and a single EX stage executing ALU
// ops, compares, SPR moves, STOP and resolved branches in one cycle, with a
// 3-cycle multiply and a 12-cycle iterative divide. Every result leaves the
// unit with a fresh parity bit and a mod-3 residue code that the completion
// stage re-verifies — a flip in any staged operand or result latch is a
// recoverable FXU checker event.
#pragma once

#include <optional>

#include "core/config.hpp"
#include "core/mode_ring.hpp"
#include "core/pipeline_types.hpp"
#include "core/regfile.hpp"
#include "core/signals.hpp"
#include "core/spare_chain.hpp"
#include "isa/arch_state.hpp"
#include "netlist/field.hpp"
#include "netlist/registry.hpp"

namespace sfi::core {

class Fxu {
 public:
  explicit Fxu(netlist::LatchRegistry& reg);

  struct Plan {
    bool held = false;
    WbData wb;             ///< valid when an instruction retires this cycle
    bool muldiv_step = false;
  };

  [[nodiscard]] Plan detect(const netlist::CycleFrame& f, Signals& sig);

  /// Update phase: retire/advance EX and optionally accept a new issue.
  void update(const netlist::CycleFrame& f, const Plan& plan,
              const Controls& ctl, const std::optional<IssueBundle>& issue);

  /// A multi-cycle op (mul/div) is occupying the unit.
  [[nodiscard]] bool multi_busy(const netlist::CycleFrame& f) const;

  [[nodiscard]] ParityRegFile& gpr() { return gpr_; }
  [[nodiscard]] const ParityRegFile& gpr() const { return gpr_; }
  [[nodiscard]] ModeRing& mode() { return mode_; }

  void reset(netlist::StateVector& sv, const isa::ArchState& init,
             const CoreConfig& cfg);

 private:
  [[nodiscard]] static bool is_muldiv(isa::Mnemonic mn) {
    return mn == isa::Mnemonic::MULLD || mn == isa::Mnemonic::DIVD;
  }

  ModeRing mode_;
  SpareChain spares_;
  ParityRegFile gpr_;

  netlist::Flag v_;
  netlist::Field mn_;       // 6
  netlist::Field dk_;       // 2
  netlist::Field dest_;     // 5
  netlist::Field a_;        // 64
  netlist::Flag apar_;
  netlist::Field b_;        // 64
  netlist::Flag bpar_;
  netlist::Field pc_;       // 16
  netlist::Field pcn_;      // 16
  netlist::Flag is_store_;  // always 0 here; uniform ctl parity coverage
  netlist::Flag is_stop_;
  netlist::Flag wlr_;
  netlist::Field lrval_;    // 64
  netlist::Flag wctr_;
  netlist::Field ctrval_;   // 64
  netlist::Flag ctlpar_;
  netlist::Field mdcnt_;    // 4: remaining mul/div cycles
};

}  // namespace sfi::core
