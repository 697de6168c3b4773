// Pearl6Model: the full synthetic core, assembled from its seven units and
// exposed to the emulation harness through the emu::Model contract.
//
// Evaluation is strictly two-phase per cycle:
//   detect  — every unit computes its combinational plan and raises checker
//             events (pure reads of the current latch state),
//   decide  — pervasive logic arbitrates recovery / checkstop / hang,
//   update  — units stage next-cycle latch values honouring the decision;
//             the completion and restore write paths are applied here.
#pragma once

#include <functional>
#include <memory>

#include "core/config.hpp"
#include "core/fpu.hpp"
#include "core/fxu.hpp"
#include "core/idu.hpp"
#include "core/ifu.hpp"
#include "core/lsu.hpp"
#include "core/pervasive.hpp"
#include "core/rut.hpp"
#include "emu/model.hpp"
#include "isa/golden.hpp"
#include "isa/program.hpp"
#include "mem/ecc_memory.hpp"

namespace sfi::core {

class Pearl6Model final : public emu::Model {
 public:
  explicit Pearl6Model(CoreConfig cfg = {});

  /// Select the workload the next reset() will load.
  void load_workload(isa::Program program, isa::ArchState init);

  [[nodiscard]] const CoreConfig& config() const { return cfg_; }
  [[nodiscard]] const isa::Program& program() const { return program_; }
  [[nodiscard]] const isa::ArchState& initial_state() const { return init_; }

  // --- emu::Model ---
  [[nodiscard]] const netlist::LatchRegistry& registry() const override {
    return reg_;
  }
  [[nodiscard]] netlist::ArrayRegistry& arrays() override { return arrays_; }
  [[nodiscard]] const netlist::ArrayRegistry& arrays() const {
    return arrays_;
  }
  void reset(netlist::StateVector& sv) override;
  void evaluate(const netlist::CycleFrame& f) override;
  [[nodiscard]] emu::RasStatus ras_status(
      const netlist::StateVector& sv) const override;
  [[nodiscard]] isa::ArchState arch_state(
      const netlist::StateVector& sv) const override;
  void save_aux(std::vector<u8>& out) const override;
  void restore_aux(std::span<const u8> in) override;

  /// Observer for cause→effect tracing: invoked once per evaluated cycle in
  /// which anything RAS-relevant happened (checker events, recovery start /
  /// completion, checkstop, hang). Keep the callback cheap; it runs inside
  /// the cycle loop.
  using CycleObserver =
      std::function<void(const Signals& sig, const Controls& ctl)>;
  void set_cycle_observer(CycleObserver obs) { observer_ = std::move(obs); }
  void clear_cycle_observer() { observer_ = nullptr; }

  // --- direct access for tests, examples and the beam simulator ---
  [[nodiscard]] mem::EccMemory& memory() { return mem_; }
  [[nodiscard]] const mem::EccMemory& memory() const { return mem_; }
  [[nodiscard]] Ifu& ifu() { return ifu_; }
  [[nodiscard]] Idu& idu() { return idu_; }
  [[nodiscard]] Fxu& fxu() { return fxu_; }
  [[nodiscard]] Fpu& fpu() { return fpu_; }
  [[nodiscard]] Lsu& lsu() { return lsu_; }
  [[nodiscard]] Rut& rut() { return rut_; }
  [[nodiscard]] Pervasive& pervasive() { return perv_; }

 private:
  CoreConfig cfg_;
  netlist::LatchRegistry reg_;
  netlist::ArrayRegistry arrays_;
  mem::EccMemory mem_;

  Ifu ifu_;
  Idu idu_;
  Fxu fxu_;
  Fpu fpu_;
  Lsu lsu_;
  Rut rut_;
  Pervasive perv_;

  isa::Program program_;
  isa::ArchState init_;
  CycleObserver observer_;
};

}  // namespace sfi::core
