// Emulator: the cycle-based emulation harness ("AWAN" stand-in).
//
// Provides the control surface the paper's SFI framework uses:
//   1. load design (a Model),
//   2. run the workload cycle by cycle,
//   3. flip chosen latch bits at chosen cycles (toggle or sticky mode),
//   4. read the fault-isolation/RAS status,
//   5. reload from a checkpoint between injections.
//
// It also accounts for host↔engine communication: every ras_status() read
// and every injection is one host interaction, and run_polled() models the
// "pre-specified interval" FIR polling the paper describes (§2).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "emu/model.hpp"
#include "netlist/state_vector.hpp"

namespace sfi::emu {

/// A reloadable machine snapshot (latches + arrays/memory).
struct Checkpoint {
  netlist::StateVector latches;
  std::vector<u8> aux;
  Cycle cycle = 0;

  /// Raw snapshot footprint (what one uncompressed checkpoint costs).
  [[nodiscard]] std::size_t size_bytes() const {
    return latches.words().size() * sizeof(u64) + aux.size();
  }
};

/// Host↔engine interaction counters (the throughput-limiting factor the
/// paper highlights; exercised by bench/ablation_hostlink).
struct HostLinkStats {
  u64 status_reads = 0;
  u64 injections = 0;
  u64 checkpoint_ops = 0;
  [[nodiscard]] u64 total() const {
    return status_reads + injections + checkpoint_ops;
  }
};

class Emulator {
 public:
  /// The model must outlive the emulator. The registry must be finalized.
  explicit Emulator(Model& model);

  /// Reset the machine to power-on state for the model's loaded workload.
  void reset();

  /// Evaluate one cycle.
  void step();
  /// Evaluate up to `n` further cycles.
  void run(Cycle n);
  /// Run until `poll` (invoked every `interval` cycles with the current
  /// state) returns true, or until `max_cycles` elapse. Each poll is one
  /// host interaction.
  void run_polled(Cycle max_cycles, Cycle interval,
                  const std::function<bool(const Emulator&)>& poll);

  [[nodiscard]] Cycle cycle() const { return cycle_; }
  [[nodiscard]] const netlist::StateVector& state() const { return cur_; }

  /// Arm per-cycle access recording on both frame vectors (they swap every
  /// step, and the model reads cur and reads/writes nxt). Pass nullptr to
  /// disarm. The caller owns the recorder's begin_cycle() cadence; the lane
  /// engine clears it immediately before each recorded step.
  void set_access_recorder(netlist::AccessRecorder* rec) {
    cur_.set_recorder(rec);
    nxt_.set_recorder(rec);
  }
  [[nodiscard]] Model& model() { return model_; }
  [[nodiscard]] const Model& model() const { return model_; }

  // --- fault injection port ---

  /// Toggle mode: flip one latch bit in the current state ("the fault may
  /// exist for the duration of a cycle").
  void flip_latch(BitIndex bit);

  /// Sticky mode: force the bit to `value` for the next `duration` cycles
  /// (reapplied after every clock edge), then release.
  void force_latch(BitIndex bit, bool value, Cycle duration);

  /// Cancel all outstanding sticky forces.
  void clear_forces();

  // --- RAS observation ---
  [[nodiscard]] RasStatus ras();

  // --- checkpointing ---
  [[nodiscard]] Checkpoint save_checkpoint();
  /// Save in place into preallocated storage (the lane engine snapshots its
  /// cursors into reused storage at every trip and sweep; this path must
  /// not allocate after the first call).
  void save_checkpoint(Checkpoint& out);
  /// Restore in place into preallocated storage: no allocation on the
  /// injection hot path. The checkpoint must match the model's latch count.
  void restore_checkpoint(const Checkpoint& cp);

  [[nodiscard]] const HostLinkStats& hostlink() const { return hostlink_; }
  [[nodiscard]] u64 cycles_evaluated() const { return cycles_evaluated_; }
  /// Cycles skipped by restoring mid-run checkpoints instead of replaying
  /// from cycle 0 (each restore at cycle c saves c cycles of replay).
  [[nodiscard]] u64 cycles_fast_forwarded() const {
    return cycles_fast_forwarded_;
  }

 private:
  struct Force {
    BitIndex bit;
    bool value;
    Cycle remaining;
  };
  void apply_forces();

  Model& model_;
  netlist::StateVector cur_;
  netlist::StateVector nxt_;
  std::vector<Force> forces_;
  Cycle cycle_ = 0;
  u64 cycles_evaluated_ = 0;
  u64 cycles_fast_forwarded_ = 0;
  HostLinkStats hostlink_;
};

}  // namespace sfi::emu
