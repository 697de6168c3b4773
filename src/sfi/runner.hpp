// InjectionRunner: executes one fault-injection experiment end to end.
//
// Per injection (paper Figure 1): reload the checkpoint, clock to the
// injection cycle, flip the chosen bit, clock onward while watching the
// RAS status, and classify. Three accelerations make software campaigns
// practical: (1) the post-reset machine state is snapshotted once and
// reloaded per injection, (2) with an interval-checkpoint store the runner
// warm-starts from the nearest reference snapshot at or before the fault
// cycle instead of replaying from cycle 0, (3) an injected run whose
// functional-state hash re-matches the fault-free trace at the same cycle —
// with a clean RAS window — is classified Vanished immediately.
#pragma once

#include <functional>
#include <optional>

#include "avp/runner.hpp"
#include "core/core_model.hpp"
#include "emu/checkpoint_store.hpp"
#include "emu/emulator.hpp"
#include "emu/golden_trace.hpp"
#include "sfi/fault.hpp"
#include "sfi/outcome.hpp"

namespace sfi::inject {

struct RunPhaseTimes;  // sfi/telemetry.hpp

struct RunConfig {
  /// Extra cycles allowed past the fault-free completion cycle before the
  /// harness declares a hang (covers recovery latency: flush + restore).
  Cycle hang_margin = 2000;
  /// Hard cap on post-injection cycles (the paper clocks 500k; outcomes for
  /// this design saturate far earlier — see bench/ablation_horizon).
  Cycle horizon = 50000;
  /// Enable the golden-trace hash early exit.
  bool early_exit = true;
};

struct RunResult {
  Outcome outcome = Outcome::Vanished;
  Cycle end_cycle = 0;         ///< cycle the run was classified at
  bool early_exited = false;   ///< vanished via golden-hash convergence
  u32 recoveries = 0;
  u32 corrected = 0;
  std::string first_diff;      ///< arch-state diff for BadArchState
  /// First cycle the machine's RAS visibly reacted to the fault (checker
  /// fire, recovery, correction, checkstop or hang) — the paper's
  /// cause→effect detection latency is `*detected_cycle - fault.cycle`.
  /// nullopt: the fault was never detected (vanished or silent corruption).
  std::optional<Cycle> detected_cycle;
};

class InjectionRunner {
 public:
  /// All references (and `checkpoints`, when given) must outlive the
  /// runner. `reset_checkpoint` must be the post-reset machine snapshot for
  /// the same workload the trace/golden describe. With a non-null
  /// `checkpoints` store (built from the same reference execution), runs
  /// warm-start from the nearest snapshot at or before the fault cycle.
  InjectionRunner(core::Pearl6Model& model, emu::Emulator& emu,
                  const emu::Checkpoint& reset_checkpoint,
                  const emu::GoldenTrace& trace,
                  const avp::GoldenResult& golden, RunConfig cfg = {},
                  const emu::CheckpointStore* checkpoints = nullptr);

  /// Run one injection experiment and classify its outcome. With a non-null
  /// `phases` the runner additionally reports per-phase wall times into it
  /// (telemetry out-param only — never read back, so results are identical
  /// with or without it; nullptr costs one predicted branch per phase).
  /// With a non-null `prefault` the fault-free machine state at the
  /// injection cycle is snapshotted into it (in place, allocation-free after
  /// the first call) just before the flip — the infection tracker's deferred
  /// re-run restores it instead of re-seeking, so forensics never pay the
  /// fast-forward twice.
  [[nodiscard]] RunResult run(const FaultSpec& fault,
                              RunPhaseTimes* phases = nullptr,
                              emu::Checkpoint* prefault = nullptr);

  /// Classify the machine's current terminal state (used by run(), exposed
  /// for callers that drive the emulator themselves). `detected` is the
  /// first cycle the RAS visibly reacted; when it never did but the outcome
  /// is itself a detection (checkstop, hang, recovery or correction — only
  /// the end-of-test readout surfaced the fault), detection happened at
  /// classification time. This is the one place that rule lives.
  [[nodiscard]] RunResult classify_now(
      bool finished, bool early_exited,
      std::optional<Cycle> detected = std::nullopt) const;

  /// Continue `fault`'s experiment from the machine's *current* state: the
  /// exact per-cycle tail of run() (RAS watch, convergence poll, deadlines,
  /// classification), entered mid-flight. The caller must have brought the
  /// machine to some cycle >= fault.cycle with the fault's effects applied
  /// (run() does seek + apply_fault and then calls this). The lane engine
  /// materializes a lane's state into the emulator and resumes here, so a
  /// lane that leaves the fast path is finished by the same code path —
  /// and therefore produces byte-identical records. `phases` accumulates
  /// post-fault phase timings only (no reset; run() owns that).
  ///
  /// A non-null `eject` is polled exactly once, after the first step but
  /// before any RAS/convergence check of that cycle. Returning true aborts
  /// the run with an empty result and sets `*ejected`: the caller has
  /// decided (by its own evidence) that the machine's future is provably
  /// identical to a cheaper execution it already owns, so classification
  /// here would only duplicate work. The runner itself never consults
  /// machine state for this — an eject can't change what any completed run
  /// would have returned.
  [[nodiscard]] RunResult continue_run(const FaultSpec& fault,
                                       RunPhaseTimes* phases = nullptr,
                                       const std::function<bool()>* eject =
                                           nullptr,
                                       bool* ejected = nullptr);

  /// Bring the machine fault-free to `target` without telemetry: the
  /// deferred-replay entry for clients that drive the emulator themselves
  /// (tracer, infection tracker). Same warm-checkpoint path as run().
  void seek_for_replay(Cycle target) { seek_to(target, nullptr); }

  /// Apply `fault` to the machine at its current cycle (flip/force latches
  /// or array cells; adjacent_bits > 1 models a multi-bit upset). Shared by
  /// run() and forensic replays so both perturb the machine identically.
  void apply_fault(const FaultSpec& fault);

  [[nodiscard]] const RunConfig& config() const { return cfg_; }

 private:
  /// Bring the machine fault-free to `target`: restore the nearest
  /// checkpoint <= target (warm, cached across consecutive runs) or the
  /// reset snapshot, then clock the remainder. Reports restore/fast-forward
  /// timings into `phases` when non-null.
  void seek_to(Cycle target, RunPhaseTimes* phases);

  /// classify_now without the detection rule.
  [[nodiscard]] RunResult classify_outcome(bool finished,
                                           bool early_exited) const;

  core::Pearl6Model& model_;
  emu::Emulator& emu_;
  const emu::Checkpoint& reset_cp_;
  const emu::GoldenTrace& trace_;
  const avp::GoldenResult& golden_;
  RunConfig cfg_;
  const emu::CheckpointStore* ckpts_ = nullptr;
  /// Last materialized checkpoint: cycle-sorted dispatch makes consecutive
  /// runs hit the same snapshot, so reconstruction amortizes to ~once per
  /// checkpoint per worker.
  emu::Checkpoint warm_cp_;
  std::size_t warm_idx_ = kNoWarmCkpt;
  static constexpr std::size_t kNoWarmCkpt = ~std::size_t{0};
};

}  // namespace sfi::inject
