// InjectionRunner: executes one fault-injection experiment end to end.
//
// Per injection (paper Figure 1): reload the checkpoint, clock to the
// injection cycle, flip the chosen bit, clock onward while watching the
// RAS status, and classify. Five accelerations make software campaigns
// practical: (1) the post-reset machine state is snapshotted once and
// reloaded per injection, (2) with an interval-checkpoint store the runner
// warm-starts from the nearest reference snapshot at or before the run's
// entry instead of replaying from cycle 0, (3) a latch toggle is admitted
// against the reference's access timeline: it retires unsimulated when no
// step reads a flipped bit before an exit ("Dead on arrival"), and
// otherwise enters its run at the first step that reads one ("Late
// flips"), (4) an injected run whose functional-state hash re-matches the
// fault-free trace at the same cycle — with a clean RAS window — is
// classified Vanished immediately, and (5) a run whose recovery has ended
// and that is proven to be the reference k cycles late is recorded at test
// end + k ("Recovery tails"; all three in DESIGN §16).
#pragma once

#include <bitset>
#include <optional>

#include "avp/runner.hpp"
#include "core/core_model.hpp"
#include "emu/checkpoint_store.hpp"
#include "emu/emulator.hpp"
#include "emu/golden_trace.hpp"
#include "sfi/fault.hpp"
#include "sfi/outcome.hpp"

namespace sfi::inject {

struct RunPhaseTimes;     // sfi/telemetry.hpp
class InfectionTracker;  // sfi/propagation.hpp

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

/// What a run carries into a clean exit (InjectionRunner::clean_exit): its
/// RAS counters and first detection as they stand (all empty for a run that
/// never left the reference).
struct Carried {
  u32 recoveries = 0;
  u32 corrected = 0;
  std::optional<Cycle> detected;
};

/// The most bits one strike upsets (FaultSpec::adjacent_bits is a u8).
inline constexpr u32 kMaxUpsetBits = 256;

/// Where a run enters (InjectionRunner::begin): the cycle the machine is
/// brought to fault-free, and which of the fault's upset bits are applied
/// there, by offset from its first.
struct RunEntry {
  Cycle cycle = 0;
  std::bitset<kMaxUpsetBits> bits;

  /// The fault's own entry: its cycle, every bit it upsets.
  [[nodiscard]] static RunEntry at_fault(const FaultSpec& fault);
};

/// What admission (InjectionRunner::admit) decides for a fault: the record
/// of a run that ends before any reference step reads a flipped bit, or
/// where its run enters.
struct Admission {
  std::optional<RunResult> record;
  RunEntry entry;  ///< where the run enters, when there is no record
  /// No flipped bit is ever read: the record is dead on arrival.
  bool dead = false;
  /// A late flip's cycles after the fault that are not simulated before
  /// the first read: up to its entry, or to its exit before the read. 0
  /// when dead on arrival or entered at the fault's own cycle.
  Cycle pre_read_skipped = 0;
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

  /// Run one injection experiment and classify its outcome: admit(), then
  /// the admission's record, or begin() at its entry and continue_run().
  /// With a non-null `phases` the runner additionally reports the
  /// admission and per-phase wall times into it (telemetry out-param only —
  /// never read back, so results are identical with or without it; nullptr
  /// costs one predicted branch per phase). A non-null `observer` is handed
  /// the admission, every simulated cycle and the end-of-test readout (the
  /// footprint of this run; it never touches the machine).
  [[nodiscard]] RunResult run(const FaultSpec& fault,
                              RunPhaseTimes* phases = nullptr,
                              InfectionTracker* observer = nullptr);

  /// The one entry every run takes: bring the machine fault-free to the
  /// entry cycle (warm-started from the nearest reference checkpoint at or
  /// before it, else the reset snapshot) and apply the entry's bits of the
  /// fault there (flip or force latches, or flip array cells;
  /// adjacent_bits > 1 models a multi-bit upset). run() enters at its
  /// admission's entry; a full run enters at RunEntry::at_fault. Reports
  /// restore and fast-forward timings into `phases` when non-null.
  void begin(const FaultSpec& fault, const RunEntry& entry,
             RunPhaseTimes* phases = nullptr);

  /// Classify the machine's current terminal state (used by run(), exposed
  /// for callers that drive the emulator themselves). `detected` is the
  /// first cycle the RAS visibly reacted; when it never did but the outcome
  /// is itself a detection (checkstop, hang, recovery or correction — only
  /// the end-of-test readout surfaced the fault), detection happened at
  /// classification time. This is the one place that rule lives. An
  /// end-of-test readout is handed to `observer` when non-null.
  [[nodiscard]] RunResult classify_now(
      bool finished, bool early_exited,
      std::optional<Cycle> detected = std::nullopt,
      InfectionTracker* observer = nullptr) const;

  /// Continue `fault`'s experiment from the machine's *current* state: the
  /// exact per-cycle tail of run() (RAS watch, convergence poll, deadlines,
  /// classification), entered mid-flight. The caller must have brought the
  /// machine to some cycle >= fault.cycle with the fault's effects applied
  /// (run() calls begin() and then this). The lane engine materializes a
  /// lane's state into the emulator and resumes here, so a lane that
  /// leaves the fast path is finished by the same code path — and
  /// therefore produces byte-identical records. `stepped`: the caller has
  /// already clocked the loop's first cycle (the lane engine steps a
  /// tripped lane's divergent cycle itself) and the loop starts with that
  /// cycle's checks. `phases` accumulates post-fault phase timings only.
  /// A non-null `observer` sees every cycle ahead of the loop's exits, and
  /// the end-of-test readout (run() passes its own).
  [[nodiscard]] RunResult continue_run(const FaultSpec& fault,
                                       RunPhaseTimes* phases = nullptr,
                                       bool stepped = false,
                                       InfectionTracker* observer = nullptr);

  /// How a run that stays on the reference's terms ends: at test end, at
  /// the convergence poll, or at a deadline or the horizon.
  enum class CleanExit : u8 { TestEnd, Converged, Overdue };

  /// The one exit rule for a run that from some cycle on is the reference
  /// (possibly late), with its architected state at test end the
  /// reference's — the record continue_run() would classify, without
  /// reading the machine. Test end and the convergence poll (early-exited)
  /// are Corrected when the run carries a recovery or a correction, else
  /// Vanished; a deadline or the horizon is a Hang. Detection follows
  /// classify_now(): the carried cycle, else `at` for a detected outcome.
  /// admit(), the recovery-tail certificate and the lane engine's
  /// retirements build their records here.
  [[nodiscard]] static RunResult clean_exit(CleanExit how, Cycle at,
                                            const Carried& carried = {});

  /// Admit `fault` against the golden trace's access timeline, with no
  /// seek, no flip and no simulated cycle (DESIGN §16, "Dead on arrival"
  /// and "Late flips"). A latch toggle before completion whose flipped
  /// bits lie outside the classifier's peek set is, until a reference step
  /// first reads one of them, the reference plus flipped bits nobody reads.
  /// If continue_run() would exit before that step (test end, when no bit
  /// is ever read; the convergence poll, once the last hashed flipped bit
  /// is overwritten; the horizon), the admission carries that record.
  /// Otherwise it enters the run on the cycle before the read, with the
  /// flipped bits not yet overwritten. Every other fault is declined: its
  /// entry is its own (RunEntry::at_fault).
  [[nodiscard]] Admission admit(const FaultSpec& fault) const;

  [[nodiscard]] const RunConfig& config() const { return cfg_; }

 private:
  /// Bring the machine fault-free to `target`: restore the nearest
  /// checkpoint <= target (warm, cached across consecutive runs) or the
  /// reset snapshot, then clock the remainder. Reports restore/fast-forward
  /// timings into `phases` when non-null.
  void seek_to(Cycle target, RunPhaseTimes* phases);

  /// Apply the `bits` of `fault` to the machine at its current cycle
  /// (begin()'s flip).
  void apply_fault(const FaultSpec& fault,
                   const std::bitset<kMaxUpsetBits>& bits);

  /// classify_now without the detection rule.
  [[nodiscard]] RunResult classify_outcome(bool finished, bool early_exited,
                                           InfectionTracker* observer) const;

  /// The recovery-tail certificate (DESIGN §16, "Recovery tails"), asked
  /// at a cycle after a recovery has ended: the record of a run that is
  /// provably the reference k cycles late, modulo ring rotation, scrubber
  /// phase and dead bits — the exit its full tail would reach, at
  /// min(test end + k, deadline, horizon). nullopt when no candidate
  /// reference cycle proves it.
  [[nodiscard]] std::optional<RunResult> certify_tail(
      const FaultSpec& fault, const emu::RasStatus& ras,
      std::optional<Cycle> detect);
  /// Does the machine's latch state, its rings rotated to the reference's
  /// heads at cycle c, differ from the reference's at c only in scrubber
  /// phase, in bits the reference overwrites before reading (or never
  /// touches) and that the classifier does not peek at, and in its own
  /// tallies, which the reference never touches again? nullopt if not;
  /// else whether a hashed tally differs (which keeps the convergence poll
  /// from firing).
  [[nodiscard]] std::optional<bool> latches_match(Cycle c);
  /// The machine's aux bytes equal snapshot `idx`'s, outside the model's
  /// aux phase.
  [[nodiscard]] bool aux_matches(std::size_t idx);

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

  // Recovery-tail certificate scratch (never touches warm_cp_, whose cache
  // the seek path relies on).
  bool tails_ = false;  ///< snapshots, states and timeline all recorded
  /// Instructions completed in the reference state at every recorded cycle.
  std::vector<u64> ref_completed_;
  std::vector<bool> ring_word_;  ///< state words a declared ring touches
  std::vector<u64> rotated_;
  std::vector<u8> aux_now_;
  emu::Checkpoint tail_cp_;
  std::size_t tail_idx_ = kNoWarmCkpt;
};

}  // namespace sfi::inject
