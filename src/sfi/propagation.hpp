// Propagation forensics: watch an injected fault spread through the latch
// state instead of only observing its endpoint.
//
// The paper's evaluation is outcome *distributions*; it can only speculate
// about *why* a flip vanished or escaped. The InfectionTracker answers that
// by re-running an injection deterministically (same (seed, i) fault, same
// reference) and diffing the faulty state vector against the recorded golden
// trace at exponentially-spaced cycles after the flip. The result is an
// infection footprint over time: corrupted-latch count per unit per sample,
// first-corruption cycle per unit, time-to-mask or time-to-detection,
// whether corruption reached architected (REGFILE) state or memory, and
// which checker fired first.
//
// Cost model: the re-run enters through InjectionRunner::begin, as every
// run does, at the fault's own cycle and bits — one restore of the nearest
// reference checkpoint and the fast-forward from it to the fault cycle (a
// primary run admitted late entered the same trajectory further on, so the
// footprint does not depend on the entry). Per re-run cycle the only extra
// work over a normal run is a word-compare (time-to-mask detection); the
// per-unit group diff runs only at sample points (~log2(window) times).
// Non-Vanished outcomes are always traced; Vanished ones are sampled.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "avp/runner.hpp"
#include "core/core_model.hpp"
#include "emu/emulator.hpp"
#include "emu/golden_trace.hpp"
#include "netlist/latch.hpp"
#include "sfi/fault.hpp"
#include "sfi/outcome.hpp"
#include "sfi/runner.hpp"

namespace sfi::inject {

/// When the tracker diffs the full per-unit footprint.
enum class FootprintSampling : u8 {
  Exponential,  ///< offsets 1, 2, 4, 8, ... after the flip (default)
  EveryCycle,   ///< every post-flip cycle (bench/ablation only)
};

struct FootprintConfig {
  bool enabled = false;
  /// Trace every Nth Vanished injection (0: never trace Vanished). Outcomes
  /// other than Vanished are always traced.
  u32 vanished_sample = 32;
  /// Trace-window cap for the bulk outcome classes (Vanished, Corrected); a
  /// footprint still alive at the cap is recorded as truncated. These two
  /// classes are ~99% of injections, so their window is what the <10%
  /// overhead budget prices: at 512 cycles ~4% of Corrected traces truncate
  /// (p90 time-to-recovery is ~340 cycles on the standard workload).
  Cycle max_trace_cycles = 512;
  FootprintSampling sampling = FootprintSampling::Exponential;
};

/// Trace-window cap for the escape classes (Hang, Checkstop, BadArchState).
/// They are rare (<1% of injections) but carry the most forensic value, so
/// they get a window long enough to watch the infection all the way to the
/// hang limit or end of test for almost nothing.
inline constexpr Cycle kEscapeTraceCycles = 4096;

/// One timed slice of the infection: how many latch bits differ from the
/// fault-free reference, per unit, `offset` cycles after the flip.
struct FootprintSample {
  u32 offset = 0;      ///< cycles after the injection cycle
  u32 total_bits = 0;  ///< corrupted hashable latch bits, all units
  std::array<u32, netlist::kNumUnits> unit_bits{};
};

/// Sentinel for "this unit was never observed corrupted".
inline constexpr u32 kNeverCorrupted = 0xFFFFFFFFu;

/// The durable forensic record of one traced injection ('P' frames in the
/// campaign store). Self-describing: origin + outcome are denormalized so
/// `sfi explain` can aggregate P frames without joining against R frames.
struct PropagationRecord {
  u32 index = 0;  ///< campaign injection index (joins with InjectionRecord)
  netlist::Unit unit = netlist::Unit::Core;        ///< origin unit
  netlist::LatchType type = netlist::LatchType::Func;  ///< origin latch type
  Outcome outcome = Outcome::Vanished;             ///< primary-run outcome
  Cycle fault_cycle = 0;

  /// Footprint returned to zero in-window: the corruption either washed out
  /// naturally or was scrubbed by a rollback recovery (masked_at is then the
  /// offset at which recovery engaged — tracing past a rollback would
  /// measure replay skew, not infection).
  bool masked = false;
  bool detected = false;       ///< primary run saw a RAS reaction
  bool reached_arch = false;   ///< corruption touched REGFILE latches
  bool reached_memory = false; ///< end-of-test memory image differed
  bool truncated = false;      ///< window ended while still infected
  bool checker_fired = false;  ///< a low-level checker fired during re-run
  bool checker_fatal = false;
  core::CheckerId checker{};   ///< first checker that fired (valid iff
                               ///< checker_fired)

  Cycle masked_at = 0;    ///< offset post-flip when footprint hit zero
  Cycle detected_at = 0;  ///< offset post-flip of first RAS reaction
  u32 peak_bits = 0;      ///< max total_bits over all samples
  u32 rerun_cycles = 0;   ///< cycles simulated for this footprint (cost)

  /// First offset each unit was observed corrupted (kNeverCorrupted: never).
  /// Resolution follows the sampling policy — exponential sampling bounds
  /// the first-corruption offset, it does not pinpoint it.
  std::array<u32, netlist::kNumUnits> first_corrupt{};

  std::vector<FootprintSample> samples;

  /// Units (other than the origin) the infection ever crossed into.
  [[nodiscard]] u32 units_crossed() const;
};

/// Deterministic trace decision shared by worker and tests: non-Vanished
/// outcomes are always traced, Vanished every `vanished_sample`th index.
[[nodiscard]] bool footprint_should_trace(const FootprintConfig& cfg,
                                          u32 index, Outcome outcome);

/// Re-runs injections on the worker's own model/emulator and measures their
/// infection footprint. Not thread-safe; one per CampaignWorker. Requires a
/// golden trace with recorded per-cycle states (trace.has_states()); the
/// tracker reports itself unusable otherwise.
class InfectionTracker {
 public:
  /// All references must outlive the tracker; `runner` must wrap the same
  /// model/emulator pair.
  InfectionTracker(core::Pearl6Model& model, emu::Emulator& emu,
                   InjectionRunner& runner, const emu::GoldenTrace& trace,
                   const avp::GoldenResult& golden, FootprintConfig cfg);

  /// False when tracing is disabled or the trace lacks recorded states.
  [[nodiscard]] bool usable() const { return usable_; }
  [[nodiscard]] const FootprintConfig& config() const { return cfg_; }

  [[nodiscard]] bool should_trace(u32 index, Outcome outcome) const {
    return usable_ && footprint_should_trace(cfg_, index, outcome);
  }

  /// Deferred re-run of `fault` (the injection at campaign index `index`,
  /// whose primary run produced `primary`): enters through the runner's
  /// begin() (seek, then the identical flip) and samples the infection
  /// footprint. The machine is left at the end of the traced window; the
  /// next primary run's seek restores it, so records stay byte-identical
  /// with tracing on.
  [[nodiscard]] PropagationRecord trace(u32 index, const FaultSpec& fault,
                                        const RunResult& primary);

 private:
  core::Pearl6Model& model_;
  emu::Emulator& emu_;
  InjectionRunner& runner_;
  const emu::GoldenTrace& trace_;
  const avp::GoldenResult& golden_;
  FootprintConfig cfg_;
  bool usable_ = false;
  /// Group masks for one masked_diff_groups pass: 7 units then 4 latch
  /// types, flattened group-major over the state words.
  std::vector<u64> group_masks_;
  std::array<u32, netlist::kNumUnits + netlist::kNumLatchTypes> group_bits_{};
};

}  // namespace sfi::inject
