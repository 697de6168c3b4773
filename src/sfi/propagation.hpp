// Propagation forensics: watch an injected fault spread through the latch
// state instead of only observing its endpoint.
//
// The paper's evaluation is outcome *distributions*; it can only speculate
// about *why* a flip vanished or escaped. The InfectionTracker answers that
// by observing the run InjectionRunner::run already makes and diffing the
// faulty state vector against the recorded golden trace at exponentially
// spaced cycles after the flip. The result is an infection footprint over
// time: corrupted-latch count per unit per sample, first-corruption cycle
// per unit, time-to-mask or time-to-detection, whether corruption reached
// architected (REGFILE) state or memory, and which checker fired first.
//
// Cost model: observed, not replayed. The runner hands the tracker each
// fault's admission and then, cycle by cycle, the state continue_run has
// already stepped to; nothing is simulated for a footprint. Cycles the run
// does not simulate — a dead-on-arrival or exit-before-read admission, a
// late flip's cycles before its entry — are read off the access timeline:
// until a flipped bit is read the run is the reference plus the flipped
// bits not yet overwritten. Per observed cycle the extra work is the masked
// compare (the convergence poll's own result when it ran that cycle); the
// per-unit group diff runs only at sample points (~log2(window) times).
// Non-Vanished outcomes are always kept; Vanished ones are sampled.
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
  /// classes are ~99% of injections, so their window bounds what the
  /// footprints hold: at 512 cycles ~4% of Corrected traces truncate (p90
  /// time-to-recovery is ~340 cycles on the standard workload).
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
  bool checker_fired = false;  ///< a low-level checker fired in the window
  bool checker_fatal = false;
  core::CheckerId checker{};   ///< first checker that fired (valid iff
                               ///< checker_fired)

  Cycle masked_at = 0;    ///< offset post-flip when footprint hit zero
  Cycle detected_at = 0;  ///< offset post-flip of first RAS reaction
  u32 peak_bits = 0;      ///< max total_bits over all samples
  /// Cycles the footprint spans: the offset its observation ended at. Not
  /// simulated work; the field keeps the name the 'P' frame gives it.
  u32 rerun_cycles = 0;

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

/// Observes the runs InjectionRunner::run makes on the worker's own
/// model/emulator and measures their infection footprint. Not thread-safe;
/// one per CampaignWorker. Requires a golden trace with recorded per-cycle
/// states (trace.has_states()); the tracker reports itself unusable
/// otherwise.
///
/// Per run: start() at its admission, observe() at every cycle continue_run
/// steps to, read_out() with the classifier's end-of-test verdict, then
/// footprint() once the record's outcome is known. A footprint ends no
/// later than its run's exit.
class InfectionTracker {
 public:
  /// All references must outlive the tracker; `emu` must run `model`. The
  /// tracker installs the model's cycle observer for its lifetime.
  InfectionTracker(core::Pearl6Model& model, const emu::Emulator& emu,
                   const emu::GoldenTrace& trace,
                   const avp::GoldenResult& golden, FootprintConfig cfg);
  ~InfectionTracker();
  InfectionTracker(const InfectionTracker&) = delete;
  InfectionTracker& operator=(const InfectionTracker&) = delete;

  /// False when tracing is disabled or the trace lacks recorded states.
  [[nodiscard]] bool usable() const { return usable_; }

  [[nodiscard]] bool should_trace(u32 index, Outcome outcome) const {
    return usable_ && footprint_should_trace(cfg_, index, outcome);
  }

  /// A run of `fault` admitted as `adm` starts; with an entry, the machine
  /// stands at it with the entry's bits applied. Offset 0 and every offset
  /// before the entry are read off the access timeline, unless the run
  /// enters at the fault's own cycle (then offset 0 is the machine's).
  void start(const FaultSpec& fault, const Admission& adm);
  /// The machine after continue_run's step into `now`, ahead of the loop's
  /// exits. `converged` is the convergence poll's verdict when the poll ran
  /// this cycle.
  void observe(Cycle now, const emu::RasStatus& ras,
               std::optional<bool> converged);
  /// The end-of-test readout the classifier made (InjectionRunner::
  /// classify_now); it counts when the footprint ended at that test end.
  void read_out(const avp::Verdict& v);

  /// The footprint of the run last started, the injection at campaign index
  /// `index` whose record is `primary`: observation ends at its run's exit,
  /// and a Vanished or Corrected footprint is cut to its window.
  [[nodiscard]] PropagationRecord footprint(u32 index,
                                            const RunResult& primary);

 private:
  /// Read the footprint of a toggle off the access timeline, from offset 0
  /// through cycle `last`, by the rules observe() applies to a machine.
  void read_timeline(Cycle last);
  /// Append a sample from the group counts in group_bits_.
  void push_sample(u32 offset, u32 total);
  /// Append the machine's diff against the reference state `ref`.
  void sample_machine(u32 offset, const u64* ref);
  /// The footprint ends at `offset`.
  void close(u32 offset);
  /// It ends masked at `offset`, with a terminal zero sample.
  void mask(u32 offset);
  /// The last rules at a cycle that is not terminal, not past the trace
  /// and not recovering: `masked` ends the footprint; else `sample()` runs
  /// at offsets 1, 2, 4, ... (or every one), and the window ends it.
  template <class Sample>
  void advance(u32 offset, bool masked, Sample&& sample);

  core::Pearl6Model& model_;
  const emu::Emulator& emu_;
  const emu::GoldenTrace& trace_;
  const avp::GoldenResult& golden_;
  FootprintConfig cfg_;
  bool usable_ = false;
  /// Observation window: the larger of the bulk and escape windows, since
  /// the outcome is known only at the run's exit.
  Cycle window_ = 0;
  /// Group masks for one masked_diff_groups pass: 7 units then 4 latch
  /// types, flattened group-major over the state words.
  std::vector<u64> group_masks_;
  std::array<u32, netlist::kNumUnits + netlist::kNumLatchTypes> group_bits_{};

  // The run being observed.
  FaultSpec fault_;
  PropagationRecord rec_;  ///< samples, end state and first checker so far
  bool open_ = false;      ///< still observing
  /// Where an admission's record ends: its footprint is read off the
  /// timeline when kept.
  std::optional<Cycle> record_end_;
  u32 offset_ = 0;      ///< offset of the last cycle observed
  u32 checker_at_ = 0;  ///< offset of the first checker, when one fired
  u32 arch_at_ = 0;     ///< first offset a sample shows REGFILE bits
  bool readout_due_ = false;  ///< ended at test end: the verdict counts
};

}  // namespace sfi::inject
