// Campaign: a statistically sized batch of fault injections over one
// workload, with per-unit / per-latch-type breakdowns and full per-injection
// records (the raw material of every table and figure in the paper's
// evaluation).
//
// Campaigns are deterministic and thread-count-independent: injection i
// derives its RNG stream from (campaign seed, i), each worker owns a private
// model+emulator ("multiple concurrent copies of the simulation environment",
// paper §2.2), and aggregation is order-insensitive. The same property makes
// campaigns resumable: any scheduler that knows which indices are already
// done can re-derive exactly the remaining faults (src/sched/).
#pragma once

#include <functional>
#include <vector>

#include "avp/testgen.hpp"
#include "sfi/aggregate.hpp"
#include "sfi/outcome.hpp"
#include "sfi/propagation.hpp"
#include "sfi/record.hpp"
#include "sfi/runner.hpp"
#include "sfi/sampler.hpp"
#include "sfi/telemetry.hpp"

namespace sfi::inject {

/// Which execution engine runs a campaign's injections (sfi/engine.hpp).
/// Like the checkpoint knobs, the choice never affects outcomes: the lane
/// engine is outcome-byte-identical to the scalar runner (gated by the
/// engine A/B CI job), so it is excluded from the campaign fingerprint and
/// stores produced under either engine stay mutually resumable.
enum class EngineKind : u8 {
  Scalar,  ///< one in-flight injection per worker (InjectionRunner)
  Lanes,   ///< N in-flight injections as diff-lanes over one reference replay
};

struct CampaignConfig {
  u64 seed = 42;
  u32 num_injections = 2000;
  u32 threads = 0;  ///< 0: hardware concurrency
  RunConfig run;
  FaultMode mode = FaultMode::Toggle;
  Cycle sticky_duration = 0;
  /// Restrict the latch population (empty: whole design).
  std::function<bool(const netlist::LatchMeta&)> filter;
  /// Injection window [begin, end) in cycles; end == 0 uses the workload's
  /// completion cycle.
  Cycle window_begin = 1;
  Cycle window_end = 0;
  /// Interval checkpointing of the reference run: snapshot every
  /// `ckpt_interval` cycles so injections warm-start from the nearest
  /// checkpoint instead of replaying from cycle 0. emu::kCkptAuto picks the
  /// interval from the window size and `ckpt_memory_budget`; 0 disables
  /// checkpointing. Results are bit-identical either way (the reference
  /// execution is deterministic), so this knob never affects outcomes, the
  /// campaign fingerprint, or store/resume compatibility — only speed.
  Cycle ckpt_interval = emu::kCkptAuto;
  u64 ckpt_memory_budget = 64ull << 20;
  /// Core configuration (checker masks etc. — Table 3's knob).
  core::CoreConfig core;
  /// Propagation forensics (off by default). Strictly additive: injection
  /// records, the campaign fingerprint and resume behaviour are identical
  /// with tracing on — footprints ride alongside as separate records.
  FootprintConfig footprint;
  /// Optional observability sink (non-owning; must outlive the run).
  /// Strictly read-only with respect to results: the campaign fingerprint,
  /// records, store bytes and resume behaviour are identical with or
  /// without telemetry attached.
  CampaignTelemetry* telemetry = nullptr;
  /// Injection engine. Outcome-neutral (see EngineKind): not part of the
  /// campaign fingerprint.
  EngineKind engine = EngineKind::Scalar;
  /// Max in-flight injections per sweep for the lane engine (ignored by the
  /// scalar engine). More lanes amortize the reference replay over more
  /// injections; see bench/ablation_lane_engine for the curve.
  u32 lanes = 64;
};

/// Everything a campaign derives up-front from (testcase, config) before any
/// injection runs: the golden references, the sampled population, and the
/// full pre-generated fault list (fault i depends only on (seed, i), which
/// keeps results thread-count independent and campaigns resumable).
struct CampaignPlan {
  avp::GoldenResult golden;
  emu::GoldenTrace trace;
  LatchPopulation population;
  std::vector<FaultSpec> faults;
  Cycle window_begin = 0;
  Cycle window_end = 0;  ///< resolved (never 0)
  /// Interval checkpoints of the reference run (empty when disabled);
  /// built once here and shared read-only across all workers.
  emu::CheckpointStore ckpts;

  /// Injection indices sorted by fault cycle (ties by index): dispatching
  /// in this order keeps each worker's materialized checkpoint hot. Records
  /// keep their (seed, i) identity, so ordering, resume and merge are
  /// untouched.
  [[nodiscard]] std::vector<u32> cycle_sorted_indices() const;
};

[[nodiscard]] CampaignPlan plan_campaign(const avp::Testcase& testcase,
                                         const CampaignConfig& config);

/// Build the durable injection record for (fault, result): the faulted
/// latch's unit and type, or the struck array's unit for an array-cell
/// fault. The one record builder — every engine, beam, and the farm's
/// HarnessFatal synthesis — so records are field-identical by construction.
[[nodiscard]] InjectionRecord make_record(const core::Pearl6Model& model,
                                          const FaultSpec& fault,
                                          const RunResult& rr);

struct CampaignResult {
  /// Outcome histogram plus by-unit / by-latch-type breakdowns, built
  /// through the shared aggregation helper (sfi/aggregate.hpp) so live
  /// campaigns and store replays are bit-for-bit comparable.
  CampaignAggregate agg;
  std::vector<InjectionRecord> records;
  /// Propagation records for traced injections (empty when forensics are
  /// off), sorted by injection index.
  std::vector<PropagationRecord> footprints;
  std::size_t population_size = 0;
  Cycle workload_cycles = 0;
  u64 workload_instructions = 0;
  double wall_seconds = 0.0;
  u64 cycles_evaluated = 0;
  /// Replay cycles skipped by warm-starting from reference checkpoints.
  u64 cycles_fast_forwarded = 0;
  /// Host checkpoint interactions (saves + restores) across all workers.
  u64 checkpoint_ops = 0;
  /// Reference checkpoints resident during the campaign, and their encoded
  /// footprint (0 when checkpointing is disabled).
  std::size_t checkpoints = 0;
  u64 checkpoint_bytes = 0;

  [[nodiscard]] const OutcomeCounts& counts() const { return agg.counts; }
  [[nodiscard]] const OutcomeCounts& by_unit(netlist::Unit u) const {
    return agg.by_unit[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] const OutcomeCounts& by_type(netlist::LatchType t) const {
    return agg.by_type[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] double injections_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(records.size()) / wall_seconds;
  }
};

/// Run a fault-injection campaign for `testcase` under `config`.
[[nodiscard]] CampaignResult run_campaign(const avp::Testcase& testcase,
                                          const CampaignConfig& config);

}  // namespace sfi::inject
