#include "beam/beam.hpp"

#include <chrono>

#include "common/check.hpp"
#include "sfi/driver.hpp"

namespace sfi::beam {

BeamResult run_beam_experiment(const avp::Testcase& tc,
                               const BeamConfig& cfg) {
  require(cfg.num_events > 0, "beam needs events");
  require(cfg.latch_cross_section >= 0.0 && cfg.array_cross_section >= 0.0,
          "cross-sections must be non-negative");
  const auto t0 = std::chrono::steady_clock::now();

  inject::CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) {
    tel->campaign_start("beam", cfg.seed, cfg.num_events, /*resumed=*/0);
  }

  // Beam observability: the experimenter cannot watch internal state, so
  // the golden-hash early exit is off — classification uses only RAS
  // reporting and the end-of-test compare, like the real irradiation runs.
  // This is also why beam is pinned to the scalar engine (DESIGN.md §16):
  // the lane engine's whole fast path is an internal-state convergence
  // proof against the reference replay, and beam's array strikes diverge in
  // aux state (array cells, ECC words) that the latch diff carrier cannot
  // represent.
  inject::CampaignConfig ccfg;
  ccfg.seed = cfg.seed;
  ccfg.num_injections = cfg.num_events;
  ccfg.run = cfg.run;
  ccfg.run.early_exit = false;
  ccfg.ckpt_interval = cfg.ckpt_interval;
  ccfg.ckpt_memory_budget = cfg.ckpt_memory_budget;
  ccfg.core = cfg.core;
  ccfg.telemetry = tel;
  // The campaign planner's reference run and checkpoint store (its window
  // spans the whole exposure); its sampled latch faults are replaced by the
  // beam's strikes below.
  inject::CampaignPlan plan = inject::plan_campaign(tc, ccfg);

  // One model purely for storage geometry; nothing is simulated.
  const core::Pearl6Model geometry(cfg.core);
  const u64 latch_bits = geometry.registry().num_latches();
  const u64 array_bits = geometry.arrays().total_storage_bits();
  const double latch_weight =
      static_cast<double>(latch_bits) * cfg.latch_cross_section;
  const double array_weight =
      static_cast<double>(array_bits) * cfg.array_cross_section;
  require(latch_weight + array_weight > 0.0, "beam sees no sensitive bits");

  // Strikes: uniform arrival over the exposure window, target cell weighted
  // by cross-section.
  BeamResult result;
  for (u32 i = 0; i < cfg.num_events; ++i) {
    stats::Xoshiro256 rng(stats::derive_seed(cfg.seed, i));
    inject::FaultSpec f;
    f.cycle = 1 + rng.below(plan.trace.completion_cycle - 1);
    const double pick = rng.uniform() * (latch_weight + array_weight);
    if (pick < latch_weight) {
      f.target = inject::FaultTarget::Latch;
      f.index = static_cast<u32>(rng.below(latch_bits));
      ++result.latch_events;
    } else {
      f.target = inject::FaultTarget::ArrayCell;
      f.array_bit = rng.below(array_bits);
      ++result.array_events;
    }
    plan.faults[i] = f;
  }

  result.records.resize(cfg.num_events);
  inject::DriverConfig dc;
  dc.threads = cfg.threads;
  dc.shard_size = 16;
  (void)inject::drive_campaign(
      tc, ccfg, plan, plan.cycle_sorted_indices(), dc,
      [&](const inject::FlushWindow& w) {
        // Indices are claimed once, so record slots never race.
        for (const inject::IndexedRecord& r : w.records) {
          result.records[r.index] = r.rec;
        }
      });

  result.agg = inject::aggregate_records(result.records);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (tel != nullptr) {
    tel->campaign_finish(result.agg, result.records.size(),
                         result.wall_seconds);
  }
  return result;
}

}  // namespace sfi::beam
