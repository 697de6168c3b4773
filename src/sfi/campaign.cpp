#include "sfi/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>

#include "common/check.hpp"
#include "sfi/driver.hpp"

namespace sfi::inject {

CampaignPlan plan_campaign(const avp::Testcase& tc,
                           const CampaignConfig& cfg) {
  require(cfg.num_injections > 0, "campaign needs injections");

  CampaignPlan plan;

  // Reference executions (shared, read-only).
  plan.golden = avp::run_golden(tc);

  core::Pearl6Model ref_model(cfg.core);
  emu::Emulator ref_emu(ref_model);
  // Masked per-cycle states make the runner's convergence poll an exact
  // early-out compare instead of a full-state hash, and the access timeline
  // recorded with them retires dead-on-arrival faults unsimulated — worth
  // the memory for a many-injection campaign.
  plan.trace = avp::run_reference(ref_model, ref_emu, tc,
                                  /*max_cycles=*/200000,
                                  /*record_states=*/true);
  if (cfg.telemetry != nullptr) {
    cfg.telemetry->access_timeline_recorded(plan.trace.timeline_bytes());
  }

  // Population & sampler (identical across workers and across resumes).
  plan.population =
      cfg.filter ? LatchPopulation::filtered(ref_model.registry(), cfg.filter)
                 : LatchPopulation::all(ref_model.registry());
  FaultSampler sampler;
  sampler.population = &plan.population;
  sampler.window_end = plan.trace.completion_cycle;
  require(sampler.window_end > sampler.window_begin,
          "injection window is empty (workload too short?)");
  sampler.mode = cfg.mode;
  sampler.sticky_duration = cfg.sticky_duration;
  plan.window_begin = sampler.window_begin;
  plan.window_end = sampler.window_end;

  // Pre-generate every fault spec so results are thread-count independent
  // and so any subset of indices can be (re-)executed independently.
  plan.faults.resize(cfg.num_injections);
  for (u32 i = 0; i < cfg.num_injections; ++i) {
    stats::Xoshiro256 rng(stats::derive_seed(cfg.seed, i));
    plan.faults[i] = sampler.sample(rng);
  }

  // Interval checkpoints of the reference run (one extra fault-free replay,
  // amortized over every injection). The last useful snapshot cycle is the
  // latest possible fault cycle, window_end - 1.
  if (cfg.ckpt_interval != 0) {
    const auto t0 = std::chrono::steady_clock::now();
    emu::CheckpointStoreConfig cc;
    cc.interval =
        cfg.ckpt_interval == emu::kCkptAuto ? 0 : cfg.ckpt_interval;
    cc.memory_budget_bytes = cfg.ckpt_memory_budget;
    plan.ckpts = emu::build_checkpoint_store(ref_emu, sampler.window_end - 1,
                                             cc, &plan.trace);
    if (cfg.telemetry != nullptr) {
      std::vector<Cycle> cycles(plan.ckpts.size());
      for (std::size_t i = 0; i < plan.ckpts.size(); ++i) {
        cycles[i] = plan.ckpts.cycle_at(i);
      }
      cfg.telemetry->checkpoint_store_built(
          plan.ckpts.size(), plan.ckpts.resident_bytes(),
          plan.ckpts.interval(),
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          cycles);
    }
  }
  return plan;
}

std::vector<u32> CampaignPlan::cycle_sorted_indices() const {
  std::vector<u32> order(faults.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    return faults[a].cycle != faults[b].cycle ? faults[a].cycle < faults[b].cycle
                                              : a < b;
  });
  return order;
}

InjectionRecord make_record(const core::Pearl6Model& model,
                            const FaultSpec& fault, const RunResult& rr) {
  InjectionRecord rec;
  rec.fault = fault;
  rec.outcome = rr.outcome;
  if (fault.target == FaultTarget::Latch) {
    const netlist::LatchMeta& meta =
        model.registry().meta_of_ordinal(fault.index);
    rec.unit = meta.unit;
    rec.type = meta.type;
  } else {
    rec.unit = model.arrays().locate(fault.array_bit).array->unit();
  }
  rec.end_cycle = rr.end_cycle;
  rec.early_exited = rr.early_exited;
  rec.recoveries = rr.recoveries;
  return rec;
}

CampaignResult run_campaign(const avp::Testcase& tc,
                            const CampaignConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();

  CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) {
    tel->campaign_start("campaign", cfg.seed, cfg.num_injections,
                        /*resumed=*/0);
  }

  const CampaignPlan plan = plan_campaign(tc, cfg);

  CampaignResult result;
  result.records.resize(cfg.num_injections);
  std::mutex footprints_mu;
  // Nothing is persisted per shard here, so shards only need to be small
  // enough to keep every thread busy on a small campaign.
  DriverConfig dc;
  dc.threads = cfg.threads;
  dc.shard_size = 16;
  const DriveResult d = drive_campaign(
      tc, cfg, plan, plan.cycle_sorted_indices(), dc,
      [&](const FlushWindow& w) {
        // Indices are claimed once, so record slots never race.
        for (const IndexedRecord& r : w.records) {
          result.records[r.index] = r.rec;
        }
        if (w.footprints.empty()) return;
        const std::lock_guard<std::mutex> lock(footprints_mu);
        result.footprints.insert(result.footprints.end(),
                                 w.footprints.begin(), w.footprints.end());
      });

  std::sort(result.footprints.begin(), result.footprints.end(),
            [](const PropagationRecord& a, const PropagationRecord& b) {
              return a.index < b.index;
            });
  result.population_size = plan.population.size();
  result.workload_cycles = plan.trace.completion_cycle;
  result.workload_instructions = plan.golden.instructions;
  result.cycles_evaluated = d.cycles_evaluated;
  result.cycles_fast_forwarded = d.cycles_fast_forwarded;
  result.checkpoint_ops = d.checkpoint_ops;
  result.checkpoints = plan.ckpts.size();
  result.checkpoint_bytes = plan.ckpts.resident_bytes();
  result.agg = aggregate_records(result.records);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (tel != nullptr) {
    tel->campaign_finish(result.agg, result.records.size(),
                         result.wall_seconds);
  }
  return result;
}

}  // namespace sfi::inject
