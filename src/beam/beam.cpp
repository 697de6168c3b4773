#include "beam/beam.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/check.hpp"
#include "sfi/driver.hpp"

namespace sfi::beam {

namespace {
using inject::FaultSpec;
using inject::FaultTarget;
using inject::InjectionRecord;
using inject::InjectionRunner;
using inject::RunResult;
}  // namespace

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

  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model ref_model(cfg.core);
  emu::Emulator ref_emu(ref_model);
  const emu::GoldenTrace trace =
      avp::run_reference(ref_model, ref_emu, tc, /*max_cycles=*/200000,
                         /*record_states=*/true);

  const u64 latch_bits = ref_model.registry().num_latches();
  const u64 array_bits = ref_model.arrays().total_storage_bits();
  const double latch_weight =
      static_cast<double>(latch_bits) * cfg.latch_cross_section;
  const double array_weight =
      static_cast<double>(array_bits) * cfg.array_cross_section;
  require(latch_weight + array_weight > 0.0, "beam sees no sensitive bits");

  // Pre-generate strikes: uniform arrival over the exposure window, target
  // cell weighted by cross-section.
  std::vector<FaultSpec> strikes(cfg.num_events);
  u64 latch_events = 0;
  u64 array_events = 0;
  for (u32 i = 0; i < cfg.num_events; ++i) {
    stats::Xoshiro256 rng(stats::derive_seed(cfg.seed, i));
    FaultSpec f;
    f.cycle = 1 + rng.below(trace.completion_cycle - 1);
    const double pick = rng.uniform() * (latch_weight + array_weight);
    if (pick < latch_weight) {
      f.target = FaultTarget::Latch;
      f.index = static_cast<u32>(rng.below(latch_bits));
      ++latch_events;
    } else {
      f.target = FaultTarget::ArrayCell;
      f.array_bit = rng.below(array_bits);
      ++array_events;
    }
    strikes[i] = f;
  }

  const u32 threads = inject::resolve_threads(cfg.threads);

  // Shared interval-checkpoint store: beam runs replay to the strike cycle
  // exactly like campaign injections, so Table 2 calibration gets the same
  // warm-start speedup. One extra fault-free replay builds it.
  emu::CheckpointStore ckpts;
  if (cfg.ckpt_interval != 0 && trace.completion_cycle > 1) {
    emu::CheckpointStoreConfig cc;
    cc.interval =
        cfg.ckpt_interval == emu::kCkptAuto ? 0 : cfg.ckpt_interval;
    cc.memory_budget_bytes = cfg.ckpt_memory_budget;
    ckpts = emu::build_checkpoint_store(ref_emu, trace.completion_cycle - 1,
                                        cc, &trace);
  }

  // Dispatch strikes cycle-sorted so consecutive runs share a hot
  // checkpoint; records land at their original index.
  std::vector<u32> order(cfg.num_events);
  for (u32 i = 0; i < cfg.num_events; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    return strikes[a].cycle != strikes[b].cycle
               ? strikes[a].cycle < strikes[b].cycle
               : a < b;
  });

  std::vector<InjectionRecord> records(cfg.num_events);
  std::atomic<u32> next{0};

  // Beam observability: the experimenter cannot watch internal state, so
  // the golden-hash early exit is off — classification uses only RAS
  // reporting and the end-of-test compare, like the real irradiation runs.
  // This is also why beam is pinned to the scalar InjectionRunner rather
  // than dispatching through sfi::InjectionEngine (DESIGN.md §16): the lane
  // engine's whole fast path is an internal-state convergence proof against
  // the reference replay, and beam's array strikes diverge in aux state
  // (array cells, ECC words) that the latch diff carrier cannot represent.
  inject::RunConfig run_cfg = cfg.run;
  run_cfg.early_exit = false;

  if (tel != nullptr) tel->prepare_workers(threads);

  inject::run_workers(threads, [&](u32 tid) {
    inject::WorkerTelemetry* wt =
        tel != nullptr ? &tel->worker(tid) : nullptr;
    core::Pearl6Model model(cfg.core);
    model.load_workload(tc.program, tc.init);
    emu::Emulator emu(model);
    emu.reset();
    const emu::Checkpoint reset_cp = emu.save_checkpoint();
    InjectionRunner runner(model, emu, reset_cp, trace, golden, run_cfg,
                           ckpts.empty() ? nullptr : &ckpts);
    while (true) {
      const u32 k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= cfg.num_events) break;
      const u32 i = order[k];
      const RunResult rr = runner.run(
          strikes[i], wt != nullptr ? wt->phase_scratch() : nullptr);
      InjectionRecord rec;
      rec.fault = strikes[i];
      rec.outcome = rr.outcome;
      if (strikes[i].target == FaultTarget::Latch) {
        const auto& meta = model.registry().meta_of_ordinal(strikes[i].index);
        rec.unit = meta.unit;
        rec.type = meta.type;
      } else {
        rec.unit = model.arrays().locate(strikes[i].array_bit).array->unit();
      }
      rec.end_cycle = rr.end_cycle;
      rec.recoveries = rr.recoveries;
      if (wt != nullptr) {
        std::optional<Cycle> latency;
        if (rr.detected_cycle) latency = *rr.detected_cycle - strikes[i].cycle;
        wt->record_injection(i, rec, latency);
      }
      records[i] = rec;
    }
  });

  BeamResult result;
  result.records = std::move(records);
  result.latch_events = latch_events;
  result.array_events = array_events;
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
