#include "sched/scheduler.hpp"

#include <chrono>
#include <filesystem>
#include <mutex>
#include <optional>

#include "common/hash.hpp"
#include "sfi/driver.hpp"
#include "store/trace_stitch.hpp"
#include "store/writer.hpp"

namespace sfi::sched {

u64 workload_id(const avp::Testcase& tc) {
  u64 h = mix64(tc.config.seed ^
                (static_cast<u64>(tc.config.num_instructions) << 32));
  h = mix64(h ^ tc.program.entry);
  h = mix64(h ^ tc.program.code_base);
  for (const u32 word : tc.program.code) h = mix64(h ^ word);
  for (const auto& blob : tc.program.data) {
    h = mix64(h ^ blob.addr);
    h = hash_bytes(std::span<const u8>(blob.bytes.data(), blob.bytes.size()),
                   h);
  }
  return h;
}

u64 campaign_fingerprint(const inject::CampaignConfig& cfg,
                         const inject::CampaignPlan& plan) {
  u64 h = mix64(0x5F1C0DE5u ^ static_cast<u64>(plan.population.size()));
  // The population ordinal set pins down any filter the campaign ran with
  // (filters themselves are opaque callables and cannot be hashed).
  for (const u32 ord : plan.population.ordinals()) h = mix64(h ^ ord);
  h = mix64(h ^ plan.window_begin);
  h = mix64(h ^ plan.window_end);
  h = mix64(h ^ static_cast<u64>(cfg.mode));
  h = mix64(h ^ cfg.sticky_duration);
  h = mix64(h ^ cfg.run.hang_margin);
  h = mix64(h ^ cfg.run.horizon);
  h = mix64(h ^ (cfg.run.early_exit ? 1u : 0u));
  h = mix64(h ^ (cfg.core.checkers_enabled ? 2u : 0u));
  h = mix64(h ^ cfg.core.checker_mask);
  h = mix64(h ^ cfg.core.watchdog_timeout);
  h = mix64(h ^ cfg.core.recovery_threshold);
  h = mix64(h ^ cfg.core.recovery_timeout);
  h = mix64(h ^ (cfg.core.recovery_enabled ? 4u : 0u));
  // cfg.footprint, cfg.telemetry, cfg.engine and cfg.lanes are deliberately
  // NOT part of the fingerprint: forensics/telemetry are observability-only,
  // and the engine choice is a speed knob whose records are byte-identical
  // (gated by the engine A/B CI job) — so a store written under one engine
  // resumes cleanly under the other.
  return h;
}

store::CampaignMeta make_campaign_meta(const avp::Testcase& tc,
                                       const inject::CampaignConfig& cfg,
                                       const inject::CampaignPlan& plan) {
  store::CampaignMeta meta;
  meta.seed = cfg.seed;
  meta.num_injections = cfg.num_injections;
  meta.config_fingerprint = campaign_fingerprint(cfg, plan);
  meta.workload_id = workload_id(tc);
  meta.population_size = plan.population.size();
  meta.workload_cycles = plan.trace.completion_cycle;
  meta.workload_instructions = plan.golden.instructions;
  meta.window_begin = plan.window_begin;
  meta.window_end = plan.window_end;
  return meta;
}

PriorRecords inherit_records(
    const std::string& path, const store::CampaignMeta& meta, bool resume,
    inject::CampaignTelemetry* tel,
    const std::function<void(const store::StoredRecord&)>& on_record) {
  PriorRecords prior;
  prior.done.assign(meta.num_injections, false);
  if (!resume) return prior;
  if (std::filesystem::exists(path)) {
    const store::StoreContents stored =
        store::read_store(path, {.tolerate_torn_tail = true});
    if (!stored.meta.same_campaign(meta)) {
      throw store::StoreError(
          "refusing to resume " + path +
          ": it records a different campaign (seed/config/workload "
          "fingerprint mismatch) — rerun without --resume to overwrite");
    }
    if (stored.torn_tail) {
      // Drop the torn final frame; its injection will simply be re-run.
      std::filesystem::resize_file(path, stored.valid_bytes);
    }
    for (const store::StoredRecord& sr : stored.records) {
      if (sr.index >= meta.num_injections) {
        throw store::StoreError("record index out of range in " + path);
      }
      if (prior.done[sr.index]) continue;
      prior.done[sr.index] = true;
      ++prior.count;
      if (on_record) on_record(sr);
    }
    prior.exists = true;
  }
  if (tel != nullptr) tel->campaign_resumed(prior.count, path);
  return prior;
}

ScheduledResult run_campaign_to_store(const avp::Testcase& tc,
                                      const inject::CampaignConfig& cfg,
                                      const std::string& store_path,
                                      const SchedulerConfig& sched,
                                      bool resume) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_now = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const auto steady_us_now = [] {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };

  inject::CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) {
    // The resumed count is only known after the store scan below; the
    // resume event carries it.
    tel->campaign_start("campaign", cfg.seed, cfg.num_injections,
                        /*resumed=*/0);
  }

  const inject::CampaignPlan plan = inject::plan_campaign(tc, cfg);
  const store::CampaignMeta meta = make_campaign_meta(tc, cfg, plan);

  ScheduledResult result;
  result.meta = meta;
  const PriorRecords prior = inherit_records(
      store_path, meta, resume, tel, [&](const store::StoredRecord& sr) {
        result.agg.add(sr.rec);
        if (sched.on_record) sched.on_record(sr);
      });
  result.resumed = prior.count;

  // Commit markers seal each flush window so a crash can be rolled back to
  // a whole-window boundary (no orphaned 'R' whose 'P' was lost).
  const store::WriteOptions wopts{.commit_markers = true};
  store::StoreWriter writer =
      prior.exists ? store::StoreWriter::append_to(store_path, wopts)
                   : store::StoreWriter::create(store_path, meta, wopts);
  // Spans go to the trace sidecar in every flush window: a crash keeps
  // those of each committed window, and a resume appends to the sidecar.
  std::optional<store::StoreWriter> sidecar;
  if (tel != nullptr && tel->spans() != nullptr) {
    sidecar.emplace(store::open_trace_sidecar(store_path, meta, prior.exists));
  }

  // Workers warm-start from the plan's checkpoint store; handing out
  // injections in fault-cycle order keeps each worker's materialized
  // checkpoint hot across a shard. Records carry their index, so store
  // ordering, resume and canonical merge are unaffected.
  std::vector<u32> pending;
  pending.reserve(cfg.num_injections - result.resumed);
  for (const u32 i : plan.cycle_sorted_indices()) {
    if (!prior.done[i]) pending.push_back(i);
  }

  if (sched.on_progress) {
    sched.on_progress({result.resumed, cfg.num_injections, result.resumed, 0,
                       wall_now(), steady_us_now()});
  }

  std::mutex store_mu;
  inject::DriverConfig dc;
  dc.threads = sched.threads != 0 ? sched.threads : cfg.threads;
  dc.shard_size = sched.shard_size;
  dc.flush_records = sched.flush_records;
  dc.max_new_injections = sched.max_new_injections;
  dc.should_stop = sched.should_stop;
  const inject::DriveResult d = inject::drive_campaign(
      tc, cfg, plan, pending, dc, [&](const inject::FlushWindow& w) {
        {
          const std::lock_guard<std::mutex> lock(store_mu);
          for (const inject::IndexedRecord& r : w.records) {
            writer.append(store::StoredRecord{r.index, r.rec});
            result.agg.add(r.rec);
          }
          // Footprints ride in the same flush window: a crash tears at most
          // one window, and resume re-runs the injections whose records
          // were lost (re-tracing their footprints with them).
          for (const inject::PropagationRecord& fp : w.footprints) {
            writer.append(fp);
          }
          writer.flush();
          if (sidecar) store::drain_spans(*tel->spans(), *sidecar);
          result.executed += w.records.size();
          result.footprints += w.footprints.size();
          if (sched.on_progress) {
            sched.on_progress({result.resumed + result.executed,
                               cfg.num_injections, result.resumed,
                               result.executed, wall_now(), steady_us_now()});
          }
        }
        // The window is durable now, and this worker claims nothing more
        // until the sink returns.
        if (sched.on_record) {
          for (const inject::IndexedRecord& r : w.records) {
            sched.on_record({r.index, r.rec});
          }
        }
      });

  result.shards = d.shards;
  result.cycles_evaluated = d.cycles_evaluated;
  result.cycles_fast_forwarded = d.cycles_fast_forwarded;
  result.checkpoint_ops = d.checkpoint_ops;
  result.checkpoints = plan.ckpts.size();
  result.checkpoint_bytes = plan.ckpts.resident_bytes();
  result.complete = result.agg.total() == cfg.num_injections;
  result.stopped = d.stopped;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (tel != nullptr) {
    tel->campaign_finish(result.agg, result.executed, result.wall_seconds);
  }
  // The campaign root slice, recorded after the last window.
  if (sidecar) store::drain_spans(*tel->spans(), *sidecar);
  return result;
}

}  // namespace sfi::sched
