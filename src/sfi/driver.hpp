// Campaign driver: the one in-process executor behind every campaign caller.
//
// The in-memory campaign (inject::run_campaign), the durable scheduler
// (sched::run_campaign_to_store) and the beam experiment differ only in the
// plan they hand over and where finished records go. Everything else lives
// here, once:
//
//   * one engine per worker, built before any thread starts;
//   * the worker pool (run inline at one thread), whose first worker
//     exception is rethrown to the caller after every thread has joined;
//   * shard claims over the caller's cycle-sorted pending list, with shards
//     grown to `lanes` for the lane engine so its batches stay full;
//   * the `max_new_injections` cap and the `should_stop` poll, both checked
//     before every claim;
//   * flush windows: each worker batches finished records and hands them to
//     the caller's sink inside the emit that fills the window — before its
//     next claim, which is what makes a stop decision land on a flush;
//   * the host-cost sums (cycles, checkpoint ops) across the engines.
//
// Records are pure functions of (seed, i), so neither the thread count,
// the shard size nor the flush window changes a single record.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sfi/campaign.hpp"

namespace sfi::inject {

/// `requested`, or the hardware concurrency when 0 (never below 1).
[[nodiscard]] u32 resolve_threads(u32 requested);

/// Run `work(tid)` for tid in [0, threads): inline when threads <= 1, else
/// on a pool of threads. Every thread joins before this returns; the first
/// exception any worker threw is then rethrown here.
void run_workers(u32 threads, const std::function<void(u32 tid)>& work);

struct IndexedRecord {
  u32 index = 0;
  InjectionRecord rec;
};

/// The records (and their footprints) one worker finished since its last
/// window. Sinks are called concurrently from every worker.
struct FlushWindow {
  std::vector<IndexedRecord> records;
  std::vector<PropagationRecord> footprints;
};

struct DriverConfig {
  u32 threads = 0;        ///< 0: hardware concurrency; capped at the shards
  u32 shard_size = 64;    ///< injections per claim unit
  u32 flush_records = 32; ///< records per flush window
  u64 max_new_injections = 0;  ///< claim cap (0 = all pending)
  std::function<bool()> should_stop;  ///< polled before every claim
};

struct DriveResult {
  u64 shards = 0;         ///< shards dispatched
  bool stopped = false;   ///< should_stop() ended dispatch
  u64 cycles_evaluated = 0;
  u64 cycles_fast_forwarded = 0;
  u64 checkpoint_ops = 0;
};

/// Run every index of `pending` (a cycle-sorted subset of the plan's
/// indices) under `config`'s engine, handing finished records to `sink`
/// one flush window at a time. Telemetry (config.telemetry) sees one
/// handle per worker plus shard begin/end.
DriveResult drive_campaign(const avp::Testcase& testcase,
                           const CampaignConfig& config,
                           const CampaignPlan& plan,
                           std::span<const u32> pending,
                           const DriverConfig& driver,
                           const std::function<void(const FlushWindow&)>& sink);

}  // namespace sfi::inject
