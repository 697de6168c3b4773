// Campaign scheduler: sharded, streaming, resumable execution of a fault
// injection campaign into a durable store (src/store/).
//
// The in-memory path (inject::run_campaign) holds every record until the
// end and loses everything on interruption; production campaigns of 10^5+
// injections cannot afford that. The scheduler instead:
//
//   * splits the campaign's index space into shards,
//   * runs shards on the campaign driver's worker pool (sfi/driver.hpp),
//     where each worker owns a private simulation environment (paper §2.2),
//   * streams completed records into the store as they finish — appends
//     are order-insensitive because records carry their index — with a
//     bounded, flush-throttled at-risk window,
//   * reports progress through a callback,
//   * and resumes exactly: injection i derives its RNG stream from
//     (seed, i), so a restarted campaign validates the store's campaign
//     fingerprint, truncates any torn tail, skips persisted indices and
//     re-derives only the missing faults. The canonical merge of an
//     interrupted-then-resumed store is byte-identical to that of an
//     uninterrupted run (tests/test_store.cpp proves this).
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <string>

#include "sfi/campaign.hpp"
#include "store/reader.hpp"

namespace sfi::sched {

struct Progress {
  u64 done = 0;      ///< persisted records, including resumed ones
  u64 total = 0;     ///< campaign size
  u64 resumed = 0;   ///< records inherited from a previous run
  u64 executed = 0;  ///< injections newly run by this invocation so far
  /// Wall seconds since this invocation entered run_campaign_to_store —
  /// executed / wall_seconds is the live injection rate.
  double wall_seconds = 0.0;
  /// Monotonic (steady-clock) stamp of this report in microseconds, so
  /// consumers can compute inter-report rates without their own clock.
  u64 steady_us = 0;

  /// Live injection rate, or nullopt until the measurement window is real.
  /// The first report of a run fires before any injection completes
  /// (executed == 0, wall ~ 0); a naive executed/wall there is 0, inf or
  /// nan depending on clock resolution — consumers must render nullopt as
  /// "—", never divide themselves.
  [[nodiscard]] std::optional<double> rate_per_s() const {
    if (executed == 0 || !(wall_seconds > 0.0)) return std::nullopt;
    const double r = static_cast<double>(executed) / wall_seconds;
    if (!std::isfinite(r)) return std::nullopt;
    return r;
  }

  /// Seconds until done reaches total at rate_per_s(); nullopt whenever the
  /// rate is (and on a done > total resume overshoot, which a cancelled
  /// --max-new campaign can produce).
  [[nodiscard]] std::optional<double> eta_seconds() const {
    const auto r = rate_per_s();
    if (!r || done > total) return std::nullopt;
    return static_cast<double>(total - done) / *r;
  }
};

struct SchedulerConfig {
  u32 threads = 0;        ///< 0: campaign config threads, else hardware
  u32 shard_size = 64;    ///< injections per shard (work-stealing unit)
  u32 flush_records = 32; ///< records a worker batches between store appends
  /// Stop after this many newly executed injections (0 = run to completion).
  /// This is the test hook that simulates an interrupted campaign without
  /// killing the process.
  u64 max_new_injections = 0;
  /// Cooperative stop: polled before each injection is claimed. When it
  /// returns true workers stop claiming, flush their at-risk buffers, and
  /// the store is closed cleanly (no torn tail) — this is how `sfi campaign`
  /// turns SIGINT/SIGTERM into an ordinary resumable interruption instead
  /// of leaning on torn-tail truncation.
  std::function<bool()> should_stop;
  /// Called under the store lock after every flushed batch.
  std::function<void(const Progress&)> on_progress;
  /// Called once per durable record — inherited records at resume, then
  /// each new record right after the flush that commits it, from the
  /// flushing worker before its next claim (concurrently across workers).
  /// The same contract as farm::FarmConfig::on_record: anything counted
  /// through it is already safe on disk.
  std::function<void(const store::StoredRecord&)> on_record;
};

struct ScheduledResult {
  store::CampaignMeta meta;
  /// Aggregation over every record now in the store (resumed + new).
  inject::CampaignAggregate agg;
  u64 executed = 0;   ///< injections run by this invocation
  u64 resumed = 0;    ///< injections skipped because already persisted
  u64 footprints = 0; ///< propagation footprints persisted this invocation
  u64 shards = 0;     ///< shards dispatched this invocation
  bool complete = false;  ///< store now covers all num_injections indices
  bool stopped = false;   ///< should_stop() interrupted dispatch
  double wall_seconds = 0.0;
  u64 cycles_evaluated = 0;
  /// Replay cycles skipped by warm-starting from reference checkpoints.
  u64 cycles_fast_forwarded = 0;
  /// Host checkpoint interactions (saves + restores) across all workers.
  u64 checkpoint_ops = 0;
  /// Resident reference checkpoints and their encoded footprint.
  std::size_t checkpoints = 0;
  u64 checkpoint_bytes = 0;

  [[nodiscard]] double injections_per_second() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(executed) / wall_seconds;
  }
};

/// Identity of the workload a campaign ran (hash of program image + config).
[[nodiscard]] u64 workload_id(const avp::Testcase& testcase);

/// Fingerprint of everything that shapes fault generation and outcome
/// classification for a campaign. Resume refuses a store whose fingerprint
/// differs: its records would not be re-derivable from (seed, i).
[[nodiscard]] u64 campaign_fingerprint(const inject::CampaignConfig& config,
                                       const inject::CampaignPlan& plan);

/// Build the store header for (testcase, config, plan).
[[nodiscard]] store::CampaignMeta make_campaign_meta(
    const avp::Testcase& testcase, const inject::CampaignConfig& config,
    const inject::CampaignPlan& plan);

/// What a run inherits from the store already at its output path.
struct PriorRecords {
  std::vector<bool> done;  ///< per campaign index: already stored
  u64 count = 0;           ///< distinct indices inherited
  bool exists = false;     ///< a prior store was found (append to it)
};

/// The resume scan shared by the scheduler and the farm coordinator. With
/// `resume` set and a store at `path`: refuse a store of another campaign,
/// truncate a torn tail, range-check every record index, and pass each
/// newly inherited record to `on_record`; then emit the telemetry `resume`
/// event. Without `resume` nothing is read and every index is pending.
[[nodiscard]] PriorRecords inherit_records(
    const std::string& path, const store::CampaignMeta& meta, bool resume,
    inject::CampaignTelemetry* telemetry,
    const std::function<void(const store::StoredRecord&)>& on_record);

/// Run (or resume) a campaign, streaming records into the store at
/// `store_path`. With `resume` true and an existing store: validate it,
/// truncate a torn tail, execute only missing indices. With `resume` false
/// the store is created fresh (an existing file is overwritten).
ScheduledResult run_campaign_to_store(const avp::Testcase& testcase,
                                      const inject::CampaignConfig& config,
                                      const std::string& store_path,
                                      const SchedulerConfig& sched = {},
                                      bool resume = false);

}  // namespace sfi::sched
