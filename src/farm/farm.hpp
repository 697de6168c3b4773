// Farm coordinator: supervised multi-process campaign execution.
//
// The paper ran its 10^5-flip campaigns on a farm of AWAN emulator boards
// (§2.2) for two reasons this module reproduces in miniature: throughput
// beyond one host, and blast-radius control — an injected flip can wedge
// the harness itself, and on a farm that costs one board, not the campaign.
//
// Shape: the coordinator spawns workers as OS processes (fork-call locally,
// fork-exec / ssh for a hosts file), hands out cycle-sorted shards over a
// pipe, and watches each worker's shard store grow through a commit-aware
// FrameTail. The store *is* the protocol — assignment echoes ('A'),
// records ('R'/'P'), each flush sealed by a commit marker ('F') — so
// supervision state and durable results can never disagree: an injection
// is "done" exactly when its record frame is committed on disk.
// Between passes the coordinator sleeps in poll(2) on the workers' bells
// (process.hpp): a worker rings when a shard's last record commits, and its
// bell hangs up when it exits, so dispatch follows completion.
//
// Supervision policy:
//   * crash (unexpected exit, corrupt shard stream) or watchdog expiry (no
//     committed frame for watchdog_seconds; startup_seconds until the
//     first, the echo of the assignment every spawn is handed) kills the
//     worker. Its unfinished indices requeue one index per assignment, with
//     exponential backoff. A fresh worker takes the slot only when there is
//     work for it: a dead slot is respawned when the dispatch pass hands it
//     a shard, so with several slots a live worker may take the retry
//     instead.
//   * blame by isolation: a failure strikes an index only when the worker
//     had accepted ('A' echo committed) an assignment of that index alone
//     and died before its record committed. The first failure of a
//     multi-index assignment strikes nothing, so a transient crash strikes
//     nobody and a reproducible killer fails again alone, under either
//     engine (the lane engine claims its whole batch before it runs any)
//     and with no per-injection write. At max_strikes it is recorded as
//     Outcome::HarnessFatal and excluded — graceful degradation instead of
//     a sunk campaign.
//   * completion = every index committed or struck out; the coordinator
//     then merges shard stores (tolerantly — a killed worker's shard
//     legitimately ends in a torn window) into the canonical output, which
//     is byte-identical to a single-process run of the same (seed, size)
//     campaign whenever nothing was struck out. Footprints ('P'), which the
//     merge drops, follow the merged records in index order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "farm/worker.hpp"
#include "sched/scheduler.hpp"

namespace sfi::farm {

/// One line of a hosts file: `host [slots]` (comments with '#').
/// "localhost" (or "local"/"127.0.0.1") execs directly; anything else is
/// reached through `ssh host`, assuming a shared filesystem for the shard
/// stores and the sfi binary.
struct HostSlot {
  std::string host;
  u32 slots = 1;
};

[[nodiscard]] std::vector<HostSlot> parse_hosts_file(const std::string& path);

struct FarmConfig {
  /// Fork-call worker count; ignored when `hosts` is non-empty.
  u32 workers = 2;
  std::vector<HostSlot> hosts;
  /// Exec-mode worker command (binary + `worker` verb + campaign flags;
  /// serve::worker_command builds it from the campaign spec). The
  /// coordinator appends the worker protocol flags: --shard-store,
  /// --worker-id, what to ship, and the sabotage hooks. Required when
  /// `hosts` is non-empty.
  std::vector<std::string> worker_command;
  /// Injections per assignment, grown to the lane batch width under the
  /// lane engine (inject::campaign_shard_size — the driver's rule).
  u32 shard_size = 64;
  /// Failures of an injection run alone before it is declared HarnessFatal.
  u32 max_strikes = 3;
  /// No committed frame for this long => the worker is wedged; kill it.
  double watchdog_seconds = 30.0;
  /// First-frame deadline after spawn (exec workers rebuild the reference
  /// plan first, which dominates startup).
  double startup_seconds = 300.0;
  double backoff_base_seconds = 0.25;
  double backoff_cap_seconds = 10.0;
  /// Longest the coordinator sleeps when no worker rings its bell: the
  /// watchdog, backoff gates and should_stop are looked at least this
  /// often. A finished shard is dispatched on its ring, not on the tick.
  double poll_seconds = 0.02;
  /// Test hook forwarded to every worker (to exec workers as flags).
  SabotageConfig sabotage;
  /// Cooperative stop (SIGINT/SIGTERM): stop dispatching, kill in-flight
  /// workers (their committed records survive), merge what exists.
  std::function<bool()> should_stop;
  std::function<void(const sched::Progress&)> on_progress;
  /// Called once per durable record — resumed records on startup, then each
  /// newly committed record as its frame is sealed in a shard store. This is
  /// the online-statistics feed (`sfi serve` computes sequential Wilson
  /// intervals from it); because it fires only on committed frames, anything
  /// counted through it is already safe on disk.
  std::function<void(const store::StoredRecord&)> on_record;
  /// Keep per-worker shard files after the merge (forensics; default off).
  bool keep_shards = false;
  /// When non-empty and the global flight recorder is enabled, dump the
  /// recorder's ring here after every supervision failure (worker crash,
  /// watchdog kill, strikeout) — the postmortem trace of the last seconds
  /// before the fatality. Rewritten per failure; observability-only.
  std::string postmortem_path;
  // What workers observe is not configured here: it follows the campaign
  // telemetry attached to the CampaignConfig. With one, workers ship
  // cumulative metrics snapshots ('M' frames) that fold into its fleet view;
  // with its span plane on, they also ship spans ('S' frames) under the
  // book's trace id, teed with the coordinator's into the `<out>.trace.sfr`
  // sidecar. Canonical merge drops both kinds, so the merged store is
  // byte-identical either way.
};

struct FarmResult {
  store::CampaignMeta meta;
  /// Aggregation over the merged output store (resumed + new + struck).
  inject::CampaignAggregate agg;
  u64 executed = 0;  ///< records newly committed by workers this run
  u64 resumed = 0;   ///< records inherited from a prior output store
  u64 assignments = 0;  ///< dispatched assignments, retries included
  u64 workers_spawned = 0;
  u64 worker_crashes = 0;   ///< unexpected exits (not watchdog kills)
  u64 watchdog_kills = 0;
  u64 shard_retries = 0;
  u64 heartbeat_gaps = 0;
  std::vector<u32> harness_fatal;  ///< struck-out indices, ascending
  bool complete = false;
  bool stopped = false;
  double wall_seconds = 0.0;

  [[nodiscard]] double injections_per_second() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(executed) / wall_seconds;
  }
};

/// Run (or with `resume` continue) a farm campaign; the canonical merged
/// store lands at `out_path` (shard files live next to it while running).
FarmResult run_farm_campaign(const avp::Testcase& testcase,
                             const inject::CampaignConfig& config,
                             const std::string& out_path,
                             const FarmConfig& farm, bool resume = false);

}  // namespace sfi::farm
