// Farm worker: the process end of farm mode (`sfi worker`, or a forked
// child of `sfi campaign --workers N`).
//
// A worker owns one private simulation environment and one shard store
// file. It reads newline-delimited assignments from its control fd:
//
//   A <shard> <attempt> <count> <index>...   execute these campaign indices
//   Q                                        drain and exit 0
//
// and answers exclusively through the shard store's frame stream: an 'A'
// echo, committed when it accepts an assignment, then the 'R' record (+
// optional 'P' footprint) flushed — and commit-marked — per injection.
// Nothing names the injection in flight: a worker that dies is blamed by
// isolation (farm.hpp). After the flush that commits an assignment's last
// record it writes one '\n' to its bell fd, so the coordinator wakes and
// dispatches the next shard at once instead of on its next tick. The bell
// carries no data — the coordinator learns what happened from the store
// alone — and a ring that fails (coordinator gone) is ignored. EOF on the
// control fd is equivalent to Q, so a dying coordinator reaps its farm
// rather than orphaning it.
//
// Workers never decide campaign-level questions (retry, strikes, merge);
// they only execute. Determinism does the heavy lifting: injection i is a
// pure function of (seed, i), so a retried index re-executed here is
// byte-identical to what the dead worker would have written.
#pragma once

#include <optional>
#include <string>

#include <unistd.h>

#include "sfi/campaign.hpp"

namespace sfi::farm {

/// Deterministic harness-failure injection for supervision tests and the
/// farm-smoke CI gate: make the worker itself die or wedge when it reaches
/// a chosen campaign index, as a stand-in for "the flip took down the
/// emulator harness".
struct SabotageConfig {
  /// SIGKILL this process before running `crash_index` — but only on
  /// attempt 0, so the supervised retry succeeds (a transient harness
  /// crash).
  std::optional<u32> crash_index;
  /// Spin forever before running `wedge_index` (every attempt unless
  /// `wedge_once`), forcing watchdog kills and, at K strikes, HarnessFatal.
  std::optional<u32> wedge_index;
  bool wedge_once = false;

  [[nodiscard]] bool any() const {
    return crash_index.has_value() || wedge_index.has_value();
  }
};

struct WorkerOptions {
  u32 worker_id = 0;
  std::string shard_path;
  /// Assignment stream (read side); an exec'd `sfi worker` reads stdin.
  int control_fd = STDIN_FILENO;
  /// Doorbell (write side), rung once per finished assignment; an exec'd
  /// `sfi worker` rings stdout, so one run by hand prints a blank line per
  /// assignment.
  int bell_fd = STDOUT_FILENO;
  SabotageConfig sabotage;
  // What to ship is the coordinator's call (it follows the campaign
  // telemetry the caller attached; farm.cpp). Both are observability-only:
  // canonical merge drops 'M' and 'S' frames, so the merged store is
  // byte-identical either way.
  /// Serialize a cumulative metrics snapshot ('M' frame) into the shard
  /// store after every assignment, once its bell has rung, for the
  /// coordinator's fleet view (`sfi worker --ship-metrics`). Only a
  /// shipping worker times its idle waits between assignments
  /// (`farm.dispatch_wait_seconds`).
  bool ship_metrics = false;
  /// Record distributed trace spans ('S' frames) into the shard store:
  /// plan-build and per-assignment shard slices, plus tail-latency exemplar
  /// phase slices per injection. The trace/parent ids arrive with each
  /// assignment line, so worker spans stitch under the coordinator's
  /// dispatch span (`sfi worker --trace-spans`).
  bool ship_spans = false;
};

/// Worker main loop; returns the process exit code (0 = clean drain).
/// `plan` non-null reuses an already-built plan (fork-call mode inherits
/// the coordinator's copy-on-write); null builds one from (testcase,
/// config) — the exec-mode path.
int run_worker(const avp::Testcase& testcase,
               const inject::CampaignConfig& config,
               const WorkerOptions& opts,
               const inject::CampaignPlan* plan = nullptr);

}  // namespace sfi::farm
