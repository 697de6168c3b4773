// Campaign telemetry facade: the one object wired through the campaign
// driver, the farm coordinator, the beam harness and the CLI. It owns
//
//   * the metrics registry (counters / gauges / phase & latency histograms,
//     accumulated into per-worker shards, merged at finish),
//   * the structured JSONL event log (campaign start/finish, shard
//     dispatch/complete, sampled per-injection records, checkpoint
//     save/restore), and
//   * the span plane (one track per worker: shard spans with tail-latency
//     exemplar phase slices; a store campaign's scheduler or farm
//     coordinator drains them into the store's trace sidecar, which
//     `sfi trace` stitches across processes).
//
// Telemetry is strictly read-only with respect to results: it observes
// records after they are built and never feeds anything back into fault
// derivation, classification, the store or resume. A campaign run with
// every sink enabled persists byte-identical records to one run with
// telemetry off (tests/test_telemetry.cpp holds this as a regression).
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sfi/record.hpp"
#include "telemetry/events.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace sfi::inject {

struct CampaignAggregate;
struct PropagationRecord;  // sfi/propagation.hpp

/// The phases one injection decomposes into (ZOFI-style per-phase timing,
/// arXiv:1906.09390): where the wall-time of a campaign actually goes.
enum class RunPhase : u8 {
  Restore,          ///< checkpoint materialization + machine restore
  FastForward,      ///< fault-free clocking from the checkpoint to the fault
  PostFaultSim,     ///< post-injection simulation (minus convergence polls)
  ConvergencePoll,  ///< golden-trace convergence compares
  Classify,         ///< terminal-state classification + golden compare
};
inline constexpr std::size_t kNumRunPhases = 5;

[[nodiscard]] constexpr std::string_view to_string(RunPhase p) {
  constexpr std::array<std::string_view, kNumRunPhases> names = {
      "restore", "fast_forward", "post_fault_sim", "convergence_poll",
      "classify"};
  return names[static_cast<std::size_t>(p)];
}

/// Per-injection phase telemetry. The runner fills this out-param when (and
/// only when) a sink is attached; it never reads it back, so simulation
/// behaviour is identical with or without one.
struct RunPhaseTimes {
  std::array<double, kNumRunPhases> seconds{};
  u64 polls = 0;              ///< convergence polls executed
  u64 ff_cycles = 0;          ///< cycles clocked fault-free after restore
  bool warm_restore = false;  ///< restored from an interval checkpoint
  bool new_checkpoint = false;  ///< materialized a different checkpoint
  Cycle restore_cycle = 0;      ///< cycle of the restored snapshot
  /// Retired at admission from the reference's access timeline
  /// (InjectionRunner::admit) with no flipped bit ever read: nothing was
  /// simulated.
  bool dead_on_arrival = false;
  /// A late flip's cycles after the fault that were not simulated before
  /// the first read of a flipped bit (Admission::pre_read_skipped); nonzero
  /// exactly for a late entry or an exit before the read.
  u64 pre_read_cycles_skipped = 0;
  /// Cycles the runner's post-fault loop simulated, and how many of them
  /// came after the last recovery ended.
  u64 post_fault_cycles = 0;
  u64 tail_cycles = 0;
  /// Retired on the recovery-tail certificate, and the exit cycle minus
  /// the cycle it fired at (the tail it did not simulate).
  bool tail_certified = false;
  u64 tail_cycles_skipped = 0;

  [[nodiscard]] double total_seconds() const {
    double t = 0.0;
    for (const double s : seconds) t += s;
    return t;
  }
};

/// The exit kinds post-fault cycles are counted by: the outcomes, with
/// Vanished split at the convergence poll and Corrected at the end of its
/// last recovery (the tail the recovery-tail certificate cuts).
enum class PostFaultRow : u8 {
  VanishedEarlyExit,
  VanishedTestEnd,
  CorrectedToRecoveryEnd,
  CorrectedAfterRecovery,
  Hang,
  Checkstop,
  BadArchState,
};
inline constexpr std::size_t kNumPostFaultRows = 7;

[[nodiscard]] constexpr std::string_view to_string(PostFaultRow r) {
  constexpr std::array<std::string_view, kNumPostFaultRows> names = {
      "vanished_early_exit",      "vanished_test_end",
      "corrected_to_recovery_end", "corrected_after_recovery",
      "hang",                      "checkstop",
      "bad_arch_state"};
  return names[static_cast<std::size_t>(r)];
}

struct TelemetryConfig {
  /// Emit every Nth per-injection event-log record (1 = all, 0 = none).
  /// Lifecycle / shard / checkpoint events are never sampled away; trace
  /// slices follow the span plane's exemplar policy instead.
  u32 event_sample = 1;
};

class CampaignTelemetry;

/// One worker thread's telemetry handle: a private metrics shard, a track
/// on the span plane, and a scratch RunPhaseTimes for the runner. Not
/// thread-safe; exactly one worker owns each handle (create via
/// prepare_workers()).
class WorkerTelemetry {
 public:
  /// Scratch the runner fills per injection (stable address).
  [[nodiscard]] RunPhaseTimes* phase_scratch() { return &phases_; }

  /// Shard lifecycle (campaign driver only): event-log record + trace span.
  void shard_begin(u64 shard, u64 injections);
  void shard_end(u64 shard, u64 executed);

  /// Observe one completed injection: phase histograms, outcome tallies,
  /// detection latency, sampled event record and exemplar phase slices.
  /// Zeroes the phase scratch after reading it.
  /// `index` is the injection's campaign index; `detect_latency` is cycles
  /// from fault to first RAS reaction (nullopt: never detected).
  void record_injection(u32 index, const InjectionRecord& rec,
                        std::optional<Cycle> detect_latency);

  /// Observe one kept footprint: spread counters, peak/mask histograms,
  /// sampled "propagation" event record and one trace slice (its samples
  /// are durable in the 'P' frame `sfi explain` reads).
  void record_footprint(u32 index, const PropagationRecord& rec);

  /// Fold this worker's shard into the owning registry now. Called by the
  /// worker thread itself (the only thread allowed to touch the shard) at
  /// flush boundaries, so live readers — the daemon's /metrics scrape —
  /// see near-current totals without racing a foreign shard.
  void fold();

 private:
  friend class CampaignTelemetry;
  WorkerTelemetry(CampaignTelemetry& owner, u32 tid);

  CampaignTelemetry& owner_;
  u32 tid_ = 0;
  telemetry::MetricsShard shard_;
  RunPhaseTimes phases_;
  telemetry::JsonWriter scratch_;  ///< reused per event (no per-event alloc)
  /// Span plane (owner's book; null when the plane is off).
  telemetry::SpanBook* book_ = nullptr;
  telemetry::TailExemplarPolicy exemplar_;
  u64 shard_start_us_ = 0;  ///< open shard span start (wall-anchored)
};

class CampaignTelemetry {
 public:
  explicit CampaignTelemetry(TelemetryConfig cfg = {});
  ~CampaignTelemetry();
  CampaignTelemetry(const CampaignTelemetry&) = delete;
  CampaignTelemetry& operator=(const CampaignTelemetry&) = delete;

  // --- sinks (attach before the campaign starts) ---
  void open_event_log(const std::string& path);
  /// Attach the span plane: a wall-anchored SpanBook every
  /// lifecycle / farm / per-injection hook records into, plus the
  /// tail-latency exemplar policy for per-injection phase slices.
  /// `process_name` labels this process's row in the stitched trace;
  /// `trace_id` scopes the spans to one campaign (0: keep the current id —
  /// workers learn theirs later, from the assignment line). Idempotent.
  void enable_span_plane(std::string process_name, u64 trace_id);
  [[nodiscard]] telemetry::SpanBook* spans() { return span_book_.get(); }

  /// Convert the crash flight recorder's current ring tail into span
  /// instants on this process's row (no-op when either plane is off).
  /// Called on supervision failures: the stitched trace then shows what
  /// the process was doing when its worker died. Line timestamps are on
  /// this telemetry's steady clock and are re-anchored exactly (same
  /// process, same clock).
  void flight_recorder_tail_to_spans(std::string_view reason);

  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return registry_; }
  [[nodiscard]] telemetry::EventLog* events() {
    return events_.is_open() ? &events_ : nullptr;
  }
  [[nodiscard]] const TelemetryConfig& config() const { return cfg_; }

  // --- lifecycle (single-threaded call sites) ---
  // Each lifecycle fact has one field list, rendered by one emitter into
  // both the event log and (when on) the span plane.
  /// `kind` is "campaign" or "beam"; `resumed` the records inherited from a
  /// prior store (0 for fresh / in-memory runs).
  void campaign_start(std::string_view kind, u64 seed, u64 total,
                      u64 resumed);
  /// The resume scan of the store at `store` finished: `resumed` records
  /// are inherited (0 on a fresh run). Event log only.
  void campaign_resumed(u64 resumed, std::string_view store);
  /// The reference run's interval-checkpoint store was built. Emits one
  /// summary event plus per-snapshot ckpt_save records (event-sampled).
  void checkpoint_store_built(std::size_t count, u64 resident_bytes,
                              Cycle interval, double build_seconds,
                              const std::vector<Cycle>& cycles);
  /// The reference run recorded its access timeline (`bytes` resident; 0
  /// past the memory cap). Gauge only.
  void access_timeline_recorded(u64 bytes);
  void campaign_finish(const CampaignAggregate& agg, u64 executed,
                       double wall_seconds);

  // --- farm supervision (coordinator process; single-threaded, so these
  // use the registry's direct low-rate path, not a worker shard) ---
  void farm_worker_spawned(u32 slot, i64 pid, u32 generation);
  /// A worker process ended. `clean` means exit(0) after a Quit; anything
  /// else (signal, nonzero exit, corrupt shard stream) is a crash.
  void farm_worker_exited(u32 slot, i64 pid, bool clean, int detail);
  /// The supervisor SIGKILLed a worker for missing its watchdog deadline.
  /// `in_flight` is the index of the accepted one-index assignment it was
  /// running, the only kind of failure that can strike an index; absent
  /// for any other assignment.
  void farm_watchdog_kill(u32 slot, i64 pid, std::optional<u32> in_flight);
  void farm_shard_retry(u64 shard, u32 attempt, double backoff_seconds);
  /// Injection `index` accumulated K strikes and was recorded HarnessFatal.
  void farm_strikeout(u32 index, u32 strikes);
  /// A live worker went `gap_seconds` without committing a frame (longer
  /// than the warning threshold but short of the watchdog deadline).
  void farm_heartbeat_gap(u32 slot, double gap_seconds);
  /// Worker-process side: the worker sat `seconds` idle between finishing
  /// one assignment and reading the next (`farm.dispatch_wait_seconds`;
  /// reaches the coordinator in the worker's 'M' frames).
  void farm_dispatch_wait(double seconds);

  /// Create the per-worker handles before the pool starts. Idempotent for
  /// the same `n`; references stay stable.
  void prepare_workers(u32 n);
  [[nodiscard]] WorkerTelemetry& worker(u32 tid) { return *workers_[tid]; }

  /// Fold every worker shard into the registry (idempotent: merged shards
  /// are zeroed). Called by campaign_finish; safe to call again.
  void merge_workers();

  // --- fleet view (cross-process aggregation) ---
  /// Keep the latest metrics snapshot a farm worker reported ('M' frame).
  /// Keyed by (slot, generation) so a replacement worker does not erase its
  /// crashed predecessor's final counts. Thread-safe.
  void note_worker_snapshot(u32 slot, u32 generation,
                            telemetry::MetricsSnapshot snap);
  /// The latest snapshot from every worker process ever observed, with
  /// this process's registry folded in last (so its gauges win): the
  /// fleet-wide view /metrics and write_metrics() expose.
  /// Does NOT touch live worker shards (those fold themselves at flush
  /// boundaries), so it is safe to call from any thread mid-campaign.
  /// Approximate under supervised retries: injections a crashed worker
  /// reported before dying are re-run (and re-counted) by its replacement.
  [[nodiscard]] telemetry::MetricsSnapshot fleet_snapshot() const;
  /// Worker processes that have reported at least one snapshot.
  [[nodiscard]] std::size_t fleet_workers() const;

  // --- outputs ---
  /// Merge outstanding shards and write fleet_snapshot() as JSON.
  void write_metrics(const std::string& path);

  /// Microseconds since this telemetry object was created (event stamps).
  [[nodiscard]] u64 now_us() const;

 private:
  friend class WorkerTelemetry;

  TelemetryConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;
  telemetry::MetricsRegistry registry_;
  telemetry::EventLog events_;
  std::vector<std::unique_ptr<WorkerTelemetry>> workers_;

  /// Span plane (enable_span_plane): the process-wide book.
  std::unique_ptr<telemetry::SpanBook> span_book_;
  u64 span_campaign_start_us_ = 0;  ///< campaign root slice start

  // Well-known ids (registered once in the constructor).
  telemetry::CounterId c_injections_;
  telemetry::CounterId c_early_exits_;
  telemetry::CounterId c_dead_on_arrival_;
  telemetry::CounterId c_late_flips_;
  telemetry::CounterId c_pre_read_cycles_skipped_;
  telemetry::CounterId c_tails_certified_;
  telemetry::CounterId c_tail_cycles_skipped_;
  /// Post-fault cycles by exit kind (PostFaultRow).
  std::array<telemetry::CounterId, kNumPostFaultRows> c_post_fault_{};
  telemetry::CounterId c_recoveries_;
  telemetry::CounterId c_polls_;
  telemetry::CounterId c_ff_cycles_;
  telemetry::CounterId c_warm_restores_;
  telemetry::CounterId c_ckpt_materializations_;
  telemetry::CounterId c_shards_;
  telemetry::CounterId c_farm_spawned_;
  telemetry::CounterId c_farm_crashes_;
  telemetry::CounterId c_farm_watchdog_kills_;
  telemetry::CounterId c_farm_retries_;
  telemetry::CounterId c_farm_strikeouts_;
  telemetry::CounterId c_farm_hb_gaps_;
  telemetry::HistogramId h_farm_dispatch_wait_{};
  std::array<telemetry::CounterId, kNumOutcomes> c_outcome_{};
  std::array<telemetry::HistogramId, kNumRunPhases> h_phase_{};
  telemetry::HistogramId h_injection_seconds_{};
  telemetry::HistogramId h_detect_latency_{};
  std::array<telemetry::HistogramId, netlist::kNumUnits> h_detect_unit_{};
  // Propagation forensics (only touched when footprint tracing is on).
  telemetry::CounterId c_footprints_;
  telemetry::CounterId c_fp_rerun_cycles_;
  telemetry::CounterId c_fp_samples_;
  telemetry::CounterId c_fp_masked_;
  telemetry::CounterId c_fp_reached_arch_;
  telemetry::CounterId c_fp_reached_mem_;
  telemetry::CounterId c_fp_truncated_;
  std::array<telemetry::CounterId, netlist::kNumUnits> c_fp_crossed_{};
  telemetry::HistogramId h_fp_peak_bits_{};
  telemetry::HistogramId h_fp_mask_latency_{};
  telemetry::GaugeId g_wall_seconds_{};
  telemetry::GaugeId g_executed_{};
  telemetry::GaugeId g_resumed_{};
  telemetry::GaugeId g_total_{};
  telemetry::GaugeId g_ckpt_count_{};
  telemetry::GaugeId g_ckpt_bytes_{};
  telemetry::GaugeId g_ckpt_interval_{};
  telemetry::GaugeId g_timeline_bytes_{};

  /// Latest per-worker-process snapshots ('M' frames), keyed
  /// (slot << 32) | generation. Guarded by fleet_mu_.
  mutable std::mutex fleet_mu_;
  std::map<u64, telemetry::MetricsSnapshot> worker_snapshots_;
};

}  // namespace sfi::inject
