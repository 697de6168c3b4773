#include "farm/farm.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/core_model.hpp"
#include "farm/process.hpp"
#include "store/merge.hpp"
#include "store/tail.hpp"
#include "store/trace_stitch.hpp"
#include "store/writer.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"

namespace sfi::farm {

namespace {

bool is_local_host(const std::string& host) {
  return host == "localhost" || host == "local" || host == "127.0.0.1" ||
         host == "::1";
}

/// Shard of campaign indices plus its retry state.
struct WorkShard {
  u64 id = 0;
  std::vector<u32> indices;
  u32 attempt = 0;
  double not_before = 0.0;  ///< steady seconds; backoff gate
};

/// One worker slot: the process currently (or last) occupying it, the shard
/// file it writes, and the commit-aware tail the coordinator reads it by.
struct Slot {
  u32 id = 0;
  u32 generation = 0;  ///< respawn count (fresh shard file per generation)
  std::string host;    ///< empty in fork-call mode
  ChildProcess proc;
  std::unique_ptr<store::FrameTail> tail;
  std::string shard_path;
  bool alive = false;
  bool started = false;  ///< any committed frame seen this generation
  bool gap_warned = false;
  std::optional<WorkShard> current;
  std::optional<u32> in_flight;  ///< last committed heartbeat's index
  double last_activity = 0.0;    ///< steady seconds of last committed frame
  double spawned_at = 0.0;
};

std::string shard_file_path(const std::string& out_path, u32 slot,
                            u32 generation) {
  return store::store_sibling(out_path, ".w" + std::to_string(slot) + "g" +
                                            std::to_string(generation) +
                                            ".sfr");
}

/// True if `path` exists and opens as a store (header intact) — i.e. it can
/// contribute to the merge. Shards of workers killed before the header hit
/// the disk fail this and are rightly excluded.
bool usable_store(const std::string& path) {
  if (!std::filesystem::exists(path)) return false;
  try {
    store::StoreReader probe(path, {.tolerate_torn_tail = true});
    return true;
  } catch (const store::StoreError&) {
    return false;
  }
}

/// Trailing `<trace_id> <dispatch_span_id>` tokens are the span plane's
/// compatible extension: parse_assignment reads exactly `count` indices, so
/// older workers never see them and newer workers treat them as optional.
std::string assignment_line(const WorkShard& shard, u64 trace_id,
                            u64 dispatch_span) {
  std::ostringstream line;
  line << "A " << shard.id << " " << shard.attempt << " "
       << shard.indices.size();
  for (const u32 i : shard.indices) line << " " << i;
  if (trace_id != 0) line << " " << trace_id << " " << dispatch_span;
  return line.str();
}

}  // namespace

std::vector<HostSlot> parse_hosts_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open hosts file: " + path);
  std::vector<HostSlot> hosts;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    HostSlot hs;
    if (!(fields >> hs.host)) continue;  // blank / comment-only line
    if (!(fields >> hs.slots)) hs.slots = 1;
    if (hs.slots == 0) {
      throw std::runtime_error("hosts file: zero slots for " + hs.host);
    }
    hosts.push_back(std::move(hs));
  }
  if (hosts.empty()) {
    throw std::runtime_error("hosts file has no usable entries: " + path);
  }
  return hosts;
}

FarmResult run_farm_campaign(const avp::Testcase& tc,
                             const inject::CampaignConfig& cfg,
                             const std::string& out_path,
                             const FarmConfig& farm, bool resume) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto now_s = [t0] {
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

  ignore_sigpipe();

  const bool exec_mode = !farm.hosts.empty();
  if (exec_mode && farm.worker_command.empty()) {
    throw std::runtime_error(
        "farm: hosts given but no worker command to exec");
  }

  inject::CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) {
    tel->campaign_start("campaign", cfg.seed, cfg.num_injections,
                        /*resumed=*/0);
  }

  const inject::CampaignPlan plan = inject::plan_campaign(tc, cfg);
  const store::CampaignMeta meta = sched::make_campaign_meta(tc, cfg, plan);

  // --- span plane: coordinator book + durable sidecar ---
  const bool spans_on = farm.trace_spans && tel != nullptr;
  u64 trace_id = 0;
  std::optional<store::StoreWriter> sidecar;
  if (spans_on) {
    trace_id = farm.trace_id;
    if (trace_id == 0) {
      // Campaign-scoped, fleet-unique enough: fingerprint ties the id to
      // the campaign, wall microseconds split re-runs of the same one.
      trace_id = meta.config_fingerprint ^
                 static_cast<u64>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count());
      if (trace_id == 0) trace_id = 1;
    }
    tel->enable_span_plane("sfi farm", trace_id);
    sidecar.emplace(store::StoreWriter::create(
        store::store_sibling(out_path, store::kTraceSidecarSuffix), meta));
  }
  // Drain the coordinator's own book into the sidecar, keeping a copy for
  // the live /trace view. Called opportunistically from the supervision
  // loop and once at the very end (after campaign_finish's root slice).
  const auto flush_own_spans = [&] {
    if (!sidecar || tel == nullptr || tel->spans() == nullptr) return;
    const std::vector<telemetry::SpanRecord> drained = tel->spans()->drain();
    if (drained.empty()) return;
    for (const telemetry::SpanRecord& sp : drained) sidecar->append_span(sp);
    sidecar->flush();
    tel->retain_spans(drained);
  };

  FarmResult result;
  result.meta = meta;

  // done[i]: a committed record for i exists (inherited from the prior
  // output store, read only as merge input, or from a worker this run).
  // struck: indices declared HarnessFatal.
  sched::PriorRecords prior =
      sched::inherit_records(out_path, meta, resume, tel, farm.on_record);
  std::vector<bool>& done = prior.done;
  std::set<u32> struck;
  std::map<u32, u32> strikes;
  u64 done_count = prior.count;
  result.resumed = prior.count;

  std::vector<std::string> merge_inputs;
  if (prior.exists) merge_inputs.push_back(out_path);

  // --- shard the remaining index space, cycle-sorted (checkpoint-hot) ---
  std::deque<WorkShard> queue;
  {
    const u32 shard_size = std::max(1u, farm.shard_size);
    WorkShard cur;
    u64 next_id = 0;
    for (const u32 i : plan.cycle_sorted_indices()) {
      if (done[i]) continue;
      cur.indices.push_back(i);
      if (cur.indices.size() >= shard_size) {
        cur.id = next_id++;
        queue.push_back(std::move(cur));
        cur = WorkShard{};
      }
    }
    if (!cur.indices.empty()) {
      cur.id = next_id++;
      queue.push_back(std::move(cur));
    }
  }
  u64 remaining = 0;
  for (const WorkShard& s : queue) remaining += s.indices.size();

  const auto report_progress = [&] {
    if (!farm.on_progress) return;
    farm.on_progress({done_count + struck.size(), cfg.num_injections,
                      result.resumed, result.executed, now_s(),
                      steady_us_now()});
  };
  report_progress();

  // --- worker slots ---
  std::vector<Slot> slots;
  if (exec_mode) {
    u32 id = 0;
    for (const HostSlot& hs : farm.hosts) {
      for (u32 k = 0; k < hs.slots; ++k) {
        Slot s;
        s.id = id++;
        s.host = hs.host;
        slots.push_back(std::move(s));
      }
    }
  } else {
    const u32 n = std::max(1u, farm.workers);
    for (u32 id = 0; id < n; ++id) {
      Slot s;
      s.id = id;
      slots.push_back(std::move(s));
    }
  }

  const auto spawn_slot = [&](Slot& s) {
    ++s.generation;
    s.shard_path = shard_file_path(out_path, s.id, s.generation);
    std::filesystem::remove(s.shard_path);  // stale file from a prior run
    s.tail = std::make_unique<store::FrameTail>(s.shard_path);
    if (exec_mode) {
      std::vector<std::string> argv;
      if (!is_local_host(s.host)) {
        argv.push_back("ssh");
        argv.push_back(s.host);
      }
      argv.insert(argv.end(), farm.worker_command.begin(),
                  farm.worker_command.end());
      argv.push_back("--shard-store");
      argv.push_back(s.shard_path);
      argv.push_back("--worker-id");
      argv.push_back(std::to_string(s.id));
      if (farm.trace_spans) argv.push_back("--trace-spans");
      s.proc = spawn_exec(argv);
    } else {
      const WorkerOptions wo{s.id,          s.shard_path,
                             /*control_fd=*/-1,
                             farm.sabotage, farm.metrics_every,
                             farm.trace_spans};
      s.proc = spawn_call([&tc, &cfg, &plan, wo](int control_fd) {
        WorkerOptions opts = wo;
        opts.control_fd = control_fd;
        return run_worker(tc, cfg, opts, &plan);
      });
    }
    s.alive = true;
    s.started = false;
    s.gap_warned = false;
    s.current.reset();
    s.in_flight.reset();
    s.spawned_at = now_s();
    s.last_activity = s.spawned_at;
    ++result.workers_spawned;
    if (tel != nullptr) {
      tel->farm_worker_spawned(s.id, s.proc.pid, s.generation);
    }
  };

  // Crash flight recorder: every supervision failure rewrites the
  // postmortem file with the ring's current contents, so the artifact that
  // survives is the last seconds before the most recent fatality.
  const auto postmortem = [&farm, tel, spans_on] {
    auto& recorder = telemetry::FlightRecorder::global();
    if (!farm.postmortem_path.empty() && recorder.enabled()) {
      recorder.dump(farm.postmortem_path);
    }
    // The same ring tail, as trace instants: the stitched timeline shows
    // what the fleet was doing in the seconds around the fatality.
    if (spans_on) {
      tel->flight_recorder_tail_to_spans("supervision failure");
    }
  };

  // Strike bookkeeping for one failed worker: finger the culprit, requeue
  // the unfinished remainder with backoff, and free the slot.
  u64 failures_without_progress = 0;
  const auto handle_failure = [&](Slot& s) {
    ++failures_without_progress;
    close_control(s.proc);
    s.alive = false;
    if (s.in_flight && *s.in_flight < cfg.num_injections &&
        !done[*s.in_flight] && !struck.contains(*s.in_flight)) {
      const u32 culprit = *s.in_flight;
      const u32 n_strikes = ++strikes[culprit];
      if (n_strikes >= farm.max_strikes) {
        struck.insert(culprit);
        --remaining;
        if (tel != nullptr) tel->farm_strikeout(culprit, n_strikes);
      }
    }
    if (s.current) {
      WorkShard retry;
      retry.id = s.current->id;
      retry.attempt = s.current->attempt + 1;
      for (const u32 i : s.current->indices) {
        if (!done[i] && !struck.contains(i)) retry.indices.push_back(i);
      }
      s.current.reset();
      if (!retry.indices.empty()) {
        const double backoff = std::min(
            farm.backoff_cap_seconds,
            farm.backoff_base_seconds *
                static_cast<double>(1ull << std::min<u32>(retry.attempt - 1,
                                                          20)));
        retry.not_before = now_s() + backoff;
        ++result.shard_retries;
        if (tel != nullptr) {
          tel->farm_shard_retry(retry.id, retry.attempt, backoff);
        }
        queue.push_back(std::move(retry));
      }
    }
    // The dead generation's shard file stays: its committed records are
    // merge input. (usable_store filters headerless stubs later.)
    postmortem();
  };

  // Frame delivery from one slot's tail.
  const auto deliver = [&](Slot& s, u8 kind, std::span<const u8> payload) {
    switch (kind) {
      case store::kHeartbeatFrame: {
        const store::HeartbeatFrame hb = store::decode_heartbeat(payload);
        if (hb.index != store::kHeartbeatIdle) s.in_flight = hb.index;
        break;
      }
      case store::kRecordFrame: {
        const store::StoredRecord sr = store::decode_record(payload);
        if (sr.index < cfg.num_injections && !done[sr.index]) {
          done[sr.index] = true;
          ++done_count;
          ++result.executed;
          if (remaining > 0) --remaining;
          failures_without_progress = 0;
          // Coordinator-side live tallies: farm workers report through
          // their shard stores, so this is where the progress line's
          // outcome mix (and its Wilson half-width) comes from.
          if (tel != nullptr) tel->live_outcome_add(sr.rec.outcome);
          if (farm.on_record) farm.on_record(sr);
        }
        break;
      }
      case store::kMetricsFrame: {
        if (tel == nullptr) break;
        try {
          store::MetricsFrame mf = store::decode_metrics(payload);
          tel->note_worker_snapshot(s.id, s.generation,
                                    std::move(mf.snapshot));
        } catch (const store::StoreError&) {
          // A snapshot a newer/older worker encoded differently is an
          // observability loss, never a campaign failure.
        }
        break;
      }
      case store::kSpanFrame: {
        if (!spans_on) break;
        try {
          const telemetry::SpanRecord sp = store::decode_span(payload);
          if (sidecar) {
            sidecar->append_span(sp);
          }
          tel->retain_spans({sp});
        } catch (const store::StoreError&) {
          // Same policy as 'M': a span another version encoded differently
          // is an observability loss, never a campaign failure.
        }
        break;
      }
      default:
        break;  // 'A' echoes, 'P' footprints: liveness only
    }
  };

  const u64 spawn_sanity_cap =
      static_cast<u64>(slots.size()) * (farm.max_strikes + 2) + 16;

  // Initial spawns: no more workers than shards to hand out.
  {
    u64 to_spawn = std::min<u64>(slots.size(), queue.size());
    for (Slot& s : slots) {
      if (to_spawn == 0) break;
      spawn_slot(s);
      --to_spawn;
    }
  }

  // --- supervision loop (single-threaded poll) ---
  while (remaining > 0) {
    if (farm.should_stop && farm.should_stop()) {
      result.stopped = true;
      break;
    }

    const double now = now_s();
    u64 delivered_total = 0;

    for (Slot& s : slots) {
      if (!s.alive) continue;

      // 1. committed frames since last poll
      const std::size_t delivered = s.tail->poll(
          [&](u8 kind, std::span<const u8> payload) { deliver(s, kind, payload); });
      if (delivered > 0) {
        delivered_total += delivered;
        s.started = true;
        s.last_activity = now;
        s.gap_warned = false;
      }
      // Assignment complete once every index has a committed record (or was
      // struck out by another route): the slot is idle again.
      if (s.current &&
          std::all_of(s.current->indices.begin(), s.current->indices.end(),
                      [&](u32 i) { return done[i] || struck.contains(i); })) {
        s.current.reset();
        s.in_flight.reset();
      }
      if (s.tail->corrupt()) {
        kill_hard(s.proc);
        bool clean = false;
        int detail = 0;
        reap(s.proc, clean, detail);
        ++result.worker_crashes;
        if (tel != nullptr) {
          tel->farm_worker_exited(s.id, s.proc.pid, false, detail);
        }
        handle_failure(s);
        continue;
      }

      // 2. unexpected exit (a live worker only exits after Quit)
      bool clean = false;
      int detail = 0;
      if (try_reap(s.proc, clean, detail)) {
        // Drain any frames committed between the last poll and death.
        s.tail->poll([&](u8 kind, std::span<const u8> payload) {
          deliver(s, kind, payload);
        });
        ++result.worker_crashes;
        if (tel != nullptr) {
          tel->farm_worker_exited(s.id, s.proc.pid, false, detail);
        }
        handle_failure(s);
        continue;
      }

      // 3. watchdog: no committed frame for too long
      const double deadline =
          s.started ? (s.current ? farm.watchdog_seconds : 0.0)
                    : farm.startup_seconds;
      if (deadline > 0.0) {
        const double gap = now - s.last_activity;
        if (gap > deadline) {
          kill_hard(s.proc);
          reap(s.proc, clean, detail);
          ++result.watchdog_kills;
          if (tel != nullptr) {
            tel->farm_watchdog_kill(s.id, s.proc.pid, s.in_flight);
          }
          handle_failure(s);
          continue;
        }
        if (gap > deadline / 2.0 && !s.gap_warned) {
          s.gap_warned = true;
          ++result.heartbeat_gaps;
          if (tel != nullptr) tel->farm_heartbeat_gap(s.id, gap);
        }
      }
    }

    if (delivered_total > 0) report_progress();
    if (remaining == 0) break;

    if (failures_without_progress > spawn_sanity_cap) {
      throw std::runtime_error(
          "farm: workers keep dying without progress (" +
          std::to_string(result.workers_spawned) +
          " spawned) — giving up; see the shard files next to " + out_path);
    }

    // 4. dispatch ready shards to idle workers (respawning dead slots when
    // there is work for them)
    for (Slot& s : slots) {
      if (queue.empty()) break;
      if (s.alive && s.current) continue;
      // Find the first ready shard (backoff-gated entries wait).
      auto ready = queue.end();
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->not_before <= now_s()) {
          ready = it;
          break;
        }
      }
      if (ready == queue.end()) break;
      WorkShard shard = std::move(*ready);
      queue.erase(ready);
      // Drop indices that committed or struck out since enqueueing.
      std::erase_if(shard.indices, [&](u32 i) {
        return done[i] || struck.contains(i);
      });
      if (shard.indices.empty()) continue;
      if (!s.alive) spawn_slot(s);
      // Dispatch span: the worker parents its shard slice under this id,
      // which is how the stitched trace links coordinator to worker.
      u64 dispatch_span = 0;
      if (spans_on && tel->spans() != nullptr) {
        telemetry::SpanBook* book = tel->spans();
        telemetry::JsonWriter args;
        args.begin_object()
            .field("shard", shard.id)
            .field("attempt", shard.attempt)
            .field("indices", shard.indices.size())
            .field("slot", s.id)
            .end_object();
        dispatch_span = book->instant(
            "dispatch shard " + std::to_string(shard.id), "farm.dispatch",
            book->now_us(), 0, args.str());
      }
      if (!send_line(s.proc, assignment_line(shard, trace_id,
                                             dispatch_span))) {
        // The pipe died before the assignment landed; the reap branch next
        // iteration handles the corpse. Requeue this shard immediately.
        shard.not_before = now_s() + farm.backoff_base_seconds;
        queue.push_back(std::move(shard));
        continue;
      }
      s.current = std::move(shard);
      s.gap_warned = false;
      // New assignment, fresh watchdog window.
      s.last_activity = now_s();
      ++result.assignments;
    }

    flush_own_spans();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.001, farm.poll_seconds)));
  }

  // --- drain ---
  if (result.stopped) {
    // Interrupted: in-flight workers are killed; their committed records
    // are already on disk and the campaign resumes from the merge below.
    for (Slot& s : slots) {
      if (!s.alive) continue;
      kill_hard(s.proc);
      bool clean = false;
      int detail = 0;
      reap(s.proc, clean, detail);
      close_control(s.proc);
      s.tail->poll(
          [&](u8 kind, std::span<const u8> payload) { deliver(s, kind, payload); });
      s.alive = false;
      if (tel != nullptr) {
        tel->farm_worker_exited(s.id, s.proc.pid, false, detail);
      }
    }
  } else {
    for (Slot& s : slots) {
      if (!s.alive) continue;
      send_line(s.proc, "Q");
      close_control(s.proc);  // EOF backs up the Quit
    }
    const double drain_deadline =
        now_s() + std::max(5.0, farm.watchdog_seconds);
    for (Slot& s : slots) {
      if (!s.alive) continue;
      bool clean = false;
      int detail = 0;
      bool reaped = false;
      while (now_s() < drain_deadline) {
        if (try_reap(s.proc, clean, detail)) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!reaped) {
        kill_hard(s.proc);
        reap(s.proc, clean, detail);
      }
      s.tail->poll(
          [&](u8 kind, std::span<const u8> payload) { deliver(s, kind, payload); });
      s.alive = false;
      if (tel != nullptr) {
        tel->farm_worker_exited(s.id, s.proc.pid, clean, detail);
      }
    }
  }
  report_progress();

  // --- synthesize HarnessFatal records for struck-out injections ---
  std::string synth_path;
  if (!struck.empty()) {
    synth_path = shard_file_path(out_path, 0, 0) + ".hf";
    // One model purely for record metadata (unit/type of the faulted
    // latch); nothing is simulated.
    const core::Pearl6Model model(cfg.core);
    store::StoreWriter synth = store::StoreWriter::create(synth_path, meta);
    for (const u32 i : struck) {
      const inject::FaultSpec& fault = plan.faults[i];
      inject::RunResult rr;
      rr.outcome = inject::Outcome::HarnessFatal;
      // The harness died at the injection, so the fault cycle is the last
      // cycle this run meaningfully reached.
      rr.end_cycle = fault.cycle;
      synth.append({i, inject::make_record(model, fault, rr)});
      result.harness_fatal.push_back(i);
    }
    synth.flush();
  }

  // --- canonical merge: shard stores (+ prior store on resume, + struck
  // synthesics) -> out_path ---
  for (const Slot& s : slots) {
    for (u32 g = 1; g <= s.generation; ++g) {
      const std::string path = shard_file_path(out_path, s.id, g);
      if (usable_store(path)) merge_inputs.push_back(path);
    }
  }
  if (!synth_path.empty()) merge_inputs.push_back(synth_path);

  if (merge_inputs.empty()) {
    // Nothing ran and nothing resumed (e.g. n == 0 shards with a fresh
    // out): write an empty-but-valid store so out_path always exists.
    store::StoreWriter empty = store::StoreWriter::create(out_path, meta);
    empty.flush();
  } else {
    const store::MergeSummary summary = store::merge_stores(
        merge_inputs, out_path, {.tolerate_torn_tail = true});
    result.complete = summary.missing == 0;
  }

  if (!farm.keep_shards) {
    std::error_code ec;
    for (const Slot& s : slots) {
      for (u32 g = 1; g <= s.generation; ++g) {
        std::filesystem::remove(shard_file_path(out_path, s.id, g), ec);
      }
    }
    if (!synth_path.empty()) std::filesystem::remove(synth_path, ec);
  }

  {
    auto [out_meta, agg] = store::aggregate_store(out_path);
    result.meta = out_meta;
    result.agg = agg;
  }
  result.wall_seconds = now_s();
  if (tel != nullptr) {
    tel->campaign_finish(result.agg, result.executed, result.wall_seconds);
  }
  // Final drain after the campaign root slice so the sidecar is complete.
  flush_own_spans();
  return result;
}

}  // namespace sfi::farm
