#include "sfi/telemetry.hpp"

#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "sfi/aggregate.hpp"
#include "sfi/propagation.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"

namespace sfi::inject {

namespace {

/// Power-of-two cycle-latency bounds: 1, 2, 4, ... 2^max_exp.
std::vector<double> pow2_buckets(u32 max_exp) {
  std::vector<double> bounds;
  bounds.reserve(max_exp + 1);
  double b = 1.0;
  for (u32 i = 0; i <= max_exp; ++i, b *= 2.0) bounds.push_back(b);
  return bounds;
}

u64 micros(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<u64>(seconds * 1e6);
}

using telemetry::JsonWriter;
using telemetry::SpanBook;

/// Span form of a fact that stays in the event log only.
constexpr auto kLogOnly = [](SpanBook&, std::string) {};

/// Span form of a farm supervision fact: an instant on the coordinator row.
auto farm_instant(std::string name) {
  return [name = std::move(name)](SpanBook& book, std::string args) {
    book.instant(name, "farm", book.now_us(), 0, std::move(args));
  };
}

/// The one emitter of lifecycle facts. `fields` writes the fact's
/// (non-empty) field list once; the emitter renders it as the event-log
/// line {"ev": ev, "t_us": ..., fields...} and hands the same JSON object
/// to `span` as the args of the span it records when the span plane is on.
/// `supervision` facts (the farm hooks) also reach the crash flight
/// recorder when no event log is attached — exactly the context a
/// postmortem needs (EventLog::emit tees into the recorder on its own).
template <typename Fields, typename Span>
void emit_fact(CampaignTelemetry& tel, std::string_view ev, bool supervision,
               Fields&& fields, Span&& span) {
  constexpr bool log_only =
      std::is_same_v<std::decay_t<Span>, std::decay_t<decltype(kLogOnly)>>;
  telemetry::EventLog* log = tel.events();
  SpanBook* book = log_only ? nullptr : tel.spans();
  auto& recorder = telemetry::FlightRecorder::global();
  const bool to_recorder =
      log == nullptr && supervision && recorder.enabled();
  if (log == nullptr && !to_recorder && book == nullptr) return;
  JsonWriter f;
  f.begin_object();
  fields(f);
  f.end_object();
  const std::string& args = f.str();
  if (log != nullptr || to_recorder) {
    JsonWriter head;
    head.begin_object().field("ev", ev).field("t_us", tel.now_us());
    // The head's object stays open; the field list's closing brace ends it.
    const std::string line = head.str() + ',' + args.substr(1);
    if (log != nullptr) {
      log->emit(line);
    } else {
      recorder.note(line);
    }
  }
  if (book != nullptr) span(*book, args);
}

}  // namespace

WorkerTelemetry::WorkerTelemetry(CampaignTelemetry& owner, u32 tid)
    : owner_(owner),
      tid_(tid),
      shard_(owner.registry_.make_shard()),
      book_(owner.span_book_.get()) {}

void WorkerTelemetry::shard_begin(u64 shard, u64 injections) {
  if (book_ != nullptr) shard_start_us_ = book_->now_us();
  emit_fact(
      owner_, "shard_dispatch", false,
      [&](JsonWriter& f) {
        f.field("shard", shard)
            .field("worker", u64{tid_})
            .field("injections", injections);
      },
      kLogOnly);
}

void WorkerTelemetry::shard_end(u64 shard, u64 executed) {
  shard_.add(owner_.c_shards_);
  emit_fact(
      owner_, "shard_complete", false,
      [&](JsonWriter& f) {
        f.field("shard", shard)
            .field("worker", u64{tid_})
            .field("executed", executed);
      },
      [&](SpanBook& book, std::string args) {
        book.slice("shard " + std::to_string(shard), "shard",
                   shard_start_us_, book.now_us() - shard_start_us_, 0,
                   std::move(args), tid_);
      });
}

void WorkerTelemetry::record_injection(u32 index, const InjectionRecord& rec,
                                       std::optional<Cycle> detect_latency) {
  const RunPhaseTimes& ph = phases_;
  CampaignTelemetry& o = owner_;

  // --- metrics (lock-free: private shard) ---
  shard_.add(o.c_injections_);
  if (rec.early_exited) shard_.add(o.c_early_exits_);
  if (ph.dead_on_arrival) shard_.add(o.c_dead_on_arrival_);
  if (ph.pre_read_cycles_skipped > 0) {
    shard_.add(o.c_late_flips_);
    shard_.add(o.c_pre_read_cycles_skipped_, ph.pre_read_cycles_skipped);
  }
  if (ph.tail_certified) {
    shard_.add(o.c_tails_certified_);
    shard_.add(o.c_tail_cycles_skipped_, ph.tail_cycles_skipped);
  }
  const auto add_cycles = [&](PostFaultRow row, u64 cycles) {
    shard_.add(o.c_post_fault_[static_cast<std::size_t>(row)], cycles);
  };
  switch (rec.outcome) {
    case Outcome::Vanished:
      add_cycles(rec.early_exited ? PostFaultRow::VanishedEarlyExit
                                  : PostFaultRow::VanishedTestEnd,
                 ph.post_fault_cycles);
      break;
    case Outcome::Corrected:
      add_cycles(PostFaultRow::CorrectedToRecoveryEnd,
                 ph.post_fault_cycles - ph.tail_cycles);
      add_cycles(PostFaultRow::CorrectedAfterRecovery, ph.tail_cycles);
      break;
    case Outcome::Hang:
      add_cycles(PostFaultRow::Hang, ph.post_fault_cycles);
      break;
    case Outcome::Checkstop:
      add_cycles(PostFaultRow::Checkstop, ph.post_fault_cycles);
      break;
    case Outcome::BadArchState:
      add_cycles(PostFaultRow::BadArchState, ph.post_fault_cycles);
      break;
    case Outcome::HarnessFatal:
      break;  // assigned by the farm supervisor, never run here
  }
  shard_.add(o.c_recoveries_, rec.recoveries);
  shard_.add(o.c_polls_, ph.polls);
  shard_.add(o.c_ff_cycles_, ph.ff_cycles);
  if (ph.warm_restore) shard_.add(o.c_warm_restores_);
  if (ph.new_checkpoint) shard_.add(o.c_ckpt_materializations_);
  shard_.add(o.c_outcome_[static_cast<std::size_t>(rec.outcome)]);

  for (std::size_t p = 0; p < kNumRunPhases; ++p) {
    shard_.observe(o.h_phase_[p], ph.seconds[p]);
  }
  shard_.observe(o.h_injection_seconds_, ph.total_seconds());
  if (detect_latency) {
    const auto lat = static_cast<double>(*detect_latency);
    shard_.observe(o.h_detect_latency_, lat);
    shard_.observe(o.h_detect_unit_[static_cast<std::size_t>(rec.unit)], lat);
  }

  // --- event log (sampled) ---
  auto* log = o.events();
  if (log != nullptr && ph.new_checkpoint) {
    telemetry::JsonWriter& w = scratch_;
    w.clear();
    w.begin_object()
        .field("ev", "ckpt_restore")
        .field("t_us", o.now_us())
        .field("worker", u64{tid_})
        .field("cycle", ph.restore_cycle)
        .end_object();
    log->emit(w.str());
  }
  const u32 es = o.cfg_.event_sample;
  if (log != nullptr && es != 0 && index % es == 0) {
    telemetry::JsonWriter& w = scratch_;
    w.clear();
    w.begin_object()
        .field("ev", "injection")
        .field("t_us", o.now_us())
        .field("i", u64{index})
        .field("worker", u64{tid_})
        .field("cycle", rec.fault.cycle)
        .field("target",
               rec.fault.target == FaultTarget::Latch ? "latch" : "array")
        .field("ordinal", rec.fault.target == FaultTarget::Latch
                              ? u64{rec.fault.index}
                              : rec.fault.array_bit)
        .field("unit", netlist::to_string(rec.unit))
        .field("type", netlist::to_string(rec.type))
        .field("outcome", to_string(rec.outcome))
        .field("end_cycle", rec.end_cycle)
        .field("early_exit", rec.early_exited)
        .field("recoveries", u64{rec.recoveries});
    if (detect_latency) w.field("detect_latency", *detect_latency);
    w.key("phase_s").begin_object();
    for (std::size_t p = 0; p < kNumRunPhases; ++p) {
      w.field(to_string(static_cast<RunPhase>(p)), ph.seconds[p]);
    }
    w.end_object();
    w.field("polls", ph.polls).field("ff_cycles", ph.ff_cycles).end_object();
    log->emit(w.str());
  }

  // --- span plane (tail-latency exemplar policy) ---
  // Full phase slices for every injection would dominate the 5% budget, so
  // the policy keeps the ones worth looking at: anything over the moving
  // p99 is always recorded and tagged an exemplar with its record id
  // (`"i"`, the index `sfi explain` keys on); the rest sample 1-in-N. A
  // fault retired dead on arrival counts toward the policy's cadence and
  // tail, but it ran no phase, so it has no slice to show.
  if (book_ != nullptr) {
    const u64 us_restore = micros(ph.seconds[0]);
    const u64 us_ff = micros(ph.seconds[1]);
    const u64 us_sim = micros(ph.seconds[2]);
    const u64 us_poll = micros(ph.seconds[3]);
    const u64 us_classify = micros(ph.seconds[4]);
    const u64 total = us_restore + us_ff + us_sim + us_poll + us_classify;
    const auto d = exemplar_.note(total);
    if (d.record && !ph.dead_on_arrival) {
      const u64 end = book_->now_us();
      const u64 start = end > total ? end - total : 0;
      telemetry::JsonWriter& args = scratch_;
      args.clear();
      args.begin_object()
          .field("i", u64{index})
          .field("outcome", to_string(rec.outcome))
          .field("exemplar", d.exemplar)
          .end_object();
      const u64 parent = book_->slice(
          std::string("inject → ") + std::string(to_string(rec.outcome)),
          d.exemplar ? "injection.exemplar" : "injection", start, total, 0,
          args.str(), tid_);
      u64 at = start;
      book_->slice("restore", "phase", at, us_restore, parent, {}, tid_);
      at += us_restore;
      book_->slice("fast-forward", "phase", at, us_ff, parent, {}, tid_);
      at += us_ff;
      book_->slice("post-fault-sim", "phase", at, us_sim + us_poll, parent,
                   {}, tid_);
      at += us_sim + us_poll;
      book_->slice("classify", "phase", at, us_classify, parent, {}, tid_);
    }
  }
  // The retirement consumed this injection's phases: the next run starts
  // from zero, whichever path fills it.
  phases_ = RunPhaseTimes{};
}

void WorkerTelemetry::record_footprint(u32 index,
                                       const PropagationRecord& rec) {
  CampaignTelemetry& o = owner_;

  // --- metrics (lock-free: private shard) ---
  shard_.add(o.c_footprints_);
  shard_.add(o.c_fp_rerun_cycles_, rec.rerun_cycles);
  shard_.add(o.c_fp_samples_, rec.samples.size());
  if (rec.masked) {
    shard_.add(o.c_fp_masked_);
    shard_.observe(o.h_fp_mask_latency_, static_cast<double>(rec.masked_at));
  }
  if (rec.reached_arch) shard_.add(o.c_fp_reached_arch_);
  if (rec.reached_memory) shard_.add(o.c_fp_reached_mem_);
  if (rec.truncated) shard_.add(o.c_fp_truncated_);
  for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
    if (u == static_cast<std::size_t>(rec.unit)) continue;
    if (rec.first_corrupt[u] != kNeverCorrupted) shard_.add(o.c_fp_crossed_[u]);
  }
  shard_.observe(o.h_fp_peak_bits_, static_cast<double>(rec.peak_bits));

  // --- event log (same sampling policy as per-injection records) ---
  auto* log = o.events();
  const u32 es = o.cfg_.event_sample;
  if (log != nullptr && es != 0 && index % es == 0) {
    telemetry::JsonWriter& w = scratch_;
    w.clear();
    w.begin_object()
        .field("ev", "propagation")
        .field("t_us", o.now_us())
        .field("i", u64{rec.index})
        .field("worker", u64{tid_})
        .field("unit", netlist::to_string(rec.unit))
        .field("type", netlist::to_string(rec.type))
        .field("outcome", to_string(rec.outcome))
        .field("peak_bits", u64{rec.peak_bits})
        .field("rerun_cycles", u64{rec.rerun_cycles})
        .field("masked", rec.masked);
    if (rec.masked) w.field("masked_at", rec.masked_at);
    if (rec.detected) w.field("detected_at", rec.detected_at);
    w.field("reached_arch", rec.reached_arch)
        .field("reached_memory", rec.reached_memory)
        .field("truncated", rec.truncated);
    if (rec.checker_fired) {
      w.field("checker", core::checker_name(rec.checker))
          .field("checker_fatal", rec.checker_fatal);
    }
    w.key("samples").begin_array();
    for (const FootprintSample& s : rec.samples) {
      w.begin_array().value(u64{s.offset}).value(u64{s.total_bits}).end_array();
    }
    w.end_array().end_object();
    log->emit(w.str());
  }

  // --- span plane (one zero-length slice per footprint, when it is kept:
  // it is observed on its run and costs no time of its own; the samples
  // themselves are durable in the 'P' frame and shown by `sfi explain`) ---
  if (book_ != nullptr) {
    telemetry::JsonWriter& args = scratch_;
    args.clear();
    args.begin_object()
        .field("i", u64{rec.index})
        .field("peak_bits", u64{rec.peak_bits})
        .field("outcome", to_string(rec.outcome))
        .end_object();
    book_->slice("footprint " + std::string(netlist::to_string(rec.unit)),
                 "footprint", book_->now_us(), 0, 0, args.str(), tid_);
  }
}

CampaignTelemetry::CampaignTelemetry(TelemetryConfig cfg)
    : cfg_(cfg), epoch_(std::chrono::steady_clock::now()) {
  c_injections_ = registry_.counter("injections");
  c_early_exits_ = registry_.counter("early_exits");
  c_dead_on_arrival_ = registry_.counter("dead_on_arrival");
  c_late_flips_ = registry_.counter("late_flips");
  c_pre_read_cycles_skipped_ = registry_.counter("pre_read_cycles_skipped");
  c_tails_certified_ = registry_.counter("tails_certified");
  c_tail_cycles_skipped_ = registry_.counter("tail_cycles_skipped");
  for (std::size_t r = 0; r < kNumPostFaultRows; ++r) {
    c_post_fault_[r] = registry_.counter(
        "post_fault_cycles." +
        std::string(to_string(static_cast<PostFaultRow>(r))));
  }
  c_recoveries_ = registry_.counter("recoveries");
  c_polls_ = registry_.counter("convergence_polls");
  c_ff_cycles_ = registry_.counter("fast_forward_cycles");
  c_warm_restores_ = registry_.counter("warm_restores");
  c_ckpt_materializations_ = registry_.counter("ckpt_materializations");
  c_shards_ = registry_.counter("shards_completed");
  c_farm_spawned_ = registry_.counter("farm.workers_spawned");
  c_farm_crashes_ = registry_.counter("farm.worker_crashes");
  c_farm_watchdog_kills_ = registry_.counter("farm.watchdog_kills");
  c_farm_retries_ = registry_.counter("farm.shard_retries");
  c_farm_strikeouts_ = registry_.counter("farm.strikeouts");
  c_farm_hb_gaps_ = registry_.counter("farm.heartbeat_gaps");
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    c_outcome_[i] = registry_.counter(
        "outcome." + std::string(to_string(kAllOutcomes[i])));
  }
  const std::vector<double> secs = telemetry::exp_buckets(1e-6, 10.0, 3);
  for (std::size_t p = 0; p < kNumRunPhases; ++p) {
    h_phase_[p] = registry_.histogram(
        "phase_seconds." + std::string(to_string(static_cast<RunPhase>(p))),
        secs);
  }
  h_injection_seconds_ = registry_.histogram("injection_seconds", secs);
  h_farm_dispatch_wait_ =
      registry_.histogram("farm.dispatch_wait_seconds", secs);
  const std::vector<double> cyc = pow2_buckets(17);  // 1 .. 128k cycles
  h_detect_latency_ = registry_.histogram("detect_latency_cycles", cyc);
  for (const auto u : netlist::kAllUnits) {
    h_detect_unit_[static_cast<std::size_t>(u)] = registry_.histogram(
        "detect_latency_cycles." + std::string(netlist::to_string(u)), cyc);
  }
  c_footprints_ = registry_.counter("footprint.traced");
  c_fp_rerun_cycles_ = registry_.counter("footprint.rerun_cycles");
  c_fp_samples_ = registry_.counter("footprint.samples");
  c_fp_masked_ = registry_.counter("footprint.masked");
  c_fp_reached_arch_ = registry_.counter("footprint.reached_arch");
  c_fp_reached_mem_ = registry_.counter("footprint.reached_memory");
  c_fp_truncated_ = registry_.counter("footprint.truncated");
  for (const auto u : netlist::kAllUnits) {
    c_fp_crossed_[static_cast<std::size_t>(u)] = registry_.counter(
        "footprint.crossed." + std::string(netlist::to_string(u)));
  }
  h_fp_peak_bits_ = registry_.histogram("footprint.peak_bits",
                                        pow2_buckets(12));  // 1 .. 4k bits
  h_fp_mask_latency_ = registry_.histogram("footprint.mask_latency_cycles",
                                           cyc);
  g_wall_seconds_ = registry_.gauge("wall_seconds");
  g_executed_ = registry_.gauge("executed");
  g_resumed_ = registry_.gauge("resumed");
  g_total_ = registry_.gauge("total_injections");
  g_ckpt_count_ = registry_.gauge("ckpt.count");
  g_ckpt_bytes_ = registry_.gauge("ckpt.resident_bytes");
  g_ckpt_interval_ = registry_.gauge("ckpt.interval_cycles");
  g_timeline_bytes_ = registry_.gauge("golden.timeline_bytes");
}

CampaignTelemetry::~CampaignTelemetry() = default;

u64 CampaignTelemetry::now_us() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - epoch_)
                              .count());
}

void CampaignTelemetry::open_event_log(const std::string& path) {
  events_.open(path);
}

void CampaignTelemetry::enable_span_plane(std::string process_name,
                                          u64 trace_id) {
  if (!span_book_) {
    span_book_ =
        std::make_unique<telemetry::SpanBook>(std::move(process_name));
    span_campaign_start_us_ = span_book_->wall_epoch_us();
    // Late enablement: handles made before the plane was on pick up the
    // book here (prepare_workers is idempotent and keeps references).
    for (const auto& w : workers_) w->book_ = span_book_.get();
  } else if (!process_name.empty()) {
    span_book_->set_process_name(std::move(process_name));
  }
  if (trace_id != 0) span_book_->set_trace_id(trace_id);
}

void CampaignTelemetry::flight_recorder_tail_to_spans(
    std::string_view reason) {
  if (!span_book_) return;
  auto& recorder = telemetry::FlightRecorder::global();
  if (!recorder.enabled()) return;
  // Lines are stamped on this telemetry's steady clock ("t_us"); the book
  // shares the process, so the wall offset between the two clocks is exact.
  const u64 wall_offset = span_book_->now_us() - now_us();
  telemetry::JsonWriter name;
  for (const std::string& line : recorder.snapshot()) {
    name.clear();
    name.begin_object().field("reason", reason).field("line", line)
        .end_object();
    span_book_->instant(telemetry::recorded_event(line), "flight_recorder",
                        telemetry::recorded_t_us(line) + wall_offset, 0,
                        name.str());
  }
}

void CampaignTelemetry::campaign_start(std::string_view kind, u64 seed,
                                       u64 total, u64 resumed) {
  registry_.set_gauge(g_total_, static_cast<double>(total));
  registry_.set_gauge(g_resumed_, static_cast<double>(resumed));
  emit_fact(
      *this, "campaign_start", false,
      [&](JsonWriter& f) {
        f.field("kind", kind)
            .field("seed", seed)
            .field("total", total)
            .field("resumed", resumed);
      },
      [this](SpanBook& book, std::string args) {
        span_campaign_start_us_ = book.now_us();
        book.instant("campaign start", "lifecycle", span_campaign_start_us_,
                     0, std::move(args));
      });
}

void CampaignTelemetry::campaign_resumed(u64 resumed,
                                         std::string_view store) {
  emit_fact(
      *this, "resume", false,
      [&](JsonWriter& f) {
        f.field("resumed", resumed).field("store", store);
      },
      kLogOnly);
}

void CampaignTelemetry::checkpoint_store_built(
    std::size_t count, u64 resident_bytes, Cycle interval,
    double build_seconds, const std::vector<Cycle>& cycles) {
  registry_.set_gauge(g_ckpt_count_, static_cast<double>(count));
  registry_.set_gauge(g_ckpt_bytes_, static_cast<double>(resident_bytes));
  registry_.set_gauge(g_ckpt_interval_, static_cast<double>(interval));
  emit_fact(
      *this, "ckpt_store", false,
      [&](JsonWriter& f) {
        f.field("count", u64{count})
            .field("resident_bytes", resident_bytes)
            .field("interval", interval)
            .field("build_seconds", build_seconds);
      },
      [&](SpanBook& book, std::string args) {
        const u64 end = book.now_us();
        const u64 dur = micros(build_seconds);
        book.slice("build checkpoint store", "plan",
                   end > dur ? end - dur : 0, dur, 0, std::move(args));
      });
  // Per-snapshot saves are per-item facts: event log only, sampled.
  if (auto* log = events()) {
    const u32 es = cfg_.event_sample == 0 ? 1 : cfg_.event_sample;
    for (std::size_t i = 0; i < cycles.size(); i += es) {
      JsonWriter s;
      s.begin_object()
          .field("ev", "ckpt_save")
          .field("t_us", now_us())
          .field("index", u64{i})
          .field("cycle", cycles[i])
          .end_object();
      log->emit(s.str());
    }
  }
}

void CampaignTelemetry::access_timeline_recorded(u64 bytes) {
  registry_.set_gauge(g_timeline_bytes_, static_cast<double>(bytes));
}

void CampaignTelemetry::campaign_finish(const CampaignAggregate& agg,
                                        u64 executed, double wall_seconds) {
  merge_workers();
  registry_.set_gauge(g_wall_seconds_, wall_seconds);
  registry_.set_gauge(g_executed_, static_cast<double>(executed));
  emit_fact(
      *this, "campaign_finish", false,
      [&](JsonWriter& f) {
        f.field("executed", executed).field("wall_seconds", wall_seconds);
        f.key("outcomes").begin_object();
        for (const auto o : kAllOutcomes) {
          f.field(to_string(o), agg.counts.of(o));
        }
        f.end_object();
      },
      [this](SpanBook& book, std::string args) {
        const u64 end = book.now_us();
        book.slice("campaign", "lifecycle", span_campaign_start_us_,
                   end > span_campaign_start_us_
                       ? end - span_campaign_start_us_
                       : 0,
                   0, std::move(args));
      });
  if (auto* log = events()) log->flush();
}

void CampaignTelemetry::farm_worker_spawned(u32 slot, i64 pid,
                                            u32 generation) {
  registry_.add(c_farm_spawned_);
  emit_fact(
      *this, "farm_spawn", true,
      [&](JsonWriter& f) {
        f.field("slot", u64{slot})
            .field("pid", pid)
            .field("generation", u64{generation});
      },
      farm_instant("spawn worker " + std::to_string(slot)));
}

void CampaignTelemetry::farm_worker_exited(u32 slot, i64 pid, bool clean,
                                           int detail) {
  if (!clean) registry_.add(c_farm_crashes_);
  emit_fact(
      *this, "farm_exit", true,
      [&](JsonWriter& f) {
        f.field("slot", u64{slot})
            .field("pid", pid)
            .field("clean", clean)
            .field("detail", i64{detail});
      },
      farm_instant((clean ? "worker exit " : "worker crash ") +
                   std::to_string(slot)));
}

void CampaignTelemetry::farm_watchdog_kill(u32 slot, i64 pid,
                                           std::optional<u32> in_flight) {
  registry_.add(c_farm_watchdog_kills_);
  emit_fact(
      *this, "farm_watchdog_kill", true,
      [&](JsonWriter& f) {
        f.field("slot", u64{slot}).field("pid", pid);
        if (in_flight) f.field("in_flight", u64{*in_flight});
      },
      farm_instant("watchdog kill " + std::to_string(slot)));
}

void CampaignTelemetry::farm_shard_retry(u64 shard, u32 attempt,
                                         double backoff_seconds) {
  registry_.add(c_farm_retries_);
  emit_fact(
      *this, "farm_retry", true,
      [&](JsonWriter& f) {
        f.field("shard", shard)
            .field("attempt", u64{attempt})
            .field("backoff_seconds", backoff_seconds);
      },
      [&](SpanBook& book, std::string args) {
        // The backoff window is a real slice of campaign wall time:
        // dispatch of this shard is deferred until the slice's right edge.
        book.slice("retry shard " + std::to_string(shard) + " backoff",
                   "farm.retry", book.now_us(), micros(backoff_seconds), 0,
                   std::move(args));
      });
}

void CampaignTelemetry::farm_strikeout(u32 index, u32 strikes) {
  registry_.add(c_farm_strikeouts_);
  // "i": the record id, named as in injection/propagation events and
  // exemplar spans.
  emit_fact(
      *this, "farm_strikeout", true,
      [&](JsonWriter& f) {
        f.field("i", u64{index}).field("strikes", u64{strikes});
      },
      farm_instant("strikeout i=" + std::to_string(index)));
}

void CampaignTelemetry::farm_heartbeat_gap(u32 slot, double gap_seconds) {
  registry_.add(c_farm_hb_gaps_);
  emit_fact(
      *this, "farm_heartbeat_gap", true,
      [&](JsonWriter& f) {
        f.field("slot", u64{slot}).field("gap_seconds", gap_seconds);
      },
      kLogOnly);
}

void CampaignTelemetry::farm_dispatch_wait(double seconds) {
  registry_.observe(h_farm_dispatch_wait_, seconds);
}

void CampaignTelemetry::prepare_workers(u32 n) {
  while (workers_.size() < n) {
    const u32 tid = static_cast<u32>(workers_.size());
    workers_.push_back(
        std::unique_ptr<WorkerTelemetry>(new WorkerTelemetry(*this, tid)));
  }
}

void CampaignTelemetry::merge_workers() {
  for (const auto& w : workers_) registry_.merge(w->shard_);
}

void WorkerTelemetry::fold() { owner_.registry_.merge(shard_); }

void CampaignTelemetry::note_worker_snapshot(u32 slot, u32 generation,
                                             telemetry::MetricsSnapshot snap) {
  const u64 key = (static_cast<u64>(slot) << 32) | generation;
  const std::lock_guard<std::mutex> lock(fleet_mu_);
  worker_snapshots_[key] = std::move(snap);
}

telemetry::MetricsSnapshot CampaignTelemetry::fleet_snapshot() const {
  // Workers first, this registry last: gauges are last-write-wins, and the
  // workers never set the campaign-level ones (total_injections,
  // wall_seconds, ckpt.*), so folding them last would zero this process's.
  telemetry::MetricsSnapshot fleet;
  {
    const std::lock_guard<std::mutex> lock(fleet_mu_);
    for (const auto& [key, snap] : worker_snapshots_) fleet.merge_from(snap);
  }
  fleet.merge_from(registry_.snapshot());
  return fleet;
}

std::size_t CampaignTelemetry::fleet_workers() const {
  const std::lock_guard<std::mutex> lock(fleet_mu_);
  return worker_snapshots_.size();
}

void CampaignTelemetry::write_metrics(const std::string& path) {
  merge_workers();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open metrics output " + path);
  const std::string json = fleet_snapshot().to_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.put('\n');
}

}  // namespace sfi::inject
