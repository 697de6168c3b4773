// sfi — the command-line front end of the Statistical Fault Injection
// framework.
//
//   sfi inventory                          latch/array population report
//   sfi campaign [options]                 run a fault-injection campaign
//   sfi worker   --shard-store FILE        farm worker (spawned by campaign
//                                          --farm; reads stdin assignments)
//   sfi report   --from FILE               regenerate tables from a store
//   sfi explain  --from FILE               fault-propagation forensics report
//   sfi merge    --out FILE IN...          merge campaign store shards
//   sfi beam     [options]                 run a simulated beam exposure
//   sfi trace    --latch NAME [options]    trace one fault cause→effect
//   sfi trace    STORE.sfr [--out FILE]    stitch a campaign's distributed
//                                          span plane into Perfetto JSON
//   sfi mix      [options]                 AVP instruction mix & CPI
//   sfi derate   [options]                 derating factors & FIT budget
//   sfi serve    --state-dir DIR           multi-tenant campaign daemon
//   sfi submit   --connect ADDR [options]  submit a campaign to a daemon
//   sfi status   --connect ADDR            daemon + campaign status
//   sfi watch    --connect ADDR --id N     stream a campaign's events
//   sfi shutdown --connect ADDR            graceful daemon stop
//   sfi top      --http ADDR               live per-campaign fleet table
//
// Common options:
//   --seed N              experiment seed               (default 42)
//   --testcase-seed N     AVP workload seed             (default 2026)
//   --instructions N      AVP testcase length           (default 160)
// Campaign/beam options:
//   --n N                 injections / beam events      (default 1000)
//   --threads N           worker threads                (default: hw)
//   --unit U              restrict to one unit (IFU..RUT, Core)
//   --type T              restrict to one latch type (FUNC/REGFILE/MODE/GPTR)
//   --raw                 mask all core checkers (Table 3 "Raw")
//   --sticky D            sticky faults of D cycles instead of toggles
//   --ckpt-interval N     reference-run checkpoint every N cycles so each
//                         injection warm-starts instead of replaying from
//                         cycle 0 (0 = off; default: auto from window size
//                         and the memory budget). Never changes outcomes.
//   --ckpt-mem MIB        checkpoint memory budget in MiB (default 64)
//   --engine E            injection engine: scalar (one in-flight injection
//                         per worker) or lanes (N in-flight injections as
//                         XOR-diff lanes over one shared reference replay;
//                         several times faster on checker-on campaigns —
//                         see bench/ablation_lane_engine). Records are
//                         byte-identical across engines (CI-gated), so
//                         stores resume/merge across engine choices freely
//   --lanes N             max in-flight injections per lane-engine sweep
//                         (default 64; more lanes amortize the reference
//                         replay further, diminishing past ~256)
// Durable campaign options (scheduler + store):
//   --out FILE.sfr        stream records to a durable campaign store
//   --resume              continue an interrupted --out campaign; already
//                         persisted injections are skipped exactly
//   --shard-size N        injections per scheduler shard (default 64)
//   --flush N             records buffered per worker between store
//                         flushes (default 32)
//   --max-new N           stop after N new injections (simulates an
//                         interrupted run; finish later with --resume)
//   SIGINT/SIGTERM        stop dispatching, flush committed work, close the
//                         store cleanly and print the --resume hint (exit
//                         130); a second signal kills immediately
// Farm options (campaign; requires --out — workers stream per-worker shard
// stores which the coordinator merges byte-identically to a 1-process run):
//   --workers N           spawn N supervised local worker processes
//   --farm HOSTS.txt      spawn workers per hosts file (`host [slots]`;
//                         non-local hosts via ssh + shared filesystem)
//   --watchdog SECS       kill a worker with no committed frame for SECS
//                         (default 30); unfinished work retries elsewhere
//   --strikes K           reproducible worker-killer injections get K tries
//                         before being recorded as HarnessFatal (default 3)
//   --keep-shards         keep per-worker shard files after the merge
//   --sabotage-crash I    test hook: worker SIGKILLs itself at index I
//                         (attempt 0 only, so the retry succeeds)
//   --sabotage-wedge I    test hook: worker spins forever at index I
//   --sabotage-wedge-once wedge only on attempt 0 (watchdog drill)
//   --metrics-every N     workers serialize a cumulative metrics snapshot
//                         ('M' frame) into their shard store every N
//                         injections (default 32 — same as sfi serve;
//                         0 = off); the coordinator folds them into its
//                         fleet metrics view. Observability-only: the
//                         canonical merge drops 'M' frames, so the merged
//                         store is byte-identical either way
//   --trace-spans         distributed trace: every process records spans
//                         ('S' frames) — dispatch, retries, per-shard
//                         execution, tail-latency exemplar injections —
//                         teed into a <out>.trace.sfr sidecar that
//                         `sfi trace <out>.sfr` stitches into one
//                         Perfetto timeline. Merge drops 'S' frames, so
//                         the canonical store stays byte-identical
//   --postmortem FILE     crash flight recorder: keep recent telemetry
//                         lines in a fixed in-memory ring and dump them to
//                         FILE on a fatal signal; in farm mode also dumped
//                         after every supervision failure (worker crash,
//                         watchdog kill, strikeout)
// Worker options (`sfi worker`; campaign flags same as the coordinator):
//   --shard-store FILE    shard store this worker appends to (required)
//   --worker-id N         id stamped into heartbeat/assignment frames
//   --metrics-every N     as above (appended by the coordinator)
// Propagation forensics (campaign; records/store R frames stay byte-identical
// with these on — footprints are extra 'P' frames older readers skip):
//   --footprint           trace infection footprints: every non-Vanished
//                         injection is re-run from a pre-fault snapshot and
//                         its state diffed against the reference trace at
//                         exponentially spaced cycles after the flip
//   --footprint-sample N  also trace every Nth Vanished injection
//                         (default 32; 0 = never trace Vanished)
//   --footprint-window N  cap traced cycles after the flip for the bulk
//                         classes Vanished/Corrected (default 512; escape
//                         outcomes always get the full 4096-cycle window)
//   --footprint-every-cycle
//                         diff at every post-flip cycle instead of
//                         exponentially (ablation/debug; implies --footprint)
// Explain options:
//   --from FILE.sfr       store to read 'P' frames from
//   --json FILE           also write the full forensics report as JSON
//   --csv FILE            also write one CSV row per traced injection
// Telemetry options (campaign and beam; strictly read-only — records and
// store bytes are identical with or without these):
//   --metrics-out FILE    write the metrics registry (counters, gauges,
//                         phase/latency histograms) as JSON at the end
//   --events-out FILE     stream a structured JSONL event log (campaign
//                         lifecycle, shard dispatch, checkpoint saves,
//                         sampled per-injection records)
//   --chrome-trace FILE   write a Chrome-trace/Perfetto timeline rendered
//                         from the span plane (one track per worker, shard
//                         spans, tail-latency exemplar phase slices); load
//                         it in chrome://tracing
//   --telemetry-sample N  keep every Nth per-injection event-log record
//                         (default 1 = all; lifecycle events are never
//                         sampled away, and trace slices follow the span
//                         plane's exemplar policy instead)
//   --progress            live one-line progress (rate, ETA, outcome
//                         tallies) on stderr
// Serve options (`sfi serve`):
//   --state-dir DIR       durable home for campaign stores + manifests
//                         (required; a restarted daemon re-adopts it and
//                         resumes incomplete campaigns)
//   --listen ADDR         unix:PATH, tcp:HOST:PORT, or tcp:PORT
//                         (default unix:<state-dir>/sfi.sock)
//   --max-active N        campaigns running concurrently (default 2);
//                         queued submissions are admitted fair-share by
//                         tenant spend (price = injections x instructions)
//   --campaign-threads N  scheduler threads for submissions that leave
//                         --threads 0 (default 1: deterministic stop points)
//   --http ADDR           HTTP observability listener (tcp:HOST:PORT or
//                         tcp:PORT; tcp:0 picks a free port): GET /metrics
//                         (Prometheus text format: fleet-wide counters,
//                         histograms with p50/p95/p99, live per-stratum
//                         early-stop gauges), /healthz and /campaigns
//                         (JSON), /trace?campaign=N (live Trace Event JSON
//                         of the campaign's distributed span plane)
//   --metrics-every N     farm-worker snapshot cadence for daemon campaigns
//                         while --http is on (default 32; 0 = off)
// Top options (`sfi top`; a terminal dashboard over the HTTP plane):
//   --http ADDR           daemon HTTP address to poll (required)
//   --interval SECS       refresh period (default 2)
//   --once                print one table and exit (no screen clearing)
//   --json                machine-readable: one JSON object per refresh
//                         (campaigns plus computed rate/ETA; no screen
//                         control — pipe it to jq or a logger)
// Client options (`sfi submit` / `status` / `watch` / `shutdown`):
//   --connect ADDR        daemon address (same grammar as --listen)
//   --tenant T            fair-share accounting bucket (default "default")
//   --confidence C        interval confidence in (0,1)  (default 0.95; also
//                         sets the CI level campaign/report tables print)
//   --half-width W        early-stop target: stop once every stratum's
//                         Wilson half-width is <= W     (default 0.02)
//   --stratify-unit       require per-unit strata to meet the target too
//   --wait                submit, then stream events until the campaign ends
//   --json                status: raw JSON reply instead of the table
//   --id N                watch: campaign id
// Trace options (single-fault mode):
//   --latch NAME[:BIT]    latch (by hierarchical name) to flip
//   --cycle C             injection cycle               (default 30)
// Trace options (stitch mode: `sfi trace STORE.sfr`):
//   --out FILE.json       stitched Trace Event JSON     (default trace.json)
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "avp/testgen.hpp"
#include "beam/beam.hpp"
#include "core/config.hpp"
#include "farm/farm.hpp"
#include "farm/process.hpp"
#include "report/table.hpp"
#include "sfi/propagation.hpp"
#include "telemetry/json.hpp"
#include "sched/scheduler.hpp"
#include "serve/daemon.hpp"
#include "stats/intervals.hpp"
#include "sfi/campaign.hpp"
#include "sfi/derating.hpp"
#include "sfi/engine.hpp"
#include "sfi/tracer.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/trace_stitch.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workload/spec_profiles.hpp"

namespace {

using namespace sfi;

/// A bad command line (unknown value, missing argument). Exits with 2, like
/// usage(), rather than 1 (runtime failure).
struct CliError : std::runtime_error {
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

/// Strict unsigned parse (base prefix honoured): the whole token must be a
/// non-negative integer that fits u64. std::stoull alone would accept
/// "12abc", wrap "-3" around, and throw bare std::invalid_argument at the
/// user on "abc".
u64 parse_u64(const std::string& key, const std::string& value) {
  const auto fail = [&](const char* why) -> u64 {
    throw CliError("invalid value for --" + key + ": '" + value + "' (" +
                     why + ")");
  };
  if (value.empty()) return fail("expected an unsigned integer");
  if (!std::isdigit(static_cast<unsigned char>(value.front()))) {
    return fail("expected an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
  if (errno == ERANGE) return fail("out of range for a 64-bit value");
  if (end != value.c_str() + value.size()) {
    return fail("trailing characters after the number");
  }
  return v;
}

/// Strict floating-point parse: the whole token must be a finite number.
double parse_f64(const std::string& key, const std::string& value) {
  const auto fail = [&](const char* why) -> double {
    throw CliError("invalid value for --" + key + ": '" + value + "' (" +
                   why + ")");
  };
  if (value.empty()) return fail("expected a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (errno == ERANGE) return fail("out of range");
  if (end != value.c_str() + value.size()) {
    return fail("trailing characters after the number");
  }
  return v;
}

/// Options that are bare flags (consume no value).
const std::set<std::string>& flag_options() {
  static const std::set<std::string> flags = {
      "raw",       "resume",      "progress",
      "footprint", "footprint-every-cycle",
      "keep-shards", "sabotage-wedge-once",
      "wait", "json", "stratify-unit", "once", "trace-spans"};
  return flags;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> opts;
  std::set<std::string> flags;
  std::vector<std::string> positional;

  [[nodiscard]] u64 num(const std::string& key, u64 dflt) const {
    const auto it = opts.find(key);
    return it == opts.end() ? dflt : parse_u64(key, it->second);
  }
  /// num() for options that land in a u32 destination: values above 2^32-1
  /// are a usage error, not a silent wrap (--n 4294967297 used to become 1).
  [[nodiscard]] u32 num_u32(const std::string& key, u32 dflt) const {
    const u64 v = num(key, dflt);
    if (v > std::numeric_limits<u32>::max()) {
      throw CliError("invalid value for --" + key + ": '" +
                     opts.at(key) + "' (exceeds the 32-bit range)");
    }
    return static_cast<u32>(v);
  }
  [[nodiscard]] double fnum(const std::string& key, double dflt) const {
    const auto it = opts.find(key);
    return it == opts.end() ? dflt : parse_f64(key, it->second);
  }
  [[nodiscard]] std::optional<std::string> str(const std::string& key) const {
    const auto it = opts.find(key);
    if (it == opts.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return flags.count(key) != 0;
  }
};

int usage() {
  std::cout <<
      R"(usage: sfi <command> [options]
commands:
  inventory   latch/array population report
  campaign    run a statistical fault-injection campaign
              (--out FILE.sfr streams records to a durable store; --resume
               continues an interrupted one exactly; --workers N / --farm
               HOSTS.txt run it on supervised worker processes)
  worker      farm worker process (spawned by campaign --farm; reads
              shard assignments on stdin, answers via --shard-store)
  report      regenerate campaign tables from a store (--from FILE.sfr),
              no re-simulation
  explain     fault-propagation forensics from a store's footprints
              (--from FILE.sfr [--json FILE] [--csv FILE]; needs a campaign
               run with --footprint)
  merge       merge store shards: sfi merge --out MERGED.sfr SHARD...
  beam        run a simulated proton-beam exposure
  trace       trace one injected fault from cause to effect (--latch), or
              stitch a campaign's distributed span plane into one Perfetto
              timeline (sfi trace STORE.sfr [--out trace.json])
  mix         AVP instruction mix and CPI report
  derate      derating factors & chip FIT budget from a campaign
  serve       multi-tenant campaign daemon with adaptive early stop
              (--state-dir DIR [--listen unix:PATH|tcp:HOST:PORT]
               [--max-active N]); campaigns stop as soon as every stratum's
              Wilson interval is under the submitted half-width target
  submit      submit a campaign to a daemon (--connect ADDR [--tenant T]
              [--n N] [--confidence C] [--half-width W] [--stratify-unit]
              [--workers N] [--engine scalar|lanes] [--lanes N] [--wait])
  status      one-line-per-campaign daemon status (--connect ADDR [--json])
  watch       stream a campaign's JSONL event log (--connect ADDR --id N)
  shutdown    ask a daemon to stop (running campaigns stay resumable)
  top         live refreshing per-campaign table over the daemon's HTTP
              plane (--http ADDR [--interval SECS] [--once]); the same
              endpoint Prometheus scrapes at /metrics
telemetry (campaign/beam): --metrics-out FILE, --events-out FILE.jsonl,
  --chrome-trace FILE.json, --telemetry-sample N (thins the event log
  only), --progress
run `head -60 tools/sfi_cli.cpp` for the full option list.
)";
  return 2;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) return a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      a.positional.push_back(key);
      continue;
    }
    key = key.substr(2);
    // `explain --json FILE` names an output file; elsewhere --json is a
    // bare flag (machine-readable status / top).
    const bool takes_value = a.command == "explain" && key == "json";
    if (flag_options().count(key) != 0 && !takes_value) {
      a.flags.insert(key);
    } else if (i + 1 < argc) {
      a.opts[key] = argv[++i];
    } else {
      throw CliError("option --" + key + " expects a value");
    }
  }
  return a;
}

avp::Testcase make_testcase(const Args& a) {
  avp::TestcaseConfig cfg;
  cfg.seed = a.num("testcase-seed", 2026);
  cfg.num_instructions = a.num_u32("instructions", 160);
  return avp::generate_testcase(cfg);
}

std::optional<netlist::Unit> parse_unit(const std::string& s) {
  for (const auto u : netlist::kAllUnits) {
    if (s == to_string(u)) return u;
  }
  return std::nullopt;
}

std::optional<netlist::LatchType> parse_type(const std::string& s) {
  for (const auto t : netlist::kAllLatchTypes) {
    if (s == to_string(t)) return t;
  }
  return std::nullopt;
}

/// Confidence level for every interval a command prints (default 95%).
double confidence_from(const Args& a) {
  const double c = a.fnum("confidence", stats::kDefaultConfidence);
  if (!(c > 0.0 && c < 1.0)) {
    throw CliError("--confidence must be in (0,1)");
  }
  return c;
}

std::string ci_label(double confidence) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g%% CI", confidence * 100.0);
  return buf;
}

void print_outcomes(const inject::OutcomeCounts& counts, double confidence) {
  const double z = stats::z_for_confidence(confidence);
  report::Table t({"outcome", "count", "fraction", ci_label(confidence)});
  for (const auto o : inject::kAllOutcomes) {
    const auto iv = counts.interval(o, z);
    t.add_row({std::string(to_string(o)), report::Table::count(counts.of(o)),
               report::Table::pct(counts.fraction(o)),
               "[" + report::Table::pct(iv.low) + ", " +
                   report::Table::pct(iv.high) + "]"});
  }
  std::cout << t.to_string();
}

void print_unit_table(const inject::CampaignAggregate& agg) {
  std::cout << report::section("by unit");
  report::Table t({"unit", "flips", "vanished", "corrected", "severe"});
  for (const auto u : netlist::kAllUnits) {
    const auto& c = agg.by_unit[static_cast<std::size_t>(u)];
    if (c.total() == 0) continue;
    t.add_row({std::string(to_string(u)), report::Table::count(c.total()),
               report::Table::pct(c.fraction(inject::Outcome::Vanished)),
               report::Table::pct(c.fraction(inject::Outcome::Corrected)),
               report::Table::pct(c.fraction(inject::Outcome::Hang) +
                                  c.fraction(inject::Outcome::Checkstop) +
                                  c.fraction(inject::Outcome::BadArchState))});
  }
  std::cout << t.to_string();
}

/// The tables every campaign view shares — live run, scheduled run, and
/// store replay print through this one path, which is what makes
/// `sfi report --from` reproduce the live tables exactly.
void print_campaign_tables(const inject::CampaignAggregate& agg,
                           double confidence) {
  print_outcomes(agg.counts, confidence);
  print_unit_table(agg);
}

/// Campaign throughput summary: wall time, simulation rate, and what the
/// interval-checkpoint store bought (cycles never replayed).
void print_throughput(double wall_seconds, u64 cycles_evaluated,
                      u64 cycles_fast_forwarded, u64 checkpoint_ops,
                      std::size_t checkpoints, u64 checkpoint_bytes) {
  const double rate = wall_seconds > 0.0
                          ? static_cast<double>(cycles_evaluated) / wall_seconds
                          : 0.0;
  std::cout << "throughput: " << report::Table::num(wall_seconds, 2)
            << " s wall; " << cycles_evaluated << " cycles evaluated ("
            << report::Table::num(rate, 0) << " cycles/s); "
            << cycles_fast_forwarded << " cycles fast-forwarded; "
            << checkpoints << " checkpoints ("
            << report::Table::num(
                   static_cast<double>(checkpoint_bytes) / (1024.0 * 1024.0),
                   2)
            << " MiB resident; " << checkpoint_ops << " checkpoint ops)\n";
}

int cmd_inventory() {
  core::Pearl6Model model;
  const auto& reg = model.registry();

  std::cout << report::section("latch inventory");
  report::Table by_unit({"unit", "latch bits", "share"});
  const auto units = reg.latch_count_by_unit();
  for (const auto u : netlist::kAllUnits) {
    const auto idx = static_cast<std::size_t>(u);
    by_unit.add_row({std::string(to_string(u)),
                     report::Table::count(units[idx]),
                     report::Table::pct(static_cast<double>(units[idx]) /
                                        reg.num_latches())});
  }
  std::cout << by_unit.to_string() << "\n";

  report::Table by_type({"latch type", "latch bits", "share"});
  const auto types = reg.latch_count_by_type();
  for (const auto t : netlist::kAllLatchTypes) {
    const auto idx = static_cast<std::size_t>(t);
    by_type.add_row({std::string(to_string(t)),
                     report::Table::count(types[idx]),
                     report::Table::pct(static_cast<double>(types[idx]) /
                                        reg.num_latches())});
  }
  std::cout << by_type.to_string() << "\n";

  std::cout << "total injectable latch bits: " << reg.num_latches() << " in "
            << reg.num_fields() << " named fields\n";
  std::cout << "protected array bits (beam targets): "
            << model.arrays().total_storage_bits() << " across "
            << model.arrays().num_arrays() << " arrays\n";
  std::cout << "main-store storage bits (periphery targets): "
            << model.memory().storage_bits() << "\n";
  return 0;
}

/// Telemetry sinks requested on the command line. Owns the facade; wire
/// `sinks.tel.get()` into the config, run, then call `write_outputs()`.
struct TelemetrySinks {
  std::unique_ptr<inject::CampaignTelemetry> tel;
  std::optional<std::string> metrics_out;
  std::optional<std::string> trace_out;
  bool progress = false;

  [[nodiscard]] inject::CampaignTelemetry* get() const { return tel.get(); }

  void write_outputs() const {
    if (!tel) return;
    if (metrics_out) {
      tel->write_metrics(*metrics_out);
      std::cout << "metrics: " << *metrics_out << "\n";
    }
    if (trace_out) {
      tel->write_chrome_trace(*trace_out);
      std::cout << "chrome trace: " << *trace_out
                << " (load in chrome://tracing)\n";
    }
  }
};

TelemetrySinks make_telemetry(const Args& a) {
  TelemetrySinks s;
  s.metrics_out = a.str("metrics-out");
  s.trace_out = a.str("chrome-trace");
  s.progress = a.flag("progress");
  const auto events_out = a.str("events-out");
  // Parse before the early return: a malformed value must error even when
  // no sink is enabled.
  const auto sample = a.num_u32("telemetry-sample", 1);
  // --postmortem implies a telemetry facade: the flight-recorder ring only
  // holds lines the telemetry layer emits, so without one the dump would
  // always be empty.
  const bool postmortem = a.str("postmortem").has_value();
  // --trace-spans needs the facade too: the span plane hangs off
  // CampaignTelemetry (the farm coordinator enables it there).
  const bool trace_spans = a.flag("trace-spans");
  if (!s.metrics_out && !s.trace_out && !events_out && !s.progress &&
      !postmortem && !trace_spans) {
    return s;
  }
  s.tel = std::make_unique<inject::CampaignTelemetry>(
      inject::TelemetryConfig{.event_sample = sample});
  if (events_out) s.tel->open_event_log(*events_out);
  // A single-process run renders as a stitched trace with one process row.
  if (s.trace_out) s.tel->enable_span_plane("sfi", /*trace_id=*/0);
  return s;
}

inject::CampaignConfig campaign_config(const Args& a, u32 default_n) {
  inject::CampaignConfig cfg;
  cfg.seed = a.num("seed", 42);
  cfg.num_injections = a.num_u32("n", default_n);
  cfg.threads = a.num_u32("threads", 0);
  cfg.core.checkers_enabled = !a.flag("raw");
  cfg.ckpt_interval = a.num("ckpt-interval", emu::kCkptAuto);
  cfg.ckpt_memory_budget = a.num("ckpt-mem", 64) << 20;
  if (const auto d = a.num("sticky", 0); d != 0) {
    cfg.mode = inject::FaultMode::Sticky;
    cfg.sticky_duration = d;
  }
  cfg.footprint.enabled =
      a.flag("footprint") || a.flag("footprint-every-cycle");
  cfg.footprint.vanished_sample =
      a.num_u32("footprint-sample", 32);
  cfg.footprint.max_trace_cycles = a.num("footprint-window", 512);
  if (a.flag("footprint-every-cycle")) {
    cfg.footprint.sampling = inject::FootprintSampling::EveryCycle;
  }
  if (const auto e = a.str("engine")) {
    const auto kind = inject::parse_engine(*e);
    if (!kind) {
      throw CliError("unknown engine '" + *e + "' (expected scalar or lanes)");
    }
    cfg.engine = *kind;
  }
  cfg.lanes = a.num_u32("lanes", cfg.lanes);
  if (cfg.lanes == 0) throw CliError("--lanes must be >= 1");
  if (const auto u = a.str("unit")) {
    const auto unit = parse_unit(*u);
    if (!unit) throw CliError("unknown unit " + *u);
    cfg.filter = [unit](const netlist::LatchMeta& m) {
      return m.unit == *unit;
    };
  } else if (const auto t = a.str("type")) {
    const auto type = parse_type(*t);
    if (!type) throw CliError("unknown latch type " + *t);
    cfg.filter = [type](const netlist::LatchMeta& m) {
      return m.type == *type;
    };
  }
  return cfg;
}

/// Cooperative-stop latch for durable campaigns. The first SIGINT/SIGTERM
/// flips the flag and lets the scheduler/farm wind down cleanly (flush, close
/// store, print the --resume hint); a second one restores the default
/// disposition and re-raises, for when winding down is itself stuck.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void on_stop_signal(int sig) {
  if (g_stop_requested != 0) {
    std::signal(sig, SIG_DFL);
    std::raise(sig);
    return;
  }
  g_stop_requested = 1;
}

void install_stop_handler() {
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
}

/// " (N inj/s, ETA Ns)" for live progress lines, from the clamped
/// sched::Progress accessors: em-dash placeholders until the rate window is
/// real (the first report of a run fires before any injection completes).
std::string progress_rate_suffix(const sched::Progress& p) {
  const auto rate = p.rate_per_s();
  if (!rate) return " (— inj/s, ETA —)";
  char buf[64];
  if (const auto eta = p.eta_seconds()) {
    std::snprintf(buf, sizeof buf, " (%.0f inj/s, ETA %.0fs)", *rate, *eta);
  } else {
    std::snprintf(buf, sizeof buf, " (%.0f inj/s, ETA —)", *rate);
  }
  return buf;
}

void print_resume_hint(const std::string& out) {
  std::cout << "interrupted — committed records are durable; finish with:\n"
            << "  sfi campaign --out " << out
            << " --resume [same campaign options]\n";
}

/// --postmortem FILE: enable the global crash flight recorder (telemetry
/// lines tee into a fixed in-memory ring) and arm fatal-signal dumps to
/// FILE. Returns the path, empty when not requested. Observability-only.
std::string postmortem_from_args(const Args& a) {
  const auto path = a.str("postmortem");
  if (!path) return "";
  telemetry::FlightRecorder::global().enable(2048);
  telemetry::FlightRecorder::arm_signals(*path);
  return *path;
}

farm::SabotageConfig sabotage_from_args(const Args& a) {
  farm::SabotageConfig s;
  if (a.opts.count("sabotage-crash") != 0) {
    s.crash_index = a.num_u32("sabotage-crash", 0);
  }
  if (a.opts.count("sabotage-wedge") != 0) {
    s.wedge_index = a.num_u32("sabotage-wedge", 0);
  }
  s.wedge_once = a.flag("sabotage-wedge-once");
  return s;
}

/// Rebuild the campaign-defining flags for an exec-mode worker command line.
/// Whitelisted: everything that feeds make_testcase/campaign_config (plus the
/// sabotage hooks, which are attempt-gated and so safe on every worker);
/// coordinator-only options (--out, --workers, telemetry sinks, ...) and
/// --threads (workers are single-threaded by construction) stay behind.
std::vector<std::string> worker_command_from_args(const Args& a) {
  static const std::set<std::string> keep = {
      "seed",          "testcase-seed",    "instructions",
      "n",             "unit",             "type",
      "sticky",        "ckpt-interval",    "ckpt-mem",
      "footprint-sample", "footprint-window",
      "engine",        "lanes",
      "sabotage-crash", "sabotage-wedge",  "metrics-every"};
  static const std::set<std::string> keep_flags = {
      "raw", "footprint", "footprint-every-cycle", "sabotage-wedge-once"};
  std::vector<std::string> cmd = {farm::self_exe(), "worker"};
  for (const auto& [key, value] : a.opts) {
    if (keep.count(key) == 0) continue;
    cmd.push_back("--" + key);
    cmd.push_back(value);
  }
  for (const auto& flag : a.flags) {
    if (keep_flags.count(flag) != 0) cmd.push_back("--" + flag);
  }
  return cmd;
}

/// Farm campaign: supervised multi-process execution into per-worker shard
/// stores, merged byte-identically into `out`.
int cmd_campaign_farm(const Args& a, const avp::Testcase& tc,
                      const inject::CampaignConfig& cfg,
                      const std::string& out, const TelemetrySinks& sinks) {
  farm::FarmConfig fc;
  fc.workers = a.num_u32("workers", 2);
  // Fleet metrics on by default (cadence 32), matching `sfi serve`: the
  // coordinator's progress line and any scraper get the same fleet view a
  // daemon campaign would. 'M' frames are merge-dropped, so the canonical
  // store is byte-identical either way.
  fc.metrics_every = a.num_u32("metrics-every", 32);
  if (const auto hosts = a.str("farm")) {
    fc.hosts = farm::parse_hosts_file(*hosts);
    fc.worker_command = worker_command_from_args(a);
    if (a.opts.count("metrics-every") == 0 && fc.metrics_every > 0) {
      // The whitelist only forwards flags the user typed; the default
      // cadence has to reach exec workers explicitly.
      fc.worker_command.push_back("--metrics-every");
      fc.worker_command.push_back(std::to_string(fc.metrics_every));
    }
  }
  fc.shard_size = a.num_u32("shard-size", 64);
  fc.max_strikes = a.num_u32("strikes", 3);
  fc.watchdog_seconds = static_cast<double>(a.num("watchdog", 30));
  fc.sabotage = sabotage_from_args(a);
  fc.keep_shards = a.flag("keep-shards");
  fc.trace_spans = a.flag("trace-spans");
  fc.postmortem_path = postmortem_from_args(a);
  install_stop_handler();
  fc.should_stop = [] { return g_stop_requested != 0; };
  if (sinks.progress && sinks.tel) {
    inject::CampaignTelemetry* tel = sinks.get();
    fc.on_progress = [tel](const sched::Progress& p) {
      std::cerr << "\r[farm] "
                << tel->progress_line(p.done, p.total, p.executed,
                                      p.wall_seconds)
                << std::flush;
    };
  } else {
    fc.on_progress = [](const sched::Progress& p) {
      std::cerr << "\r[farm] " << p.done << "/" << p.total
                << " injections committed" << progress_rate_suffix(p)
                << std::flush;
    };
  }

  const farm::FarmResult r =
      farm::run_farm_campaign(tc, cfg, out, fc, a.flag("resume"));
  std::cerr << "\n";

  std::cout << report::section("farm campaign result");
  std::cout << "store: " << out << " ("
            << (r.complete ? "complete" : "INCOMPLETE — finish with --resume")
            << "); " << r.executed << " executed this run, " << r.resumed
            << " resumed\n";
  std::cout << "farm: " << r.workers_spawned << " worker(s) spawned, "
            << r.assignments << " assignment(s), " << r.worker_crashes
            << " crash(es), " << r.watchdog_kills << " watchdog kill(s), "
            << r.shard_retries << " shard retr" << (r.shard_retries == 1 ? "y" : "ies")
            << ", " << r.heartbeat_gaps << " heartbeat gap(s)\n";
  if (!r.harness_fatal.empty()) {
    std::cout << "harness-fatal injections (struck out after "
              << fc.max_strikes << " strikes):";
    for (const u32 i : r.harness_fatal) std::cout << " " << i;
    std::cout << "\n";
  }
  if (fc.trace_spans) {
    std::cout << "trace sidecar: "
              << store::store_sibling(out, store::kTraceSidecarSuffix)
              << " (stitch with `sfi trace " << out << "`)\n";
  }
  std::cout << "workload: " << r.meta.workload_instructions
            << " instructions / " << r.meta.workload_cycles
            << " cycles; population " << r.meta.population_size
            << " latches; "
            << report::Table::num(r.injections_per_second(), 0)
            << " injections/s\n";
  sinks.write_outputs();
  std::cout << "\n";
  print_campaign_tables(r.agg, confidence_from(a));
  if (r.stopped) {
    print_resume_hint(out);
    return 130;
  }
  return 0;
}

/// Farm worker process: `sfi worker --shard-store FILE [--worker-id N]`.
/// Campaign flags mirror the coordinator's so both build the same plan.
int cmd_worker(const Args& a) {
  const auto shard = a.str("shard-store");
  if (!shard) throw CliError("worker requires --shard-store FILE.sfr");
  const avp::Testcase tc = make_testcase(a);
  const inject::CampaignConfig cfg = campaign_config(a, 1000);
  farm::WorkerOptions wo;
  wo.worker_id = a.num_u32("worker-id", 0);
  wo.shard_path = *shard;
  wo.control_fd = 0;  // assignments arrive on stdin
  wo.sabotage = sabotage_from_args(a);
  // Same default cadence as the farm coordinator and `sfi serve` (32): a
  // worker launched without the flag used to silently disable snapshots,
  // starving the coordinator's fleet metrics view of exec-spawned workers.
  wo.metrics_every =
      a.num_u32("metrics-every", farm::WorkerOptions{}.metrics_every);
  wo.trace_spans = a.flag("trace-spans");
  return farm::run_worker(tc, cfg, wo);
}

/// Scheduled (durable) campaign: stream records into a store file.
int cmd_campaign_to_store(const Args& a, const avp::Testcase& tc,
                          const inject::CampaignConfig& cfg,
                          const std::string& out,
                          const TelemetrySinks& sinks) {
  sched::SchedulerConfig sc;
  sc.shard_size = a.num_u32("shard-size", 64);
  sc.flush_records = a.num_u32("flush", 32);
  sc.max_new_injections = a.num("max-new", 0);
  (void)postmortem_from_args(a);  // in-process: dump on fatal signal only
  install_stop_handler();
  sc.should_stop = [] { return g_stop_requested != 0; };
  if (sinks.progress && sinks.tel) {
    inject::CampaignTelemetry* tel = sinks.get();
    sc.on_progress = [tel](const sched::Progress& p) {
      std::cerr << "\r[campaign] "
                << tel->progress_line(p.done, p.total, p.executed,
                                      p.wall_seconds)
                << std::flush;
    };
  } else {
    sc.on_progress = [](const sched::Progress& p) {
      std::cerr << "\r[campaign] " << p.done << "/" << p.total
                << " injections persisted" << progress_rate_suffix(p)
                << std::flush;
    };
  }

  const sched::ScheduledResult r =
      sched::run_campaign_to_store(tc, cfg, out, sc, a.flag("resume"));
  std::cerr << "\n";

  std::cout << report::section("campaign result");
  std::cout << "store: " << out << " ("
            << (r.complete ? "complete" : "INCOMPLETE — finish with --resume")
            << "); " << r.executed << " executed this run, " << r.resumed
            << " resumed, " << r.shards << " shards\n";
  if (cfg.footprint.enabled) {
    std::cout << "footprints: " << r.footprints
              << " propagation traces persisted (inspect with `sfi explain "
                 "--from "
              << out << "`)\n";
  }
  std::cout << "workload: " << r.meta.workload_instructions
            << " instructions / " << r.meta.workload_cycles
            << " cycles; population " << r.meta.population_size
            << " latches; "
            << report::Table::num(r.injections_per_second(), 0)
            << " injections/s\n";
  print_throughput(r.wall_seconds, r.cycles_evaluated,
                   r.cycles_fast_forwarded, r.checkpoint_ops, r.checkpoints,
                   r.checkpoint_bytes);
  sinks.write_outputs();
  std::cout << "\n";
  print_campaign_tables(r.agg, confidence_from(a));
  if (r.stopped) {
    print_resume_hint(out);
    return 130;
  }
  return 0;
}

int cmd_campaign(const Args& a) {
  const avp::Testcase tc = make_testcase(a);
  inject::CampaignConfig cfg = campaign_config(a, 1000);
  const TelemetrySinks sinks = make_telemetry(a);
  cfg.telemetry = sinks.get();

  const bool farm_mode =
      a.opts.count("workers") != 0 || a.opts.count("farm") != 0;
  if (const auto out = a.str("out")) {
    if (farm_mode) return cmd_campaign_farm(a, tc, cfg, *out, sinks);
    return cmd_campaign_to_store(a, tc, cfg, *out, sinks);
  }
  if (farm_mode) {
    throw CliError(
        "--workers/--farm require --out FILE.sfr (shards merge into it)");
  }
  if (a.flag("resume")) {
    throw CliError("--resume requires --out FILE (a store to resume into)");
  }

  const inject::CampaignResult r = inject::run_campaign(tc, cfg);
  if (sinks.progress && sinks.tel) {
    std::cerr << "[campaign] "
              << sinks.tel->progress_line(r.records.size(), r.records.size(),
                                          r.records.size(), r.wall_seconds)
              << "\n";
  }
  std::cout << report::section("campaign result");
  std::cout << "workload: " << r.workload_instructions << " instructions / "
            << r.workload_cycles << " cycles; population "
            << r.population_size << " latches; "
            << report::Table::num(r.injections_per_second(), 0)
            << " injections/s\n";
  print_throughput(r.wall_seconds, r.cycles_evaluated,
                   r.cycles_fast_forwarded, r.checkpoint_ops, r.checkpoints,
                   r.checkpoint_bytes);
  sinks.write_outputs();
  std::cout << "\n";
  print_campaign_tables(r.agg, confidence_from(a));
  return 0;
}

int cmd_report(const Args& a) {
  const auto from = a.str("from");
  if (!from) throw CliError("report requires --from FILE.sfr");

  const auto [meta, agg] = store::aggregate_store(*from);
  std::cout << report::section("campaign report (from store, no simulation)");
  std::cout << "store: " << *from << "; seed " << meta.seed << "; "
            << agg.total() << "/" << meta.num_injections << " records";
  if (agg.total() != meta.num_injections) {
    std::cout << " (INCOMPLETE — finish with `sfi campaign --out "
              << *from << " --resume`)";
  }
  std::cout << "\nworkload: " << meta.workload_instructions
            << " instructions / " << meta.workload_cycles
            << " cycles; population " << meta.population_size
            << " latches\n\n";
  print_campaign_tables(agg, confidence_from(a));
  return 0;
}

/// Median of an unsorted sample (0 when empty). Forensics latencies are
/// heavy-tailed, so medians, not means, go in the tables.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(v.begin(), mid);
  return (lo + hi) / 2.0;
}

/// Per-bucket forensic aggregate for `sfi explain` (buckets: origin unit, or
/// outcome class).
struct ExplainBucket {
  u64 traced = 0;
  u64 masked = 0;
  u64 detected = 0;
  u64 crossed = 0;       ///< infections that left their origin unit
  u64 reached_arch = 0;
  u64 reached_memory = 0;
  u64 truncated = 0;
  u64 checker_fired = 0;
  std::vector<double> mask_latency;
  std::vector<double> detection_latency;
  std::vector<double> peak_bits;

  void add(const inject::PropagationRecord& p) {
    ++traced;
    if (p.masked) {
      ++masked;
      mask_latency.push_back(static_cast<double>(p.masked_at));
    }
    if (p.detected) {
      ++detected;
      detection_latency.push_back(static_cast<double>(p.detected_at));
    }
    if (p.units_crossed() > 0) ++crossed;
    if (p.reached_arch) ++reached_arch;
    if (p.reached_memory) ++reached_memory;
    if (p.truncated) ++truncated;
    if (p.checker_fired) ++checker_fired;
    peak_bits.push_back(static_cast<double>(p.peak_bits));
  }
};

void explain_bucket_json(telemetry::JsonWriter& w, const std::string& label,
                         const char* label_key, const ExplainBucket& b) {
  w.begin_object()
      .field(label_key, label)
      .field("traced", b.traced)
      .field("masked", b.masked)
      .field("detected", b.detected)
      .field("crossed_units", b.crossed)
      .field("reached_arch", b.reached_arch)
      .field("reached_memory", b.reached_memory)
      .field("truncated", b.truncated)
      .field("checker_fired", b.checker_fired)
      .field("median_mask_latency", median_of(b.mask_latency))
      .field("median_detection_latency", median_of(b.detection_latency))
      .field("median_peak_bits", median_of(b.peak_bits))
      .end_object();
}

int cmd_explain(const Args& a) {
  const auto from = a.str("from");
  if (!from) throw CliError("explain requires --from FILE.sfr");

  // One pass over the store collects meta, the record count and every
  // propagation frame.
  store::StoreReader reader(*from, {});
  std::vector<inject::PropagationRecord> fps;
  u64 records = 0;
  {
    u8 kind = 0;
    std::vector<u8> payload;
    while (reader.next_frame(kind, payload)) {
      if (kind == store::kRecordFrame) {
        ++records;
      } else if (kind == store::kPropagationFrame) {
        fps.push_back(store::decode_propagation(payload));
      }
    }
  }
  std::sort(fps.begin(), fps.end(),
            [](const inject::PropagationRecord& x,
               const inject::PropagationRecord& y) { return x.index < y.index; });

  std::cout << report::section("fault-propagation forensics");
  std::cout << "store: " << *from << "; " << records << "/"
            << reader.meta().num_injections << " records, " << fps.size()
            << " propagation footprints\n";
  if (fps.empty()) {
    std::cout << "no footprints in this store — rerun the campaign with "
                 "`sfi campaign --footprint --out "
              << *from << "`\n";
    return 0;
  }

  std::array<ExplainBucket, netlist::kNumUnits> by_unit{};
  std::map<inject::Outcome, ExplainBucket> by_outcome;
  std::array<u64, core::kNumCheckers> checker_fires{};
  std::array<u64, core::kNumCheckers> checker_fatal{};
  u64 rerun_cycles = 0;
  for (const auto& p : fps) {
    by_unit[static_cast<std::size_t>(p.unit)].add(p);
    by_outcome[p.outcome].add(p);
    rerun_cycles += p.rerun_cycles;
    if (p.checker_fired) {
      const auto c = static_cast<std::size_t>(p.checker);
      ++checker_fires[c];
      if (p.checker_fatal) ++checker_fatal[c];
    }
  }

  std::cout << report::section("by origin unit");
  report::Table ut({"unit", "traced", "masked", "med mask lat", "crossed",
                    "reached arch", "reached mem", "med peak bits"});
  for (const auto u : netlist::kAllUnits) {
    const ExplainBucket& b = by_unit[static_cast<std::size_t>(u)];
    if (b.traced == 0) continue;
    ut.add_row({std::string(to_string(u)), report::Table::count(b.traced),
                report::Table::count(b.masked),
                report::Table::num(median_of(b.mask_latency), 0),
                report::Table::count(b.crossed),
                report::Table::count(b.reached_arch),
                report::Table::count(b.reached_memory),
                report::Table::num(median_of(b.peak_bits), 0)});
  }
  std::cout << ut.to_string();

  std::cout << report::section("by outcome class");
  report::Table ot({"outcome", "traced", "detected", "med detect lat",
                    "med peak bits", "truncated"});
  for (const auto o : inject::kAllOutcomes) {
    const auto it = by_outcome.find(o);
    if (it == by_outcome.end()) continue;
    const ExplainBucket& b = it->second;
    ot.add_row({std::string(to_string(o)), report::Table::count(b.traced),
                report::Table::count(b.detected),
                report::Table::num(median_of(b.detection_latency), 0),
                report::Table::num(median_of(b.peak_bits), 0),
                report::Table::count(b.truncated)});
  }
  std::cout << ot.to_string();

  report::Table ct({"checker", "fired", "fatal"});
  bool any_checker = false;
  for (std::size_t c = 0; c < core::kNumCheckers; ++c) {
    if (checker_fires[c] == 0) continue;
    any_checker = true;
    ct.add_row({std::string(core::checker_name(
                    static_cast<core::CheckerId>(c))),
                report::Table::count(checker_fires[c]),
                report::Table::count(checker_fatal[c])});
  }
  if (any_checker) {
    std::cout << report::section("first checker to fire (re-run)");
    std::cout << ct.to_string();
  }
  std::cout << "\nre-run cost: " << rerun_cycles
            << " cycles simulated for forensics\n";

  if (const auto json_out = a.str("json")) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("store", *from)
        .field("records", records)
        .field("footprints", static_cast<u64>(fps.size()))
        .field("rerun_cycles", rerun_cycles);
    w.key("by_unit").begin_array();
    for (const auto u : netlist::kAllUnits) {
      const ExplainBucket& b = by_unit[static_cast<std::size_t>(u)];
      if (b.traced == 0) continue;
      explain_bucket_json(w, std::string(to_string(u)), "unit", b);
    }
    w.end_array();
    w.key("by_outcome").begin_array();
    for (const auto& [o, b] : by_outcome) {
      explain_bucket_json(w, std::string(to_string(o)), "outcome", b);
    }
    w.end_array();
    w.key("checkers").begin_array();
    for (std::size_t c = 0; c < core::kNumCheckers; ++c) {
      if (checker_fires[c] == 0) continue;
      w.begin_object()
          .field("checker", std::string(core::checker_name(
                                static_cast<core::CheckerId>(c))))
          .field("fired", checker_fires[c])
          .field("fatal", checker_fatal[c])
          .end_object();
    }
    w.end_array();
    w.key("injections").begin_array();
    for (const auto& p : fps) {
      w.begin_object()
          .field("index", p.index)
          .field("unit", std::string(to_string(p.unit)))
          .field("type", std::string(to_string(p.type)))
          .field("outcome", std::string(to_string(p.outcome)))
          .field("fault_cycle", p.fault_cycle)
          .field("masked", p.masked)
          .field("detected", p.detected)
          .field("reached_arch", p.reached_arch)
          .field("reached_memory", p.reached_memory)
          .field("truncated", p.truncated)
          .field("peak_bits", p.peak_bits)
          .field("units_crossed", p.units_crossed())
          .field("rerun_cycles", p.rerun_cycles);
      if (p.masked) w.field("masked_at", p.masked_at);
      if (p.detected) w.field("detected_at", p.detected_at);
      if (p.checker_fired) {
        w.field("checker", std::string(core::checker_name(p.checker)))
            .field("checker_fatal", p.checker_fatal);
      }
      w.key("samples").begin_array();
      for (const auto& s : p.samples) {
        w.begin_array().value(s.offset).value(s.total_bits).end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array().end_object();
    std::ofstream out(*json_out, std::ios::trunc);
    if (!out) throw CliError("cannot open --json file " + *json_out);
    out << w.str() << "\n";
    std::cout << "json: " << *json_out << "\n";
  }

  if (const auto csv_out = a.str("csv")) {
    report::Table t({"index", "unit", "type", "outcome", "fault_cycle",
                     "masked", "masked_at", "detected", "detected_at",
                     "reached_arch", "reached_memory", "truncated", "checker",
                     "peak_bits", "units_crossed", "rerun_cycles", "samples"});
    for (const auto& p : fps) {
      std::string samples;
      for (const auto& s : p.samples) {
        if (!samples.empty()) samples += ' ';
        samples += std::to_string(s.offset) + ':' +
                   std::to_string(s.total_bits);
      }
      t.add_row({report::Table::count(p.index), std::string(to_string(p.unit)),
                 std::string(to_string(p.type)),
                 std::string(to_string(p.outcome)),
                 report::Table::count(p.fault_cycle),
                 p.masked ? "1" : "0",
                 p.masked ? report::Table::count(p.masked_at) : "",
                 p.detected ? "1" : "0",
                 p.detected ? report::Table::count(p.detected_at) : "",
                 p.reached_arch ? "1" : "0", p.reached_memory ? "1" : "0",
                 p.truncated ? "1" : "0",
                 p.checker_fired
                     ? std::string(core::checker_name(p.checker))
                     : "",
                 report::Table::count(p.peak_bits),
                 report::Table::count(p.units_crossed()),
                 report::Table::count(p.rerun_cycles), samples});
    }
    std::ofstream out(*csv_out, std::ios::trunc);
    if (!out) throw CliError("cannot open --csv file " + *csv_out);
    out << t.to_csv();
    std::cout << "csv: " << *csv_out << "\n";
  }
  return 0;
}

int cmd_merge(const Args& a) {
  const auto out = a.str("out");
  if (!out || a.positional.empty()) {
    throw CliError("merge requires --out MERGED.sfr and >=1 input stores");
  }
  const store::MergeSummary s = store::merge_stores(a.positional, *out);
  std::cout << report::section("store merge");
  std::cout << s.inputs << " shard(s), " << s.records_read
            << " records read, " << s.duplicates << " duplicate(s) collapsed"
            << "\n-> " << *out << ": " << s.records_written << "/"
            << s.meta.num_injections << " records";
  if (s.missing != 0) {
    std::cout << " (" << s.missing
              << " missing — resume the campaign to fill them)";
  }
  std::cout << "\n";
  return 0;
}

int cmd_beam(const Args& a) {
  // Beam accepts --engine for CLI symmetry but only the scalar engine is
  // valid: the lane engine's fast path *is* an internal-state observation
  // (diff-vs-reference convergence), which beam disables by design to model
  // physical irradiation, and array strikes diverge in aux state the latch
  // diff carrier can't see. See DESIGN.md §16 and beam.cpp.
  if (const auto e = a.str("engine")) {
    const auto kind = inject::parse_engine(*e);
    if (!kind) {
      throw CliError("unknown engine '" + *e + "' (expected scalar or lanes)");
    }
    if (*kind != inject::EngineKind::Scalar) {
      throw CliError(
          "beam supports --engine scalar only: beam classification is "
          "RAS/end-of-test observable-only (no internal-state convergence "
          "proof), which is the lane engine's entire fast path");
    }
  }
  const avp::Testcase tc = make_testcase(a);
  beam::BeamConfig cfg;
  cfg.seed = a.num("seed", 42);
  cfg.num_events = a.num_u32("n", 1000);
  cfg.threads = a.num_u32("threads", 0);
  cfg.core.checkers_enabled = !a.flag("raw");
  cfg.ckpt_interval = a.num("ckpt-interval", emu::kCkptAuto);
  cfg.ckpt_memory_budget = a.num("ckpt-mem", 64) << 20;
  const TelemetrySinks sinks = make_telemetry(a);
  cfg.telemetry = sinks.get();
  const beam::BeamResult r = beam::run_beam_experiment(tc, cfg);
  if (sinks.progress && sinks.tel) {
    std::cerr << "[beam] "
              << sinks.tel->progress_line(r.records.size(), r.records.size(),
                                          r.records.size(), r.wall_seconds)
              << "\n";
  }
  std::cout << report::section("beam exposure result");
  std::cout << r.latch_events << " latch strikes, " << r.array_events
            << " protected-array strikes\n\n";
  print_outcomes(r.counts(), confidence_from(a));
  sinks.write_outputs();
  return 0;
}

/// `sfi trace STORE.sfr [--out trace.json]`: stitch the distributed span
/// plane of a campaign — the store itself, its `.trace.sfr` sidecar, any
/// surviving worker shards, and postmortem JSONL dumps — into one Trace
/// Event JSON file (load it in Perfetto / chrome://tracing). One process
/// row per OS process; clocks line up because every span is wall-anchored
/// at its source.
int cmd_trace_stitch(const Args& a) {
  const std::string& store_path = a.positional.front();
  const store::StitchResult r = store::stitch_trace(store_path);
  const std::string out = a.str("out").value_or("trace.json");
  {
    std::ofstream f(out, std::ios::trunc | std::ios::binary);
    if (!f) throw std::runtime_error("trace: cannot write " + out);
    f << r.json << "\n";
  }
  std::cout << "stitched " << r.spans << " span(s) from " << r.files
            << " file(s), " << r.processes << " process row(s) -> " << out
            << " (load in Perfetto / chrome://tracing)\n";
  if (r.spans == 0) {
    std::cout << "hint: record spans with `sfi campaign --workers N "
                 "--trace-spans` or a daemon farm campaign\n";
  }
  return 0;
}

int cmd_trace(const Args& a) {
  // Positional store argument => stitch mode; --latch => single-fault
  // cause-to-effect trace (the original verb).
  if (!a.positional.empty()) return cmd_trace_stitch(a);
  const auto latch = a.str("latch");
  if (!latch) {
    throw CliError(
        "trace requires --latch NAME[:BIT] (single-fault trace) or a "
        "positional STORE.sfr (stitch the campaign's span plane)");
  }
  std::string name = *latch;
  u32 bit = 0;
  if (const auto colon = name.find(':'); colon != std::string::npos) {
    bit = static_cast<u32>(parse_u64("latch", name.substr(colon + 1)));
    name = name.substr(0, colon);
  }

  const avp::Testcase tc = make_testcase(a);
  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  emu.reset();
  const emu::Checkpoint cp = emu.save_checkpoint();

  const auto ords = model.registry().collect_ordinals(
      [&](const netlist::LatchMeta& m) { return m.name == name; });
  if (ords.empty()) {
    std::cerr << "no latch named '" << name
              << "' (try `sfi inventory` and the DESIGN.md naming scheme)\n";
    return 2;
  }
  if (bit >= ords.size()) {
    std::cerr << "latch " << name << " has " << ords.size() << " bits\n";
    return 2;
  }

  inject::FaultSpec f;
  f.index = ords[bit];
  f.cycle = a.num("cycle", 30);
  if (const auto d = a.num("sticky", 0); d != 0) {
    f.mode = inject::FaultMode::Sticky;
    f.sticky_duration = d;
    f.sticky_value = true;
  }
  const auto t = inject::trace_injection(model, emu, cp, trace, golden, f);
  std::cout << inject::format_trace(t);
  return 0;
}

int cmd_derate(const Args& a) {
  const avp::Testcase tc = make_testcase(a);
  const inject::CampaignConfig cfg = campaign_config(a, 2000);
  const inject::CampaignResult r = inject::run_campaign(tc, cfg);

  core::Pearl6Model model;
  inject::DeratingConfig dc;
  const inject::DeratingReport rep =
      inject::compute_derating(r, model.registry(), dc);

  std::cout << report::section("derating & FIT budget");
  std::cout << rep.summary() << "\n";
  report::Table t({"unit", "latches", "derating", "severe rate",
                   "severe FIT"});
  for (const auto& u : rep.by_unit) {
    t.add_row({std::string(to_string(u.unit)),
               report::Table::count(u.latch_bits),
               report::Table::pct(u.derating),
               report::Table::pct(u.severe_rate),
               report::Table::num(u.severe_fit, 6)});
  }
  std::cout << t.to_string();
  return 0;
}

int cmd_mix(const Args& a) {
  const avp::Testcase tc = make_testcase(a);
  const avp::MixReport rep = avp::measure_mix(tc);
  std::cout << report::section("AVP instruction mix & CPI");
  report::Table t({"class", "fraction"});
  for (std::size_t c = 0; c < isa::kNumInstrClasses; ++c) {
    t.add_row({std::string(to_string(static_cast<isa::InstrClass>(c))),
               report::Table::pct(rep.fractions[c], 1)});
  }
  std::cout << t.to_string();
  std::cout << "\n" << rep.instructions << " instructions in " << rep.cycles
            << " cycles: CPI " << report::Table::num(rep.cpi) << "\n";
  return 0;
}

// --- serve: campaign daemon + clients --------------------------------------

int cmd_serve(const Args& a) {
  const auto state_dir = a.str("state-dir");
  if (!state_dir) throw CliError("serve requires --state-dir DIR");
  serve::ServeConfig sc;
  sc.state_dir = *state_dir;
  if (const auto l = a.str("listen")) sc.listen = *l;
  sc.max_active = a.num_u32("max-active", 2);
  sc.default_threads = a.num_u32("campaign-threads", 1);
  if (const auto h = a.str("http")) sc.http = *h;
  sc.metrics_every = a.num_u32("metrics-every", 32);
  install_stop_handler();
  sc.should_stop = [] { return g_stop_requested != 0; };
  serve::Daemon d(sc);
  std::cout << "sfi serve: listening on " << d.address().describe()
            << "; state dir " << *state_dir << "; max active "
            << sc.max_active;
  if (d.http_enabled()) {
    std::cout << "; http " << d.http_address().describe()
              << " (/metrics /healthz /campaigns /trace)";
  }
  std::cout << "\n" << std::flush;
  return d.run();
}

serve::Address client_address(const Args& a) {
  const auto spec = a.str("connect");
  if (!spec) {
    throw CliError("requires --connect ADDR (unix:PATH or tcp:HOST:PORT)");
  }
  return serve::parse_address(*spec);
}

int cmd_submit(const Args& a) {
  farm::ignore_sigpipe();
  // Build (and strictly parse) the request before touching the socket so a
  // usage error is reported as such even when no daemon is listening.
  const serve::Address addr = client_address(a);
  // Validate the engine name client-side so a typo is a usage error here,
  // not a silently-defaulted daemon campaign. ("engine" in status replies
  // names the dispatch mode, farm/sched — hence "inj_engine" on the wire.)
  const std::string engine = a.str("engine").value_or("scalar");
  if (!inject::parse_engine(engine)) {
    throw CliError("unknown engine '" + engine +
                   "' (expected scalar or lanes)");
  }
  telemetry::JsonWriter w;
  w.begin_object()
      .field("op", "submit")
      .field("tenant", a.str("tenant").value_or("default"))
      .field("seed", a.num("seed", 42))
      .field("testcase_seed", a.num("testcase-seed", 2026))
      .field("instructions", a.num("instructions", 160))
      .field("n", a.num("n", 1000))
      .field("confidence", confidence_from(a))
      .field("half_width", a.fnum("half-width", 0.02))
      .field("by_unit", a.flag("stratify-unit"))
      .field("threads", a.num("threads", 0))
      .field("workers", a.num("workers", 0))
      .field("shard_size", a.num("shard-size", 16))
      .field("flush_records", a.num("flush", 8))
      .field("inj_engine", engine)
      .field("lanes", a.num_u32("lanes", 64))
      .end_object();
  serve::LineChannel ch(serve::connect_to(addr));
  if (!ch.send_line(w.str())) {
    throw std::runtime_error("submit: daemon closed the connection");
  }
  std::string reply;
  if (!ch.recv_line(reply)) {
    throw std::runtime_error("submit: no reply from daemon");
  }
  std::cout << reply << "\n" << std::flush;
  const serve::Json r = serve::Json::parse(reply);
  if (!r.get_bool("ok", false)) return 1;
  if (!a.flag("wait")) return 0;

  // --wait: follow the campaign's event stream on the same connection until
  // the daemon finishes it (the final line is the "finish" report event).
  telemetry::JsonWriter watch;
  watch.begin_object()
      .field("op", "watch")
      .field("id", r.get_u64("id", 0))
      .end_object();
  if (!ch.send_line(watch.str())) {
    throw std::runtime_error("submit --wait: daemon closed the connection");
  }
  std::string line;
  while (ch.recv_line(line)) std::cout << line << "\n" << std::flush;
  return 0;
}

int cmd_status(const Args& a) {
  farm::ignore_sigpipe();
  serve::LineChannel ch(serve::connect_to(client_address(a)));
  if (!ch.send_line(R"({"op":"status"})")) {
    throw std::runtime_error("status: daemon closed the connection");
  }
  std::string reply;
  if (!ch.recv_line(reply)) {
    throw std::runtime_error("status: no reply from daemon");
  }
  if (a.flag("json")) {
    std::cout << reply << "\n";
    return 0;
  }
  const serve::Json r = serve::Json::parse(reply);
  if (!r.get_bool("ok", false)) {
    std::cout << reply << "\n";
    return 1;
  }
  std::cout << report::section("serve status");
  report::Table t({"id", "tenant", "state", "records", "widest hw", "target",
                   "early stop"});
  if (const serve::Json* cs = r.find("campaigns")) {
    for (const serve::Json& c : cs->items()) {
      const double widest = c.get_num("widest_half_width", -1.0);
      t.add_row({std::to_string(c.get_u64("id", 0)),
                 c.get_str("tenant", "?"), c.get_str("state", "?"),
                 std::to_string(c.get_u64("done", 0)) + "/" +
                     std::to_string(c.get_u64("n", 0)),
                 widest < 0.0 ? "-" : report::Table::num(widest, 4),
                 report::Table::num(c.get_num("target_half_width", 0.0), 4),
                 c.get_bool("early_stop", false)
                     ? "@" + std::to_string(c.get_u64("stop_point", 0))
                     : "-"});
    }
  }
  std::cout << t.to_string();
  return 0;
}

int cmd_watch(const Args& a) {
  farm::ignore_sigpipe();
  const u64 id = a.num("id", 0);
  if (id == 0) throw CliError("watch requires --id N");
  serve::LineChannel ch(serve::connect_to(client_address(a)));
  telemetry::JsonWriter w;
  w.begin_object().field("op", "watch").field("id", id).end_object();
  if (!ch.send_line(w.str())) {
    throw std::runtime_error("watch: daemon closed the connection");
  }
  std::string line;
  int rc = 0;
  while (ch.recv_line(line)) {
    std::cout << line << "\n" << std::flush;
    if (line.rfind("{\"ok\":false", 0) == 0) rc = 1;
  }
  return rc;
}

/// One blocking HTTP/1.1 GET against the daemon's observability listener;
/// returns the response body. Enough protocol for our own server (and any
/// other that honours Connection: close).
std::string http_get(const serve::Address& addr, const std::string& path) {
  const int fd = serve::connect_to(addr);
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: sfi\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n =
        ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("http: send failed to " + addr.describe());
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t hdr = resp.find("\r\n\r\n");
  if (hdr == std::string::npos) {
    throw std::runtime_error("http: malformed response from " +
                             addr.describe());
  }
  if (resp.rfind("HTTP/1.1 200", 0) != 0) {
    throw std::runtime_error("http: " + resp.substr(0, resp.find("\r\n")));
  }
  return resp.substr(hdr + 4);
}

/// `sfi top`: a terminal dashboard over GET /campaigns — one row per
/// campaign with live rate (from successive polls), ETA, half-width
/// progress and the outcome mix. Read-only by construction: it talks to
/// the same endpoint Prometheus scrapes.
int cmd_top(const Args& a) {
  farm::ignore_sigpipe();
  const auto spec = a.str("http");
  if (!spec) {
    throw CliError("top requires --http ADDR (the daemon's --http address)");
  }
  const serve::Address addr = serve::parse_address(*spec);
  const double interval = a.fnum("interval", 2.0);
  const bool once = a.flag("once");
  const bool json = a.flag("json");
  install_stop_handler();

  struct Seen {
    u64 done = 0;
    std::chrono::steady_clock::time_point at;
  };
  std::map<u64, Seen> last;
  while (g_stop_requested == 0) {
    const std::string body = http_get(addr, "/campaigns");
    const serve::Json r = serve::Json::parse(body);
    const auto now = std::chrono::steady_clock::now();
    // One row per campaign: the rate since the previous poll and the ETA
    // it implies (-1: none yet), computed once for either output format.
    struct Row {
      const serve::Json* c = nullptr;
      u64 id = 0;
      u64 done = 0;
      u64 n = 0;
      double rate = 0.0;
      double eta = -1.0;
    };
    std::vector<Row> rows;
    if (const serve::Json* cs = r.find("campaigns")) {
      for (const serve::Json& c : cs->items()) {
        Row row;
        row.c = &c;
        row.id = c.get_u64("id", 0);
        row.done = c.get_u64("done", 0);
        row.n = c.get_u64("n", 0);
        if (const auto it = last.find(row.id); it != last.end()) {
          const double dt =
              std::chrono::duration<double>(now - it->second.at).count();
          if (dt > 0.0 && row.done >= it->second.done) {
            row.rate = static_cast<double>(row.done - it->second.done) / dt;
          }
        }
        if (row.rate > 0.0 && row.n > row.done) {
          row.eta = static_cast<double>(row.n - row.done) / row.rate;
        }
        last[row.id] = {row.done, now};
        rows.push_back(row);
      }
    }

    if (json) {
      // Machine-readable refresh: one JSON object per line — the daemon's
      // /campaigns document plus the rates/ETAs this dashboard computes
      // from successive polls. No screen control, ever.
      telemetry::JsonWriter w;
      w.begin_object()
          .field("endpoint", addr.describe())
          .field("stopping", r.get_bool("stopping", false));
      w.key("campaigns").begin_array();
      for (const Row& row : rows) {
        const serve::Json& c = *row.c;
        w.begin_object()
            .field("id", row.id)
            .field("tenant", c.get_str("tenant", "?"))
            .field("state", c.get_str("state", "?"))
            .field("engine", c.get_str("engine", "?"))
            .field("done", row.done)
            .field("n", row.n)
            .field("committed", c.get_u64("committed", 0))
            .field("rate_per_s", row.rate)
            .field("eta_s", row.eta)
            .field("widest_half_width", c.get_num("widest_half_width", -1.0))
            .field("target_half_width", c.get_num("target_half_width", 0.0))
            .field("early_stop", c.get_bool("early_stop", false))
            .field("workers", c.get_u64("workers", 0))
            .end_object();
      }
      w.end_array().end_object();
      std::cout << w.str() << "\n" << std::flush;
    } else {
      if (!once) std::cout << "\x1b[H\x1b[2J";  // cursor home + clear screen
      std::cout << "sfi top — " << addr.describe()
                << (r.get_bool("stopping", false) ? " (stopping)" : "")
                << "\n";
      report::Table t({"id", "tenant", "state", "eng", "done", "rate/s",
                       "eta", "hw/target", "wrk", "outcome mix"});
      for (const Row& row : rows) {
        const serve::Json& c = *row.c;
        const std::string state = c.get_str("state", "?");
        const std::string eta = state == "running" && row.eta >= 0.0
                                    ? report::Table::num(row.eta, 0) + "s"
                                    : "-";
        const double widest = c.get_num("widest_half_width", -1.0);
        std::string hw =
            (widest < 0.0 ? std::string("-")
                          : report::Table::num(widest, 4)) +
            "/" + report::Table::num(c.get_num("target_half_width", 0.0), 4);
        if (c.get_bool("early_stop", false)) hw += " met";
        std::string mix;
        if (const serve::Json* counts = c.find("counts")) {
          u64 total = 0;
          for (const auto o : inject::kAllOutcomes) {
            total += counts->get_u64(std::string(to_string(o)), 0);
          }
          for (const auto o : inject::kAllOutcomes) {
            const u64 v = counts->get_u64(std::string(to_string(o)), 0);
            if (v == 0) continue;
            std::string lbl(to_string(o).substr(0, 3));
            for (char& ch : lbl) {
              ch = static_cast<char>(
                  std::tolower(static_cast<unsigned char>(ch)));
            }
            if (!mix.empty()) mix += ' ';
            mix += lbl + ' ' +
                   report::Table::pct(static_cast<double>(v) /
                                      static_cast<double>(total));
          }
        }
        t.add_row({std::to_string(row.id), c.get_str("tenant", "?"), state,
                   c.get_str("engine", "?"),
                   std::to_string(row.done) + "/" + std::to_string(row.n),
                   report::Table::num(row.rate, 1), eta, hw,
                   std::to_string(c.get_u64("workers", 0)), mix});
      }
      std::cout << t.to_string() << std::flush;
    }
    if (once) return 0;
    // Sleep in slices so Ctrl-C lands promptly, not a poll later.
    const auto deadline =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(interval));
    while (g_stop_requested == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}

int cmd_shutdown(const Args& a) {
  farm::ignore_sigpipe();
  serve::LineChannel ch(serve::connect_to(client_address(a)));
  if (!ch.send_line(R"({"op":"shutdown"})")) {
    throw std::runtime_error("shutdown: daemon closed the connection");
  }
  std::string reply;
  if (ch.recv_line(reply)) std::cout << reply << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "inventory") return cmd_inventory();
    if (a.command == "campaign") return cmd_campaign(a);
    if (a.command == "worker") return cmd_worker(a);
    if (a.command == "report") return cmd_report(a);
    if (a.command == "explain") return cmd_explain(a);
    if (a.command == "merge") return cmd_merge(a);
    if (a.command == "beam") return cmd_beam(a);
    if (a.command == "trace") return cmd_trace(a);
    if (a.command == "mix") return cmd_mix(a);
    if (a.command == "derate") return cmd_derate(a);
    if (a.command == "serve") return cmd_serve(a);
    if (a.command == "submit") return cmd_submit(a);
    if (a.command == "status") return cmd_status(a);
    if (a.command == "watch") return cmd_watch(a);
    if (a.command == "shutdown") return cmd_shutdown(a);
    if (a.command == "top") return cmd_top(a);
  } catch (const CliError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
