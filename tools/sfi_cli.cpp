// sfi — the command-line front end of the Statistical Fault Injection
// framework. `sfi help` lists the verbs; `sfi help VERB` lists what a verb
// takes, each option with the default that verb runs with. Both are
// rendered from three tables: the verbs (kVerbs, above main()), the
// campaign options (serve::spec_options(), which the daemon also reads)
// and this tool's own options (cli_options()). A verb given an option or
// an argument it does not take exits 2 naming both.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
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
#include "serve/stop.hpp"
#include "stats/intervals.hpp"
#include "sfi/campaign.hpp"
#include "sfi/derating.hpp"
#include "sfi/engine.hpp"
#include "sfi/tracer.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/trace_stitch.hpp"
#include "telemetry/flight_recorder.hpp"

namespace {

using namespace sfi;

/// A bad command line (unknown option, missing argument). Exits with 2,
/// like a bare `sfi` and a bad campaign option (serve::SpecError), rather
/// than 1 (runtime failure).
struct CliError : std::runtime_error {
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

struct Args;

/// The daemon's defaults: what `submit` sends nothing for, and what an exec
/// worker's argv is written over.
serve::CampaignSpec daemon_defaults() { return {}; }

/// One verb: a row of kVerbs.
struct Verb {
  std::string_view name;
  u32 bit;  ///< its serve::verb bit, which the options it reads carry
  /// Its positional arguments: "" none, "[X]" at most one, "X..." any
  /// number.
  std::string_view args;
  int (*run)(const Args&);
  std::string_view summary;
  /// The spec its campaign options start from.
  serve::CampaignSpec (*start)() = daemon_defaults;

  [[nodiscard]] std::size_t max_args() const {
    if (args.empty()) return 0;
    return args.ends_with("...") ? std::numeric_limits<std::size_t>::max()
                                 : 1;
  }
};

/// The options that are not campaign-spec rows (serve::spec_options() has
/// those): together with the rows, every name the parser accepts, each with
/// the verbs that read it (serve::verb bits). A name may take a value on one
/// verb and be bare on another.
struct CliOption {
  std::string_view name;
  std::string_view value;  ///< placeholder for its value; "" when bare
  u32 verbs;
  std::string dflt;  ///< what a verb reads when it is not given ("": none)
  std::string_view help;

  [[nodiscard]] bool bare() const { return value.empty(); }
};
namespace verb = serve::verb;

const std::vector<CliOption>& cli_options() {
  static const std::vector<CliOption> options = [] {
    using namespace verb;
    const farm::FarmConfig fc;
    return std::vector<CliOption>{
        // durable campaigns and the farm
        {"out", "FILE.sfr", kCampaign | kMerge, "",
         "store to write (a campaign's is durable and resumable)"},
        {"resume", "", kCampaign, "",
         "continue an interrupted --out campaign exactly"},
        {"max-new", "N", kCampaign,
         std::to_string(sched::SchedulerConfig{}.max_new_injections),
         "stop after N new injections; finish with --resume (0: no cap)"},
        {"farm", "HOSTS.txt", kCampaign, "",
         "run workers per hosts-file line `host [slots]` (needs --out)"},
        // The CLI takes whole seconds.
        {"watchdog", "SECS", kCampaign,
         std::to_string(static_cast<u64>(fc.watchdog_seconds)),
         "kill a worker that commits nothing for SECS"},
        {"strikes", "K", kCampaign, std::to_string(fc.max_strikes),
         "worker deaths an injection run alone may cause before it is "
         "HarnessFatal"},
        {"keep-shards", "", kCampaign, "",
         "keep the workers' shard stores after the merge"},
        {"sabotage-crash", "I", kCampaign | kWorker, "",
         "test hook: a worker SIGKILLs itself at injection I, once"},
        {"sabotage-wedge", "I", kCampaign | kWorker, "",
         "test hook: a worker spins forever at injection I"},
        {"sabotage-wedge-once", "", kCampaign | kWorker, "",
         "wedge only on the first attempt (watchdog drill)"},
        // farm workers
        {"shard-store", "FILE.sfr", kWorker, "",
         "shard store this worker appends to (required)"},
        {"worker-id", "N", kWorker,
         std::to_string(farm::WorkerOptions{}.worker_id),
         "id stamped into this worker's frames"},
        {"ship-metrics", "", kWorker, "",
         "ship a metrics snapshot ('M' frame) per assignment"},
        // telemetry
        {"metrics-out", "FILE", kCampaign | kBeam, "",
         "write the metrics registry as JSON at the end"},
        {"events-out", "FILE", kCampaign | kBeam, "",
         "stream a JSONL event log"},
        {"chrome-trace", "FILE", kCampaign | kBeam, "",
         "write the span plane as Chrome-trace/Perfetto JSON"},
        {"telemetry-sample", "N", kCampaign | kBeam,
         std::to_string(inject::TelemetryConfig{}.event_sample),
         "keep every Nth per-injection event-log record"},
        {"trace-spans", "", kCampaign | kWorker, "",
         "record spans ('S' frames; a campaign's go to <out>.trace.sfr)"},
        {"postmortem", "FILE", kCampaign, "",
         "dump recent telemetry lines to FILE on a crash or farm failure"},
        // report, explain, trace; --json names a file for explain, and is a
        // bare flag for status and top (machine-readable output)
        {"from", "FILE.sfr", kReport | kExplain, "",
         "store to read (required)"},
        {"json", "FILE", kExplain, "", "also write the report as JSON"},
        {"json", "", kStatus | kTop, "", "print JSON, not a table"},
        {"csv", "FILE", kExplain, "", "also write one CSV row per footprint"},
        {"latch", "NAME[:BIT]", kTrace, "",
         "latch to flip, by hierarchical name (bit 0 unless given)"},
        {"cycle", "C", kTrace, "30", "injection cycle"},
        {"out", "FILE.json", kTrace, "trace.json",
         "where a stitched STORE.sfr's Trace Event JSON goes"},
        // serve and its clients
        {"state-dir", "DIR", kServe, "",
         "home of campaign stores; a restart resumes them (required)"},
        {"listen", "ADDR", kServe, "",
         "unix:PATH, tcp:HOST:PORT or tcp:PORT (unix:<state-dir>/sfi.sock)"},
        {"max-active", "N", kServe,
         std::to_string(serve::ServeConfig{}.max_active),
         "campaigns running at once; the rest queue fair-share by tenant"},
        {"http", "ADDR", kServe | kTop, "",
         "the daemon's HTTP plane: serve listens on it, top polls it"},
        {"connect", "ADDR", kSubmit | kStatus | kWatch | kShutdown, "",
         "daemon address, as for serve --listen (required)"},
        {"wait", "", kSubmit, "",
         "then stream the campaign's events until it ends"},
        {"id", "N", kWatch, "", "campaign id (required)"},
        {"interval", "SECS", kTop, "2", "refresh period"},
        {"once", "", kTop, "", "print one table and exit"},
    };
  }();
  return options;
}

/// A parsed command line. An option the verb reads that is not given reads
/// its default: a campaign option from the verb's starting spec (see
/// campaign_spec()), any other from its cli_options() entry.
struct Args {
  const Verb* verb = nullptr;  ///< none: no verb given, or no such verb
  std::map<std::string, std::string> opts;
  std::set<std::string> flags;
  std::vector<std::string> positional;

  /// The value given for `key`, else its entry's default, if it has one.
  [[nodiscard]] std::optional<std::string> str(const std::string& key) const {
    if (const auto it = opts.find(key); it != opts.end()) return it->second;
    for (const CliOption& o : cli_options()) {
      if (o.name == key && (o.verbs & verb->bit) != 0 && !o.dflt.empty()) {
        return o.dflt;
      }
    }
    return std::nullopt;
  }
  [[nodiscard]] u64 num(const std::string& key) const {
    return serve::parse_count("--" + key, value(key));
  }
  /// num() for options that land in a u32 destination: values above 2^32-1
  /// are a usage error, not a silent wrap (--n 4294967297 used to become 1).
  [[nodiscard]] u32 num_u32(const std::string& key) const {
    const u64 v = num(key);
    if (v > std::numeric_limits<u32>::max()) {
      throw CliError("invalid value for --" + key + ": '" + value(key) +
                     "' (exceeds the 32-bit range)");
    }
    return static_cast<u32>(v);
  }
  [[nodiscard]] double fnum(const std::string& key) const {
    return serve::parse_real("--" + key, value(key));
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return flags.count(key) != 0;
  }

 private:
  [[nodiscard]] std::string value(const std::string& key) const {
    const auto v = str(key);
    if (!v) throw std::logic_error("--" + key + " has no value or default");
    return *v;
  }
};

/// The campaign options on the command line, over the spec the verb starts
/// from.
serve::CampaignSpec campaign_spec(const Args& a) {
  serve::CampaignSpec spec = a.verb->start();
  serve::apply_flags(spec, a.opts, a.flags);
  return spec;
}

/// What `sfi campaign` and `sfi beam` run with when a flag is not given:
/// the scheduler's shard and flush windows and hardware threads, not the
/// daemon's deterministic-stop ones.
serve::CampaignSpec campaign_defaults() {
  serve::CampaignSpec spec;
  const sched::SchedulerConfig sc;
  spec.threads = inject::CampaignConfig{}.threads;
  spec.shard_size = sc.shard_size;
  spec.flush_records = sc.flush_records;
  return spec;
}

/// `sfi derate` runs CampaignConfig's sample size.
serve::CampaignSpec derate_defaults() {
  serve::CampaignSpec spec = campaign_defaults();
  spec.n = inject::CampaignConfig{}.num_injections;
  return spec;
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

int cmd_inventory(const Args& /*a*/) {
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

  [[nodiscard]] inject::CampaignTelemetry* get() const { return tel.get(); }

  /// With a `store`, --chrome-trace writes what `sfi trace` stitches from
  /// it; a run with no store renders its span book.
  void write_outputs(const std::string& store = {}) const {
    if (!tel) return;
    if (metrics_out) {
      tel->write_metrics(*metrics_out);
      std::cout << "metrics: " << *metrics_out << "\n";
    }
    if (trace_out) {
      std::ofstream f(*trace_out, std::ios::trunc | std::ios::binary);
      if (!f) throw std::runtime_error("cannot open --chrome-trace file " +
                                       *trace_out);
      f << (store.empty() ? telemetry::spans_to_chrome_json(
                                tel->spans()->snapshot())
                          : store::stitch_trace(store).json)
        << "\n";
      std::cout << "chrome trace: " << *trace_out
                << " (load in chrome://tracing)\n";
    }
  }
};

TelemetrySinks make_telemetry(const Args& a) {
  TelemetrySinks s;
  s.metrics_out = a.str("metrics-out");
  s.trace_out = a.str("chrome-trace");
  const auto events_out = a.str("events-out");
  // Parse before the early return: a malformed value must error even when
  // no sink is enabled.
  const auto sample = a.num_u32("telemetry-sample");
  // --postmortem implies a telemetry facade: the flight-recorder ring only
  // holds lines the telemetry layer emits, so without one the dump would
  // always be empty.
  const bool postmortem = a.str("postmortem").has_value();
  const bool spans = s.trace_out || a.flag("trace-spans");
  if (!s.metrics_out && !events_out && !postmortem && !spans) return s;
  s.tel = std::make_unique<inject::CampaignTelemetry>(
      inject::TelemetryConfig{.event_sample = sample});
  if (events_out) s.tel->open_event_log(*events_out);
  // A single-process run renders as a stitched trace with one process row;
  // a farm coordinator renames its row and gives the book a trace id.
  if (spans) s.tel->enable_span_plane("sfi", /*trace_id=*/0);
  return s;
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

/// The progress line of a store or farm campaign, redrawn in place on
/// stderr. Its record count and outcome tallies count the executor's
/// durable-record feed (on_record: the resumed records, then each record
/// once it is committed), and its `hw` is the widest outcome interval at
/// the campaign's --confidence, the statistic the daemon stops on. Rate
/// and ETA are sched::Progress's.
class ProgressLine {
 public:
  ProgressLine(std::string tag, double confidence)
      : tag_(std::move(tag)), target_{.confidence = confidence} {}

  /// The executor's on_record; flushing workers call it concurrently.
  void count(const store::StoredRecord& sr) {
    const std::lock_guard lock(mu_);
    agg_.add(sr.rec);
  }

  /// The executor's on_progress.
  void redraw(const sched::Progress& p) {
    inject::CampaignAggregate agg;
    {
      const std::lock_guard lock(mu_);
      agg = agg_;
    }
    std::cerr << "\r" << render(p, agg) << std::flush;
  }

  /// The last line, from a sched::ScheduledResult or farm::FarmResult: the
  /// aggregate of the store the run left.
  template <class Result>
  void finish(const Result& r) const {
    const sched::Progress p{.done = r.agg.total(),
                            .total = r.meta.num_injections,
                            .executed = r.executed,
                            .wall_seconds = r.wall_seconds};
    std::cerr << "\r" << render(p, r.agg) << "\n";
  }

 private:
  [[nodiscard]] std::string render(const sched::Progress& p,
                                   const inject::CampaignAggregate& agg) const {
    static constexpr std::array<std::string_view, inject::kNumOutcomes>
        kShort = {"van", "corr", "hang", "cstop", "sdc", "hfatal"};
    // "—" until a value is real: no rate before the first injection, no
    // half-width before the first record.
    const auto num = [](std::optional<double> v, int decimals,
                        std::string_view unit = "") {
      return v ? report::Table::num(*v, decimals) + std::string(unit)
               : std::string("—");
    };
    const double hw = serve::widest_half_width(agg, target_);
    std::ostringstream line;
    line << tag_ << ' ' << agg.total() << '/' << p.total << " ("
         << num(p.rate_per_s(), 0) << " inj/s, ETA "
         << num(p.eta_seconds(), 0, "s") << ")";
    for (const auto o : inject::kAllOutcomes) {
      line << ' ' << kShort[static_cast<std::size_t>(o)] << ' '
           << agg.counts.of(o);
    }
    line << " hw " << num(hw < 0.0 ? std::nullopt : std::optional(hw), 4);
    return line.str();
  }

  std::string tag_;
  serve::StopTarget target_;
  std::mutex mu_;
  inject::CampaignAggregate agg_;
};

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
  telemetry::FlightRecorder::global().enable(
      telemetry::FlightRecorder::kSlots);
  telemetry::FlightRecorder::arm_signals(*path);
  return *path;
}

farm::SabotageConfig sabotage_from_args(const Args& a) {
  farm::SabotageConfig s;
  if (a.opts.count("sabotage-crash") != 0) {
    s.crash_index = a.num_u32("sabotage-crash");
  }
  if (a.opts.count("sabotage-wedge") != 0) {
    s.wedge_index = a.num_u32("sabotage-wedge");
  }
  s.wedge_once = a.flag("sabotage-wedge-once");
  return s;
}

/// Farm campaign: supervised multi-process execution into per-worker shard
/// stores, merged byte-identically into `out`.
int cmd_campaign_farm(const Args& a, const serve::CampaignSpec& spec,
                      const avp::Testcase& tc, const serve::CampaignRun& run,
                      const std::string& out, const TelemetrySinks& sinks) {
  farm::FarmConfig fc;
  fc.workers = spec.workers;
  if (const auto hosts = a.str("farm")) {
    fc.hosts = farm::parse_hosts_file(*hosts);
    fc.worker_command = serve::worker_command(spec);
  }
  fc.shard_size = spec.shard_size;
  fc.max_strikes = a.num_u32("strikes");
  fc.watchdog_seconds = static_cast<double>(a.num("watchdog"));
  fc.sabotage = sabotage_from_args(a);
  fc.keep_shards = a.flag("keep-shards");
  fc.postmortem_path = postmortem_from_args(a);
  install_stop_handler();
  fc.should_stop = [] { return g_stop_requested != 0; };
  ProgressLine progress("[farm]", spec.confidence);
  fc.on_record = [&](const store::StoredRecord& sr) { progress.count(sr); };
  fc.on_progress = [&](const sched::Progress& p) { progress.redraw(p); };

  const farm::FarmResult r =
      farm::run_farm_campaign(tc, run.config, out, fc, a.flag("resume"));
  progress.finish(r);

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
  if (sinks.tel && sinks.tel->spans() != nullptr) {
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
  sinks.write_outputs(out);
  std::cout << "\n";
  print_campaign_tables(r.agg, spec.confidence);
  if (r.stopped) {
    print_resume_hint(out);
    return 130;
  }
  return 0;
}

/// Farm worker process: `sfi worker --shard-store FILE [--worker-id N]`.
/// Its campaign flags are serve::worker_command's, read over the same
/// defaults, so coordinator and worker build the same plan.
int cmd_worker(const Args& a) {
  const auto shard = a.str("shard-store");
  if (!shard) throw CliError("worker requires --shard-store FILE.sfr");
  const serve::CampaignRun run = serve::campaign_run(campaign_spec(a));
  farm::WorkerOptions wo;
  wo.worker_id = a.num_u32("worker-id");
  wo.shard_path = *shard;
  wo.sabotage = sabotage_from_args(a);
  wo.ship_metrics = a.flag("ship-metrics");
  wo.ship_spans = a.flag("trace-spans");
  return farm::run_worker(avp::generate_testcase(run.testcase), run.config,
                          wo);
}

/// Scheduled (durable) campaign: stream records into a store file.
int cmd_campaign_to_store(const Args& a, const serve::CampaignSpec& spec,
                          const avp::Testcase& tc,
                          const serve::CampaignRun& run,
                          const std::string& out,
                          const TelemetrySinks& sinks) {
  sched::SchedulerConfig sc = run.sched;
  sc.max_new_injections = a.num("max-new");
  (void)postmortem_from_args(a);  // in-process: dump on fatal signal only
  install_stop_handler();
  sc.should_stop = [] { return g_stop_requested != 0; };
  ProgressLine progress("[campaign]", spec.confidence);
  sc.on_record = [&](const store::StoredRecord& sr) { progress.count(sr); };
  sc.on_progress = [&](const sched::Progress& p) { progress.redraw(p); };

  const sched::ScheduledResult r =
      sched::run_campaign_to_store(tc, run.config, out, sc, a.flag("resume"));
  progress.finish(r);

  std::cout << report::section("campaign result");
  std::cout << "store: " << out << " ("
            << (r.complete ? "complete" : "INCOMPLETE — finish with --resume")
            << "); " << r.executed << " executed this run, " << r.resumed
            << " resumed, " << r.shards << " shards\n";
  if (run.config.footprint.enabled) {
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
  sinks.write_outputs(out);
  std::cout << "\n";
  print_campaign_tables(r.agg, spec.confidence);
  if (r.stopped) {
    print_resume_hint(out);
    return 130;
  }
  return 0;
}

/// `sfi campaign` runs in memory (no --out), into a store in process, or
/// on a farm (--workers/--farm), and refuses a given option its mode does
/// not read, naming both. Only a farm supervises workers; a farm's workers
/// run one thread and commit each record; only a store has windows.
void refuse_unread(const Args& a, const std::string& mode,
                   std::initializer_list<std::string_view> keys) {
  for (const std::string_view key : keys) {
    const std::string k(key);
    if (a.opts.count(k) != 0 || a.flag(k)) {
      throw CliError("sfi campaign " + mode + " does not take --" + k +
                     " (see `sfi help campaign`)");
    }
  }
}

int cmd_campaign(const Args& a) {
  const serve::CampaignSpec spec = campaign_spec(a);
  const bool farm_mode = spec.workers != 0 || a.opts.count("farm") != 0;
  const auto out = a.str("out");
  const std::initializer_list<std::string_view> supervision = {
      "watchdog",       "strikes",        "keep-shards",
      "sabotage-crash", "sabotage-wedge", "sabotage-wedge-once"};
  if (!out) {
    if (farm_mode) {
      throw CliError(
          "--workers/--farm require --out FILE.sfr (shards merge into it)");
    }
    if (a.flag("trace-spans")) {
      throw CliError(
          "--trace-spans requires --out FILE.sfr (its trace sidecar holds "
          "the spans); for a run with no store, use --chrome-trace FILE");
    }
    refuse_unread(a, "without --out",
                  {"resume", "shard-size", "flush", "max-new", "postmortem"});
    refuse_unread(a, "without --out", supervision);
  } else if (farm_mode) {
    refuse_unread(a, a.opts.count("farm") != 0 ? "--farm" : "--workers",
                  {"threads", "flush", "max-new"});
  } else {
    refuse_unread(a, "--out without --workers", supervision);
  }

  serve::CampaignRun run = serve::campaign_run(spec);
  const avp::Testcase tc = avp::generate_testcase(run.testcase);
  const TelemetrySinks sinks = make_telemetry(a);
  run.config.telemetry = sinks.get();
  if (out) {
    if (farm_mode) return cmd_campaign_farm(a, spec, tc, run, *out, sinks);
    return cmd_campaign_to_store(a, spec, tc, run, *out, sinks);
  }

  const inject::CampaignResult r = inject::run_campaign(tc, run.config);
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
  print_campaign_tables(r.agg, spec.confidence);
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
  print_campaign_tables(agg, campaign_spec(a).confidence);
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
    std::cout << report::section("first checker to fire (in the window)");
    std::cout << ct.to_string();
  }
  std::cout << "\nfootprint span: " << rerun_cycles
            << " cycles after the flips (the windows the footprints "
               "cover)\n";

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
  const serve::CampaignSpec spec = campaign_spec(a);
  const serve::CampaignRun run = serve::campaign_run(spec);
  const avp::Testcase tc = avp::generate_testcase(run.testcase);
  const inject::CampaignConfig& c = run.config;
  beam::BeamConfig cfg;
  cfg.seed = c.seed;
  cfg.num_events = c.num_injections;
  cfg.threads = c.threads;
  cfg.ckpt_interval = c.ckpt_interval;
  cfg.ckpt_memory_budget = c.ckpt_memory_budget;
  cfg.core = c.core;
  const TelemetrySinks sinks = make_telemetry(a);
  cfg.telemetry = sinks.get();
  const beam::BeamResult r = beam::run_beam_experiment(tc, cfg);
  std::cout << report::section("beam exposure result");
  std::cout << r.latch_events << " latch strikes, " << r.array_events
            << " protected-array strikes\n\n";
  print_outcomes(r.counts(), spec.confidence);
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
  if (!std::filesystem::exists(store_path)) {
    throw store::StoreError("cannot open store file: " + store_path);
  }
  const store::StitchResult r = store::stitch_trace(store_path);
  const std::string out = *a.str("out");
  {
    std::ofstream f(out, std::ios::trunc | std::ios::binary);
    if (!f) throw std::runtime_error("trace: cannot write " + out);
    f << r.json << "\n";
  }
  std::cout << "stitched " << r.spans << " span(s) from " << r.files
            << " file(s), " << r.processes << " process row(s) -> " << out
            << " (load in Perfetto / chrome://tracing)\n";
  if (r.spans == 0) {
    std::cout << "hint: record spans with `sfi campaign --out FILE.sfr "
                 "--trace-spans` or a daemon campaign\n";
  }
  return 0;
}

int cmd_trace(const Args& a) {
  // Positional store argument => stitch mode, which reads only --out;
  // --latch => single-fault cause-to-effect trace (the original verb),
  // which reads every other option. The two share the verb's options, so
  // each refuses a given one that only the other reads.
  const bool stitch = !a.positional.empty();
  const auto latch = a.str("latch");
  if (!stitch && !latch) {
    throw CliError(
        "trace requires --latch NAME[:BIT] (single-fault trace) or a "
        "positional STORE.sfr (stitch the campaign's span plane)");
  }
  const auto refuse = [&](const std::string& key) {
    if ((key == "out") != stitch) {
      throw CliError(std::string("sfi trace ") +
                     (stitch ? "STORE.sfr" : "--latch") +
                     " does not take --" + key + " (see `sfi help trace`)");
    }
  };
  for (const auto& [key, value] : a.opts) refuse(key);
  for (const std::string& key : a.flags) refuse(key);
  if (stitch) return cmd_trace_stitch(a);
  std::string name = *latch;
  u64 bit = 0;
  if (const auto colon = name.find(':'); colon != std::string::npos) {
    bit = serve::parse_count("--latch", name.substr(colon + 1));
    name = name.substr(0, colon);
  }

  const serve::CampaignSpec spec = campaign_spec(a);
  const serve::CampaignRun run = serve::campaign_run(spec);
  const avp::Testcase tc = avp::generate_testcase(run.testcase);
  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model model(run.config.core);
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
  f.cycle = a.num("cycle");
  if (spec.sticky != 0) {
    f.mode = inject::FaultMode::Sticky;
    f.sticky_duration = spec.sticky;
    f.sticky_value = true;
  }
  const auto t = inject::trace_injection(model, emu, cp, trace, golden, f);
  std::cout << inject::format_trace(t);
  return 0;
}

int cmd_derate(const Args& a) {
  const serve::CampaignRun run = serve::campaign_run(campaign_spec(a));
  const inject::CampaignResult r = inject::run_campaign(
      avp::generate_testcase(run.testcase), run.config);

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
  const avp::MixReport rep = avp::measure_mix(
      avp::generate_testcase(serve::campaign_run(campaign_spec(a)).testcase));
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
  sc.max_active = a.num_u32("max-active");
  if (const auto h = a.str("http")) sc.http = *h;
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
  // The body carries only the campaign options given: the daemon reads the
  // rest from the same table's defaults.
  telemetry::JsonWriter w;
  w.begin_object().field("op", "submit");
  serve::write_spec(w, campaign_spec(a), /*all=*/false);
  w.end_object();
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
  const u64 id = a.str("id") ? a.num("id") : 0;
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
  // Any other period polls without pause (0, -1, nan) or never again (inf).
  const double interval = a.fnum("interval");
  if (!(interval > 0.0) || !std::isfinite(interval)) {
    throw CliError("invalid value for --interval: '" + *a.str("interval") +
                   "' (expected a finite number of seconds above 0)");
  }
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
            .field("dead_on_arrival", c.get_u64("dead_on_arrival", 0))
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
                       "eta", "hw/target", "wrk", "dead", "outcome mix"});
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
                   std::to_string(c.get_u64("workers", 0)),
                   std::to_string(c.get_u64("dead_on_arrival", 0)), mix});
      }
      std::cout << t.to_string() << std::flush;
    }
    if (once) return 0;
    // Sleep in slices so Ctrl-C lands promptly, not a poll later.
    while (g_stop_requested == 0 &&
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         now)
                   .count() < interval) {
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

int cmd_help(const Args& a);

/// The verbs: what parse() looks a verb up in, what `sfi help` lists, and
/// what main() dispatches through.
constexpr Verb kVerbs[] = {
    {"inventory", verb::kInventory, "", cmd_inventory,
     "latch/array population report"},
    {"campaign", verb::kCampaign, "", cmd_campaign,
     "run a fault-injection campaign, in memory or into a resumable store",
     campaign_defaults},
    {"worker", verb::kWorker, "", cmd_worker,
     "farm worker process (a coordinator spawns it; assignments on stdin)"},
    {"report", verb::kReport, "", cmd_report,
     "regenerate campaign tables from a store, with no simulation"},
    {"explain", verb::kExplain, "", cmd_explain,
     "fault-propagation forensics from a store's footprints"},
    {"merge", verb::kMerge, "IN...", cmd_merge,
     "merge store shards into one canonical store"},
    {"beam", verb::kBeam, "", cmd_beam,
     "run a simulated proton-beam exposure", campaign_defaults},
    {"trace", verb::kTrace, "[STORE.sfr]", cmd_trace,
     "trace one fault (--latch), or stitch a store's spans for Perfetto"},
    {"mix", verb::kMix, "", cmd_mix, "AVP instruction mix and CPI"},
    {"derate", verb::kDerate, "", cmd_derate,
     "derating factors and chip FIT budget from a campaign",
     derate_defaults},
    {"serve", verb::kServe, "", cmd_serve,
     "multi-tenant campaign daemon with adaptive early stop"},
    {"submit", verb::kSubmit, "", cmd_submit,
     "submit a campaign to a daemon; only the options given are sent"},
    {"status", verb::kStatus, "", cmd_status, "one line per daemon campaign"},
    {"watch", verb::kWatch, "", cmd_watch,
     "stream a campaign's JSONL event log"},
    {"shutdown", verb::kShutdown, "", cmd_shutdown,
     "stop a daemon; running campaigns stay resumable"},
    {"top", verb::kTop, "", cmd_top,
     "live per-campaign table over a daemon's HTTP plane"},
    {"help", 0, "[VERB]", cmd_help, "list the verbs, or what one verb takes"},
};

const Verb* find_verb(std::string_view name) {
  for (const Verb& v : kVerbs) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

/// `sfi help`, and what a bare `sfi` prints.
void print_verbs() {
  std::cout << "usage: sfi VERB [options]  (`sfi help VERB` lists what a "
               "verb takes)\n";
  for (const Verb& v : kVerbs) {
    std::cout << "  " << std::left << std::setw(10) << v.name << v.summary
              << "\n";
  }
}

/// `sfi help VERB`: each option the verb reads, with the default it runs
/// with.
void print_verb_help(const Verb& v) {
  std::cout << "usage: sfi " << v.name << (v.args.empty() ? "" : " ")
            << v.args << "\n" << v.summary << "\n";
  const auto print = [](std::string_view name, std::string_view value,
                        std::string_view help, const std::string& dflt) {
    std::string option = "--" + std::string(name);
    if (!value.empty()) option += " " + std::string(value);
    std::cout << "  " << std::left << std::setw(23) << option << "  " << help;
    if (!dflt.empty()) std::cout << " (default " << dflt << ")";
    std::cout << "\n";
  };
  const serve::CampaignSpec start = v.start();
  for (const serve::SpecOption& row : serve::spec_options()) {
    if ((row.verbs & v.bit) != 0) {
      print(row.flag, row.value, row.help, row.get(start));
    }
  }
  for (const CliOption& o : cli_options()) {
    if ((o.verbs & v.bit) != 0) print(o.name, o.value, o.help, o.dflt);
  }
}

int cmd_help(const Args& a) {
  if (a.positional.empty()) {
    print_verbs();
    return 0;
  }
  const Verb* v = find_verb(a.positional.front());
  if (v == nullptr) {
    throw CliError("no verb " + a.positional.front() + " (see `sfi help`)");
  }
  print_verb_help(*v);
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) return a;
  a.verb = find_verb(argv[1]);
  if (a.verb == nullptr) return a;  // main() prints the verbs
  const std::string name(a.verb->name);
  const std::string see = " (see `sfi help " + name + "`)";
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      if (a.positional.size() == a.verb->max_args()) {
        throw CliError("stray argument '" + key + "'" + see);
      }
      a.positional.push_back(key);
      continue;
    }
    key = key.substr(2);
    // Whether the option takes no value, once one this verb reads is found.
    std::optional<bool> bare;
    bool known = false;
    const auto match = [&](std::string_view option, u32 verbs, bool is_bare) {
      known = known || option == key;
      if (option == key && (verbs & a.verb->bit) != 0) bare = is_bare;
    };
    for (const serve::SpecOption& row : serve::spec_options()) {
      match(row.flag, row.verbs, row.bare());
    }
    for (const CliOption& o : cli_options()) match(o.name, o.verbs, o.bare());
    if (!known) throw CliError("unknown option --" + key + see);
    if (!bare) throw CliError("sfi " + name + " does not take --" + key + see);
    if (*bare) {
      a.flags.insert(key);
    } else if (i + 1 < argc) {
      a.opts[key] = argv[++i];
    } else {
      throw CliError("option --" + key + " expects a value");
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.verb != nullptr) return a.verb->run(a);
  } catch (const CliError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const serve::SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  print_verbs();
  return 2;
}
