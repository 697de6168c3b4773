// Campaign benchmark: runs one named workload through the repo's public
// campaign drivers for a fixed time, checks every store it produced against
// an untimed reference, and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Workloads, all closed loop (one campaign call returns before the next
// starts), T = min(2, nproc):
//   avp-scalar        AVP-160, 20000 toggle faults, scalar engine, T threads,
//                     sched::run_campaign_to_store.
//   avp-long-lanes    AVP-2000, 5000 toggle faults, lane engine at 1024
//                     lanes, T threads, sched::run_campaign_to_store.
//   avp-farm-lanes    the avp-scalar plan on the lane engine with T fork-call
//                     workers, farm::run_farm_campaign (merge included).
//   serve-early-stop  an in-process serve::Daemon on a unix socket; two
//                     tenants submit AVP-160 campaigns at once (seeds N and
//                     N+1, scalar, daemon-default one thread, shard 16,
//                     flush 8, 95% / 0.01 half-width target, 20000 ceiling)
//                     and each waits for its finish event.
//
// The workload seed is the campaign seed; the testcase seed is fixed (2026).
// Every store is canonical-merged and compared byte for byte with a scalar
// single-thread reference of the same plan and seed (for serve: with a
// direct --max-new <stop point> run, shard 16, flush 8). A mismatch, a
// harness failure or, at the recorded seed, a stop point other than the
// recorded one counts as failed and makes the exit code 1.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the loop untraced
// and then traced (half the time each), runs the per-layer probes with
// spans around every call into a layer, writes the spans as a Chrome trace
// under --out-dir and prints the per-layer metrics. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "farm/farm.hpp"
#include "sched/scheduler.hpp"
#include "serve/daemon.hpp"
#include "serve/stop.hpp"
#include "sfi/engine.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "telemetry/json.hpp"

namespace perfbench {
namespace {

using namespace sfi;
namespace fs = std::filesystem;

enum class Mode { Sched, Farm, Serve };

struct Workload {
  std::string name;
  Mode mode = Mode::Sched;
  u32 instructions = 160;
  u32 n = 20000;
  inject::EngineKind engine = inject::EngineKind::Scalar;
  u32 lanes = 64;
  u32 threads = 1;  ///< scheduler threads or farm workers (T)
  u32 shard_size = 64;
  u32 flush_records = 32;
};

constexpr u64 kTestcaseSeed = 2026;
constexpr u32 kTenants = 2;
constexpr double kConfidence = 0.95;
constexpr double kHalfWidth = 0.01;
/// serve-early-stop's stop points, tenant by tenant, at its default seed.
constexpr u64 kRecordedStopSeed = 42;
constexpr std::array<u64, kTenants> kRecordedStopPoints = {4592, 4360};
/// A half-width no campaign reaches: serve runs the whole ceiling.
constexpr double kNeverMet = 1e-9;
constexpr int kSetupReps = 3;
/// Plan builds between two calls run for at least this long.
constexpr double kSetupGapSeconds = 0.2;
/// setup_s is this low percentile of a run's plan builds: host noise only
/// slows a build, and on a noisy host the median moves with the host's
/// slow phases, not with the code.
constexpr double kSetupPercentile = 0.1;
constexpr std::size_t kMinCalls = 3;
/// T: at 4 the 5 lane shards of avp-long-lanes land unevenly on the threads
/// and the seed, not the code, decides the wall time; 2 also leaves a core
/// for the farm coordinator and the daemon's IO thread.
constexpr u32 kMaxThreads = 2;

std::optional<Workload> find_workload(const std::string& name, u32 t) {
  using inject::EngineKind;
  if (name == "avp-scalar") {
    return Workload{name, Mode::Sched, 160, 20000, EngineKind::Scalar, 64, t};
  }
  if (name == "avp-long-lanes") {
    return Workload{name, Mode::Sched, 2000, 5000, EngineKind::Lanes, 1024, t};
  }
  if (name == "avp-farm-lanes") {
    return Workload{name, Mode::Farm, 160, 20000, EngineKind::Lanes, 64, t};
  }
  if (name == "serve-early-stop") {
    return Workload{name,         Mode::Serve, 160, 20000, EngineKind::Scalar,
                    64,           1,           16,  8};
  }
  return std::nullopt;
}

struct ArgError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  u64 seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

u64 parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  u64 out = 0;
  try {
    out = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) {
    throw ArgError(flag + " expects a whole number, got '" + v + "'");
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw ArgError(flag + " expects a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, v));
    } else if (flag == "--trace") {
      const u64 t = parse_u64(flag, v);
      if (t > 1) throw ArgError("--trace expects 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      throw ArgError("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw ArgError("--workload is required");
  if (a.seconds < 1) throw ArgError("--seconds must be at least 1");
  return a;
}

avp::Testcase make_testcase(u32 instructions) {
  avp::TestcaseConfig tcfg;
  tcfg.seed = kTestcaseSeed;
  tcfg.num_instructions = instructions;
  return avp::generate_testcase(tcfg);
}

inject::CampaignConfig campaign_config(const Workload& w, u64 seed) {
  inject::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.num_injections = w.n;
  cfg.threads = w.threads;
  cfg.engine = w.engine;
  cfg.lanes = w.lanes;
  return cfg;
}

sched::SchedulerConfig sched_config(const Workload& w) {
  sched::SchedulerConfig sc;
  sc.threads = w.threads;
  sc.shard_size = w.shard_size;
  sc.flush_records = w.flush_records;
  return sc;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Canonical form of a store (sorted, deduplicated, marker-free) as bytes.
std::string canonical_bytes(const std::string& store_path) {
  const std::string out = store_path + ".canon";
  (void)store::merge_stores({store_path}, out);
  std::string bytes = read_bytes(out);
  fs::remove(out);
  return bytes;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB. A forked farm worker starts with this process's
  // pages resident, so the largest waited-for child already counts them:
  // the peak is the larger of the two, not their sum.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

/// Frames of every kind in a farm call's shard stores, which it then removes.
struct FrameCounts {
  u64 heartbeats = 0;
  u64 assignments = 0;
  u64 commits = 0;
  u64 records = 0;
  u64 frames = 0;
  u64 bytes = 0;
};

FrameCounts take_shard_frames(const std::string& out_path) {
  const std::string stem = fs::path(out_path).stem().string() + ".w";
  FrameCounts fc;
  std::vector<fs::path> shards;
  for (const fs::directory_entry& e : fs::directory_iterator(".")) {
    const std::string name = e.path().filename().string();
    if (name.starts_with(stem) && name.ends_with(".sfr")) {
      shards.push_back(e.path());
    }
  }
  for (const fs::path& p : shards) {
    fc.bytes += fs::file_size(p);
    store::StoreReader reader(p.string(), {.tolerate_torn_tail = true});
    u8 kind = 0;
    std::vector<u8> payload;
    while (reader.next_frame(kind, payload)) {
      ++fc.frames;
      if (kind == store::kHeartbeatFrame) ++fc.heartbeats;
      if (kind == store::kAssignmentFrame) ++fc.assignments;
      if (kind == store::kCommitFrame) ++fc.commits;
      if (kind == store::kRecordFrame) ++fc.records;
    }
    fs::remove(p);
  }
  return fc;
}

// --- serve ---------------------------------------------------------------

/// A serve::Daemon running on its own thread in `state_dir`; stopped and
/// joined on destruction.
class DaemonThread {
 public:
  explicit DaemonThread(const std::string& state_dir)
      : daemon_(config(state_dir)) {
    thread_ = std::thread([this] {
      try {
        daemon_.run();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    wait_ready();
  }
  ~DaemonThread() {
    daemon_.request_stop();
    thread_.join();
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  [[nodiscard]] const serve::Address& address() const {
    return daemon_.address();
  }

 private:
  static serve::ServeConfig config(const std::string& state_dir) {
    serve::ServeConfig cfg;
    cfg.state_dir = state_dir;
    return cfg;
  }

  void wait_ready() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline && !error_) {
      try {
        serve::LineChannel ch(serve::connect_to(daemon_.address()));
        std::string reply;
        if (ch.send_line(R"({"op":"ping"})") && ch.recv_line(reply)) return;
      } catch (const serve::WireError&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    daemon_.request_stop();
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    throw std::runtime_error("serve daemon never became ready");
  }

  serve::Daemon daemon_;
  std::exception_ptr error_;
  std::thread thread_;
};

struct TenantRun {
  bool ok = false;
  std::string error;
  std::string store;
  u64 records = 0;
  u64 stop_point = 0;
  bool early_stop = false;
  double admit_ms = 0.0;  ///< daemon stamps: submitted -> admitted
  double seconds = 0.0;   ///< client clock: submit -> finish event
};

std::string submit_line(const Workload& w, const std::string& tenant, u64 seed,
                        u32 n, double half_width) {
  telemetry::JsonWriter j;
  j.begin_object()
      .field("op", "submit")
      .field("tenant", tenant)
      .field("seed", seed)
      .field("testcase_seed", kTestcaseSeed)
      .field("instructions", w.instructions)
      .field("n", n)
      .field("confidence", kConfidence)
      .field("half_width", half_width)
      .field("threads", w.mode == Mode::Serve ? 0u : w.threads)
      .field("shard_size", w.shard_size)
      .field("flush_records", w.flush_records)
      .field("inj_engine", inject::engine_name(w.engine))
      .field("lanes", w.lanes)
      .end_object();
  return j.str();
}

/// Submit one campaign and follow its events until it finishes.
TenantRun run_tenant(const serve::Address& addr, const std::string& line) {
  TenantRun r;
  try {
    const auto t0 = Clock::now();
    serve::LineChannel ch(serve::connect_to(addr));
    std::string reply;
    if (!ch.send_line(line) || !ch.recv_line(reply)) {
      r.error = "submit: no reply from the daemon";
      return r;
    }
    const serve::Json ack = serve::Json::parse(reply);
    if (!ack.get_bool("ok", false)) {
      r.error = "submit refused: " + ack.get_str("error", "?");
      return r;
    }
    telemetry::JsonWriter watch;
    watch.begin_object()
        .field("op", "watch")
        .field("id", ack.get_u64("id", 0))
        .end_object();
    if (!ch.send_line(watch.str())) {
      r.error = "watch: daemon closed the connection";
      return r;
    }
    double submitted_us = 0.0;
    double admitted_us = 0.0;
    std::string ev_line;
    while (ch.recv_line(ev_line)) {
      const serve::Json ev = serve::Json::parse(ev_line);
      const std::string kind = ev.get_str("ev", "");
      if (kind == "submitted") submitted_us = ev.get_num("t_us", 0.0);
      if (kind == "admitted") admitted_us = ev.get_num("t_us", 0.0);
      if (kind == "failed") {
        r.error = "campaign failed: " + ev.get_str("error", "?");
        return r;
      }
      if (kind == "finish") {
        r.seconds = seconds_since(t0);
        r.records = ev.get_u64("records", 0);
        r.stop_point = ev.get_u64("stop_point", 0);
        r.early_stop = ev.get_bool("early_stop", false);
        r.store = ev.get_str("store", "");
        r.admit_ms = (admitted_us - submitted_us) / 1e3;
        r.ok = true;
        return r;
      }
    }
    r.error = "watch ended before the finish event";
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// The direct run a tenant's stopped store must equal: the same campaign,
/// one thread, shard 16, flush 8, capped at the stop point.
struct TenantRef {
  u64 seed = 0;
  u64 stop_point = 0;
  std::string bytes;
  std::vector<store::StoredRecord> records;  ///< kept for the probes only
  u64 cycles = 0;
};

// --- the benchmark -------------------------------------------------------

struct Totals {
  u64 attempted = 0;
  u64 failed = 0;
  u64 crashes = 0;
  u64 retries = 0;
  std::vector<std::string> errors;

  void fail(u64 count, const std::string& why) {
    failed += count;
    errors.push_back(why);
  }
};

/// One timed driver call: durable injections and host seconds.
struct Call {
  double seconds = 0.0;
  u64 records = 0;
  [[nodiscard]] double rate() const {
    return static_cast<double>(records) / seconds;
  }
};

/// Durable injections over host seconds across all of a run's calls: the
/// time-weighted rate, which averages the host's slow and fast phases.
double total_rate(const std::vector<Call>& calls) {
  double seconds = 0.0;
  u64 records = 0;
  for (const Call& c : calls) {
    seconds += c.seconds;
    records += c.records;
  }
  return static_cast<double>(records) / seconds;
}

std::vector<double> seconds_of(const std::vector<Call>& calls) {
  std::vector<double> out;
  for (const Call& c : calls) out.push_back(c.seconds);
  return out;
}

class Bench {
 public:
  Bench(Workload w, Args args, u32 nproc, double loadavg)
      : w_(std::move(w)),
        args_(std::move(args)),
        nproc_(nproc),
        loadavg_(loadavg),
        tc_(make_testcase(w_.instructions)),
        cfg_(campaign_config(w_, args_.seed)),
        tracer_(args_.seed, false) {}

  int run();

 private:
  /// Time one plan build (set-up); the plan is dropped at once, so it adds
  /// nothing to the peak memory of the calls.
  void time_setup();
  void make_reference();
  std::vector<Call> measure(double seconds);
  Call call_sched();
  Call call_farm();
  Call call_serve();
  void make_tenant_refs(const std::vector<TenantRun>& runs);
  void check_store(const std::string& path, const std::string& want,
                   u64 injections, const std::string& what);
  void probe_layers(Metrics& m, const std::vector<Call>& untraced,
                    double trace_ratio);
  TenantRun serve_probe(const std::string& tenant);
  [[nodiscard]] std::string context_json() const;

  Workload w_;
  Args args_;
  u32 nproc_;
  double loadavg_;
  avp::Testcase tc_;
  inject::CampaignConfig cfg_;  ///< serve: tenant 0's campaign
  std::vector<double> setup_samples_;
  Tracer tracer_;
  Totals totals_;

  // Reference of the workload's campaign (Sched/Farm). Its records are read
  // only for the probes of a traced run.
  std::string ref_bytes_;
  std::vector<store::StoredRecord> ref_records_;
  store::CampaignMeta ref_meta_;
  u64 ref_cycles_ = 0;

  // Serve.
  u32 serve_calls_ = 0;
  std::vector<TenantRef> tenant_refs_;
  std::vector<double> admit_ms_;
  std::vector<double> tenant0_seconds_;

  // Farm results kept for the per-layer probes.
  FrameCounts frames_;
};

void Bench::time_setup() {
  const auto t0 = Clock::now();
  const inject::CampaignPlan plan = inject::plan_campaign(tc_, cfg_);
  setup_samples_.push_back(seconds_since(t0));
}

void Bench::make_reference() {
  inject::CampaignConfig cfg = cfg_;
  cfg.engine = inject::EngineKind::Scalar;
  cfg.threads = 1;
  sched::SchedulerConfig sc;
  sc.threads = 1;
  const sched::ScheduledResult r =
      sched::run_campaign_to_store(tc_, cfg, "ref.sfr", sc);
  ref_bytes_ = canonical_bytes("ref.sfr");
  ref_cycles_ = r.cycles_evaluated;
  if (args_.trace) {
    store::StoreContents c = store::read_store("ref.sfr");
    ref_records_ = std::move(c.records);
    ref_meta_ = c.meta;
  }
}

void Bench::check_store(const std::string& path, const std::string& want,
                        u64 injections, const std::string& what) {
  if (canonical_bytes(path) != want) {
    totals_.fail(injections, what + ": canonical store differs from the reference");
  }
}

Call Bench::call_sched() {
  Tracer::Scope s(tracer_, "sched::run_campaign_to_store", "sched");
  const auto t0 = Clock::now();
  sched::ScheduledResult r =
      sched::run_campaign_to_store(tc_, cfg_, "call.sfr", sched_config(w_));
  const double dt = seconds_since(t0);
  totals_.attempted += w_.n;
  if (const u64 hf = r.agg.counts.of(inject::Outcome::HarnessFatal)) {
    totals_.fail(hf, "sched: HarnessFatal records");
  }
  check_store("call.sfr", ref_bytes_, w_.n, "sched call");
  return {dt, r.executed};
}

Call Bench::call_farm() {
  farm::FarmConfig fc;
  fc.workers = w_.threads;
  fc.shard_size = w_.shard_size;
  fc.keep_shards = true;
  Tracer::Scope s(tracer_, "farm::run_farm_campaign", "farm");
  const auto t0 = Clock::now();
  const farm::FarmResult r =
      farm::run_farm_campaign(tc_, cfg_, "call.sfr", fc);
  const double dt = seconds_since(t0);
  totals_.attempted += w_.n;
  totals_.crashes += r.worker_crashes;
  totals_.retries += r.shard_retries;
  const u64 bad = r.worker_crashes + r.watchdog_kills + r.harness_fatal.size();
  if (bad != 0) totals_.fail(bad, "farm: crashes, watchdog kills or strikeouts");
  check_store("call.sfr", ref_bytes_, w_.n, "farm call");
  frames_ = take_shard_frames("call.sfr");
  return {dt, r.executed};
}

Call Bench::call_serve() {
  // A fresh daemon per call, so what it keeps per campaign (events, spans)
  // does not grow with the number of calls a run makes.
  const std::string state_dir = "serve-" + std::to_string(serve_calls_++);
  std::vector<TenantRun> runs(kTenants);
  double dt = 0.0;
  {
    DaemonThread daemon(state_dir);
    Tracer::Scope s(tracer_, "serve::Daemon submit+watch", "serve");
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (u32 k = 0; k < kTenants; ++k) {
      clients.emplace_back([&, k] {
        runs[k] = run_tenant(
            daemon.address(),
            submit_line(w_, "tenant-" + std::to_string(k), args_.seed + k,
                        w_.n, kHalfWidth));
      });
    }
    for (std::thread& c : clients) c.join();
    dt = seconds_since(t0);
  }
  u64 records = 0;
  for (u32 k = 0; k < kTenants; ++k) {
    const TenantRun& r = runs[k];
    if (!r.ok) {
      totals_.attempted += 1;
      totals_.fail(1, "serve tenant " + std::to_string(k) + ": " + r.error);
      continue;
    }
    records += r.records;
    totals_.attempted += r.records;
    admit_ms_.push_back(r.admit_ms);
    if (k == 0) tenant0_seconds_.push_back(r.seconds);
  }
  if (totals_.failed != 0) return {dt, records};
  if (tenant_refs_.empty()) make_tenant_refs(runs);
  for (u32 k = 0; k < kTenants; ++k) {
    const TenantRun& r = runs[k];
    const std::string what = "serve tenant " + std::to_string(k);
    if (!r.early_stop || r.stop_point != tenant_refs_[k].stop_point ||
        r.records != r.stop_point) {
      totals_.fail(r.records, what + ": stop point " +
                                  std::to_string(r.stop_point) + " != " +
                                  std::to_string(tenant_refs_[k].stop_point));
      continue;
    }
    check_store(r.store, tenant_refs_[k].bytes, r.records, what);
    if (k == 0) fs::copy_file(r.store, "serve-last.sfr",
                              fs::copy_options::overwrite_existing);
  }
  fs::remove_all(state_dir);
  return {dt, records};
}

void Bench::make_tenant_refs(const std::vector<TenantRun>& runs) {
  for (u32 k = 0; k < kTenants; ++k) {
    TenantRef ref;
    ref.seed = args_.seed + k;
    ref.stop_point = runs[k].stop_point;
    inject::CampaignConfig cfg = campaign_config(w_, ref.seed);
    sched::SchedulerConfig sc = sched_config(w_);
    sc.max_new_injections = ref.stop_point;
    const std::string path = "ref-tenant" + std::to_string(k) + ".sfr";
    const sched::ScheduledResult r =
        sched::run_campaign_to_store(tc_, cfg, path, sc);
    ref.cycles = r.cycles_evaluated;
    ref.bytes = canonical_bytes(path);
    std::vector<store::StoredRecord> records = store::read_store(path).records;

    // The stop must land on the first flush window whose committed prefix
    // (in dispatch order) meets the target.
    const inject::CampaignPlan plan = inject::plan_campaign(tc_, cfg);
    std::vector<const inject::InjectionRecord*> by_index(w_.n, nullptr);
    for (const store::StoredRecord& sr : records) {
      by_index[sr.index] = &sr.rec;
    }
    serve::StopTarget target;
    target.confidence = kConfidence;
    target.half_width = kHalfWidth;
    inject::CampaignAggregate agg;
    bool met_before = false;
    bool prefix = true;
    const std::vector<u32> order = plan.cycle_sorted_indices();
    for (u64 j = 0; j < ref.stop_point; ++j) {
      const inject::InjectionRecord* rec = by_index[order[j]];
      if (rec == nullptr) {
        prefix = false;
        break;
      }
      agg.add(*rec);
      if (j + 1 < ref.stop_point && (j + 1) % w_.flush_records == 0 &&
          serve::target_met(agg, target)) {
        met_before = true;
      }
    }
    const std::string what = "serve tenant " + std::to_string(k);
    if (!prefix || met_before || !serve::target_met(agg, target)) {
      totals_.fail(ref.stop_point,
                   what + ": stop point " + std::to_string(ref.stop_point) +
                       " is not the first flush that meets the target");
    }
    if (args_.seed == kRecordedStopSeed &&
        kRecordedStopPoints[k] != ref.stop_point) {
      totals_.fail(ref.stop_point,
                   what + ": stop point " + std::to_string(ref.stop_point) +
                       ", recorded " + std::to_string(kRecordedStopPoints[k]));
    }
    if (args_.trace) ref.records = std::move(records);
    tenant_refs_.push_back(std::move(ref));
  }
}

std::vector<Call> Bench::measure(double seconds) {
  std::vector<Call> calls;
  double timed = 0.0;
  // Stop once another call would end nearer past `seconds` than before it.
  while (calls.size() < kMinCalls ||
         timed + 0.5 * calls.back().seconds < seconds) {
    // Set-up samples are spread over the run, between the timed calls.
    const auto setup_start = Clock::now();
    do {
      time_setup();
    } while (seconds_since(setup_start) < kSetupGapSeconds);
    // Give freed heap back first, so a call's peak memory does not depend
    // on how fragmented the calls before it left the heap.
    malloc_trim(0);
    switch (w_.mode) {
      case Mode::Sched: calls.push_back(call_sched()); break;
      case Mode::Farm: calls.push_back(call_farm()); break;
      case Mode::Serve: calls.push_back(call_serve()); break;
    }
    timed += calls.back().seconds;
    if (totals_.failed != 0) break;
  }
  return calls;
}

// BENCHMARK.json gives one per-layer metric list for every workload, so each
// traced run reports farm.* and serve.* too. A workload that does not run a
// mode runs it once here, on its own campaign, and checks that store as well.
TenantRun Bench::serve_probe(const std::string& tenant) {
  DaemonThread d("serve-probe");
  TenantRun r;
  {
    Tracer::Scope s(tracer_, "serve::Daemon submit+watch", "serve");
    r = run_tenant(d.address(),
                   submit_line(w_, tenant, args_.seed, w_.n, kNeverMet));
  }
  totals_.attempted += w_.n;
  if (!r.ok) {
    totals_.fail(w_.n, "serve probe: " + r.error);
  } else {
    check_store(r.store, ref_bytes_, w_.n, "serve probe");
  }
  return r;
}

void Bench::probe_layers(Metrics& m, const std::vector<Call>& untraced,
                         double trace_ratio) {
  const inject::CampaignPlan plan = inject::plan_campaign(tc_, cfg_);
  ProbeInput in{tc_, cfg_, plan, {}, {}, {}, w_.threads, w_.shard_size,
                w_.flush_records, 0};
  const std::vector<u32> order = plan.cycle_sorted_indices();
  if (w_.mode == Mode::Serve) {
    const TenantRef& ref = tenant_refs_.at(0);
    in.indices.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(
                                                         ref.stop_point));
    in.records = ref.records;
    in.meta = store::read_store("ref-tenant0.sfr").meta;
    in.scalar_cycles = ref.cycles;
  } else {
    in.indices = order;
    in.records = ref_records_;
    in.meta = ref_meta_;
    in.scalar_cycles = ref_cycles_;
  }

  // sched: the driver (the in-process scheduler at T; for serve, tenant 0's
  // direct --max-new run) alternated with bare engines on the same
  // injections, so both sides see the same host phases.
  constexpr int kPairs = 3;
  sched::SchedulerConfig driver_sc = sched_config(w_);
  std::string driver_want = ref_bytes_;
  if (w_.mode == Mode::Serve) {
    driver_sc.max_new_injections = tenant_refs_.at(0).stop_point;
    driver_want = tenant_refs_.at(0).bytes;
  }
  std::vector<double> driver_s;
  std::vector<double> direct_s;
  std::optional<sched::ScheduledResult> driver;
  DirectRun direct;
  for (int r = 0; r < kPairs; ++r) {
    {
      Tracer::Scope s(tracer_, "sched::run_campaign_to_store", "sched");
      const auto t0 = Clock::now();
      driver = sched::run_campaign_to_store(tc_, cfg_, "driver.sfr", driver_sc);
      driver_s.push_back(seconds_since(t0));
    }
    totals_.attempted += driver->executed;
    Tracer::Scope s(tracer_, "sfi::InjectionEngine::run[direct]", "sfi");
    direct = run_direct(in);
    direct_s.push_back(direct.seconds);
  }
  check_store("driver.sfr", driver_want, driver->executed, "driver probe");
  // Host noise only ever slows a run, so the ratios compare fastest runs.
  const double driver_wall = *std::min_element(driver_s.begin(), driver_s.end());
  const double direct_wall = *std::min_element(direct_s.begin(), direct_s.end());
  const double n_direct = static_cast<double>(direct.injections);
  m.set("sched.overhead_ratio", driver_wall / direct_wall, "ratio");
  m.set("sched.shards", static_cast<double>(driver->shards), "count");
  m.set("sfi.cycles_per_inj", static_cast<double>(direct.cycles) / n_direct,
        "cycles");
  m.set("sfi.ff_cycles_per_inj",
        static_cast<double>(direct.ff_cycles) / n_direct, "cycles");
  m.set("sfi.ckpt_ops_per_inj",
        static_cast<double>(direct.ckpt_ops) / n_direct, "count");

  // serve: admission, and the daemon's cost over the direct driver.
  if (w_.mode == Mode::Serve) {
    // Tenant 0 through the daemon against the same records direct.
    m.set("serve.overhead_ratio",
          *std::min_element(tenant0_seconds_.begin(), tenant0_seconds_.end()) /
              driver_wall,
          "ratio");
    m.set("serve.stop_point",
          static_cast<double>(tenant_refs_[0].stop_point), "count");
  } else {
    const TenantRun r = serve_probe("probe");
    admit_ms_.push_back(r.admit_ms);
    m.set("serve.overhead_ratio", r.seconds / driver_wall, "ratio");
    m.set("serve.stop_point", static_cast<double>(r.records), "count");
  }
  m.set("serve.admit_ms", median(admit_ms_), "ms");

  // farm at the same parallelism as the in-process driver. The serve
  // workload compares the two on a campaign the size of tenant 0's stop.
  double farm_wall = 0.0;
  double inproc_wall = driver_wall;
  inject::CampaignConfig cmp_cfg = cfg_;
  if (w_.mode == Mode::Farm) {
    const std::vector<double> farm_s = seconds_of(untraced);
    farm_wall = *std::min_element(farm_s.begin(), farm_s.end());
  } else {
    if (w_.mode == Mode::Serve) {
      cmp_cfg.num_injections = static_cast<u32>(tenant_refs_[0].stop_point);
      Tracer::Scope s(tracer_, "sched::run_campaign_to_store", "sched");
      const auto t0 = Clock::now();
      (void)sched::run_campaign_to_store(tc_, cmp_cfg, "inproc.sfr",
                                         sched_config(w_));
      inproc_wall = seconds_since(t0);
      totals_.attempted += cmp_cfg.num_injections;
    }
    farm::FarmConfig fc;
    fc.workers = w_.threads;
    fc.shard_size = w_.shard_size;
    fc.keep_shards = true;
    Tracer::Scope s(tracer_, "farm::run_farm_campaign", "farm");
    const auto t0 = Clock::now();
    const farm::FarmResult r =
        farm::run_farm_campaign(tc_, cmp_cfg, "probe-farm.sfr", fc);
    farm_wall = seconds_since(t0);
    totals_.attempted += cmp_cfg.num_injections;
    totals_.crashes += r.worker_crashes;
    totals_.retries += r.shard_retries;
    const u64 bad =
        r.worker_crashes + r.watchdog_kills + r.harness_fatal.size();
    if (bad != 0) totals_.fail(bad, "farm probe: supervision failures");
    const std::string want = w_.mode == Mode::Sched
                                 ? ref_bytes_
                                 : canonical_bytes("inproc.sfr");
    check_store("probe-farm.sfr", want, cmp_cfg.num_injections, "farm probe");
    frames_ = take_shard_frames("probe-farm.sfr");
  }
  const double frame_records =
      static_cast<double>(std::max<u64>(1, frames_.records));
  m.set("farm.overhead_ratio", farm_wall / inproc_wall, "ratio");
  m.set("farm.heartbeats_per_record",
        static_cast<double>(frames_.heartbeats) / frame_records, "ratio");
  m.set("farm.commits_per_record",
        static_cast<double>(frames_.commits) / frame_records, "ratio");
  m.set("farm.frames_per_record",
        static_cast<double>(frames_.frames) / frame_records, "ratio");
  m.set("farm.assignments", static_cast<double>(frames_.assignments), "count");
  m.set("farm.retries", static_cast<double>(totals_.retries), "count");
  m.set("farm.crashes", static_cast<double>(totals_.crashes), "count");

  probe_sfi(tracer_, in, m);
  probe_avp_emu(tracer_, in, m);
  probe_core_netlist(tracer_, in, m);

  // store: the driver's own raw store (the farm's: its shard stores).
  const std::string driver_store =
      w_.mode == Mode::Serve ? "serve-last.sfr" : "call.sfr";
  probe_store(tracer_, in, driver_store, m);
  const double bytes = w_.mode == Mode::Farm
                           ? static_cast<double>(frames_.bytes)
                           : static_cast<double>(fs::file_size(driver_store));
  m.set("store.bytes_per_record",
        bytes / static_cast<double>(std::max<std::size_t>(1, in.records.size())),
        "B");

  m.set("telemetry.trace_overhead_ratio", trace_ratio, "ratio");
  m.set("fail_ratio",
        static_cast<double>(totals_.failed) /
            static_cast<double>(std::max<u64>(1, totals_.attempted)),
        "ratio");
}

std::string Bench::context_json() const {
  telemetry::JsonWriter j;
  j.begin_object()
      .field("workload", w_.name)
      .field("seed", args_.seed)
      .field("seconds", args_.seconds)
      .field("trace", args_.trace)
      .field("nproc", nproc_)
      .field("threads", w_.threads)
      .field("loadavg_1m", loadavg_)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .end_object();
  return j.str();
}

int Bench::run() {
  std::cout << "context " << context_json() << "\n" << std::flush;
  Metrics m;
  for (int r = 0; r < kSetupReps; ++r) time_setup();
  if (w_.mode != Mode::Serve) make_reference();

  if (!args_.trace) {
    const std::vector<Call> calls = measure(args_.seconds);
    std::cout << "calls (s, inj/s):";
    for (const Call& c : calls) std::cout << " " << c.seconds << "," << c.rate();
    std::cout << "\nplan builds: " << setup_samples_.size() << ", median "
              << median(setup_samples_) << " s\n";
    m.set("inj_per_s", total_rate(calls), "1/s");
    m.set("setup_s", percentile(setup_samples_, kSetupPercentile), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Untraced first: it alone stands for the end-to-end numbers; the
    // traced half measures what the spans cost.
    const double half = std::max(1.0, args_.seconds / 2.0);
    const std::vector<Call> untraced = measure(half);
    tracer_.set_enabled(true);
    const std::vector<Call> traced = measure(half);
    const double trace_ratio = total_rate(traced) / total_rate(untraced);
    if (totals_.failed == 0) probe_layers(m, untraced, trace_ratio);

    const fs::path trace_path =
        fs::path(args_.out_dir) /
        ("perfbench-trace-" + w_.name + "-" + std::to_string(args_.seed) +
         ".json");
    tracer_.write_chrome_json(trace_path.string(), context_json());
    std::cout << "trace " << trace_path.string() << "\n";
    std::cout << "self time by layer (s):\n";
    for (const auto& [layer, secs] : tracer_.self_seconds_by_layer()) {
      std::cout << "  " << std::left << std::setw(10) << layer << " " << secs
                << "\n";
    }
  }

  for (const std::string& e : totals_.errors) {
    std::cout << "FAILED " << e << "\n";
  }
  for (const Metric& x : m.items()) {
    std::cout << "  " << std::left << std::setw(34) << x.name << " "
              << std::setw(14) << x.value << " " << x.unit << "\n";
  }
  const bool correct = totals_.failed == 0;
  telemetry::JsonWriter j;
  j.begin_object()
      .field("correct", correct)
      .field("attempted", std::max<u64>(1, totals_.attempted))
      .field("failed", totals_.failed);
  j.key("metrics").begin_object();
  for (const Metric& x : m.items()) {
    j.key(x.name).begin_object().field("value", x.value).field("unit", x.unit)
        .end_object();
  }
  j.end_object().end_object();
  std::cout << j.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    const u32 nproc = online > 0 ? static_cast<u32>(online) : 1u;
    double load[1] = {0.0};
    if (getloadavg(load, 1) != 1) load[0] = -1.0;
    const std::optional<Workload> w =
        find_workload(args.workload, std::min(kMaxThreads, nproc));
    if (!w) throw ArgError("unknown workload '" + args.workload + "'");

    // Stores, shard files and the daemon's state live in a private work
    // directory under --out-dir, removed when the run ends.
    fs::create_directories(args.out_dir);
    Args run_args = args;
    run_args.out_dir = fs::absolute(args.out_dir).string();
    const fs::path work = fs::path(run_args.out_dir) /
                          ("perfbench-work-" + std::to_string(getpid()));
    fs::remove_all(work);
    fs::create_directories(work);
    const fs::path home = fs::current_path();
    fs::current_path(work);
    int rc = 1;
    try {
      Bench bench(*w, run_args, nproc, load[0]);
      rc = bench.run();
    } catch (...) {
      fs::current_path(home);
      fs::remove_all(work);
      throw;
    }
    fs::current_path(home);
    fs::remove_all(work);
    return rc;
  } catch (const ArgError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
