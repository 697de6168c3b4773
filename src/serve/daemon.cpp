#include "serve/daemon.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "avp/testgen.hpp"
#include "common/check.hpp"
#include "farm/farm.hpp"
#include "farm/process.hpp"
#include "sched/scheduler.hpp"
#include "sfi/engine.hpp"
#include "sfi/telemetry.hpp"
#include "store/reader.hpp"
#include "store/trace_stitch.hpp"
#include "store/writer.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prometheus.hpp"

namespace sfi::serve {

namespace fs = std::filesystem;

std::string_view to_string(CampaignState s) {
  switch (s) {
    case CampaignState::Queued: return "queued";
    case CampaignState::Running: return "running";
    case CampaignState::Done: return "done";
  }
  return "unknown";
}

/// One tenant campaign tracked by the daemon. IO-thread-visible fields are
/// guarded by Daemon::mu_ except the atomics, which runner callbacks update
/// on the injection hot path.
struct Daemon::Campaign {
  u64 id = 0;
  CampaignSpec spec;
  std::string store_path;
  std::string manifest_path;

  CampaignState state = CampaignState::Queued;
  bool failed = false;
  std::string error;
  bool complete = false;
  u64 records = 0;     ///< final committed record count (set by finalize)
  u64 stop_point = 0;  ///< records at early stop (0 unless early_stop)

  std::atomic<bool> early_stop{false};
  std::atomic<u64> live_done{0};
  u64 committed = 0;       ///< monitor's committed count (mu_)
  double widest_hw = -1.0; ///< widest stratum half-width so far (mu_)

  std::vector<std::string> events;  ///< watch replay buffer (mu_)

  /// Campaign telemetry: the fleet metrics view /metrics exposes. Created
  /// with the campaign so a scrape never races runner startup; shared_ptr
  /// because metrics_text() snapshots it outside mu_.
  std::shared_ptr<inject::CampaignTelemetry> tel;
  std::vector<StratumInterval> strata;  ///< live early-stop intervals (mu_)

  std::thread runner;
  bool has_runner = false;
  std::atomic<bool> runner_finished{false};

  [[nodiscard]] bool farm() const { return spec.workers > 0; }
};

/// One client connection (request, watch stream, or HTTP scrape).
struct Daemon::Conn {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  bool http = false;  ///< accepted on the HTTP listener (request/response)
  bool watcher = false;
  u64 watch_id = 0;
  std::size_t next_event = 0;
  bool close_after_flush = false;
  bool dead = false;
};

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Atomic manifest write: a crash never leaves a half-written manifest, so
/// adoption always sees either the old state or the new one.
void write_file_atomically(const std::string& path,
                           const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) throw std::runtime_error("serve: cannot write " + tmp);
    out << contents;
  }
  fs::rename(tmp, path);
}

/// The one reader of a CampaignSpec from JSON — a submit request or a
/// manifest — defaulting every absent field to CampaignSpec's own default.
/// An unknown inj_engine keeps the default; submit rejects it separately.
CampaignSpec parse_spec(const Json& j) {
  CampaignSpec spec;
  spec.tenant = j.get_str("tenant", spec.tenant);
  spec.seed = j.get_u64("seed", spec.seed);
  spec.testcase_seed = j.get_u64("testcase_seed", spec.testcase_seed);
  spec.instructions =
      static_cast<u32>(j.get_u64("instructions", spec.instructions));
  spec.n = static_cast<u32>(j.get_u64("n", spec.n));
  spec.target.confidence = j.get_num("confidence", spec.target.confidence);
  spec.target.half_width = j.get_num("half_width", spec.target.half_width);
  spec.target.by_unit = j.get_bool("by_unit", spec.target.by_unit);
  spec.threads = static_cast<u32>(j.get_u64("threads", spec.threads));
  spec.workers = static_cast<u32>(j.get_u64("workers", spec.workers));
  spec.shard_size = std::max<u32>(
      1, static_cast<u32>(j.get_u64("shard_size", spec.shard_size)));
  spec.flush_records = std::max<u32>(
      1, static_cast<u32>(j.get_u64("flush_records", spec.flush_records)));
  if (const auto kind = inject::parse_engine(
          j.get_str("inj_engine", inject::engine_name(spec.engine)))) {
    spec.engine = *kind;
  }
  spec.lanes =
      std::max<u32>(1, static_cast<u32>(j.get_u64("lanes", spec.lanes)));
  return spec;
}

constexpr std::size_t kMaxRequestBytes = 1 << 20;
constexpr std::size_t kMaxWatcherBacklog = 8u << 20;

}  // namespace

Daemon::Daemon(ServeConfig cfg) : cfg_(std::move(cfg)) {
  require(!cfg_.state_dir.empty(), "serve: state_dir is required");
  require(cfg_.max_active >= 1, "serve: max_active >= 1");
  const std::string listen =
      cfg_.listen.empty()
          ? "unix:" + (fs::path(cfg_.state_dir) / "sfi.sock").string()
          : cfg_.listen;
  addr_ = parse_address(listen);
  epoch_ = std::chrono::steady_clock::now();
  if (!cfg_.http.empty()) {
    // Bind in the constructor, not run(): tests (and the CLI banner) can
    // read the resolved ephemeral port before the IO thread starts.
    http_addr_ = parse_address(cfg_.http);
    http_fd_ = listen_on(http_addr_);
    set_nonblocking(http_fd_);
    if (http_addr_.tcp && http_addr_.port == 0) {
      sockaddr_in sin{};
      socklen_t len = sizeof(sin);
      if (::getsockname(http_fd_, reinterpret_cast<sockaddr*>(&sin), &len) ==
          0) {
        http_addr_.port = ntohs(sin.sin_port);
      }
    }
  }
}

Daemon::~Daemon() {
  stopping_.store(true);
  // Join without mu_: runners lock it in finalize(). run() has returned by
  // now, so the campaign table itself is no longer mutated.
  for (auto& [id, c] : campaigns_) {
    if (c->runner.joinable()) c->runner.join();
  }
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
}

u64 Daemon::now_us() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - epoch_)
                              .count());
}

void Daemon::emit(Campaign& c, const std::string& line) {
  std::lock_guard lk(mu_);
  c.events.push_back(line);
  log_.emit(line);
}

int Daemon::run() {
  // A watcher that disconnects mid-stream must never take the daemon (and
  // with it every tenant's campaign) down with a SIGPIPE.
  farm::ignore_sigpipe();
  fs::create_directories(cfg_.state_dir);
  if (cfg_.flight_recorder_slots > 0) {
    // Crash flight recorder: every telemetry line emitted from here on is
    // teed into a fixed ring; a fatal signal dumps the last seconds of the
    // daemon's life next to the state it was managing.
    telemetry::FlightRecorder::global().enable(cfg_.flight_recorder_slots);
    telemetry::FlightRecorder::arm_signals(
        (fs::path(cfg_.state_dir) / "serve.postmortem.jsonl").string());
  }
  log_.open((fs::path(cfg_.state_dir) / "serve.events.jsonl").string());
  adopt_state_dir();
  listen_fd_ = listen_on(addr_);
  set_nonblocking(listen_fd_);
  {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "serve_start")
        .field("t_us", now_us())
        .field("listen", addr_.describe())
        .field("state_dir", cfg_.state_dir)
        .field("max_active", cfg_.max_active);
    if (http_fd_ >= 0) w.field("http", http_addr_.describe());
    w.end_object();
    log_.emit(w.str());
  }

  while (true) {
    if (!stopping_.load() &&
        (stop_requested_.load() || (cfg_.should_stop && cfg_.should_stop()))) {
      begin_shutdown();
    }
    admit_ready();
    reap_finished();
    if (stopping_.load()) {
      std::lock_guard lk(mu_);
      bool busy = false;
      for (const auto& [id, c] : campaigns_) {
        if (c->has_runner && !c->runner_finished.load()) busy = true;
      }
      if (!busy) break;
    }
    pump_io();
  }
  reap_finished();

  // Let watchers drain the final events before the sockets close.
  for (int i = 0; i < 8; ++i) pump_io();
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!addr_.tcp) {
    std::error_code ec;
    fs::remove(addr_.path, ec);
  }
  {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "serve_exit")
        .field("t_us", now_us())
        .end_object();
    log_.emit(w.str());
  }
  log_.flush();
  return 0;
}

void Daemon::begin_shutdown() {
  stopping_.store(true);
  telemetry::JsonWriter w;
  w.begin_object()
      .field("ev", "serve_stopping")
      .field("t_us", now_us())
      .end_object();
  log_.emit(w.str());
}

// --- durable state -------------------------------------------------------

void Daemon::write_manifest(const Campaign& c) {
  telemetry::JsonWriter w;
  w.begin_object()
      .field("id", c.id)
      .field("tenant", c.spec.tenant)
      .field("state", c.failed ? std::string_view("failed")
                               : to_string(c.state))
      .field("seed", c.spec.seed)
      .field("testcase_seed", c.spec.testcase_seed)
      .field("instructions", c.spec.instructions)
      .field("n", c.spec.n)
      .field("confidence", c.spec.target.confidence)
      .field("half_width", c.spec.target.half_width)
      .field("by_unit", c.spec.target.by_unit)
      .field("threads", c.spec.threads)
      .field("workers", c.spec.workers)
      .field("shard_size", c.spec.shard_size)
      .field("flush_records", c.spec.flush_records)
      .field("inj_engine", inject::engine_name(c.spec.engine))
      .field("lanes", c.spec.lanes)
      .field("early_stop", c.early_stop.load())
      .field("stop_point", c.stop_point)
      .field("records", c.records)
      .field("complete", c.complete)
      .field("store", c.store_path)
      .end_object();
  write_file_atomically(c.manifest_path, w.str() + "\n");
}

void Daemon::adopt_state_dir() {
  std::vector<fs::path> manifests;
  for (const auto& entry : fs::directory_iterator(cfg_.state_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("campaign-", 0) == 0 &&
        name.size() > 14 &&  // "campaign-" + id + ".json"
        name.substr(name.size() - 5) == ".json") {
      manifests.push_back(entry.path());
    }
  }
  std::sort(manifests.begin(), manifests.end());

  std::lock_guard lk(mu_);
  for (const fs::path& path : manifests) {
    Json m;
    try {
      std::ifstream in(path, std::ios::binary);
      const std::string text{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
      m = Json::parse(text);
    } catch (const std::exception&) {
      continue;  // unreadable manifest: leave the files alone, don't adopt
    }
    const u64 id = m.get_u64("id", 0);
    if (id == 0 || campaigns_.count(id) != 0) continue;

    auto c = std::make_unique<Campaign>();
    c->id = id;
    c->tel = std::make_shared<inject::CampaignTelemetry>();
    // Span plane from birth: the book's wall epoch is the adoption/submit
    // instant, which is what the admission-wait slice measures from.
    c->tel->enable_span_plane("sfi serve", id);
    c->spec = parse_spec(m);
    c->manifest_path = path.string();
    c->store_path = m.get_str(
        "store",
        (fs::path(cfg_.state_dir) / ("campaign-" + std::to_string(id) + ".sfr"))
            .string());
    c->records = m.get_u64("records", 0);
    c->stop_point = m.get_u64("stop_point", 0);
    c->complete = m.get_bool("complete", false);
    c->early_stop.store(m.get_bool("early_stop", false));

    const std::string state = m.get_str("state", "queued");
    if (state == "done" || state == "failed") {
      c->state = CampaignState::Done;
      c->failed = state == "failed";
      c->committed = c->records;
    } else {
      // queued / running / anything else: requeue — the store (if any) is
      // durable and the runner resumes from it; an early-stopped store is
      // re-recognised as met before a single new injection is claimed.
      c->state = CampaignState::Queued;
      c->early_stop.store(false);
    }
    next_id_ = std::max(next_id_, id + 1);

    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "adopted")
        .field("t_us", now_us())
        .field("id", id)
        .field("tenant", c->spec.tenant)
        .field("state", c->failed ? std::string_view("failed")
                                  : to_string(c->state))
        .field("records", c->records)
        .end_object();
    c->events.push_back(w.str());
    log_.emit(w.str());
    campaigns_.emplace(id, std::move(c));
  }
}

// --- admission -----------------------------------------------------------

void Daemon::admit_ready() {
  std::lock_guard lk(mu_);
  while (!stopping_.load()) {
    u32 active = 0;
    for (const auto& [id, c] : campaigns_) {
      if (c->state == CampaignState::Running) ++active;
    }
    if (active >= cfg_.max_active) return;

    // Fair share: the slot goes to the queued tenant with the least
    // admitted spend; within a tenant, FIFO by id (map order is ascending,
    // and only a strictly smaller spend displaces the current pick).
    Campaign* best = nullptr;
    u64 best_spend = 0;
    for (auto& [id, c] : campaigns_) {
      if (c->state != CampaignState::Queued) continue;
      const u64 spend = tenant_spend_[c->spec.tenant];
      if (best == nullptr || spend < best_spend) {
        best = c.get();
        best_spend = spend;
      }
    }
    if (best == nullptr) return;

    best->state = CampaignState::Running;
    tenant_spend_[best->spec.tenant] += best->spec.price();
    write_manifest(*best);
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "admitted")
        .field("t_us", now_us())
        .field("id", best->id)
        .field("tenant", best->spec.tenant)
        .field("price", best->spec.price())
        .field("workers", best->spec.workers)
        .end_object();
    best->events.push_back(w.str());
    log_.emit(w.str());
    best->has_runner = true;
    best->runner_finished.store(false);
    Campaign* cp = best;
    best->runner = std::thread([this, cp] { run_one(*cp); });
  }
}

void Daemon::reap_finished() {
  std::lock_guard lk(mu_);
  for (auto& [id, c] : campaigns_) {
    if (c->has_runner && c->runner_finished.load() && c->runner.joinable()) {
      c->runner.join();
      c->has_runner = false;
    }
  }
}

// --- campaign execution --------------------------------------------------

void Daemon::run_one(Campaign& c) {
  try {
    if (c.tel != nullptr && c.tel->spans() != nullptr) {
      // Queue time, as a slice: from the book's wall epoch (submit or
      // adoption) to this admission instant.
      telemetry::SpanBook* book = c.tel->spans();
      telemetry::JsonWriter args;
      args.begin_object()
          .field("id", c.id)
          .field("tenant", c.spec.tenant)
          .end_object();
      const u64 t0 = book->wall_epoch_us();
      book->slice("admission wait", "serve.admission", t0,
                  book->now_us() - t0, 0, args.str());
    }
    avp::TestcaseConfig tcfg;
    tcfg.seed = c.spec.testcase_seed;
    tcfg.num_instructions = c.spec.instructions;
    const avp::Testcase tc = avp::generate_testcase(tcfg);

    inject::CampaignConfig cfg;
    cfg.seed = c.spec.seed;
    cfg.num_injections = c.spec.n;
    cfg.engine = c.spec.engine;
    cfg.lanes = c.spec.lanes;
    // Observability only: telemetry never feeds back into execution, so the
    // store bytes are identical with the plane on or off.
    cfg.telemetry = c.tel.get();
    if (c.tel != nullptr) {
      c.tel->set_stop_target(c.spec.target.confidence,
                             c.spec.target.half_width);
    }

    std::mutex mon_mu;
    StopMonitor monitor(c.spec.n, c.spec.target);
    // The one durable-record feed, on both execution paths: inherited
    // records at resume, then each record right after the flush (scheduler)
    // or commit marker (farm) that makes it durable.
    const auto on_record = [&](const store::StoredRecord& sr) {
      std::lock_guard lk(mon_mu);
      monitor.observe(sr);
    };

    using clock = std::chrono::steady_clock;
    clock::time_point last_interval{};  // guarded by mon_mu

    // Throttled "interval" event + live-stats refresh; caller holds mon_mu.
    const auto note_intervals = [&](bool force) {
      const auto now = clock::now();
      if (!force && now - last_interval < std::chrono::milliseconds(250)) {
        return;
      }
      last_interval = now;
      const double widest = widest_half_width(monitor.agg(), c.spec.target);
      const u64 committed = monitor.committed();
      std::vector<StratumInterval> strata =
          stratum_intervals(monitor.agg(), c.spec.target);
      {
        std::lock_guard lk(mu_);
        c.committed = committed;
        c.widest_hw = widest;
        c.strata = std::move(strata);
      }
      telemetry::JsonWriter w;
      w.begin_object()
          .field("ev", "interval")
          .field("t_us", now_us())
          .field("id", c.id)
          .field("committed", committed)
          .field("widest_half_width", widest)
          .field("target_half_width", c.spec.target.half_width)
          .field("confidence", c.spec.target.confidence)
          .field("met", monitor.met())
          .end_object();
      emit(c, w.str());
      if (c.tel != nullptr && c.tel->spans() != nullptr) {
        // Same throttle as the interval event: the trace shows the stop
        // monitor's cadence without paying a span per claim.
        telemetry::SpanBook* book = c.tel->spans();
        telemetry::JsonWriter args;
        args.begin_object()
            .field("committed", committed)
            .field("widest_half_width", widest)
            .field("met", monitor.met())
            .end_object();
        book->instant("stop poll", "serve.stop", book->now_us(), 0,
                      args.str());
      }
    };

    // The sequential stop decision: polled by the engine before every
    // claim. Commit-gated counting (on_record) means the recorded stop point
    // is exactly the durable record set.
    const auto stop_fn = [&]() -> bool {
      if (stopping_.load(std::memory_order_relaxed)) return true;
      if (c.early_stop.load(std::memory_order_relaxed)) return true;
      std::unique_lock lk(mon_mu, std::try_to_lock);
      if (!lk.owns_lock()) return false;
      // Checked on every claim, unthrottled: a scheduler worker feeds its
      // flush to the monitor before its next claim, so with one scheduler
      // thread the stop lands on the flush that met the target and the
      // decision set IS the final record set (a throttle here would admit
      // straggler records that could push a stratum back over the target).
      if (monitor.met()) {
        c.early_stop.store(true);
        note_intervals(/*force=*/true);
        telemetry::JsonWriter w;
        w.begin_object()
            .field("ev", "early_stop")
            .field("t_us", now_us())
            .field("id", c.id)
            .field("committed", monitor.committed())
            .field("target_half_width", c.spec.target.half_width)
            .field("confidence", c.spec.target.confidence)
            .end_object();
        emit(c, w.str());
        return true;
      }
      note_intervals(/*force=*/false);
      return false;
    };

    std::mutex prog_mu;
    clock::time_point last_progress{};
    const auto progress_fn = [&](const sched::Progress& p) {
      c.live_done.store(p.done, std::memory_order_relaxed);
      std::unique_lock lk(prog_mu, std::try_to_lock);
      if (!lk.owns_lock()) return;
      const auto now = clock::now();
      if (now - last_progress < std::chrono::milliseconds(500)) return;
      last_progress = now;
      telemetry::JsonWriter w;
      w.begin_object()
          .field("ev", "progress")
          .field("t_us", now_us())
          .field("id", c.id)
          .field("done", p.done)
          .field("total", p.total)
          .field("executed", p.executed)
          .end_object();
      emit(c, w.str());
    };

    if (c.farm()) {
      farm::FarmConfig fc;
      fc.hosts = {{"localhost", c.spec.workers}};
      fc.worker_command = {
          cfg_.worker_binary.empty() ? farm::self_exe() : cfg_.worker_binary,
          "worker",
          "--seed", std::to_string(c.spec.seed),
          "--testcase-seed", std::to_string(c.spec.testcase_seed),
          "--instructions", std::to_string(c.spec.instructions),
          "--n", std::to_string(c.spec.n),
          "--engine", inject::engine_name(c.spec.engine),
          "--lanes", std::to_string(c.spec.lanes)};
      if (http_fd_ >= 0 && cfg_.metrics_every > 0) {
        // Fleet metrics: workers snapshot their registries into the shard
        // stream so /metrics covers every process, not just this one.
        fc.metrics_every = cfg_.metrics_every;
        fc.worker_command.push_back("--metrics-every");
        fc.worker_command.push_back(std::to_string(cfg_.metrics_every));
      }
      if (cfg_.flight_recorder_slots > 0) {
        fc.postmortem_path = c.store_path + ".postmortem.jsonl";
      }
      // Distributed trace: the farm coordinator (this thread) propagates
      // the campaign id as the trace id and appends --trace-spans to the
      // worker command itself; the sidecar lands next to the store.
      fc.trace_spans = true;
      fc.trace_id = c.id;
      fc.shard_size = c.spec.shard_size;
      fc.should_stop = stop_fn;
      fc.on_progress = progress_fn;
      fc.on_record = on_record;
      (void)farm::run_farm_campaign(tc, cfg, c.store_path, fc,
                                    /*resume=*/true);
    } else {
      sched::SchedulerConfig sc;
      sc.threads =
          c.spec.threads != 0 ? c.spec.threads : cfg_.default_threads;
      sc.shard_size = c.spec.shard_size;
      sc.flush_records = c.spec.flush_records;
      sc.should_stop = stop_fn;
      sc.on_progress = progress_fn;
      sc.on_record = on_record;
      (void)sched::run_campaign_to_store(tc, cfg, c.store_path, sc,
                                         /*resume=*/true);
    }
    finalize(c, /*failed=*/false, "");
  } catch (const std::exception& e) {
    finalize(c, /*failed=*/true, e.what());
  }
  c.runner_finished.store(true);
}

void Daemon::finalize(Campaign& c, bool failed, const std::string& error) {
  inject::CampaignAggregate agg;
  u64 records = 0;
  std::string why = error;
  if (!failed) {
    try {
      auto [meta, a] =
          store::aggregate_store(c.store_path, {.tolerate_torn_tail = true});
      agg = a;
      records = agg.total();
      // Durable trace sidecar: everything the live /trace view has (this
      // process's book plus spans delivered from workers), rewritten whole
      // so `sfi trace` works on the state dir after the daemon is gone.
      // Best-effort — a trace that fails to serialize never fails a
      // campaign.
      if (c.tel != nullptr && c.tel->spans() != nullptr) {
        try {
          const std::vector<telemetry::SpanRecord> spans = c.tel->all_spans();
          if (!spans.empty()) {
            store::StoreWriter sw = store::StoreWriter::create(
                store::store_sibling(c.store_path, store::kTraceSidecarSuffix),
                meta);
            for (const telemetry::SpanRecord& sp : spans) sw.append_span(sp);
            sw.flush();
          }
        } catch (const std::exception&) {
        }
      }
    } catch (const std::exception& e) {
      failed = true;
      why = e.what();
    }
  }

  const bool early = c.early_stop.load();
  const bool complete = records == c.spec.n;
  {
    // The final event must land in the watch buffer under the SAME lock
    // hold that flips the state to Done: the IO thread closes a caught-up
    // watcher the moment it sees Done, so a gap here would cut streams off
    // just before their finish line.
    std::lock_guard lk(mu_);
    c.failed = failed;
    c.error = why;
    c.records = records;
    c.complete = complete;
    c.committed = records;
    if (early) c.stop_point = records;
    if (!failed) {
      c.widest_hw = widest_half_width(agg, c.spec.target);
      c.strata = stratum_intervals(agg, c.spec.target);
    }
    // Interrupted (daemon shutdown before the target or N was reached):
    // stays Running on disk, so the next daemon requeues and resumes it.
    c.state = (failed || early || complete) ? CampaignState::Done
                                            : CampaignState::Running;
    telemetry::JsonWriter w;
    std::string line;
    if (failed) {
      w.begin_object()
          .field("ev", "failed")
          .field("t_us", now_us())
          .field("id", c.id)
          .field("error", why)
          .end_object();
      line = w.str();
    } else if (c.state == CampaignState::Done) {
      line = finish_event_json(c, agg);
    } else {
      w.begin_object()
          .field("ev", "interrupted")
          .field("t_us", now_us())
          .field("id", c.id)
          .field("records", records)
          .field("total", c.spec.n)
          .end_object();
      line = w.str();
    }
    c.events.push_back(line);
    log_.emit(line);
  }
  write_manifest(c);
}

std::string Daemon::finish_event_json(
    const Campaign& c, const inject::CampaignAggregate& agg) const {
  telemetry::JsonWriter w;
  w.begin_object()
      .field("ev", "finish")
      .field("t_us", now_us())
      .field("id", c.id)
      .field("tenant", c.spec.tenant)
      .field("records", agg.total())
      .field("n", c.spec.n)
      .field("complete", c.complete)
      .field("early_stop", c.early_stop.load())
      .field("stop_point", c.stop_point)
      .field("confidence", c.spec.target.confidence)
      .field("target_half_width", c.spec.target.half_width)
      .field("store", c.store_path);
  w.key("counts").begin_object();
  for (const inject::Outcome o : inject::kAllOutcomes) {
    w.field(inject::to_string(o), agg.counts.of(o));
  }
  w.end_object();
  w.key("strata").begin_array();
  for (const StratumInterval& s : stratum_intervals(agg, c.spec.target)) {
    w.begin_object()
        .field("stratum", s.stratum)
        .field("count", s.count)
        .field("n", s.n)
        .field("low", s.interval.low)
        .field("high", s.interval.high)
        .field("half_width", s.half_width())
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

void Daemon::ensure_final_event(Campaign& c) {
  // Adopted-done campaigns carry no finish event yet; synthesize one from
  // the durable store so `sfi watch` of an old campaign still ends with the
  // full report line (identical content — same aggregation path).
  if (c.state != CampaignState::Done) return;
  for (const std::string& e : c.events) {
    if (e.find("\"ev\":\"finish\"") != std::string::npos ||
        e.find("\"ev\":\"failed\"") != std::string::npos) {
      return;
    }
  }
  if (c.failed) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "failed")
        .field("t_us", now_us())
        .field("id", c.id)
        .field("error", c.error)
        .end_object();
    c.events.push_back(w.str());
    log_.emit(w.str());
    return;
  }
  try {
    auto [meta, agg] =
        store::aggregate_store(c.store_path, {.tolerate_torn_tail = true});
    const std::string line = finish_event_json(c, agg);
    c.events.push_back(line);
    log_.emit(line);
  } catch (const std::exception& e) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "failed")
        .field("t_us", now_us())
        .field("id", c.id)
        .field("error", std::string(e.what()))
        .end_object();
    c.events.push_back(w.str());
    log_.emit(w.str());
  }
}

// --- IO ------------------------------------------------------------------

void Daemon::pump_io() {
  push_watch_events();

  std::vector<pollfd> fds;
  const bool accepting = !stopping_.load();
  int main_idx = -1;
  int http_idx = -1;
  if (accepting) {
    main_idx = static_cast<int>(fds.size());
    fds.push_back({listen_fd_, POLLIN, 0});
    if (http_fd_ >= 0) {
      http_idx = static_cast<int>(fds.size());
      fds.push_back({http_fd_, POLLIN, 0});
    }
  }
  const std::size_t base = fds.size();
  for (const auto& conn : conns_) {
    short events = POLLIN;
    if (!conn->outbuf.empty()) events |= POLLOUT;
    fds.push_back({conn->fd, events, 0});
  }
  const int timeout_ms =
      std::max(1, static_cast<int>(cfg_.poll_seconds * 1000.0));
  (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

  // Conns accepted below have no pollfd entry this round; they are serviced
  // on the next pump. Only walk the conns that were actually polled.
  const std::size_t polled = conns_.size();
  if (main_idx >= 0 && (fds[main_idx].revents & POLLIN) != 0) {
    accept_clients(listen_fd_, /*http=*/false);
  }
  if (http_idx >= 0 && (fds[http_idx].revents & POLLIN) != 0) {
    accept_clients(http_fd_, /*http=*/true);
  }

  for (std::size_t i = 0; i < polled; ++i) {
    Conn& conn = *conns_[i];
    const short re = fds[base + i].revents;
    if ((re & (POLLERR | POLLNVAL)) != 0) {
      conn.dead = true;
      continue;
    }
    if ((re & POLLIN) != 0) {
      char buf[4096];
      while (!conn.dead) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.inbuf.append(buf, static_cast<std::size_t>(n));
          if (conn.inbuf.size() > kMaxRequestBytes) conn.dead = true;
          continue;
        }
        if (n == 0) {
          // Peer closed. A watcher that hangs up simply stops watching —
          // the campaign it was watching is unaffected.
          conn.dead = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        conn.dead = true;
        break;
      }
      if (conn.http) {
        if (!conn.dead) handle_http(conn);
      } else {
        std::size_t nl;
        while (!conn.dead &&
               (nl = conn.inbuf.find('\n')) != std::string::npos) {
          const std::string line = conn.inbuf.substr(0, nl);
          conn.inbuf.erase(0, nl + 1);
          if (!line.empty()) handle_line(conn, line);
        }
      }
    } else if ((re & POLLHUP) != 0 && conn.outbuf.empty()) {
      conn.dead = true;
    }
    if (!conn.dead && !conn.outbuf.empty()) {
      const ssize_t n = ::send(conn.fd, conn.outbuf.data(),
                               conn.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbuf.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        conn.dead = true;  // EPIPE and friends: the client went away
      }
    }
    if (!conn.dead && conn.close_after_flush && conn.outbuf.empty()) {
      conn.dead = true;
    }
  }

  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->dead) {
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::accept_clients(int listen_fd, bool http) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient error: try again next pump
    }
    set_nonblocking(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->http = http;
    conns_.push_back(std::move(conn));
  }
}

void Daemon::handle_line(Conn& conn, const std::string& line) {
  Json req;
  try {
    req = Json::parse(line);
  } catch (const std::exception& e) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ok", false)
        .field("error", std::string(e.what()))
        .end_object();
    conn.outbuf += w.str() + "\n";
    conn.close_after_flush = true;
    return;
  }
  const std::string op = req.get_str("op", "");
  if (op == "submit") {
    handle_submit(conn, req);
  } else if (op == "status") {
    handle_status(conn);
  } else if (op == "watch") {
    handle_watch(conn, req);
  } else if (op == "ping") {
    std::lock_guard lk(mu_);
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ok", true)
        .field("campaigns", static_cast<u64>(campaigns_.size()))
        .end_object();
    conn.outbuf += w.str() + "\n";
  } else if (op == "shutdown") {
    telemetry::JsonWriter w;
    w.begin_object().field("ok", true).end_object();
    conn.outbuf += w.str() + "\n";
    conn.close_after_flush = true;
    stop_requested_.store(true);
  } else {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ok", false)
        .field("error", "unknown op '" + op + "'")
        .end_object();
    conn.outbuf += w.str() + "\n";
    conn.close_after_flush = true;
  }
}

void Daemon::handle_submit(Conn& conn, const Json& req) {
  const CampaignSpec spec = parse_spec(req);
  const std::string engine = req.get_str("inj_engine", "scalar");
  std::string problem;
  if (!inject::parse_engine(engine)) {
    problem = "unknown inj_engine '" + engine + "' (scalar|lanes)";
  }
  if (spec.n == 0) problem = "n must be >= 1";
  if (spec.instructions == 0) problem = "instructions must be >= 1";
  if (!(spec.target.half_width > 0.0)) problem = "half_width must be > 0";
  if (!(spec.target.confidence > 0.0 && spec.target.confidence < 1.0)) {
    problem = "confidence must be in (0,1)";
  }
  if (stopping_.load()) problem = "daemon is shutting down";
  if (!problem.empty()) {
    telemetry::JsonWriter w;
    w.begin_object().field("ok", false).field("error", problem).end_object();
    conn.outbuf += w.str() + "\n";
    conn.close_after_flush = true;
    return;
  }

  u64 id = 0;
  std::string store_path;
  {
    std::lock_guard lk(mu_);
    id = next_id_++;
    auto c = std::make_unique<Campaign>();
    c->id = id;
    c->tel = std::make_shared<inject::CampaignTelemetry>();
    c->tel->enable_span_plane("sfi serve", id);
    c->spec = spec;
    c->store_path =
        (fs::path(cfg_.state_dir) / ("campaign-" + std::to_string(id) + ".sfr"))
            .string();
    c->manifest_path =
        (fs::path(cfg_.state_dir) /
         ("campaign-" + std::to_string(id) + ".json"))
            .string();
    store_path = c->store_path;
    write_manifest(*c);
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "submitted")
        .field("t_us", now_us())
        .field("id", id)
        .field("tenant", spec.tenant)
        .field("n", spec.n)
        .field("confidence", spec.target.confidence)
        .field("half_width", spec.target.half_width)
        .field("price", spec.price())
        .field("workers", spec.workers)
        .end_object();
    c->events.push_back(w.str());
    log_.emit(w.str());
    campaigns_.emplace(id, std::move(c));
  }

  telemetry::JsonWriter w;
  w.begin_object()
      .field("ok", true)
      .field("id", id)
      .field("store", store_path)
      .field("price", spec.price())
      .end_object();
  conn.outbuf += w.str() + "\n";
}

void Daemon::handle_status(Conn& conn) {
  // Same document the HTTP plane serves at /campaigns: one builder, two
  // transports (extra fields are fine — the wire protocol is lenient).
  conn.outbuf += campaigns_json() + "\n";
}

void Daemon::handle_watch(Conn& conn, const Json& req) {
  const u64 id = req.get_u64("id", 0);
  std::lock_guard lk(mu_);
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ok", false)
        .field("error", "no campaign with id " + std::to_string(id))
        .end_object();
    conn.outbuf += w.str() + "\n";
    conn.close_after_flush = true;
    return;
  }
  ensure_final_event(*it->second);
  conn.watcher = true;
  conn.watch_id = id;
  conn.next_event = 0;  // replay history first, then follow live
}

void Daemon::push_watch_events() {
  std::lock_guard lk(mu_);
  for (const auto& connp : conns_) {
    Conn& conn = *connp;
    if (!conn.watcher || conn.dead) continue;
    const auto it = campaigns_.find(conn.watch_id);
    if (it == campaigns_.end()) {
      conn.dead = true;
      continue;
    }
    Campaign& c = *it->second;
    while (conn.next_event < c.events.size()) {
      conn.outbuf += c.events[conn.next_event] + "\n";
      ++conn.next_event;
      if (conn.outbuf.size() > kMaxWatcherBacklog) {
        conn.dead = true;  // watcher is not draining; drop it
        break;
      }
    }
    if (!conn.dead && c.state == CampaignState::Done &&
        conn.next_event == c.events.size() ) {
      conn.close_after_flush = true;
    }
  }
}

// --- HTTP observability plane ---------------------------------------------
//
// A deliberately minimal HTTP/1.1 server: GET only, one request per
// connection (Connection: close), responses fully buffered in the conn
// outbox. It exists to be scraped — Prometheus, `sfi top`, curl — not to
// serve the web; and it is strictly read-only: nothing reachable from here
// mutates a campaign, its store, or the admission queue.

void Daemon::handle_http(Conn& conn) {
  const std::size_t end = conn.inbuf.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (conn.inbuf.size() > 8192) conn.dead = true;  // header flood
    return;  // headers incomplete; wait for more bytes
  }
  std::istringstream in(conn.inbuf.substr(0, end));
  conn.inbuf.clear();
  std::string method;
  std::string target;
  in >> method >> target;
  const std::string path = target.substr(0, target.find('?'));

  const auto respond = [&conn](std::string_view status, std::string_view type,
                               const std::string& body) {
    conn.outbuf += "HTTP/1.1 ";
    conn.outbuf += status;
    conn.outbuf += "\r\nContent-Type: ";
    conn.outbuf += type;
    conn.outbuf += "\r\nContent-Length: " + std::to_string(body.size());
    conn.outbuf += "\r\nConnection: close\r\n\r\n";
    conn.outbuf += body;
    conn.close_after_flush = true;
  };

  if (method != "GET") {
    respond("405 Method Not Allowed", "text/plain", "GET only\n");
    return;
  }
  if (path == "/metrics") {
    respond("200 OK", "text/plain; version=0.0.4; charset=utf-8",
            metrics_text());
  } else if (path == "/healthz") {
    u64 n = 0;
    {
      std::lock_guard lk(mu_);
      n = campaigns_.size();
    }
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ok", true)
        .field("stopping", stopping_.load())
        .field("t_us", now_us())
        .field("campaigns", n)
        .end_object();
    respond("200 OK", "application/json", w.str() + "\n");
  } else if (path == "/campaigns") {
    respond("200 OK", "application/json", campaigns_json() + "\n");
  } else if (path == "/trace") {
    // /trace?campaign=N → the campaign's live span set as a Trace Event
    // JSON document (load it straight into Perfetto / chrome://tracing).
    u64 id = 0;
    const std::size_t q = target.find('?');
    if (q != std::string::npos) {
      const std::string query = target.substr(q + 1);
      const std::size_t key = query.find("campaign=");
      if (key != std::string::npos) {
        id = std::strtoull(query.c_str() + key + 9, nullptr, 10);
      }
    }
    std::shared_ptr<inject::CampaignTelemetry> tel;
    {
      std::lock_guard lk(mu_);
      const auto it = campaigns_.find(id);
      if (it != campaigns_.end()) tel = it->second->tel;
    }
    if (id == 0) {
      respond("400 Bad Request", "text/plain",
              "usage: /trace?campaign=ID\n");
    } else if (tel == nullptr) {
      respond("404 Not Found", "text/plain",
              "no campaign with id " + std::to_string(id) + "\n");
    } else {
      // Rendered outside mu_: stitching copies every span.
      respond("200 OK", "application/json", tel->trace_chrome_json() + "\n");
    }
  } else {
    respond("404 Not Found", "text/plain", "not found\n");
  }
}

std::string Daemon::metrics_text() {
  // Copy what mu_ guards, then render (and snapshot telemetry) unlocked:
  // fleet_snapshot() copies a whole registry, which has no business running
  // under the campaign-table lock.
  struct Row {
    u64 id = 0;
    std::string tenant;
    bool farm = false;
    u64 n = 0;
    u64 done = 0;
    u64 committed = 0;
    bool early = false;
    double confidence = 0.0;
    double target_hw = 0.0;
    double widest = -1.0;
    std::vector<StratumInterval> strata;
    std::shared_ptr<inject::CampaignTelemetry> tel;
  };
  std::vector<Row> rows;
  u64 queued = 0;
  u64 running = 0;
  u64 done = 0;
  {
    std::lock_guard lk(mu_);
    rows.reserve(campaigns_.size());
    for (const auto& [id, c] : campaigns_) {
      switch (c->state) {
        case CampaignState::Queued: ++queued; break;
        case CampaignState::Running: ++running; break;
        case CampaignState::Done: ++done; break;
      }
      rows.push_back({id, c->spec.tenant, c->farm(), c->spec.n,
                      c->state == CampaignState::Done ? c->records
                                                      : c->live_done.load(),
                      c->committed, c->early_stop.load(),
                      c->spec.target.confidence, c->spec.target.half_width,
                      c->widest_hw, c->strata, c->tel});
    }
  }

  telemetry::PrometheusWriter pw;
  const std::vector<telemetry::PromLabel> none;
  pw.add_gauge("serve.uptime_seconds", none,
               static_cast<double>(now_us()) / 1e6);
  pw.add_gauge("serve.stopping", none, stopping_.load() ? 1.0 : 0.0);
  const auto state_label = [](const char* s) {
    return std::vector<telemetry::PromLabel>{{"state", s}};
  };
  pw.add_gauge("serve.campaigns", state_label("queued"),
               static_cast<double>(queued));
  pw.add_gauge("serve.campaigns", state_label("running"),
               static_cast<double>(running));
  pw.add_gauge("serve.campaigns", state_label("done"),
               static_cast<double>(done));
  for (const Row& r : rows) {
    const std::vector<telemetry::PromLabel> labels = {
        {"campaign", std::to_string(r.id)},
        {"tenant", r.tenant},
        {"engine", r.farm ? "farm" : "sched"}};
    pw.add_gauge("campaign.injections_total", labels,
                 static_cast<double>(r.n));
    pw.add_gauge("campaign.done", labels, static_cast<double>(r.done));
    pw.add_gauge("campaign.committed", labels,
                 static_cast<double>(r.committed));
    pw.add_gauge("campaign.early_stop", labels, r.early ? 1.0 : 0.0);
    pw.add_gauge("campaign.confidence", labels, r.confidence);
    pw.add_gauge("campaign.target_half_width", labels, r.target_hw);
    if (r.widest >= 0.0) {
      pw.add_gauge("campaign.widest_half_width", labels, r.widest);
    }
    // Live early-stop state, one gauge triple per stratum: how many records
    // the stratum has, the proportion estimate, and how tight its Wilson
    // interval is against the target above.
    for (const StratumInterval& s : r.strata) {
      std::vector<telemetry::PromLabel> sl = labels;
      sl.push_back({"stratum", s.stratum});
      pw.add_gauge("stratum.n", sl, static_cast<double>(s.n));
      if (s.n > 0) {
        pw.add_gauge("stratum.proportion", sl,
                     static_cast<double>(s.count) / static_cast<double>(s.n));
      }
      pw.add_gauge("stratum.half_width", sl, s.half_width());
    }
    if (r.tel != nullptr) {
      pw.add_gauge("campaign.fleet_workers", labels,
                   static_cast<double>(r.tel->fleet_workers()));
      pw.add_snapshot(r.tel->fleet_snapshot(), labels);
    }
  }
  return pw.str();
}

std::string Daemon::campaigns_json() {
  struct Row {
    u64 id = 0;
    std::string tenant;
    std::string state;
    bool farm = false;
    u64 n = 0;
    u64 done = 0;
    u64 committed = 0;
    double confidence = 0.0;
    double target_hw = 0.0;
    double widest = -1.0;
    bool early = false;
    u64 stop_point = 0;
    bool complete = false;
    u64 price = 0;
    std::string store;
    std::shared_ptr<inject::CampaignTelemetry> tel;
  };
  std::vector<Row> rows;
  {
    std::lock_guard lk(mu_);
    rows.reserve(campaigns_.size());
    for (const auto& [id, c] : campaigns_) {
      rows.push_back({id, c->spec.tenant,
                      std::string(c->failed ? std::string_view("failed")
                                            : to_string(c->state)),
                      c->farm(), c->spec.n,
                      c->state == CampaignState::Done ? c->records
                                                      : c->live_done.load(),
                      c->committed, c->spec.target.confidence,
                      c->spec.target.half_width, c->widest_hw,
                      c->early_stop.load(), c->stop_point, c->complete,
                      c->spec.price(), c->store_path, c->tel});
    }
  }

  telemetry::JsonWriter w;
  w.begin_object()
      .field("ok", true)
      .field("stopping", stopping_.load())
      .field("t_us", now_us());
  w.key("campaigns").begin_array();
  for (const Row& r : rows) {
    w.begin_object()
        .field("id", r.id)
        .field("tenant", r.tenant)
        .field("state", r.state)
        .field("engine", r.farm ? std::string_view("farm")
                                : std::string_view("sched"))
        .field("n", r.n)
        .field("done", r.done)
        .field("committed", r.committed)
        .field("confidence", r.confidence)
        .field("target_half_width", r.target_hw)
        .field("widest_half_width", r.widest)
        .field("early_stop", r.early)
        .field("stop_point", r.stop_point)
        .field("complete", r.complete)
        .field("price", r.price)
        .field("store", r.store);
    if (r.tel != nullptr) {
      const telemetry::MetricsSnapshot snap = r.tel->fleet_snapshot();
      w.field("workers", static_cast<u64>(r.tel->fleet_workers()));
      w.key("counts").begin_object();
      for (const inject::Outcome o : inject::kAllOutcomes) {
        w.field(inject::to_string(o),
                snap.counter_value("outcome." +
                                   std::string(inject::to_string(o))));
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace sfi::serve
