#include "serve/daemon.hpp"

#include <fcntl.h>
#include <malloc.h>
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

#include "common/check.hpp"
#include "farm/farm.hpp"
#include "farm/process.hpp"
#include "sched/scheduler.hpp"
#include "sfi/telemetry.hpp"
#include "store/reader.hpp"
#include "store/trace_stitch.hpp"
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
  /// A submitted or adopted campaign. Its telemetry has the span plane on
  /// from birth: the book's wall epoch is the submit/adoption instant the
  /// admission-wait slice measures from, and the campaign id is its trace
  /// id. Store and manifest default to `state_dir`/campaign-<id>.*.
  Campaign(u64 campaign_id, CampaignSpec campaign_spec,
           const std::string& state_dir)
      : id(campaign_id),
        spec(std::move(campaign_spec)),
        tel(std::make_shared<inject::CampaignTelemetry>()) {
    tel->enable_span_plane("sfi serve", id);
    const std::string stem =
        (fs::path(state_dir) / ("campaign-" + std::to_string(id))).string();
    store_path = stem + ".sfr";
    manifest_path = stem + ".json";
  }

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
  // The committed tally the views show (mu_): the stop monitor's while the
  // campaign runs, then the store's once it ends.
  u64 committed = 0;
  inject::OutcomeCounts counts;
  double widest_hw = -1.0;  ///< widest stratum half-width so far
  std::vector<StratumInterval> strata;  ///< live early-stop intervals

  std::vector<std::string> events;  ///< watch replay buffer (mu_)

  /// Campaign telemetry: the fleet metrics view /metrics exposes. Created
  /// with the campaign so a scrape never races runner startup; shared_ptr
  /// because the views snapshot it outside mu_.
  std::shared_ptr<inject::CampaignTelemetry> tel;

  std::thread runner;
  bool has_runner = false;
  std::atomic<bool> runner_finished{false};

  [[nodiscard]] bool farm() const { return spec.workers > 0; }

  /// Show the tally of `agg`, an aggregate of committed records.
  void set_tally(const inject::CampaignAggregate& agg) {
    committed = agg.total();
    counts = agg.counts;
    widest_hw = widest_half_width(agg, spec.target());
    strata = stratum_intervals(agg, spec.target());
  }
};

/// What the read-only views (status, /campaigns, /metrics) show of one
/// campaign, copied under mu_ by campaign_views().
struct Daemon::CampaignView {
  u64 id = 0;
  std::string tenant;
  CampaignState state = CampaignState::Queued;
  bool failed = false;
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
  inject::OutcomeCounts counts;
  std::vector<StratumInterval> strata;
  std::shared_ptr<inject::CampaignTelemetry> tel;
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

constexpr std::size_t kMaxRequestBytes = 1 << 20;
constexpr std::size_t kMaxWatcherBacklog = 8u << 20;

}  // namespace

Daemon::Daemon(ServeConfig cfg) : cfg_(std::move(cfg)) {
  require(!cfg_.state_dir.empty(), "serve: state_dir is required");
#ifdef __GLIBC__
  // Campaign after campaign, each plan allocates multi-megabyte buffers
  // (reference states, access timeline, checkpoints) and frees them at the
  // end. glibc answers such frees by raising its mmap threshold to their
  // size and its trim threshold to twice that, so later plans land in
  // per-thread heap arenas that are not trimmed back: the daemon's
  // resident memory ratchets with the campaigns it has run. Fixed
  // thresholds hand each plan's big buffers back when they are freed.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 2 << 20);
#endif
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
  // Crash flight recorder: every telemetry line emitted from here on is
  // teed into a fixed ring; a fatal signal dumps the last seconds of the
  // daemon's life next to the state it was managing, and farm-mode
  // supervision failures dump to <store>.postmortem.jsonl.
  telemetry::FlightRecorder::global().enable(
      telemetry::FlightRecorder::kSlots);
  telemetry::FlightRecorder::arm_signals(
      (fs::path(cfg_.state_dir) / "serve.postmortem.jsonl").string());
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
      .field("state", c.failed ? std::string_view("failed")
                               : to_string(c.state));
  write_spec(w, c.spec, /*all=*/true);
  w.field("early_stop", c.early_stop.load())
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
    CampaignSpec spec;
    try {
      std::ifstream in(path, std::ios::binary);
      const std::string text{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
      m = Json::parse(text);
      spec = spec_from_json(m);
    } catch (const std::exception&) {
      // Unreadable manifest, or a spec that fails validation: leave the
      // files alone, don't adopt.
      continue;
    }
    const u64 id = m.get_u64("id", 0);
    if (id == 0 || campaigns_.count(id) != 0) continue;

    auto c = std::make_unique<Campaign>(id, std::move(spec), cfg_.state_dir);
    c->manifest_path = path.string();
    c->store_path = m.get_str("store", c->store_path);
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
    if (c->state == CampaignState::Done) {
      // One scan of a finished campaign's store gives the views its
      // committed tally and a late watcher the finish report.
      std::string line = failed_event_json(id, c->error);
      if (!c->failed) {
        try {
          const inject::CampaignAggregate agg =
              store::aggregate_store(c->store_path,
                                     {.tolerate_torn_tail = true})
                  .second;
          c->set_tally(agg);
          line = finish_event_json(*c, agg);
        } catch (const std::exception& e) {
          line = failed_event_json(id, e.what());
        }
      }
      c->events.push_back(line);
      log_.emit(line);
    }
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
    // The same conversion `sfi campaign` runs: every option in the spec.
    CampaignRun run = campaign_run(c.spec);
    const avp::Testcase tc = avp::generate_testcase(run.testcase);
    // Observability only: telemetry never feeds back into execution, so the
    // store bytes are identical with the plane on or off.
    run.config.telemetry = c.tel.get();
    const StopTarget target = c.spec.target();

    std::mutex mon_mu;
    StopMonitor monitor(c.spec.n, target);
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
      const double widest = widest_half_width(monitor.agg(), target);
      const u64 committed = monitor.committed();
      {
        std::lock_guard lk(mu_);
        c.set_tally(monitor.agg());
      }
      telemetry::JsonWriter w;
      w.begin_object()
          .field("ev", "interval")
          .field("t_us", now_us())
          .field("id", c.id)
          .field("committed", committed)
          .field("widest_half_width", widest)
          .field("target_half_width", target.half_width)
          .field("confidence", target.confidence)
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
            .field("target_half_width", target.half_width)
            .field("confidence", target.confidence)
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
      fc.worker_command = worker_command(c.spec);
      fc.postmortem_path = c.store_path + ".postmortem.jsonl";
      // The campaign telemetry (span plane on, trace id = campaign id) is
      // what tells the coordinator to have workers ship metrics and spans;
      // the trace sidecar lands next to the store.
      fc.shard_size = c.spec.shard_size;
      fc.should_stop = stop_fn;
      fc.on_progress = progress_fn;
      fc.on_record = on_record;
      (void)farm::run_farm_campaign(tc, run.config, c.store_path, fc,
                                    /*resume=*/true);
    } else {
      sched::SchedulerConfig& sc = run.sched;
      sc.should_stop = stop_fn;
      sc.on_progress = progress_fn;
      sc.on_record = on_record;
      (void)sched::run_campaign_to_store(tc, run.config, c.store_path, sc,
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
      agg = store::aggregate_store(c.store_path, {.tolerate_torn_tail = true})
                .second;
      records = agg.total();
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
    if (early) c.stop_point = records;
    c.set_tally(agg);
    // Interrupted (daemon shutdown before the target or N was reached):
    // stays Running on disk, so the next daemon requeues and resumes it.
    c.state = (failed || early || complete) ? CampaignState::Done
                                            : CampaignState::Running;
    std::string line;
    if (failed) {
      line = failed_event_json(c.id, why);
    } else if (c.state == CampaignState::Done) {
      line = finish_event_json(c, agg);
    } else {
      telemetry::JsonWriter w;
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
      .field("confidence", c.spec.confidence)
      .field("target_half_width", c.spec.half_width)
      .field("store", c.store_path);
  w.key("counts").begin_object();
  for (const inject::Outcome o : inject::kAllOutcomes) {
    w.field(inject::to_string(o), agg.counts.of(o));
  }
  w.end_object();
  w.key("strata").begin_array();
  for (const StratumInterval& s : stratum_intervals(agg, c.spec.target())) {
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

std::string Daemon::failed_event_json(u64 id, std::string_view error) const {
  telemetry::JsonWriter w;
  w.begin_object()
      .field("ev", "failed")
      .field("t_us", now_us())
      .field("id", id)
      .field("error", error)
      .end_object();
  return w.str();
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
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
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
  CampaignSpec spec;
  std::string problem;
  try {
    spec = spec_from_json(req);
  } catch (const SpecError& e) {
    problem = e.what();
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
    auto c = std::make_unique<Campaign>(id, spec, cfg_.state_dir);
    store_path = c->store_path;
    write_manifest(*c);
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "submitted")
        .field("t_us", now_us())
        .field("id", id)
        .field("tenant", spec.tenant)
        .field("n", spec.n)
        .field("confidence", spec.confidence)
        .field("half_width", spec.half_width)
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
    // /trace?campaign=N → `sfi trace` of the campaign's store: what its
    // sidecar (and any live shard) holds, recorded by this daemon or not.
    u64 id = 0;
    const std::size_t q = target.find('?');
    if (q != std::string::npos) {
      const std::string query = target.substr(q + 1);
      const std::size_t key = query.find("campaign=");
      if (key != std::string::npos) {
        id = std::strtoull(query.c_str() + key + 9, nullptr, 10);
      }
    }
    std::string store_path;
    {
      std::lock_guard lk(mu_);
      const auto it = campaigns_.find(id);
      if (it != campaigns_.end()) store_path = it->second->store_path;
    }
    if (id == 0) {
      respond("400 Bad Request", "text/plain",
              "usage: /trace?campaign=ID\n");
    } else if (store_path.empty()) {
      respond("404 Not Found", "text/plain",
              "no campaign with id " + std::to_string(id) + "\n");
    } else {
      // Stitched outside mu_: it reads every input file.
      respond("200 OK", "application/json",
              store::stitch_trace(store_path).json + "\n");
    }
  } else {
    respond("404 Not Found", "text/plain", "not found\n");
  }
}

std::vector<Daemon::CampaignView> Daemon::campaign_views() {
  std::lock_guard lk(mu_);
  std::vector<CampaignView> views;
  views.reserve(campaigns_.size());
  for (const auto& [id, c] : campaigns_) {
    views.push_back({id, c->spec.tenant, c->state, c->failed, c->farm(),
                     c->spec.n,
                     c->state == CampaignState::Done ? c->records
                                                     : c->live_done.load(),
                     c->committed, c->spec.confidence,
                     c->spec.half_width, c->widest_hw,
                     c->early_stop.load(), c->stop_point, c->complete,
                     c->spec.price(), c->store_path, c->counts, c->strata,
                     c->tel});
  }
  return views;
}

std::string Daemon::metrics_text() {
  // fleet_snapshot() copies a whole registry, which has no business running
  // under the campaign-table lock: render from the views.
  const std::vector<CampaignView> views = campaign_views();
  u64 queued = 0;
  u64 running = 0;
  u64 done = 0;
  for (const CampaignView& v : views) {
    switch (v.state) {
      case CampaignState::Queued: ++queued; break;
      case CampaignState::Running: ++running; break;
      case CampaignState::Done: ++done; break;
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
  for (const CampaignView& v : views) {
    const std::vector<telemetry::PromLabel> labels = {
        {"campaign", std::to_string(v.id)},
        {"tenant", v.tenant},
        {"engine", v.farm ? "farm" : "sched"}};
    pw.add_gauge("campaign.injections_total", labels,
                 static_cast<double>(v.n));
    pw.add_gauge("campaign.done", labels, static_cast<double>(v.done));
    pw.add_gauge("campaign.committed", labels,
                 static_cast<double>(v.committed));
    pw.add_gauge("campaign.early_stop", labels, v.early ? 1.0 : 0.0);
    pw.add_gauge("campaign.confidence", labels, v.confidence);
    pw.add_gauge("campaign.target_half_width", labels, v.target_hw);
    if (v.widest >= 0.0) {
      pw.add_gauge("campaign.widest_half_width", labels, v.widest);
    }
    // Live early-stop state, one gauge triple per stratum: how many records
    // the stratum has, the proportion estimate, and how tight its Wilson
    // interval is against the target above.
    for (const StratumInterval& st : v.strata) {
      std::vector<telemetry::PromLabel> sl = labels;
      sl.push_back({"stratum", st.stratum});
      pw.add_gauge("stratum.n", sl, static_cast<double>(st.n));
      if (st.n > 0) {
        pw.add_gauge("stratum.proportion", sl,
                     static_cast<double>(st.count) / static_cast<double>(st.n));
      }
      pw.add_gauge("stratum.half_width", sl, st.half_width());
    }
    if (v.tel != nullptr) {
      pw.add_gauge("campaign.fleet_workers", labels,
                   static_cast<double>(v.tel->fleet_workers()));
      pw.add_snapshot(v.tel->fleet_snapshot(), labels);
    }
  }
  return pw.str();
}

std::string Daemon::campaigns_json() {
  const std::vector<CampaignView> views = campaign_views();
  telemetry::JsonWriter w;
  w.begin_object()
      .field("ok", true)
      .field("stopping", stopping_.load())
      .field("t_us", now_us());
  w.key("campaigns").begin_array();
  for (const CampaignView& v : views) {
    w.begin_object()
        .field("id", v.id)
        .field("tenant", v.tenant)
        .field("state", v.failed ? std::string_view("failed")
                                 : to_string(v.state))
        .field("engine", v.farm ? std::string_view("farm")
                                : std::string_view("sched"))
        .field("n", v.n)
        .field("done", v.done)
        .field("committed", v.committed)
        .field("confidence", v.confidence)
        .field("target_half_width", v.target_hw)
        .field("widest_half_width", v.widest)
        .field("early_stop", v.early)
        .field("stop_point", v.stop_point)
        .field("complete", v.complete)
        .field("price", v.price)
        .field("store", v.store);
    w.key("counts").begin_object();
    for (const inject::Outcome o : inject::kAllOutcomes) {
      w.field(inject::to_string(o), v.counts.of(o));
    }
    w.end_object();
    if (v.tel != nullptr) {
      w.field("workers", static_cast<u64>(v.tel->fleet_workers()));
      w.field("dead_on_arrival",
              v.tel->fleet_snapshot().counter_value("dead_on_arrival"));
    }
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace sfi::serve
