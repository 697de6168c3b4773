// Serve mode (src/serve/): the multi-tenant campaign daemon with adaptive
// early stop.
//
// The load-bearing assertions mirror the module's contract: the sequential
// stop decision counts only durable (committed) records; a daemon-run
// campaign stopped at k records is byte-identical (after canonical merge)
// to a direct single-threaded `--max-new k` run; a restarted daemon
// re-adopts its state dir, and an early-stopped campaign resumes to the
// SAME stop point — zero new injections — rather than re-inflating to the
// fixed-N ceiling; admission is fair-share across tenants; a watcher that
// disconnects never takes a campaign down with it.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "avp/testgen.hpp"
#include "farm/worker.hpp"
#include "sched/scheduler.hpp"
#include "serve/daemon.hpp"
#include "serve/stop.hpp"
#include "serve/wire.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"

namespace sfi::serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("sfi_serve_test_" + name))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// --- wire ----------------------------------------------------------------

TEST(Wire, ParsesProtocolShapes) {
  const Json v = Json::parse(
      R"({"op":"submit","n":600,"half_width":0.05,"by_unit":true,)"
      R"("tenant":"a\"b","nested":{"x":[1,2,3]},"none":null})");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.get_str("op", ""), "submit");
  EXPECT_EQ(v.get_u64("n", 0), 600u);
  EXPECT_NEAR(v.get_num("half_width", 0.0), 0.05, 1e-12);
  EXPECT_TRUE(v.get_bool("by_unit", false));
  EXPECT_EQ(v.get_str("tenant", ""), "a\"b");
  ASSERT_NE(v.find("nested"), nullptr);
  const Json* xs = v.find("nested")->find("x");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->items().size(), 3u);
  EXPECT_EQ(xs->items()[1].num(), 2.0);
  // Lenient accessors: absent / mistyped -> default.
  EXPECT_EQ(v.get_u64("missing", 7), 7u);
  EXPECT_EQ(v.get_str("n", "dflt"), "dflt");
}

TEST(Wire, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), WireError);
  EXPECT_THROW((void)Json::parse("{"), WireError);
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), WireError);
  EXPECT_THROW((void)Json::parse("{'a':1}"), WireError);
}

TEST(Wire, AddressGrammar) {
  const Address u = parse_address("unix:/tmp/x.sock");
  EXPECT_FALSE(u.tcp);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  const Address bare = parse_address("/tmp/y.sock");
  EXPECT_FALSE(bare.tcp);
  EXPECT_EQ(bare.path, "/tmp/y.sock");
  const Address t = parse_address("tcp:127.0.0.1:9001");
  EXPECT_TRUE(t.tcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9001);
  const Address lp = parse_address("tcp:9002");
  EXPECT_TRUE(lp.tcp);
  EXPECT_EQ(lp.port, 9002);
  // Port 0 is a legal listener spec: the OS assigns an ephemeral port.
  const Address eph = parse_address("tcp:127.0.0.1:0");
  EXPECT_TRUE(eph.tcp);
  EXPECT_EQ(eph.port, 0);
  EXPECT_THROW((void)parse_address("tcp:host:70000"), WireError);
  EXPECT_THROW((void)parse_address(""), WireError);
  EXPECT_THROW((void)parse_address("tcp:"), WireError);
  EXPECT_THROW((void)parse_address("tcp:host:notaport"), WireError);
}

// --- prometheus exposition -------------------------------------------------

TEST(Prometheus, NameSanitizationIsPureAndTotal) {
  using telemetry::prometheus_name;
  EXPECT_EQ(prometheus_name("farm.worker_crashes"), "sfi_farm_worker_crashes");
  EXPECT_EQ(prometheus_name("outcome.Vanished"), "sfi_outcome_Vanished");
  EXPECT_EQ(prometheus_name("weird name-#1"), "sfi_weird_name__1");
  EXPECT_EQ(prometheus_name(""), "sfi_");
}

TEST(Prometheus, EscapeRoundTripAgreesWithJsonWriter) {
  // S3: a tenant name must render identically through both escapers — the
  // Prometheus label escaping in /metrics and the JSONL escaping in the
  // event log / wire protocol. Fuzz both round trips against each other
  // with a deterministic byte soup rich in the characters that matter.
  std::mt19937 rng(20260808);
  const std::string alphabet =
      "abcXYZ012 \"\\\n\t\r{}=,\x01\x7f\xc3\xa9";  // quotes, ctrl, utf-8
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  std::uniform_int_distribution<std::size_t> len(0, 24);

  for (int iter = 0; iter < 2000; ++iter) {
    std::string s;
    const std::size_t n = len(rng);
    for (std::size_t i = 0; i < n; ++i) s += alphabet[pick(rng)];

    // Prometheus: escape is injective and unescape inverts it.
    EXPECT_EQ(telemetry::prometheus_unescape(telemetry::prometheus_escape(s)),
              s)
        << "iter " << iter;

    // JSON: JsonWriter's escaping parses back to the same string through
    // the wire parser (skip raw control bytes the parser — correctly, per
    // RFC 8259 — refuses inside strings when unescaped... JsonWriter
    // escapes them, so every string must survive).
    telemetry::JsonWriter w;
    w.begin_object().field("s", s).end_object();
    const Json back = Json::parse(w.str());
    EXPECT_EQ(back.get_str("s", "<parse-miss>"), s) << "iter " << iter;
  }
}

TEST(Prometheus, WriterGroupsFamiliesAndRendersHistograms) {
  telemetry::PrometheusWriter pw;
  const std::vector<telemetry::PromLabel> a = {{"campaign", "1"},
                                               {"tenant", "a\"b\\c\nd"}};
  const std::vector<telemetry::PromLabel> b = {{"campaign", "2"}};
  pw.add_gauge("campaign.done", a, 5);
  pw.add_counter("injections", a, 40);
  pw.add_gauge("campaign.done", b, 7);  // same family, later call

  telemetry::MetricsSnapshot::Hist h;
  h.name = "lat";
  h.bounds = {1.0, 2.0};
  h.buckets = {3, 1, 1};
  h.count = 5;
  h.sum = 7.5;
  pw.add_histogram("lat", b, h);

  const std::string text = pw.str();
  // Families are contiguous: both campaign.done samples follow one TYPE.
  const auto type_pos = text.find("# TYPE sfi_campaign_done gauge\n");
  ASSERT_NE(type_pos, std::string::npos);
  EXPECT_EQ(text.find("# TYPE sfi_campaign_done", type_pos + 1),
            std::string::npos);
  // The escaped tenant value appears escaped, once per labelled sample.
  EXPECT_NE(text.find("tenant=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  // Histogram renders cumulative buckets, +Inf, sum and count.
  EXPECT_NE(text.find("sfi_lat_bucket{campaign=\"2\",le=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("sfi_lat_bucket{campaign=\"2\",le=\"2\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("sfi_lat_bucket{campaign=\"2\",le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("sfi_lat_sum{campaign=\"2\"} 7.5"), std::string::npos);
  EXPECT_NE(text.find("sfi_lat_count{campaign=\"2\"} 5"), std::string::npos);
}

// --- stop decision -------------------------------------------------------

inject::InjectionRecord rec_of(inject::Outcome o, netlist::Unit u) {
  inject::InjectionRecord r;
  r.outcome = o;
  r.unit = u;
  return r;
}

TEST(Stop, NeverMetBeforeFirstRecord) {
  inject::CampaignAggregate agg;
  StopTarget loose;
  loose.half_width = 0.49;
  EXPECT_FALSE(target_met(agg, loose));
  EXPECT_LT(widest_half_width(agg, loose), 0.0);
  EXPECT_TRUE(stratum_intervals(agg, loose).empty());
}

TEST(Stop, MetOnceEveryStratumNarrowEnough) {
  inject::CampaignAggregate agg;
  StopTarget target;
  target.half_width = 0.05;
  for (int i = 0; i < 10; ++i) {
    agg.add(rec_of(inject::Outcome::Vanished, netlist::Unit::IFU));
  }
  // 10 records: a Wilson 95% half-width is far above 0.05 on every stratum.
  EXPECT_FALSE(target_met(agg, target));
  for (int i = 0; i < 2000; ++i) {
    agg.add(rec_of(i % 10 == 0 ? inject::Outcome::Corrected
                               : inject::Outcome::Vanished,
                   netlist::Unit::IFU));
  }
  EXPECT_TRUE(target_met(agg, target));
  const double widest = widest_half_width(agg, target);
  EXPECT_GT(widest, 0.0);
  EXPECT_LE(widest, target.half_width);
}

TEST(Stop, ByUnitStrataTightenTheTarget) {
  inject::CampaignAggregate agg;
  // 2000 overall records, but only 20 in the LSU stratum: overall strata
  // meet a 0.05 target, the LSU per-unit strata cannot.
  for (int i = 0; i < 1980; ++i) {
    agg.add(rec_of(inject::Outcome::Vanished, netlist::Unit::IFU));
  }
  for (int i = 0; i < 20; ++i) {
    agg.add(rec_of(inject::Outcome::Vanished, netlist::Unit::LSU));
  }
  StopTarget overall;
  overall.half_width = 0.05;
  EXPECT_TRUE(target_met(agg, overall));
  StopTarget by_unit = overall;
  by_unit.by_unit = true;
  EXPECT_FALSE(target_met(agg, by_unit));
  // Unit-labelled strata only exist in by-unit mode.
  bool unit_stratum = false;
  for (const StratumInterval& s : stratum_intervals(agg, by_unit)) {
    if (s.stratum.rfind("LSU/", 0) == 0) unit_stratum = true;
  }
  EXPECT_TRUE(unit_stratum);
}

TEST(Stop, TighterConfidenceNeedsMoreRecords) {
  inject::CampaignAggregate agg;
  for (int i = 0; i < 500; ++i) {
    agg.add(rec_of(i % 5 == 0 ? inject::Outcome::Corrected
                              : inject::Outcome::Vanished,
                   netlist::Unit::IFU));
  }
  StopTarget c95;
  c95.half_width = 0.036;
  StopTarget c99 = c95;
  c99.confidence = 0.99;
  EXPECT_TRUE(target_met(agg, c95));
  EXPECT_FALSE(target_met(agg, c99));
}

TEST(Stop, MonitorCountsOnlyCommittedRecords) {
  // Feed the monitor through the scheduler's on_record, exactly as the
  // daemon does: every record handed over must already be readable from
  // the store (committed before it is counted), and the resume replay of
  // the same records must not double count.
  TempDir dir("monitor");
  avp::TestcaseConfig tcfg;
  tcfg.seed = 11;
  tcfg.num_instructions = 80;
  const avp::Testcase tc = avp::generate_testcase(tcfg);
  inject::CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = 64;
  const std::string path = dir.file("mon.sfr");

  StopTarget loose;
  loose.half_width = 0.49;
  StopMonitor mon(cfg.num_injections, loose);
  u64 fed = 0;
  u64 not_yet_durable = 0;
  sched::SchedulerConfig sc;
  sc.threads = 1;
  sc.shard_size = 16;
  sc.flush_records = 8;
  sc.on_record = [&](const store::StoredRecord& sr) {
    const store::StoreContents on_disk =
        store::read_store(path, {.tolerate_torn_tail = true});
    if (std::none_of(on_disk.records.begin(), on_disk.records.end(),
                     [&](const store::StoredRecord& d) {
                       return d.index == sr.index;
                     })) {
      ++not_yet_durable;
    }
    ++fed;
    mon.observe(sr);
  };
  const auto r = sched::run_campaign_to_store(tc, cfg, path, sc);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(fed, 64u);
  EXPECT_EQ(not_yet_durable, 0u);
  EXPECT_EQ(mon.committed(), 64u);
  EXPECT_TRUE(mon.met());

  // Resume hands every inherited record over again; none is re-counted.
  fed = 0;
  const auto again =
      sched::run_campaign_to_store(tc, cfg, path, sc, /*resume=*/true);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(fed, 64u);
  EXPECT_EQ(mon.committed(), 64u);
  EXPECT_EQ(mon.agg().total(), 64u);
}

// --- daemon --------------------------------------------------------------

/// A daemon running on its own thread in a private state dir, plus the
/// client plumbing the tests share.
class DaemonHarness {
 public:
  explicit DaemonHarness(const std::string& state_dir, u32 max_active = 2,
                         const std::string& http = "") {
    ServeConfig cfg;
    cfg.state_dir = state_dir;
    cfg.max_active = max_active;
    cfg.poll_seconds = 0.002;
    cfg.http = http;  // "tcp:127.0.0.1:0" binds an ephemeral port
    daemon_ = std::make_unique<Daemon>(cfg);
    thread_ = std::thread([this] { rc_ = daemon_->run(); });
    wait_ready();
  }
  ~DaemonHarness() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    daemon_->request_stop();
    thread_.join();
  }

  [[nodiscard]] const Address& addr() const { return daemon_->address(); }
  [[nodiscard]] const Address& http_addr() const {
    return daemon_->http_address();
  }
  [[nodiscard]] int rc() const { return rc_; }

  /// One blocking HTTP request; returns the raw response (status line,
  /// headers, body). Empty string on connect/send failure.
  std::string http(const std::string& request_line) {
    int fd = -1;
    try {
      fd = connect_to(daemon_->http_address());
    } catch (const WireError&) {
      return "";
    }
    const std::string req =
        request_line + "\r\nHost: test\r\nConnection: close\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
      const auto n = ::send(fd, req.data() + off, req.size() - off, 0);
      if (n <= 0) {
        ::close(fd);
        return "";
      }
      off += static_cast<std::size_t>(n);
    }
    std::string resp;
    char buf[4096];
    while (true) {
      const auto n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return resp;
  }

  /// GET `path`, expecting 200; returns the body alone.
  std::string http_get(const std::string& path) {
    const std::string resp = http("GET " + path + " HTTP/1.1");
    EXPECT_EQ(resp.rfind("HTTP/1.1 200", 0), 0u)
        << "GET " << path << " -> " << resp.substr(0, 80);
    const auto sep = resp.find("\r\n\r\n");
    return sep == std::string::npos ? std::string{} : resp.substr(sep + 4);
  }

  /// One request, one reply.
  Json request(const std::string& line) {
    LineChannel ch(connect_to(addr()));
    if (!ch.send_line(line)) ADD_FAILURE() << "send failed";
    std::string reply;
    if (!ch.recv_line(reply)) ADD_FAILURE() << "no reply";
    return Json::parse(reply);
  }

  u64 submit(const std::string& body) {
    const Json r = request(R"({"op":"submit",)" + body + "}");
    EXPECT_TRUE(r.get_bool("ok", false));
    return r.get_u64("id", 0);
  }

  /// Stream a campaign's full event list (blocks until it finishes).
  std::vector<Json> watch(u64 id) {
    LineChannel ch(connect_to(addr()));
    EXPECT_TRUE(ch.send_line(R"({"op":"watch","id":)" + std::to_string(id) +
                             "}"));
    std::vector<Json> events;
    std::string line;
    while (ch.recv_line(line)) events.push_back(Json::parse(line));
    return events;
  }

  Json status_of(u64 id) {
    const Json r = request(R"({"op":"status"})");
    if (const Json* cs = r.find("campaigns")) {
      for (const Json& c : cs->items()) {
        if (c.get_u64("id", 0) == id) return c;
      }
    }
    return {};
  }

 private:
  void wait_ready() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        LineChannel ch(connect_to(daemon_->address()));
        if (ch.send_line(R"({"op":"ping"})")) {
          std::string reply;
          if (ch.recv_line(reply)) return;
        }
      } catch (const WireError&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "daemon never became ready";
  }

  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
  int rc_ = -1;
};

/// The small campaign every daemon test submits (fast: 80-instruction
/// workload). A 0.12 half-width target stops a ~90%-Vanished campaign after
/// a few dozen records, far short of n.
constexpr const char* kSmallSpec =
    R"("tenant":"t","seed":7,"testcase_seed":11,"instructions":80,)"
    R"("n":600,"half_width":0.12)";

const Json* find_event(const std::vector<Json>& events, const std::string& ev) {
  for (const Json& e : events) {
    if (e.get_str("ev", "") == ev) return &e;
  }
  for (const Json& e : events) {  // make "no such event" failures debuggable
    ADD_FAILURE() << "event: " << e.get_str("ev", "?") << " error='"
                  << e.get_str("error", "") << "'";
  }
  return nullptr;
}

TEST(Daemon, EarlyStopsAndReportsDurableRecords) {
  TempDir dir("early_stop");
  DaemonHarness h(dir.path());
  const u64 id = h.submit(kSmallSpec);
  ASSERT_NE(id, 0u);
  const std::vector<Json> events = h.watch(id);

  const Json* stop = find_event(events, "early_stop");
  ASSERT_NE(stop, nullptr) << "campaign never early-stopped";
  const Json* finish = find_event(events, "finish");
  ASSERT_NE(finish, nullptr);
  EXPECT_TRUE(finish->get_bool("early_stop", false));
  const u64 stop_point = finish->get_u64("stop_point", 0);
  EXPECT_GT(stop_point, 0u);
  EXPECT_LT(stop_point, 600u);

  // The finish event is computed from the durable store: offline
  // aggregation agrees exactly.
  const auto [meta, agg] =
      store::aggregate_store(dir.file("campaign-1.sfr"));
  EXPECT_EQ(agg.total(), finish->get_u64("records", 0));
  EXPECT_EQ(agg.counts.of(inject::Outcome::Vanished),
            finish->find("counts")->get_u64("Vanished", ~u64{0}));

  // Every stratum met the submitted target at the stop point.
  StopTarget target;
  target.half_width = 0.12;
  EXPECT_TRUE(target_met(agg, target));
}

TEST(Daemon, StoppedStoreIsByteIdenticalToMaxNewRun) {
  TempDir dir("byte_identity");
  u64 stop_point = 0;
  {
    DaemonHarness h(dir.path());
    const u64 id = h.submit(kSmallSpec);
    const std::vector<Json> events = h.watch(id);
    const Json* finish = find_event(events, "finish");
    ASSERT_NE(finish, nullptr);
    ASSERT_TRUE(finish->get_bool("early_stop", false));
    stop_point = finish->get_u64("stop_point", 0);
  }

  // Direct run of the same plan, same engine defaults (threads 1, shard 16,
  // flush 8), capped at the daemon's stop point.
  avp::TestcaseConfig tcfg;
  tcfg.seed = 11;
  tcfg.num_instructions = 80;
  const avp::Testcase tc = avp::generate_testcase(tcfg);
  inject::CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = 600;
  sched::SchedulerConfig sc;
  sc.threads = 1;
  sc.shard_size = 16;
  sc.flush_records = 8;
  sc.max_new_injections = stop_point;
  const std::string direct = dir.file("direct.sfr");
  const auto r = sched::run_campaign_to_store(tc, cfg, direct, sc);
  EXPECT_EQ(r.executed, stop_point);

  const std::string canon_daemon = dir.file("daemon.canon.sfr");
  const std::string canon_direct = dir.file("direct.canon.sfr");
  (void)store::merge_stores({dir.file("campaign-1.sfr")}, canon_daemon);
  (void)store::merge_stores({direct}, canon_direct);
  EXPECT_EQ(slurp(canon_daemon), slurp(canon_direct));
}

TEST(Daemon, ResumeHonorsEarlyStopPoint) {
  TempDir dir("resume_stop");
  // Every non-default knob must survive adoption: the restarted daemon
  // re-admits the campaign and rewrites its manifest from the adopted spec.
  // (By-unit strata are smaller, hence the looser half-width.)
  const std::string spec =
      R"("tenant":"t","seed":7,"testcase_seed":11,"instructions":80,)"
      R"("n":600,"half_width":0.2,"shard_size":8,"flush_records":4,)"
      R"("inj_engine":"lanes","lanes":16,"by_unit":true)";
  u64 stop_point = 0;
  {
    DaemonHarness h(dir.path());
    const u64 id = h.submit(spec);
    const std::vector<Json> events = h.watch(id);
    const Json* finish = find_event(events, "finish");
    ASSERT_NE(finish, nullptr);
    ASSERT_TRUE(finish->get_bool("early_stop", false));
    stop_point = finish->get_u64("stop_point", 0);
  }
  const std::vector<u8> before = slurp(dir.file("campaign-1.sfr"));

  // Simulate a crash after the store was durable but before the manifest
  // recorded "done": the next daemon must requeue it, and the monitor's
  // re-count of committed records must stop it again at the SAME point —
  // zero new injections, not a re-inflation to the fixed-N ceiling.
  {
    std::string manifest = [&] {
      std::ifstream in(dir.file("campaign-1.json"));
      return std::string{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
    }();
    const auto pos = manifest.find("\"state\":\"done\"");
    ASSERT_NE(pos, std::string::npos);
    manifest.replace(pos, 14, "\"state\":\"running\"");
    std::ofstream out(dir.file("campaign-1.json"), std::ios::trunc);
    out << manifest;
  }

  {
    DaemonHarness h(dir.path());
    const std::vector<Json> events = h.watch(1);
    const Json* finish = find_event(events, "finish");
    ASSERT_NE(finish, nullptr);
    EXPECT_TRUE(finish->get_bool("early_stop", false));
    EXPECT_EQ(finish->get_u64("stop_point", 0), stop_point);
    EXPECT_EQ(finish->get_u64("records", 0), stop_point);
  }
  // Byte-for-byte: the resumed run appended nothing.
  EXPECT_EQ(slurp(dir.file("campaign-1.sfr")), before);

  const std::vector<u8> raw = slurp(dir.file("campaign-1.json"));
  const Json manifest = Json::parse(std::string(raw.begin(), raw.end()));
  EXPECT_EQ(manifest.get_str("state", ""), "done");  // rewritten on adoption
  EXPECT_EQ(manifest.get_u64("shard_size", 0), 8u);
  EXPECT_EQ(manifest.get_u64("flush_records", 0), 4u);
  EXPECT_EQ(manifest.get_str("inj_engine", ""), "lanes");
  EXPECT_EQ(manifest.get_u64("lanes", 0), 16u);
  EXPECT_TRUE(manifest.get_bool("by_unit", false));
}

TEST(Daemon, AdoptsFinishedCampaignsAcrossRestart) {
  TempDir dir("adopt");
  u64 records = 0;
  {
    DaemonHarness h(dir.path());
    const u64 id = h.submit(kSmallSpec);
    const std::vector<Json> events = h.watch(id);
    const Json* finish = find_event(events, "finish");
    ASSERT_NE(finish, nullptr);
    records = finish->get_u64("records", 0);
  }
  {
    DaemonHarness h(dir.path());
    const Json c = h.status_of(1);
    EXPECT_EQ(c.get_str("state", ""), "done");
    EXPECT_EQ(c.get_u64("done", 0), records);
    // Watching an adopted campaign still ends with a full finish report.
    const std::vector<Json> events = h.watch(1);
    const Json* finish = find_event(events, "finish");
    ASSERT_NE(finish, nullptr);
    EXPECT_EQ(finish->get_u64("records", 0), records);
  }
}

TEST(Daemon, FairShareAdmissionAcrossTenants) {
  TempDir dir("fair_share");
  // One slot; alice submits two campaigns back to back, then bob one. The
  // second slot must go to bob (zero spend) before alice's second
  // submission, despite FIFO order.
  DaemonHarness h(dir.path(), /*max_active=*/1);
  const char* spec =
      R"("seed":7,"testcase_seed":11,"instructions":80,"n":200,)"
      R"("half_width":0.2,"tenant":)";
  const u64 a1 = h.submit(std::string(spec) + "\"alice\"");
  const u64 a2 = h.submit(std::string(spec) + "\"alice\"");
  const u64 b1 = h.submit(std::string(spec) + "\"bob\"");
  ASSERT_NE(a1, 0u);
  ASSERT_NE(a2, 0u);
  ASSERT_NE(b1, 0u);

  const std::vector<Json> events_a2 = h.watch(a2);
  const std::vector<Json> events_b1 = h.watch(b1);
  const Json* adm_a2 = find_event(events_a2, "admitted");
  const Json* adm_b1 = find_event(events_b1, "admitted");
  ASSERT_NE(adm_a2, nullptr);
  ASSERT_NE(adm_b1, nullptr);
  EXPECT_LT(adm_b1->get_num("t_us", 0), adm_a2->get_num("t_us", 0))
      << "bob (fresh tenant) should get the slot before alice's backlog";
}

TEST(Daemon, WatcherDisconnectDoesNotKillCampaign) {
  TempDir dir("watcher_gone");
  DaemonHarness h(dir.path());
  const u64 id = h.submit(kSmallSpec);
  {
    // Connect a watcher and hang up immediately: the daemon writes into the
    // dead socket (EPIPE territory) and must shrug it off.
    LineChannel ch(connect_to(h.addr()));
    ASSERT_TRUE(ch.send_line(R"({"op":"watch","id":)" + std::to_string(id) +
                             "}"));
    ch.close();
  }
  const std::vector<Json> events = h.watch(id);
  const Json* finish = find_event(events, "finish");
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(finish->get_str("state", "done"), "done");
}

TEST(Daemon, LaneEngineCampaignMatchesScalarAndPersistsInManifest) {
  // The serve dispatch path honours the submitted injection engine: a lanes
  // campaign produces the same outcome aggregate as the scalar one for the
  // same (seed, workload), and the manifest records the engine so a
  // restarted daemon resumes under it.
  TempDir dir("lanes_ab");
  DaemonHarness h(dir.path());
  constexpr const char* kBase =
      R"("tenant":"t","seed":7,"testcase_seed":11,"instructions":80,)"
      R"("n":200,"half_width":0.0001)";  // target never met: full fixed-N run
  const u64 scalar_id = h.submit(std::string(kBase) + R"(,"inj_engine":"scalar")");
  (void)h.watch(scalar_id);
  const u64 lanes_id =
      h.submit(std::string(kBase) + R"(,"inj_engine":"lanes","lanes":32)");
  (void)h.watch(lanes_id);

  const inject::CampaignAggregate agg_scalar =
      store::aggregate_store(
          dir.file("campaign-" + std::to_string(scalar_id) + ".sfr"))
          .second;
  const inject::CampaignAggregate agg_lanes =
      store::aggregate_store(
          dir.file("campaign-" + std::to_string(lanes_id) + ".sfr"))
          .second;
  EXPECT_EQ(agg_scalar.total(), 200u);
  EXPECT_EQ(agg_lanes.total(), 200u);
  for (const auto o : inject::kAllOutcomes) {
    EXPECT_EQ(agg_scalar.counts.of(o), agg_lanes.counts.of(o))
        << "outcome mix diverged at " << to_string(o);
  }

  const std::vector<u8> raw =
      slurp(dir.file("campaign-" + std::to_string(lanes_id) + ".json"));
  const Json manifest = Json::parse(std::string(raw.begin(), raw.end()));
  EXPECT_EQ(manifest.get_str("inj_engine", ""), "lanes");
  EXPECT_EQ(manifest.get_u64("lanes", 0), 32u);
}

TEST(Daemon, RejectsBadSubmissionsAndUnknownOps) {
  TempDir dir("rejects");
  DaemonHarness h(dir.path());
  const Json bad_hw =
      h.request(R"({"op":"submit","n":10,"half_width":0.0})");
  EXPECT_FALSE(bad_hw.get_bool("ok", true));
  const Json bad_conf =
      h.request(R"({"op":"submit","n":10,"confidence":1.5})");
  EXPECT_FALSE(bad_conf.get_bool("ok", true));
  const Json bad_engine =
      h.request(R"({"op":"submit","n":10,"inj_engine":"warp"})");
  EXPECT_FALSE(bad_engine.get_bool("ok", true));
  const Json unknown = h.request(R"({"op":"frobnicate"})");
  EXPECT_FALSE(unknown.get_bool("ok", true));
  const Json bad_watch = h.request(R"({"op":"watch","id":999})");
  EXPECT_FALSE(bad_watch.get_bool("ok", true));
  // The daemon survives all of the above.
  const Json ping = h.request(R"({"op":"ping"})");
  EXPECT_TRUE(ping.get_bool("ok", false));
}

// --- HTTP observability plane ----------------------------------------------

TEST(DaemonHttp, ServesHealthCampaignsAndMetrics) {
  TempDir dir("http_basics");
  DaemonHarness h(dir.path(), 2, "tcp:127.0.0.1:0");
  ASSERT_TRUE(h.http_addr().tcp);
  ASSERT_NE(h.http_addr().port, 0)
      << "ephemeral port must be resolved at bind time";

  const Json health = Json::parse(h.http_get("/healthz"));
  EXPECT_TRUE(health.get_bool("ok", false));
  EXPECT_EQ(health.get_u64("campaigns", ~u64{0}), 0u);

  const u64 id = h.submit(kSmallSpec);
  ASSERT_NE(id, 0u);
  (void)h.watch(id);

  // /campaigns is the status op's JSON on an HTTP carrier.
  const Json cs = Json::parse(h.http_get("/campaigns"));
  ASSERT_NE(cs.find("campaigns"), nullptr);
  ASSERT_EQ(cs.find("campaigns")->items().size(), 1u);
  const Json& c = cs.find("campaigns")->items()[0];
  EXPECT_EQ(c.get_u64("id", 0), id);
  EXPECT_EQ(c.get_str("state", ""), "done");
  EXPECT_EQ(c.get_str("engine", ""), "sched");
  EXPECT_TRUE(c.get_bool("early_stop", false));
  ASSERT_NE(c.find("counts"), nullptr);

  // /metrics exposes the campaign series with its labels, the live
  // early-stop gauges, and the fleet snapshot (histogram quantiles
  // included).
  const std::string metrics = h.http_get("/metrics");
  EXPECT_NE(metrics.find("# TYPE sfi_serve_campaigns gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("sfi_campaign_done{campaign=\"1\",tenant=\"t\","
                         "engine=\"sched\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("sfi_campaign_early_stop{campaign=\"1\""),
            std::string::npos);
  EXPECT_NE(metrics.find("sfi_stratum_half_width{campaign=\"1\""),
            std::string::npos);
  EXPECT_NE(metrics.find("sfi_injections{campaign=\"1\""), std::string::npos);
  EXPECT_NE(metrics.find("sfi_injection_seconds_p95{campaign=\"1\""),
            std::string::npos);

  // Unknown paths 404, non-GET 405; the daemon survives both and the wire
  // protocol socket is unaffected.
  EXPECT_EQ(h.http("GET /nope HTTP/1.1").rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(h.http("POST /metrics HTTP/1.1").rfind("HTTP/1.1 405", 0), 0u);
  EXPECT_TRUE(h.request(R"({"op":"ping"})").get_bool("ok", false));
}

TEST(DaemonHttp, ScrapeDuringRunIsReadOnlyByteIdentical) {
  // S4: hammer /metrics and /campaigns WHILE a campaign runs; the stopped
  // store must still be byte-identical (canonical merge) to a direct
  // single-threaded --max-new run — the whole plane is read-only.
  TempDir dir("http_scrape");
  u64 stop_point = 0;
  u64 scrapes_ok = 0;
  {
    DaemonHarness h(dir.path(), 2, "tcp:127.0.0.1:0");
    const u64 id = h.submit(kSmallSpec);
    ASSERT_NE(id, 0u);

    std::atomic<bool> running{true};
    std::thread scraper([&] {
      while (running.load()) {
        const std::string m = h.http("GET /metrics HTTP/1.1");
        const std::string c = h.http("GET /campaigns HTTP/1.1");
        if (m.rfind("HTTP/1.1 200", 0) == 0 &&
            c.rfind("HTTP/1.1 200", 0) == 0) {
          ++scrapes_ok;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const std::vector<Json> events = h.watch(id);
    running.store(false);
    scraper.join();

    const Json* finish = find_event(events, "finish");
    ASSERT_NE(finish, nullptr);
    ASSERT_TRUE(finish->get_bool("early_stop", false));
    stop_point = finish->get_u64("stop_point", 0);
    EXPECT_GT(scrapes_ok, 0u) << "scraper never got a 200 pair";

    // A post-finish scrape agrees with the finish event.
    const Json cs = Json::parse(h.http_get("/campaigns"));
    const Json& c = cs.find("campaigns")->items()[0];
    EXPECT_EQ(c.get_u64("done", 0), stop_point);
  }

  avp::TestcaseConfig tcfg;
  tcfg.seed = 11;
  tcfg.num_instructions = 80;
  const avp::Testcase tc = avp::generate_testcase(tcfg);
  inject::CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = 600;
  sched::SchedulerConfig sc;
  sc.threads = 1;
  sc.shard_size = 16;
  sc.flush_records = 8;
  sc.max_new_injections = stop_point;
  const std::string direct = dir.file("direct.sfr");
  const auto r = sched::run_campaign_to_store(tc, cfg, direct, sc);
  EXPECT_EQ(r.executed, stop_point);

  const std::string canon_daemon = dir.file("daemon.canon.sfr");
  const std::string canon_direct = dir.file("direct.canon.sfr");
  (void)store::merge_stores({dir.file("campaign-1.sfr")}, canon_daemon);
  (void)store::merge_stores({direct}, canon_direct);
  EXPECT_EQ(slurp(canon_daemon), slurp(canon_direct));
}

TEST(DaemonHttp, DisabledPlaneLeavesNoListener) {
  TempDir dir("http_off");
  DaemonHarness h(dir.path());
  // Without --http the daemon must not open any HTTP socket; the wire
  // protocol works as before.
  EXPECT_FALSE(h.http_addr().tcp);
  EXPECT_TRUE(h.request(R"({"op":"ping"})").get_bool("ok", false));
}

TEST(Serve, MetricsCadenceMatchesWorkerDefault) {
  // One fleet cadence everywhere: daemon-spawned and hand-launched workers
  // snapshot at the same rate (see test_farm's regression pin).
  EXPECT_EQ(ServeConfig{}.metrics_every, farm::WorkerOptions{}.metrics_every);
}

}  // namespace
}  // namespace sfi::serve
