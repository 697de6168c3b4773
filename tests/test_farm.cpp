// Farm mode (src/farm/): supervised multi-process campaign execution.
//
// The load-bearing assertions mirror the module's contract: a farm
// campaign's merged output is byte-identical to a (canonicalised)
// single-process run — including when a worker is kill -9'd mid-shard or
// wedges and is shot by the watchdog — and a reproducible worker-killer
// injection degrades to Outcome::HarnessFatal instead of sinking the
// campaign.
#include <fcntl.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "farm/farm.hpp"
#include "farm/process.hpp"
#include "farm/worker.hpp"
#include "sched/scheduler.hpp"
#include "sfi/telemetry.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/trace_stitch.hpp"
#include "telemetry/flight_recorder.hpp"

namespace sfi::farm {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sfi_farm_test_" + name + ".sfr"))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

avp::Testcase small_testcase() {
  avp::TestcaseConfig cfg;
  cfg.seed = 11;
  cfg.num_instructions = 80;
  return avp::generate_testcase(cfg);
}

inject::CampaignConfig small_campaign(u32 n) {
  inject::CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = n;
  return cfg;
}

/// The reference bytes every farm run must reproduce: a single-process
/// scheduler run of the same campaign, canonicalised through merge (which
/// strips commit markers and sorts by index).
std::vector<u8> canonical_single_process(const avp::Testcase& tc,
                                         const inject::CampaignConfig& cfg,
                                         const std::string& tag) {
  TempFile raw("single_" + tag), canon("canon_" + tag);
  const auto r = sched::run_campaign_to_store(tc, cfg, raw.path(), {});
  EXPECT_TRUE(r.complete);
  (void)store::merge_stores({raw.path()}, canon.path());
  return slurp(canon.path());
}

/// Fast supervision timings so failure tests finish in seconds.
FarmConfig quick_farm(u32 workers) {
  FarmConfig fc;
  fc.workers = workers;
  fc.shard_size = 8;
  fc.watchdog_seconds = 0.4;
  fc.startup_seconds = 60.0;
  fc.backoff_base_seconds = 0.02;
  fc.backoff_cap_seconds = 0.2;
  fc.poll_seconds = 0.005;
  return fc;
}

TEST(Farm, ParseHostsFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sfi_farm_hosts.txt")
          .string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# comment line\n"
        << "localhost 2\n"
        << "\n"
        << "node-a\n";
  }
  const std::vector<HostSlot> hosts = parse_hosts_file(path);
  std::filesystem::remove(path);
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0].host, "localhost");
  EXPECT_EQ(hosts[0].slots, 2u);
  EXPECT_EQ(hosts[1].host, "node-a");
  EXPECT_EQ(hosts[1].slots, 1u);

  EXPECT_THROW((void)parse_hosts_file("/nonexistent/hosts.txt"),
               std::exception);

  // A slot count is a whole positive decimal that fits a u32; anything else
  // is refused with the file and line named.
  for (const char* bad : {"localhost -1", "localhost abc",
                          "localhost 99999999999", "localhost 2x",
                          "localhost 0"}) {
    SCOPED_TRACE(bad);
    {
      std::ofstream out(path, std::ios::trunc);
      out << "node-a 3\n" << bad << "\n";
    }
    try {
      (void)parse_hosts_file(path);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path + " line 2"),
                std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(Farm, MatchesSingleProcessByteIdentical) {
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(40);

  TempFile out("plain");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), quick_farm(2));
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.executed, 40u);
  EXPECT_EQ(r.resumed, 0u);
  EXPECT_TRUE(r.harness_fatal.empty());
  EXPECT_GE(r.workers_spawned, 2u);
  EXPECT_EQ(r.worker_crashes, 0u);
  EXPECT_EQ(r.watchdog_kills, 0u);

  EXPECT_EQ(slurp(out.path()),
            canonical_single_process(tc, cfg, "plain"));

  // Shard files are cleaned up after the merge by default.
  const auto dir = std::filesystem::temp_directory_path();
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    EXPECT_EQ(name.find("sfi_farm_test_plain.w"), std::string::npos)
        << "leftover shard file " << name;
  }
}

TEST(Farm, CrashedWorkerIsRetriedByteIdentical) {
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(40);

  // kill -9 mid-shard at index 13 (attempt 0 only): the supervisor must
  // retry the shard's unfinished remainder on a fresh worker and the
  // determinism contract makes the retry byte-identical. One slot, because
  // a dead slot is respawned only when it is handed work: with two, the
  // live worker may take the retry instead.
  FarmConfig fc = quick_farm(1);
  fc.sabotage.crash_index = 13;

  TempFile out("crash");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.executed, 40u);
  EXPECT_TRUE(r.harness_fatal.empty());
  EXPECT_GE(r.worker_crashes, 1u);
  EXPECT_GE(r.shard_retries, 1u);
  EXPECT_GT(r.workers_spawned, 1u);  // the replacement worker

  EXPECT_EQ(slurp(out.path()),
            canonical_single_process(tc, cfg, "crash"));
}

TEST(Farm, WedgedWorkerStruckOutAsHarnessFatal) {
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(16);

  // Index 5 wedges its worker on *every* attempt — the reproducible
  // killer. After max_strikes watchdog kills it must be recorded as
  // HarnessFatal and the rest of the campaign must still complete.
  FarmConfig fc = quick_farm(2);
  fc.shard_size = 4;
  fc.max_strikes = 2;
  fc.sabotage.wedge_index = 5;

  TempFile out("wedge");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  EXPECT_TRUE(r.complete);
  ASSERT_EQ(r.harness_fatal, (std::vector<u32>{5}));
  EXPECT_GE(r.watchdog_kills, 2u);  // one per strike
  EXPECT_EQ(r.worker_crashes, 0u);
  EXPECT_EQ(r.executed, 15u);  // everything but the killer

  const store::StoreContents c = store::read_store(out.path());
  ASSERT_EQ(c.records.size(), 16u);
  EXPECT_EQ(c.records[5].rec.outcome, inject::Outcome::HarnessFatal);
  EXPECT_EQ(r.agg.counts.of(inject::Outcome::HarnessFatal), 1u);
}

TEST(Farm, TransientWedgeRecoversByteIdentical) {
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(24);

  // Wedge only on attempt 0: one watchdog kill, one strike, then the retry
  // succeeds — no HarnessFatal, canonical bytes intact.
  FarmConfig fc = quick_farm(2);
  fc.sabotage.wedge_index = 9;
  fc.sabotage.wedge_once = true;

  TempFile out("wedge_once");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.harness_fatal.empty());
  EXPECT_GE(r.watchdog_kills, 1u);
  EXPECT_EQ(r.executed, 24u);

  EXPECT_EQ(slurp(out.path()),
            canonical_single_process(tc, cfg, "wedge_once"));
}

TEST(Farm, MetricsSnapshotsFeedFleetViewStoreUnchanged) {
  const avp::Testcase tc = small_testcase();
  inject::CampaignConfig cfg = small_campaign(40);

  // With telemetry attached, workers report cumulative 'M' frames; the
  // coordinator folds them into the campaign telemetry's fleet view.
  inject::CampaignTelemetry tel;
  cfg.telemetry = &tel;
  FarmConfig fc = quick_farm(2);

  TempFile out("metrics");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.executed, 40u);

  // Every worker sent a snapshot after each assignment, and the fleet
  // totals cover the whole campaign (each injection is counted by exactly
  // one worker — nothing crashed, so no supervised-retry double counts).
  EXPECT_GE(tel.fleet_workers(), 2u);
  const telemetry::MetricsSnapshot fleet = tel.fleet_snapshot();
  EXPECT_EQ(fleet.counter_value("injections"), 40u);
  u64 outcome_total = 0;
  for (const auto o : inject::kAllOutcomes) {
    outcome_total +=
        fleet.counter_value("outcome." + std::string(to_string(o)));
  }
  EXPECT_EQ(outcome_total, 40u);

  // The observability plane is read-only: the merged store with 'M' frames
  // flowing is byte-identical to the plain single-process canonical run.
  cfg.telemetry = nullptr;
  EXPECT_EQ(slurp(out.path()), canonical_single_process(tc, cfg, "metrics"));
}

TEST(Farm, PostmortemDumpOnSupervisionFailure) {
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(24);

  // The global recorder is process-wide (first enable wins) — that is the
  // deployment shape too: one ring per coordinator process.
  telemetry::FlightRecorder::global().enable(256);

  FarmConfig fc = quick_farm(2);
  fc.sabotage.crash_index = 9;  // kill -9 one worker mid-shard, attempt 0
  const std::string postmortem =
      (std::filesystem::temp_directory_path() / "sfi_farm_postmortem.jsonl")
          .string();
  std::filesystem::remove(postmortem);
  fc.postmortem_path = postmortem;

  TempFile out("postmortem");
  inject::CampaignTelemetry tel;
  inject::CampaignConfig tcfg = cfg;
  tcfg.telemetry = &tel;
  const FarmResult r = run_farm_campaign(tc, tcfg, out.path(), fc);
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.worker_crashes, 1u);

  // The supervision failure left a readable trace of the last seconds.
  ASSERT_TRUE(std::filesystem::exists(postmortem));
  const std::vector<u8> bytes = slurp(postmortem);
  EXPECT_FALSE(bytes.empty());
  const std::string text(bytes.begin(), bytes.end());
  EXPECT_NE(text.find("\"ev\":"), std::string::npos);
  std::filesystem::remove(postmortem);

  // Observability only: the campaign still converged on canonical bytes.
  EXPECT_EQ(slurp(out.path()),
            canonical_single_process(tc, cfg, "postmortem"));
}

TEST(Farm, CooperativeStopIsResumable) {
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(60);

  TempFile out("stop");
  std::atomic<bool> stop{false};
  FarmConfig fc = quick_farm(1);
  fc.on_progress = [&](const sched::Progress& p) {
    if (p.done >= 8) stop.store(true);
  };
  fc.should_stop = [&] { return stop.load(); };

  const FarmResult part = run_farm_campaign(tc, cfg, out.path(), fc);
  EXPECT_TRUE(part.stopped);
  EXPECT_FALSE(part.complete);
  EXPECT_GE(part.executed, 8u);
  EXPECT_LT(part.executed, 60u);

  // The interrupted output is itself a valid store holding exactly the
  // committed records.
  const store::StoreContents c = store::read_store(out.path());
  EXPECT_EQ(c.records.size(), part.executed);

  // Resume finishes the campaign and converges on the canonical bytes.
  const FarmResult rest =
      run_farm_campaign(tc, cfg, out.path(), quick_farm(2), /*resume=*/true);
  EXPECT_TRUE(rest.complete);
  EXPECT_EQ(rest.resumed, part.executed);
  EXPECT_EQ(rest.resumed + rest.executed, 60u);

  EXPECT_EQ(slurp(out.path()),
            canonical_single_process(tc, cfg, "stop"));
}

TEST(Farm, ResumeRefusesForeignStore) {
  const avp::Testcase tc = small_testcase();
  TempFile out("foreign");
  const FarmResult r =
      run_farm_campaign(tc, small_campaign(16), out.path(), quick_farm(2));
  ASSERT_TRUE(r.complete);

  inject::CampaignConfig other = small_campaign(16);
  other.seed = 8;
  EXPECT_THROW((void)run_farm_campaign(tc, other, out.path(), quick_farm(2),
                                       /*resume=*/true),
               store::StoreError);
}

/// Frame-kind counts of each shard store a keep_shards run left next to
/// `out` (one map per shard file); the files are removed.
std::vector<std::map<u8, u64>> take_shard_frames(const std::string& out) {
  const std::string prefix = store::store_sibling(out, ".w");
  std::vector<std::map<u8, u64>> shards;
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(out).parent_path())) {
    const std::string path = e.path().string();
    if (!path.starts_with(prefix) || !path.ends_with(".sfr")) continue;
    std::map<u8, u64> kinds;
    {
      store::StoreReader reader(path, {.tolerate_torn_tail = true});
      u8 kind = 0;
      std::vector<u8> payload;
      while (reader.next_frame(kind, payload)) ++kinds[kind];
    }
    shards.push_back(std::move(kinds));
    std::filesystem::remove(path);
  }
  return shards;
}

TEST(Farm, AttachedTelemetryDecidesWhatWorkersShip) {
  const avp::Testcase tc = small_testcase();
  FarmConfig fc = quick_farm(2);
  fc.keep_shards = true;

  // No telemetry: workers ship neither metrics nor spans.
  {
    TempFile out("ship_nothing");
    const FarmResult r =
        run_farm_campaign(tc, small_campaign(40), out.path(), fc);
    ASSERT_TRUE(r.complete);
    const auto shards = take_shard_frames(out.path());
    ASSERT_EQ(shards.size(), 2u);
    for (const auto& kinds : shards) {
      EXPECT_EQ(kinds.count(store::kMetricsFrame), 0u);
      EXPECT_EQ(kinds.count(store::kSpanFrame), 0u);
    }
  }

  // Telemetry without the span plane: every worker ships metrics, the
  // fleet counts every injection, and nobody ships spans.
  {
    inject::CampaignTelemetry tel;
    inject::CampaignConfig cfg = small_campaign(40);
    cfg.telemetry = &tel;
    TempFile out("ship_metrics");
    const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
    ASSERT_TRUE(r.complete);
    const auto shards = take_shard_frames(out.path());
    ASSERT_EQ(shards.size(), 2u);
    u64 snapshots = 0;
    for (const auto& kinds : shards) {
      EXPECT_GT(kinds.count(store::kMetricsFrame), 0u);
      EXPECT_EQ(kinds.count(store::kSpanFrame), 0u);
      if (const auto m = kinds.find(store::kMetricsFrame); m != kinds.end()) {
        snapshots += m->second;
      }
    }
    // One cumulative snapshot per assignment, appended after its ring.
    EXPECT_EQ(snapshots, r.assignments);
    EXPECT_EQ(tel.fleet_snapshot().counter_value("injections"), 40u);
  }

  // Span plane on, its book already carrying a trace id: workers ship
  // spans too, under that id, and the sidecar alone stitches the
  // coordinator's row with every worker's.
  {
    inject::CampaignTelemetry tel;
    tel.enable_span_plane("sfi", /*trace_id=*/0xBEEF);
    inject::CampaignConfig cfg = small_campaign(40);
    cfg.telemetry = &tel;
    TempFile out("ship_spans");
    const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
    ASSERT_TRUE(r.complete);
    const auto shards = take_shard_frames(out.path());
    ASSERT_EQ(shards.size(), 2u);
    for (const auto& kinds : shards) {
      EXPECT_GT(kinds.count(store::kMetricsFrame), 0u);
      EXPECT_GT(kinds.count(store::kSpanFrame), 0u);
    }
    const std::string sidecar =
        store::store_sibling(out.path(), store::kTraceSidecarSuffix);
    for (const telemetry::SpanRecord& sp : store::read_spans(sidecar)) {
      if (sp.cat == "shard.exec") {
        EXPECT_EQ(sp.trace_id, 0xBEEFu);
      }
    }
    const store::StitchResult st = store::stitch_trace(out.path());
    EXPECT_EQ(st.files, 1u) << "the sidecar alone (shards are gone)";
    EXPECT_GE(st.processes, 3u);
    for (const char* row : {"\"sfi farm\"", "\"sfi worker 0\"",
                            "\"sfi worker 1\""}) {
      EXPECT_NE(st.json.find(row), std::string::npos) << row;
    }
    std::filesystem::remove(sidecar);
  }
}

TEST(Farm, MetricsOutCountsTheFleet) {
  const avp::Testcase tc = small_testcase();
  inject::CampaignTelemetry tel;
  inject::CampaignConfig cfg = small_campaign(40);
  cfg.telemetry = &tel;
  TempFile out("metrics_out");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), quick_farm(2));
  ASSERT_TRUE(r.complete);

  // The written file is the fleet view: the injections ran in the workers,
  // and the coordinator's campaign gauges survive their snapshots.
  const std::string path =
      (std::filesystem::temp_directory_path() / "sfi_farm_metrics_out.json")
          .string();
  tel.write_metrics(path);
  const std::vector<u8> bytes = slurp(path);
  std::filesystem::remove(path);
  const std::string json(bytes.begin(), bytes.end());
  EXPECT_NE(json.find("\"injections\":40,"), std::string::npos) << json;
  const telemetry::MetricsSnapshot fleet = tel.fleet_snapshot();
  EXPECT_EQ(fleet.gauge_value("total_injections"), 40.0);
  // Each worker times its idle wait before every assignment but its first.
  const telemetry::MetricsSnapshot::Hist* wait =
      fleet.histogram("farm.dispatch_wait_seconds");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, r.assignments - 2);
}

/// Every 'P' payload of a store, ordered by injection index.
std::vector<std::vector<u8>> footprint_payloads(const std::string& path) {
  std::vector<std::pair<u32, std::vector<u8>>> found;
  store::StoreReader reader(path, {});
  u8 kind = 0;
  std::vector<u8> payload;
  while (reader.next_frame(kind, payload)) {
    if (kind != store::kPropagationFrame) continue;
    found.emplace_back(store::decode_propagation(payload).index, payload);
  }
  std::sort(found.begin(), found.end());
  std::vector<std::vector<u8>> out;
  for (auto& [index, bytes] : found) out.push_back(std::move(bytes));
  return out;
}

TEST(Farm, FootprintsSurviveTheMerge) {
  const avp::Testcase tc = small_testcase();
  inject::CampaignConfig cfg = small_campaign(40);
  cfg.footprint.enabled = true;
  cfg.footprint.vanished_sample = 4;

  TempFile single("fp_single");
  const sched::ScheduledResult ref =
      sched::run_campaign_to_store(tc, cfg, single.path(), {});
  ASSERT_GT(ref.footprints, 0u);

  // A worker kill -9'd mid-shard: the footprints its committed records
  // carried, and the retried remainder's, all reach the output.
  FarmConfig fc = quick_farm(2);
  fc.sabotage.crash_index = 13;
  TempFile out("fp_farm");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  ASSERT_TRUE(r.complete);
  EXPECT_GE(r.worker_crashes, 1u);
  const std::vector<std::vector<u8>> farm_fps = footprint_payloads(out.path());
  EXPECT_EQ(farm_fps.size(), ref.footprints);
  EXPECT_EQ(farm_fps, footprint_payloads(single.path()));

  // Footprints follow the records; the canonical merge drops them again.
  TempFile canon_farm("fp_canon_farm"), canon_single("fp_canon_single");
  (void)store::merge_stores({out.path()}, canon_farm.path());
  (void)store::merge_stores({single.path()}, canon_single.path());
  EXPECT_EQ(slurp(canon_farm.path()), slurp(canon_single.path()));
}

TEST(Farm, DispatchFollowsCompletionNotTheTick) {
  // The worker rings its bell as each shard's last record commits, so the
  // coordinator dispatches the next one at once: six shards on one worker
  // finish well inside a single 5 s tick. A coordinator that only looked
  // once per tick would take at least one tick per shard.
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(48);
  FarmConfig fc = quick_farm(1);
  fc.poll_seconds = 5.0;
  TempFile out("bell");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.assignments, 6u);
  EXPECT_LT(r.wall_seconds, 5.0);
  EXPECT_EQ(slurp(out.path()), canonical_single_process(tc, cfg, "bell"));

  // Both pipes are close-on-exec, so no exec'd process (another campaign's
  // worker under `sfi serve`) keeps a bell open after its worker exits.
  ChildProcess child = spawn_call([](int, int) { return 0; });
  for (const int fd : {child.control_fd, child.bell_fd}) {
    ASSERT_GE(fd, 0);
    EXPECT_NE(fcntl(fd, F_GETFD) & FD_CLOEXEC, 0) << "fd " << fd;
  }
  bool clean = false;
  int detail = -1;
  reap(child, clean, detail);
  EXPECT_TRUE(clean);
  EXPECT_EQ(child.bell_fd, -1);
}

TEST(Farm, ShardStoresCommitOncePerRecord) {
  // A worker commits its assignment echo, then each record with its
  // footprint, one flush apiece; beside the header's commit that is all it
  // commits, and it writes no heartbeat.
  const avp::Testcase tc = small_testcase();
  inject::CampaignConfig cfg = small_campaign(40);
  cfg.footprint.enabled = true;
  cfg.footprint.vanished_sample = 4;
  FarmConfig fc = quick_farm(2);
  fc.keep_shards = true;

  TempFile out("commit_once");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  ASSERT_TRUE(r.complete);
  const auto shards = take_shard_frames(out.path());
  ASSERT_EQ(shards.size(), 2u);
  u64 records = 0;
  u64 footprints = 0;
  for (const auto& kinds : shards) {
    const auto count = [&kinds](u8 kind) {
      const auto it = kinds.find(kind);
      return it == kinds.end() ? u64{0} : it->second;
    };
    EXPECT_EQ(count(store::kHeartbeatFrame), 0u);
    EXPECT_EQ(count(store::kCommitFrame),
              1 + count(store::kAssignmentFrame) +
                  count(store::kRecordFrame));
    records += count(store::kRecordFrame);
    footprints += count(store::kPropagationFrame);
  }
  EXPECT_EQ(records, 40u);
  EXPECT_GT(footprints, 0u);
}

TEST(Farm, LaneWedgeStruckOutAlone) {
  // The lane engine claims its whole batch before it runs any, so the
  // wedged batch's store says nothing of which index wedged it. Each of
  // its indices is retried in an assignment of its own, and only the
  // killer fails again: alone, twice, and then it is struck.
  const avp::Testcase tc = small_testcase();
  inject::CampaignConfig cfg = small_campaign(40);
  cfg.engine = inject::EngineKind::Lanes;
  cfg.lanes = 16;
  FarmConfig fc = quick_farm(2);
  fc.max_strikes = 2;
  fc.sabotage.wedge_index = 5;

  TempFile out("lane_wedge");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), fc);
  EXPECT_TRUE(r.complete);
  ASSERT_EQ(r.harness_fatal, (std::vector<u32>{5}));
  EXPECT_EQ(r.executed, 39u);
}

TEST(Farm, WorkerThatNeverAcceptsIsNotBlamed) {
  // A worker that dies before it echoes its assignment never ran any of
  // it, so its failures strike nothing, however often they repeat: the
  // farm gives up instead of recording HarnessFatal for injections that
  // never ran.
  const avp::Testcase tc = small_testcase();
  FarmConfig fc = quick_farm(1);
  fc.hosts = {{"localhost", 1}};
  fc.worker_command = {"/bin/false"};
  fc.max_strikes = 1;

  TempFile out("never_accepts");
  try {
    (void)run_farm_campaign(tc, small_campaign(8), out.path(), fc);
    ADD_FAILURE() << "the campaign finished";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("workers keep dying without progress"),
              std::string::npos)
        << e.what();
  }
}

TEST(Farm, LaneShardsFollowTheDriverRule) {
  const avp::Testcase tc = small_testcase();
  inject::CampaignConfig cfg = small_campaign(40);
  cfg.engine = inject::EngineKind::Lanes;
  cfg.lanes = 16;  // above quick_farm's shard size of 8

  TempFile out("lane_shards");
  const FarmResult r = run_farm_campaign(tc, cfg, out.path(), quick_farm(2));
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.assignments, (40u + cfg.lanes - 1) / cfg.lanes);
  EXPECT_EQ(slurp(out.path()), canonical_single_process(tc, cfg, "lanes"));
}

}  // namespace
}  // namespace sfi::farm
