// Injection engines (src/sfi/engine.hpp): the lane engine must be a pure
// speed knob. Every test here is some variation of the module's central
// contract — records (and stores, and footprints) produced under
// EngineKind::Lanes are field/byte-identical to EngineKind::Scalar for the
// same plan, for every lane count, fault mode, and resume split.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "beam/beam.hpp"
#include "common/hash.hpp"
#include "netlist/state_vector.hpp"
#include "sched/scheduler.hpp"
#include "sfi/driver.hpp"
#include "sfi/engine.hpp"
#include "sfi/telemetry.hpp"
#include "store/codec.hpp"
#include "store/merge.hpp"
#include "store/writer.hpp"
#include "workload/spec_profiles.hpp"

namespace sfi::inject {
namespace {

avp::Testcase small_testcase() {
  avp::TestcaseConfig cfg;
  cfg.seed = 11;
  cfg.num_instructions = 80;
  return avp::generate_testcase(cfg);
}

CampaignConfig small_campaign(u32 n, EngineKind engine, u32 lanes = 64) {
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = n;
  cfg.threads = 1;
  cfg.engine = engine;
  cfg.lanes = lanes;
  return cfg;
}

/// Every fault of `plan`, in index order, through one engine of `kind`.
std::vector<InjectionRecord> run_plan(const avp::Testcase& tc,
                                      CampaignConfig cfg,
                                      const CampaignPlan& plan,
                                      EngineKind kind) {
  cfg.engine = kind;
  const auto eng = make_engine(tc, cfg, plan);
  std::vector<InjectionRecord> records(plan.faults.size());
  u32 p = 0;
  eng->run(
      [&]() -> std::optional<u32> {
        if (p >= plan.faults.size()) return std::nullopt;
        return p++;
      },
      [&](u32 i, const InjectionRecord& rec,
          std::optional<PropagationRecord>) { records[i] = rec; },
      nullptr);
  return records;
}

void expect_records_equal(const std::vector<InjectionRecord>& a,
                          const std::vector<InjectionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault.index, b[i].fault.index) << "record " << i;
    EXPECT_EQ(a[i].fault.cycle, b[i].fault.cycle) << "record " << i;
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "record " << i;
    EXPECT_EQ(a[i].unit, b[i].unit) << "record " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "record " << i;
    EXPECT_EQ(a[i].end_cycle, b[i].end_cycle) << "record " << i;
    EXPECT_EQ(a[i].early_exited, b[i].early_exited) << "record " << i;
    EXPECT_EQ(a[i].recoveries, b[i].recoveries) << "record " << i;
  }
}

TEST(EngineAB, RecordsIdenticalToggleCampaign) {
  const avp::Testcase tc = small_testcase();
  const CampaignResult scalar =
      run_campaign(tc, small_campaign(300, EngineKind::Scalar));
  const CampaignResult lanes =
      run_campaign(tc, small_campaign(300, EngineKind::Lanes));
  expect_records_equal(scalar.records, lanes.records);
}

TEST(EngineAB, RecordsIdenticalAcrossLaneCounts) {
  const avp::Testcase tc = small_testcase();
  const CampaignResult scalar =
      run_campaign(tc, small_campaign(120, EngineKind::Scalar));
  for (const u32 lanes : {1u, 3u, 64u, 512u}) {
    const CampaignResult r =
        run_campaign(tc, small_campaign(120, EngineKind::Lanes, lanes));
    expect_records_equal(scalar.records, r.records);
  }
}

TEST(EngineAB, RecordsIdenticalStickyFallback) {
  // Sticky faults never enter the fast path — the engine must route them
  // through the verbatim scalar runner and still match.
  const avp::Testcase tc = small_testcase();
  CampaignConfig a = small_campaign(80, EngineKind::Scalar);
  a.mode = FaultMode::Sticky;
  a.sticky_duration = 6;
  CampaignConfig b = a;
  b.engine = EngineKind::Lanes;
  const CampaignResult scalar = run_campaign(tc, a);
  const CampaignResult lanes = run_campaign(tc, b);
  expect_records_equal(scalar.records, lanes.records);
}

TEST(EngineAB, RecordsIdenticalMultiBitUpsets) {
  // Wide adjacent upsets (beam-style faults, widened post-plan): in-carrier
  // widths ride lanes, anything spanning more diff words than the carrier
  // falls back. Both engines must match, driven through the raw interface.
  const avp::Testcase tc = small_testcase();
  CampaignConfig cfg = small_campaign(120, EngineKind::Scalar);
  CampaignPlan plan = plan_campaign(tc, cfg);
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    plan.faults[i].adjacent_bits = static_cast<u8>(1 + i % 9);
  }

  expect_records_equal(run_plan(tc, cfg, plan, EngineKind::Scalar),
                       run_plan(tc, cfg, plan, EngineKind::Lanes));
}

// The same contract over each of the 11 SPEC-like testcases
// (workload/spec_profiles), whose instruction mixes and cache behaviour
// differ from the small AVP's.
class EngineABSpec : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineABSpec, ToggleRecordsIdentical) {
  const avp::Testcase tc = workload::make_component_testcase(
      workload::spec_components()[GetParam()], 5);
  const CampaignConfig cfg = small_campaign(60, EngineKind::Scalar);
  const CampaignPlan plan = plan_campaign(tc, cfg);
  expect_records_equal(run_plan(tc, cfg, plan, EngineKind::Scalar),
                       run_plan(tc, cfg, plan, EngineKind::Lanes));
}

INSTANTIATE_TEST_SUITE_P(
    Spec, EngineABSpec,
    ::testing::Range<std::size_t>(0, workload::spec_components().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      const std::string& name = workload::spec_components()[info.param].name;
      return name.substr(0, name.find('.'));
    });

TEST(EngineAB, FootprintsIdentical) {
  const avp::Testcase tc = small_testcase();
  CampaignConfig a = small_campaign(100, EngineKind::Scalar);
  a.footprint.enabled = true;
  a.footprint.vanished_sample = 8;
  CampaignConfig b = a;
  b.engine = EngineKind::Lanes;
  const CampaignResult scalar = run_campaign(tc, a);
  const CampaignResult lanes = run_campaign(tc, b);
  expect_records_equal(scalar.records, lanes.records);
  ASSERT_EQ(scalar.footprints.size(), lanes.footprints.size());
  for (std::size_t i = 0; i < scalar.footprints.size(); ++i) {
    const PropagationRecord& x = scalar.footprints[i];
    const PropagationRecord& y = lanes.footprints[i];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.masked, y.masked);
    EXPECT_EQ(x.detected, y.detected);
    EXPECT_EQ(x.reached_arch, y.reached_arch);
    EXPECT_EQ(x.reached_memory, y.reached_memory);
    EXPECT_EQ(x.masked_at, y.masked_at);
    EXPECT_EQ(x.detected_at, y.detected_at);
    EXPECT_EQ(x.peak_bits, y.peak_bits);
    EXPECT_EQ(x.samples.size(), y.samples.size());
  }
}

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sfi_engine_test_" + name + ".sfr"))
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

std::vector<u8> canonical_store(const avp::Testcase& tc,
                                const CampaignConfig& cfg,
                                const std::string& tag) {
  TempFile raw("raw_" + tag), canon("canon_" + tag);
  const auto r = sched::run_campaign_to_store(tc, cfg, raw.path(), {});
  EXPECT_TRUE(r.complete);
  (void)store::merge_stores({raw.path()}, canon.path());
  return slurp(canon.path());
}

TEST(EngineAB, CanonicalStoreByteIdentical) {
  const avp::Testcase tc = small_testcase();
  const auto scalar =
      canonical_store(tc, small_campaign(200, EngineKind::Scalar), "s");
  const auto lanes =
      canonical_store(tc, small_campaign(200, EngineKind::Lanes), "l");
  EXPECT_EQ(scalar, lanes);
}

TEST(EngineAB, ResumeAcrossEnginesByteIdentical) {
  // Start a campaign under one engine, interrupt it, resume under the
  // other: engine choice is excluded from the fingerprint and the canonical
  // merge must still match an uninterrupted scalar run byte-for-byte.
  const avp::Testcase tc = small_testcase();
  const auto reference =
      canonical_store(tc, small_campaign(200, EngineKind::Scalar), "ref");

  TempFile raw("resume"), canon("resume_canon");
  sched::SchedulerConfig head;
  head.max_new_injections = 90;
  const auto r1 = sched::run_campaign_to_store(
      tc, small_campaign(200, EngineKind::Scalar), raw.path(), head);
  EXPECT_FALSE(r1.complete);
  const auto r2 = sched::run_campaign_to_store(
      tc, small_campaign(200, EngineKind::Lanes), raw.path(), {},
      /*resume=*/true);
  EXPECT_TRUE(r2.complete);
  EXPECT_EQ(r2.resumed, r1.executed);
  (void)store::merge_stores({raw.path()}, canon.path());
  EXPECT_EQ(slurp(canon.path()), reference);
}

// --- pinned records --------------------------------------------------------
//
// Every A/B test above compares two paths of one build, so a change that
// moves both engines together passes them all. These hash the bytes fixed
// runs produce and compare them with constants recorded from an earlier
// build: a mismatch means records (or footprints) changed.

struct PinnedHashes {
  u64 store = 0;       ///< canonical store bytes
  u64 footprints = 0;  ///< 'P' payloads in index order (merge drops them)
};

PinnedHashes pinned_run(const avp::Testcase& tc, CampaignConfig cfg,
                        const CampaignPlan& plan, EngineKind engine,
                        const std::string& tag) {
  cfg.engine = engine;
  TempFile raw("pin_raw_" + tag), canon("pin_canon_" + tag);
  std::vector<PropagationRecord> fps;
  {
    store::StoreWriter w = store::StoreWriter::create(
        raw.path(), sched::make_campaign_meta(tc, cfg, plan));
    DriverConfig dc;
    dc.threads = 1;
    (void)drive_campaign(tc, cfg, plan, plan.cycle_sorted_indices(), dc,
                         [&](const FlushWindow& win) {
                           for (const IndexedRecord& r : win.records) {
                             w.append(store::StoredRecord{r.index, r.rec});
                           }
                           fps.insert(fps.end(), win.footprints.begin(),
                                      win.footprints.end());
                         });
    w.flush();
  }
  (void)store::merge_stores({raw.path()}, canon.path());
  std::sort(fps.begin(), fps.end(),
            [](const PropagationRecord& a, const PropagationRecord& b) {
              return a.index < b.index;
            });
  PinnedHashes h;
  h.store = hash_bytes(slurp(canon.path()));
  for (const PropagationRecord& fp : fps) {
    h.footprints = hash_bytes(store::encode_propagation(fp), h.footprints);
  }
  return h;
}

TEST(Pinned, CanonicalStoresAndFootprintsMatchRecordedHashes) {
  struct Case {
    const char* name;
    FaultMode mode;
    bool multi_bit;
    u64 store;
    u64 footprints;
  };
  const Case cases[] = {
      {"toggle", FaultMode::Toggle, false, 0x2efddb1743714e8aull,
       0xe93d7cc018647cecull},
      {"sticky", FaultMode::Sticky, false, 0xb7324cf888c9f96full,
       0x1633811c1bbb4545ull},
      {"multibit", FaultMode::Toggle, true, 0xd3fdab37da6be891ull,
       0x1f68b9abad318289ull},
  };
  const avp::Testcase tc = small_testcase();
  for (const Case& c : cases) {
    CampaignConfig cfg = small_campaign(120, EngineKind::Scalar);
    cfg.mode = c.mode;
    cfg.sticky_duration = 6;
    cfg.footprint.enabled = true;
    cfg.footprint.vanished_sample = 8;
    CampaignPlan plan = plan_campaign(tc, cfg);
    if (c.multi_bit) {
      for (std::size_t i = 0; i < plan.faults.size(); ++i) {
        plan.faults[i].adjacent_bits = static_cast<u8>(1 + i % 9);
      }
    }
    for (const EngineKind engine : {EngineKind::Scalar, EngineKind::Lanes}) {
      const PinnedHashes h = pinned_run(
          tc, cfg, plan, engine, std::string(c.name) + engine_name(engine));
      EXPECT_EQ(h.store, c.store)
          << c.name << " " << engine_name(engine) << std::hex
          << " store hash 0x" << h.store;
      EXPECT_EQ(h.footprints, c.footprints)
          << c.name << " " << engine_name(engine) << std::hex
          << " footprint hash 0x" << h.footprints;
    }
  }
}

TEST(Pinned, WorkCountersMatchRecordedValues) {
  // The toggle case above, counted on one thread: how many faults retired
  // dead on arrival and how many early-exited are as deterministic as the
  // bytes. Both engines admit each fault through the same
  // InjectionRunner::admit, so they retire the same faults that way. The
  // footprints and the cycles they span are the forensics cost (DESIGN
  // §11): observed on each injection's own run, nothing re-run, and
  // counted free of noise.
  // So are the post-fault cycles by exit kind and the recovery tails the
  // certificate retires: the same tails on both engines, while the lane
  // engine's runner simulates only what leaves its fast path. Late flips
  // (entries at the first read, and exits before it) skip the pre-read
  // cycles on the scalar engine; the lane engine rides them, and takes
  // only the admission's exits.
  struct PostFault {
    EngineKind engine;
    u64 vanished_early_exit;
    u64 corrected_to_recovery_end;
    u64 corrected_after_recovery;
    u64 late_flips;
    u64 pre_read_cycles_skipped;
  };
  const PostFault pinned[] = {{EngineKind::Scalar, 193, 709, 236, 11, 1044},
                              {EngineKind::Lanes, 0, 709, 236, 0, 0}};
  const avp::Testcase tc = small_testcase();
  for (const PostFault& p : pinned) {
    const EngineKind engine = p.engine;
    CampaignTelemetry tel;
    CampaignConfig cfg = small_campaign(120, engine);
    cfg.footprint.enabled = true;
    cfg.footprint.vanished_sample = 8;
    cfg.telemetry = &tel;
    (void)run_campaign(tc, cfg);
    const telemetry::MetricsRegistry& m = tel.metrics();
    EXPECT_EQ(m.counter_value_by_name("dead_on_arrival"), 102u)
        << engine_name(engine);
    EXPECT_EQ(m.counter_value_by_name("early_exits"), 78u)
        << engine_name(engine);
    EXPECT_EQ(m.counter_value_by_name("footprint.traced"), 27u)
        << engine_name(engine);
    EXPECT_EQ(m.counter_value_by_name("footprint.rerun_cycles"), 2121u)
        << engine_name(engine);
    EXPECT_EQ(m.counter_value_by_name("tails_certified"), 12u)
        << engine_name(engine);
    EXPECT_EQ(m.counter_value_by_name("tail_cycles_skipped"), 1166u)
        << engine_name(engine);
    EXPECT_EQ(m.counter_value_by_name("late_flips"), p.late_flips)
        << engine_name(engine);
    EXPECT_EQ(m.counter_value_by_name("pre_read_cycles_skipped"),
              p.pre_read_cycles_skipped)
        << engine_name(engine);
    const auto row = [&](std::string_view name) {
      return m.counter_value_by_name("post_fault_cycles." +
                                     std::string(name));
    };
    EXPECT_EQ(row("vanished_early_exit"), p.vanished_early_exit)
        << engine_name(engine);
    EXPECT_EQ(row("vanished_test_end"), 0u) << engine_name(engine);
    EXPECT_EQ(row("corrected_to_recovery_end"), p.corrected_to_recovery_end)
        << engine_name(engine);
    EXPECT_EQ(row("corrected_after_recovery"), p.corrected_after_recovery)
        << engine_name(engine);
    EXPECT_EQ(row("hang"), 0u) << engine_name(engine);
    EXPECT_EQ(row("checkstop"), 0u) << engine_name(engine);
    EXPECT_EQ(row("bad_arch_state"), 0u) << engine_name(engine);
  }
}

TEST(Pinned, BeamRecordsMatchRecordedHash) {
  beam::BeamConfig cfg;
  cfg.seed = 6;
  cfg.num_events = 150;
  cfg.threads = 2;
  const beam::BeamResult r = beam::run_beam_experiment(small_testcase(), cfg);
  ASSERT_GT(r.latch_events, 0u);
  ASSERT_GT(r.array_events, 0u);
  u64 h = 0;
  for (u32 i = 0; i < r.records.size(); ++i) {
    h = hash_bytes(store::encode_record({i, r.records[i]}), h);
  }
  EXPECT_EQ(h, 0x795b480a0a45bcd3ull) << std::hex << "beam record hash 0x" << h;
}

TEST(EngineAB, NamesRoundTrip) {
  EXPECT_STREQ(engine_name(EngineKind::Scalar), "scalar");
  EXPECT_STREQ(engine_name(EngineKind::Lanes), "lanes");
  EXPECT_EQ(parse_engine("scalar"), EngineKind::Scalar);
  EXPECT_EQ(parse_engine("lanes"), EngineKind::Lanes);
  EXPECT_EQ(parse_engine("vector"), std::nullopt);
}

TEST(AccessRecorder, RecordsReadsAndWrites) {
  netlist::StateVector sv(256);
  netlist::AccessRecorder rec;
  rec.bind(sv.words().size());
  sv.set_recorder(&rec);

  rec.begin_cycle();
  (void)sv.get_bit(5);
  sv.set_bit(70, true);
  sv.write(130, 10, 0x3ff);
  (void)sv.read(200, 8);
  EXPECT_EQ(rec.reads()[0], u64{1} << 5);
  EXPECT_EQ(rec.writes()[1], u64{1} << 6);
  EXPECT_EQ(rec.writes()[2], u64{0x3ff} << 2);
  EXPECT_EQ(rec.reads()[3], u64{0xff} << 8);

  // flip_bit is a read-modify-write: both sets.
  rec.begin_cycle();
  EXPECT_EQ(rec.reads()[0], 0u);
  sv.flip_bit(3);
  EXPECT_EQ(rec.reads()[0], u64{1} << 3);
  EXPECT_EQ(rec.writes()[0], u64{1} << 3);
}

TEST(AccessRecorder, NeverPropagatesThroughCopies) {
  // Checkpoints and trace snapshots copy StateVectors; a recorder riding
  // along would record phantom accesses (and break equality compares).
  netlist::StateVector sv(128);
  netlist::AccessRecorder rec;
  rec.bind(sv.words().size());
  sv.set_recorder(&rec);

  netlist::StateVector copy(sv);
  rec.begin_cycle();
  copy.set_bit(9, true);
  EXPECT_EQ(rec.writes()[0], 0u);  // copy is unarmed

  netlist::StateVector other(128);
  other.set_bit(9, true);
  EXPECT_FALSE(sv == other);
  other = sv;  // assignment into an unarmed vector stays unarmed...
  EXPECT_TRUE(sv == other);  // ...and equality ignores the recorder
  rec.begin_cycle();
  other.set_bit(11, true);
  EXPECT_EQ(rec.writes()[0], 0u);
}

}  // namespace
}  // namespace sfi::inject
