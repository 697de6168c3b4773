// Propagation forensics: trace-selection policy, 'P'-frame codec round-trip,
// store interleaving, and the subsystem's headline invariants — injection
// records and store bytes are identical with forensics on, surviving faults
// produce non-trivial infection footprints, and every footprint observed on
// its run (or read off the access timeline) equals the one a re-run of the
// injection from its own cycle measures, on the AVP and every SPEC-like
// testcase.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "sched/scheduler.hpp"
#include "sfi/campaign.hpp"
#include "sfi/engine.hpp"
#include "sfi/propagation.hpp"
#include "stats/rng.hpp"
#include "store/codec.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "workload/spec_profiles.hpp"

namespace sfi {
namespace {

using inject::FootprintConfig;
using inject::FootprintSample;
using inject::Outcome;
using inject::PropagationRecord;

avp::Testcase small_testcase(u64 seed = 11) {
  avp::TestcaseConfig cfg;
  cfg.seed = seed;
  cfg.num_instructions = 80;
  return avp::generate_testcase(cfg);
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sfi_prop_" + name + ".sfr"))
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

store::CampaignMeta sample_meta() {
  store::CampaignMeta m;
  m.seed = 42;
  m.num_injections = 7;
  m.config_fingerprint = 0x1234'5678'9abc'def0ull;
  m.workload_id = 0xfeed'beefull;
  m.population_size = 13760;
  m.workload_cycles = 982;
  m.workload_instructions = 238;
  m.window_begin = 1;
  m.window_end = 981;
  return m;
}

store::StoredRecord sample_record(u32 index) {
  store::StoredRecord sr;
  sr.index = index;
  sr.rec.fault.index = 100 + index;
  sr.rec.fault.cycle = 10 + index;
  sr.rec.outcome = static_cast<Outcome>(index % inject::kNumOutcomes);
  sr.rec.unit = static_cast<netlist::Unit>(index % netlist::kNumUnits);
  sr.rec.end_cycle = 500 + index;
  return sr;
}

PropagationRecord sample_prop(u32 index) {
  PropagationRecord p;
  p.index = index;
  p.unit = static_cast<netlist::Unit>(index % netlist::kNumUnits);
  p.type = static_cast<netlist::LatchType>(index % netlist::kNumLatchTypes);
  p.outcome = static_cast<Outcome>(index % inject::kNumOutcomes);
  p.fault_cycle = 30 + index;
  p.masked = index % 2 == 0;
  p.detected = index % 3 == 0;
  p.reached_arch = index % 2 == 1;
  p.reached_memory = index % 5 == 0;
  p.truncated = index % 7 == 0;
  p.checker_fired = index % 3 == 0;
  p.checker_fatal = index % 6 == 0;
  p.checker = static_cast<core::CheckerId>(index % core::kNumCheckers);
  p.masked_at = p.masked ? 16 + index : 0;
  p.detected_at = p.detected ? 4 + index : 0;
  p.peak_bits = 10 + index;
  p.rerun_cycles = 100 + index;
  for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
    p.first_corrupt[u] =
        u % 2 == 1 ? inject::kNeverCorrupted : index + static_cast<u32>(u);
  }
  for (u32 s = 0; s < 1 + index % 4; ++s) {
    FootprintSample fs;
    fs.offset = 1u << s;
    fs.total_bits = 5 * s + index;
    for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
      fs.unit_bits[u] = s + static_cast<u32>(u);
    }
    p.samples.push_back(fs);
  }
  return p;
}

// --- trace-selection policy -----------------------------------------------

TEST(FootprintPolicy, DisabledNeverTraces) {
  FootprintConfig cfg;  // enabled = false
  for (const auto o : inject::kAllOutcomes) {
    EXPECT_FALSE(inject::footprint_should_trace(cfg, 0, o));
  }
}

TEST(FootprintPolicy, NonVanishedAlwaysTraced) {
  FootprintConfig cfg;
  cfg.enabled = true;
  cfg.vanished_sample = 0;  // even with Vanished tracing fully off
  for (const auto o : inject::kAllOutcomes) {
    if (o == Outcome::Vanished) continue;
    for (const u32 i : {0u, 1u, 7u, 12345u}) {
      EXPECT_TRUE(inject::footprint_should_trace(cfg, i, o));
    }
  }
}

TEST(FootprintPolicy, VanishedSampledEveryNth) {
  FootprintConfig cfg;
  cfg.enabled = true;
  cfg.vanished_sample = 8;
  u32 traced = 0;
  for (u32 i = 0; i < 64; ++i) {
    if (inject::footprint_should_trace(cfg, i, Outcome::Vanished)) ++traced;
  }
  EXPECT_EQ(traced, 8u);  // deterministic in the index, not random

  cfg.vanished_sample = 0;
  for (u32 i = 0; i < 64; ++i) {
    EXPECT_FALSE(inject::footprint_should_trace(cfg, i, Outcome::Vanished));
  }
}

TEST(FootprintPolicy, UnitsCrossedExcludesOrigin) {
  PropagationRecord p;
  p.unit = netlist::Unit::FXU;
  p.first_corrupt.fill(inject::kNeverCorrupted);
  EXPECT_EQ(p.units_crossed(), 0u);
  p.first_corrupt[static_cast<std::size_t>(netlist::Unit::FXU)] = 0;
  EXPECT_EQ(p.units_crossed(), 0u);  // origin does not count as a crossing
  p.first_corrupt[static_cast<std::size_t>(netlist::Unit::LSU)] = 4;
  p.first_corrupt[static_cast<std::size_t>(netlist::Unit::IDU)] = 16;
  EXPECT_EQ(p.units_crossed(), 2u);
}

// --- codec ----------------------------------------------------------------

TEST(PropagationCodec, RoundTripAllFields) {
  for (u32 i = 0; i < 16; ++i) {
    const PropagationRecord p = sample_prop(i);
    const PropagationRecord back =
        store::decode_propagation(store::encode_propagation(p));
    EXPECT_EQ(store::encode_propagation(back), store::encode_propagation(p))
        << "index " << i;
    EXPECT_EQ(back.index, p.index);
    EXPECT_EQ(back.unit, p.unit);
    EXPECT_EQ(back.type, p.type);
    EXPECT_EQ(back.outcome, p.outcome);
    EXPECT_EQ(back.fault_cycle, p.fault_cycle);
    EXPECT_EQ(back.masked, p.masked);
    EXPECT_EQ(back.detected, p.detected);
    EXPECT_EQ(back.reached_arch, p.reached_arch);
    EXPECT_EQ(back.reached_memory, p.reached_memory);
    EXPECT_EQ(back.truncated, p.truncated);
    EXPECT_EQ(back.checker_fired, p.checker_fired);
    EXPECT_EQ(back.masked_at, p.masked_at);
    EXPECT_EQ(back.detected_at, p.detected_at);
    EXPECT_EQ(back.peak_bits, p.peak_bits);
    EXPECT_EQ(back.rerun_cycles, p.rerun_cycles);
    EXPECT_EQ(back.first_corrupt, p.first_corrupt);
    ASSERT_EQ(back.samples.size(), p.samples.size());
    for (std::size_t s = 0; s < p.samples.size(); ++s) {
      EXPECT_EQ(back.samples[s].offset, p.samples[s].offset);
      EXPECT_EQ(back.samples[s].total_bits, p.samples[s].total_bits);
      EXPECT_EQ(back.samples[s].unit_bits, p.samples[s].unit_bits);
    }
  }
}

TEST(PropagationCodec, RejectsTrailingBytes) {
  std::vector<u8> payload = store::encode_propagation(sample_prop(3));
  payload.push_back(0);
  EXPECT_THROW((void)store::decode_propagation(payload), store::StoreError);
}

TEST(PropagationCodec, CorruptionNeverYieldsInvalidEnums) {
  const std::vector<u8> payload = store::encode_propagation(sample_prop(5));
  // Same discipline as the record codec: flip every byte to 0xFF and require
  // decode to either produce in-range enums/plausible sizes or throw —
  // notably the sample-count field, where 0xFF bytes claim ~4 billion
  // samples and must be rejected, not allocated.
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    std::vector<u8> bad = payload;
    bad[pos] = 0xFF;
    try {
      const PropagationRecord r = store::decode_propagation(bad);
      EXPECT_LT(static_cast<std::size_t>(r.unit), netlist::kNumUnits);
      EXPECT_LT(static_cast<std::size_t>(r.type), netlist::kNumLatchTypes);
      EXPECT_LT(static_cast<std::size_t>(r.outcome), inject::kNumOutcomes);
      if (r.checker_fired) {
        EXPECT_LT(static_cast<std::size_t>(r.checker), core::kNumCheckers);
      }
      EXPECT_LE(r.samples.size(), bad.size());
    } catch (const store::StoreError&) {
      // rejection is the expected behaviour for enum/size bytes
    }
  }
}

// --- store interleaving ---------------------------------------------------

TEST(PropagationStore, FramesInterleaveWithoutDisturbingRecords) {
  TempFile f("interleave");
  {
    store::StoreWriter w = store::StoreWriter::create(f.path(), sample_meta());
    for (u32 i = 0; i < 5; ++i) {
      w.append(sample_record(i));
      if (i % 2 == 0) w.append(sample_prop(i));
    }
    w.flush();
    // Footprints are forensic sidecars, not records.
    EXPECT_EQ(w.records_written(), 5u);
  }

  // The record reader sees exactly the records, in order, as if the 'P'
  // frames were not there.
  const store::StoreContents c = store::read_store(f.path());
  ASSERT_EQ(c.records.size(), 5u);
  for (u32 i = 0; i < 5; ++i) EXPECT_EQ(c.records[i].index, i);
  EXPECT_FALSE(c.torn_tail);

  // The propagation reader sees exactly the footprints.
  std::vector<PropagationRecord> fps;
  const u64 n = store::for_each_propagation(
      f.path(), [&](const PropagationRecord& p) { fps.push_back(p); });
  EXPECT_EQ(n, 3u);
  ASSERT_EQ(fps.size(), 3u);
  EXPECT_EQ(fps[0].index, 0u);
  EXPECT_EQ(fps[1].index, 2u);
  EXPECT_EQ(fps[2].index, 4u);
  EXPECT_EQ(store::encode_propagation(fps[1]),
            store::encode_propagation(sample_prop(2)));
}

TEST(PropagationStore, UnknownFrameKindsAreSkippedForward) {
  TempFile f("unknown_kind");
  {
    store::StoreWriter w = store::StoreWriter::create(f.path(), sample_meta());
    w.append(sample_record(0));
    w.flush();
  }
  // Append a well-formed frame of a kind this build has never heard of — a
  // hypothetical future extension. Readers must skip it, not choke.
  {
    const std::vector<u8> payload = {1, 2, 3, 4};
    const std::vector<u8> frame = store::make_frame('Z', payload);
    std::ofstream out(f.path(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  {
    store::StoreWriter w = store::StoreWriter::append_to(f.path());
    w.append(sample_record(1));
    w.flush();
  }

  const store::StoreContents c = store::read_store(f.path());
  ASSERT_EQ(c.records.size(), 2u);
  EXPECT_EQ(c.records[1].index, 1u);
  EXPECT_EQ(store::for_each_propagation(f.path(),
                                        [](const PropagationRecord&) {}),
            0u);
}

// --- campaign integration -------------------------------------------------

TEST(PropagationCampaign, RecordsIdenticalAndFootprintsNonTrivial) {
  const avp::Testcase tc = small_testcase(21);
  inject::CampaignConfig off;
  off.seed = 1234;
  off.num_injections = 150;
  off.threads = 2;
  inject::CampaignConfig on = off;
  on.footprint.enabled = true;
  on.footprint.vanished_sample = 4;

  const inject::CampaignResult a = inject::run_campaign(tc, off);
  const inject::CampaignResult b = inject::run_campaign(tc, on);

  // Forensics are observability: every record field is unchanged.
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << i;
    EXPECT_EQ(a.records[i].unit, b.records[i].unit) << i;
    EXPECT_EQ(a.records[i].type, b.records[i].type) << i;
    EXPECT_EQ(a.records[i].end_cycle, b.records[i].end_cycle) << i;
    EXPECT_EQ(a.records[i].early_exited, b.records[i].early_exited) << i;
    EXPECT_EQ(a.records[i].recoveries, b.records[i].recoveries) << i;
    EXPECT_EQ(a.records[i].fault.index, b.records[i].fault.index) << i;
    EXPECT_EQ(a.records[i].fault.cycle, b.records[i].fault.cycle) << i;
  }
  EXPECT_TRUE(a.footprints.empty());

  // Every non-Vanished injection is traced; Vanished ones per the sampling.
  u64 expect_traced = 0;
  for (std::size_t i = 0; i < b.records.size(); ++i) {
    if (inject::footprint_should_trace(on.footprint, static_cast<u32>(i),
                                       b.records[i].outcome)) {
      ++expect_traced;
    }
  }
  ASSERT_EQ(b.footprints.size(), expect_traced);
  ASSERT_GT(expect_traced, 0u);

  u64 nonvanished = 0;
  u64 with_peak = 0;
  for (std::size_t k = 0; k < b.footprints.size(); ++k) {
    const PropagationRecord& p = b.footprints[k];
    if (k > 0) {
      EXPECT_LT(b.footprints[k - 1].index, p.index);  // sorted
    }
    ASSERT_LT(p.index, b.records.size());
    const inject::InjectionRecord& r = b.records[p.index];
    // Denormalized origin/outcome agree with the injection record.
    EXPECT_EQ(p.outcome, r.outcome) << p.index;
    EXPECT_EQ(p.unit, r.unit) << p.index;
    EXPECT_EQ(p.type, r.type) << p.index;
    EXPECT_EQ(p.fault_cycle, r.fault.cycle) << p.index;
    EXPECT_GT(p.rerun_cycles, 0u) << p.index;
    if (p.outcome != Outcome::Vanished) {
      ++nonvanished;
      EXPECT_FALSE(p.samples.empty()) << p.index;
    }
    if (p.peak_bits > 0) ++with_peak;
    for (const FootprintSample& s : p.samples) {
      u32 unit_sum = 0;
      for (const u32 ub : s.unit_bits) unit_sum += ub;
      EXPECT_LE(unit_sum, s.total_bits) << p.index;
      EXPECT_LE(s.total_bits, p.peak_bits) << p.index;
    }
    if (p.masked) {
      EXPECT_GE(p.masked_at, 1u) << p.index;
    }
  }
  EXPECT_GT(nonvanished, 0u);
  EXPECT_GT(with_peak, 0u);
}

TEST(PropagationCampaign, EveryCycleSamplingYieldsDenseOffsets) {
  const avp::Testcase tc = small_testcase(31);
  inject::CampaignConfig cfg;
  cfg.seed = 5;
  cfg.num_injections = 40;
  cfg.threads = 1;
  cfg.footprint.enabled = true;
  cfg.footprint.vanished_sample = 2;
  cfg.footprint.sampling = inject::FootprintSampling::EveryCycle;
  cfg.footprint.max_trace_cycles = 64;

  const inject::CampaignResult r = inject::run_campaign(tc, cfg);
  ASSERT_FALSE(r.footprints.empty());
  for (const PropagationRecord& p : r.footprints) {
    for (std::size_t s = 1; s < p.samples.size(); ++s) {
      // Dense sampling: consecutive offsets differ by exactly one cycle
      // (the offset-0 seed sample included).
      EXPECT_EQ(p.samples[s].offset, p.samples[s - 1].offset + 1) << p.index;
    }
  }
}

// --- scheduler / store end to end -----------------------------------------

TEST(PropagationScheduler, CanonicalStoreBytesIdenticalWithForensicsOn) {
  const avp::Testcase tc = small_testcase(41);
  inject::CampaignConfig off;
  off.seed = 77;
  off.num_injections = 90;
  off.threads = 2;
  inject::CampaignConfig on = off;
  on.footprint.enabled = true;
  on.footprint.vanished_sample = 4;

  TempFile fa("sched_off");
  TempFile fb("sched_on");
  const sched::ScheduledResult ra =
      sched::run_campaign_to_store(tc, off, fa.path());
  const sched::ScheduledResult rb =
      sched::run_campaign_to_store(tc, on, fb.path());
  EXPECT_TRUE(ra.complete);
  EXPECT_TRUE(rb.complete);
  EXPECT_EQ(ra.footprints, 0u);
  EXPECT_GT(rb.footprints, 0u);
  EXPECT_EQ(store::for_each_propagation(fb.path(),
                                        [](const PropagationRecord&) {}),
            rb.footprints);

  // The footprint-on store is larger (it carries 'P' frames)...
  EXPECT_GT(slurp(fb.path()).size(), slurp(fa.path()).size());

  // ...but its canonical merge — the byte-identity surface — is identical.
  TempFile ma("merged_off");
  TempFile mb("merged_on");
  (void)store::merge_stores({fa.path()}, ma.path());
  (void)store::merge_stores({fb.path()}, mb.path());
  EXPECT_EQ(slurp(ma.path()), slurp(mb.path()));
}


// --- observed footprints equal the re-run ----------------------------------

/// Testcase 0 is the AVP; 1..11 are workload::spec_components().
constexpr std::size_t kNumTestcases = 12;

avp::Testcase workload_testcase(std::size_t i) {
  if (i == 0) return small_testcase();
  return workload::make_component_testcase(workload::spec_components()[i - 1],
                                           5);
}

std::string workload_name(std::size_t i) {
  if (i == 0) return "avp";
  const std::string& name = workload::spec_components()[i - 1].name;
  return name.substr(0, name.find('.'));
}

/// The deferred footprint re-run the tracker's observation replaced, kept
/// as the reference: the injection simulated once more from its own cycle
/// and bits (InjectionRunner::begin at RunEntry::at_fault) and diffed
/// against the reference trace by the tracker's rules. `primary` is the
/// injection's own run.
PropagationRecord replay(inject::CampaignWorker& w,
                         const inject::CampaignPlan& plan,
                         const FootprintConfig& cfg, u32 index,
                         const inject::FaultSpec& fault,
                         const inject::RunResult& primary) {
  core::Pearl6Model& model = w.model();
  emu::Emulator& emu = w.emulator();
  const emu::GoldenTrace& trace = plan.trace;

  PropagationRecord rec;
  rec.index = index;
  rec.outcome = primary.outcome;
  rec.fault_cycle = fault.cycle;
  rec.first_corrupt.fill(inject::kNeverCorrupted);
  const inject::InjectionRecord primary_rec =
      inject::make_record(model, fault, primary);
  rec.unit = primary_rec.unit;
  rec.type = primary_rec.type;
  rec.detected = primary.detected_cycle.has_value();
  if (rec.detected) rec.detected_at = *primary.detected_cycle - fault.cycle;

  w.runner().begin(fault, inject::RunEntry::at_fault(fault));

  bool saw_checker = false;
  model.set_cycle_observer(
      [&](const core::Signals& sig, const core::Controls&) {
        if (saw_checker || sig.events.empty()) return;
        const core::CheckerEvent& e = sig.events.front();
        saw_checker = true;
        rec.checker_fired = true;
        rec.checker = e.id;
        rec.checker_fatal = e.fatal;
      });

  const auto& masks = model.registry().hash_masks();
  std::vector<u64> group_masks = model.registry().unit_masks();
  const auto& tm = model.registry().type_masks();
  group_masks.insert(group_masks.end(), tm.begin(), tm.end());
  constexpr std::size_t kNumGroups =
      netlist::kNumUnits + netlist::kNumLatchTypes;
  constexpr std::size_t kRegFileGroup =
      netlist::kNumUnits + static_cast<std::size_t>(netlist::LatchType::RegFile);
  std::array<u32, kNumGroups> group_bits{};
  const bool sticky = fault.mode == inject::FaultMode::Sticky;
  const bool escape = primary.outcome == Outcome::Hang ||
                      primary.outcome == Outcome::Checkstop ||
                      primary.outcome == Outcome::BadArchState;
  const Cycle window =
      escape ? inject::kEscapeTraceCycles : cfg.max_trace_cycles;

  const auto take_sample = [&](u32 offset, const u64* ref) {
    const u32 total = emu.state().masked_diff_groups(
        masks, ref, group_masks, kNumGroups, group_bits);
    FootprintSample s;
    s.offset = offset;
    s.total_bits = total;
    for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
      s.unit_bits[u] = group_bits[u];
      if (group_bits[u] > 0 &&
          rec.first_corrupt[u] == inject::kNeverCorrupted) {
        rec.first_corrupt[u] = offset;
      }
    }
    if (group_bits[kRegFileGroup] > 0) rec.reached_arch = true;
    rec.peak_bits = std::max(rec.peak_bits, total);
    rec.samples.push_back(s);
  };
  const auto mask = [&](u32 offset) {
    rec.masked = true;
    rec.masked_at = offset;
    FootprintSample zero;
    zero.offset = offset;
    rec.samples.push_back(zero);
  };

  if (fault.cycle >= 1 && trace.has_cycle(fault.cycle - 1)) {
    take_sample(0, trace.masked_state(fault.cycle - 1));
  }
  Cycle next_sample = 1;
  bool finished_run = false;
  while (true) {
    emu.step();
    ++rec.rerun_cycles;
    const Cycle now = emu.cycle();
    const auto offset = static_cast<u32>(now - fault.cycle);
    const emu::RasStatus ras = model.ras_status(emu.state());
    if (ras.checkstop || ras.hang_detected || ras.test_finished) {
      if (trace.has_cycle(now - 1)) {
        take_sample(offset, trace.masked_state(now - 1));
      }
      finished_run = ras.test_finished;
      break;
    }
    if (!trace.has_cycle(now - 1)) {
      rec.truncated = true;
      break;
    }
    if (ras.recovery_active || ras.recovery_count > 0) {
      mask(offset);
      break;
    }
    const u64* ref = trace.masked_state(now - 1);
    if (!(sticky && now <= fault.cycle + fault.sticky_duration) &&
        emu.state().masked_equals(masks, ref)) {
      mask(offset);
      break;
    }
    if (cfg.sampling == inject::FootprintSampling::EveryCycle ||
        offset >= next_sample) {
      take_sample(offset, ref);
      while (next_sample <= offset) next_sample *= 2;
    }
    if (offset >= window) {
      rec.truncated = true;
      break;
    }
  }
  model.clear_cycle_observer();
  if (finished_run) {
    const avp::Verdict v =
        avp::check_against_golden(model, emu.state(), plan.golden);
    if (!v.state_matches) rec.reached_arch = true;
    if (!v.memory_matches) rec.reached_memory = true;
  }
  return rec;
}

void expect_same_footprint(const PropagationRecord& got,
                           const PropagationRecord& want,
                           const std::string& what) {
  EXPECT_EQ(got.index, want.index) << what;
  EXPECT_EQ(got.unit, want.unit) << what;
  EXPECT_EQ(got.type, want.type) << what;
  EXPECT_EQ(got.outcome, want.outcome) << what;
  EXPECT_EQ(got.fault_cycle, want.fault_cycle) << what;
  EXPECT_EQ(got.masked, want.masked) << what;
  EXPECT_EQ(got.detected, want.detected) << what;
  EXPECT_EQ(got.reached_arch, want.reached_arch) << what;
  EXPECT_EQ(got.reached_memory, want.reached_memory) << what;
  EXPECT_EQ(got.truncated, want.truncated) << what;
  EXPECT_EQ(got.checker_fired, want.checker_fired) << what;
  EXPECT_EQ(got.checker_fatal, want.checker_fatal) << what;
  EXPECT_EQ(got.checker, want.checker) << what;
  EXPECT_EQ(got.masked_at, want.masked_at) << what;
  EXPECT_EQ(got.detected_at, want.detected_at) << what;
  EXPECT_EQ(got.peak_bits, want.peak_bits) << what;
  EXPECT_EQ(got.rerun_cycles, want.rerun_cycles) << what;
  EXPECT_EQ(got.first_corrupt, want.first_corrupt) << what;
  ASSERT_EQ(got.samples.size(), want.samples.size()) << what;
  for (std::size_t s = 0; s < want.samples.size(); ++s) {
    EXPECT_EQ(got.samples[s].offset, want.samples[s].offset) << what;
    EXPECT_EQ(got.samples[s].total_bits, want.samples[s].total_bits) << what;
    EXPECT_EQ(got.samples[s].unit_bits, want.samples[s].unit_bits) << what;
  }
  EXPECT_EQ(store::encode_propagation(got), store::encode_propagation(want))
      << what;
}

/// How a fault's run starts (InjectionRunner::admit).
enum Path : std::size_t {
  kDeadOnArrival,   ///< record: no flipped bit is ever read
  kExitBeforeRead,  ///< record: the run ends before the first read
  kLateEntry,       ///< entered after the fault's cycle
  kOwnCycle,        ///< entered at the fault's cycle
  kNumPaths
};

Path path_of(const inject::Admission& adm, const inject::FaultSpec& f) {
  if (adm.record) return adm.dead ? kDeadOnArrival : kExitBeforeRead;
  return adm.entry.cycle > f.cycle ? kLateEntry : kOwnCycle;
}

class FootprintObserved : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FootprintObserved, EqualsTheReRun) {
  const avp::Testcase tc = workload_testcase(GetParam());
  struct Variant {
    bool early_exit;
    bool dense;  ///< a 64-cycle bulk window, sampled every cycle
  };
  const Variant variants[] = {
      {true, false}, {false, false}, {true, true}, {false, true}};
  std::array<u32, kNumPaths> by_path{};
  u32 sticky = 0;
  u32 cells = 0;
  for (std::size_t vi = 0; vi < std::size(variants); ++vi) {
    const Variant& v = variants[vi];
    inject::CampaignConfig cfg;
    cfg.seed = 3;
    cfg.num_injections = 1;
    cfg.threads = 1;
    cfg.run.early_exit = v.early_exit;
    cfg.footprint.enabled = true;
    cfg.footprint.vanished_sample = 1;  // keep every footprint
    if (v.dense) {
      cfg.footprint.max_trace_cycles = 64;
      cfg.footprint.sampling = inject::FootprintSampling::EveryCycle;
    }
    inject::CampaignPlan plan = inject::plan_campaign(tc, cfg);
    ASSERT_TRUE(plan.trace.has_timeline());
    inject::CampaignConfig plain = cfg;
    plain.footprint.enabled = false;
    inject::CampaignWorker ref(tc, plain, plan);
    const u32 latches = ref.model().registry().num_latches();
    const u64 cell_bits = ref.model().arrays().total_storage_bits();
    const Cycle finish = plan.trace.completion_cycle;

    // Toggles of width 1-9 drawn until every admission path has its quota,
    // then sticky forces and array-cell strikes (both entered at their own
    // cycle).
    std::array<u32, kNumPaths> quota = {4, 2, 6, 6};
    if (!v.early_exit) quota[kExitBeforeRead] = 0;  // only the poll exits
    stats::Xoshiro256 rng(GetParam() * 1009 + vi);
    const auto short_of_quota = [&] {
      return std::ranges::any_of(quota, [](u32 q) { return q > 0; });
    };
    plan.faults.clear();
    for (u32 i = 0; i < 40000 && short_of_quota(); ++i) {
      inject::FaultSpec f;
      f.index = static_cast<u32>(rng.below(latches));
      f.cycle = 1 + rng.below(finish - 1);
      f.adjacent_bits = static_cast<u8>(1 + i % 9);
      const Path p = path_of(ref.runner().admit(f), f);
      if (quota[p] == 0) continue;
      --quota[p];
      plan.faults.push_back(f);
    }
    for (u32 i = 0; i < 4; ++i) {
      inject::FaultSpec f;
      f.index = static_cast<u32>(rng.below(latches));
      f.cycle = 1 + rng.below(finish - 1);
      f.mode = inject::FaultMode::Sticky;
      f.sticky_value = (i & 1) != 0;
      f.sticky_duration = 1 + i % 7;
      f.adjacent_bits = static_cast<u8>(1 + i % 3);
      plan.faults.push_back(f);
      inject::FaultSpec c;
      c.target = inject::FaultTarget::ArrayCell;
      c.array_bit = rng.below(cell_bits);
      c.cycle = 1 + rng.below(finish - 1);
      plan.faults.push_back(c);
    }

    for (const inject::EngineKind engine :
         {inject::EngineKind::Scalar, inject::EngineKind::Lanes}) {
      cfg.engine = engine;
      const auto eng = inject::make_engine(tc, cfg, plan);
      std::vector<PropagationRecord> fps;
      u32 next = 0;
      eng->run(
          [&]() -> std::optional<u32> {
            if (next >= plan.faults.size()) return std::nullopt;
            return next++;
          },
          [&](u32, const inject::InjectionRecord&,
              std::optional<PropagationRecord> fp) {
            if (fp) fps.push_back(std::move(*fp));
          },
          nullptr);
      // vanished_sample = 1: every injection leaves a footprint.
      ASSERT_EQ(fps.size(), plan.faults.size());
      for (const PropagationRecord& got : fps) {
        const inject::FaultSpec& f = plan.faults[got.index];
        const inject::Admission adm = ref.runner().admit(f);
        const inject::RunResult primary = ref.runner().run(f);
        const std::string what =
            workload_name(GetParam()) + " " + inject::engine_name(engine) +
            (v.early_exit ? " early-exit" : " no-exit") +
            (v.dense ? " dense" : "") + " fault " +
            std::to_string(got.index) + " @" + std::to_string(f.cycle) +
            " x" + std::to_string(f.adjacent_bits) +
            (f.mode == inject::FaultMode::Sticky ? " sticky" : "") +
            (f.target == inject::FaultTarget::ArrayCell ? " cell" : "");
        expect_same_footprint(got, replay(ref, plan, cfg.footprint, got.index,
                                          f, primary),
                              what);
        ++by_path[path_of(adm, f)];
        if (f.mode == inject::FaultMode::Sticky) ++sticky;
        if (f.target == inject::FaultTarget::ArrayCell) ++cells;
      }
    }
  }
  // Footprints came from every way a run starts.
  EXPECT_GT(by_path[kDeadOnArrival], 0u);
  EXPECT_GT(by_path[kExitBeforeRead], 0u);
  EXPECT_GT(by_path[kLateEntry], 0u);
  EXPECT_GT(by_path[kOwnCycle], 0u);
  EXPECT_GT(sticky, 0u);
  EXPECT_GT(cells, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FootprintObserved,
    ::testing::Range<std::size_t>(0, kNumTestcases),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return workload_name(info.param);
    });

}  // namespace
}  // namespace sfi
