// Propagation forensics: trace-selection policy, 'P'-frame codec round-trip,
// store interleaving, and the subsystem's headline invariants — injection
// records and store bytes are identical with forensics on, and surviving
// faults produce non-trivial infection footprints.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "sched/scheduler.hpp"
#include "sfi/campaign.hpp"
#include "sfi/propagation.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"

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

}  // namespace
}  // namespace sfi
