// Durable campaign store (src/store/) and resumable scheduler (src/sched/):
// round-trips, corruption detection, torn-tail recovery, shard merge, and
// the headline guarantee — an interrupted-then-resumed campaign is
// byte-identical (after canonical merge; here even raw) to an uninterrupted
// one with the same seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "sched/scheduler.hpp"
#include "sfi/campaign.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/tail.hpp"
#include "store/writer.hpp"

namespace sfi::store {
namespace {

/// Per-test scratch file, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sfi_test_" + name + ".sfr"))
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

CampaignMeta sample_meta() {
  CampaignMeta m;
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

StoredRecord sample_record(u32 index) {
  StoredRecord sr;
  sr.index = index;
  sr.rec.fault.target = inject::FaultTarget::Latch;
  sr.rec.fault.index = 100 + index;
  sr.rec.fault.cycle = 10 + index;
  sr.rec.fault.mode =
      index % 2 ? inject::FaultMode::Sticky : inject::FaultMode::Toggle;
  sr.rec.fault.sticky_duration = index % 2 ? 5 : 0;
  sr.rec.fault.sticky_value = index % 3 == 0;
  sr.rec.fault.adjacent_bits = 1;
  sr.rec.outcome = static_cast<inject::Outcome>(index % inject::kNumOutcomes);
  sr.rec.unit = static_cast<netlist::Unit>(index % netlist::kNumUnits);
  sr.rec.type = static_cast<netlist::LatchType>(index % netlist::kNumLatchTypes);
  sr.rec.end_cycle = 500 + index;
  sr.rec.early_exited = index % 2 == 0;
  sr.rec.recoveries = index % 3;
  return sr;
}

void write_sample_store(const std::string& path, u32 n,
                        const CampaignMeta& meta) {
  StoreWriter w = StoreWriter::create(path, meta);
  for (u32 i = 0; i < n; ++i) w.append(sample_record(i));
  w.flush();
}

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<u8>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Codec, Crc32MatchesTheBytewiseDefinition) {
  // The IEEE check value, and the slicing-by-8 fold against the plain
  // byte-at-a-time recurrence at every length around the 8-byte stride,
  // chained through a seed.
  const std::string check = "123456789";
  EXPECT_EQ(store::crc32(std::span(
                reinterpret_cast<const u8*>(check.data()), check.size())),
            0xCBF43926u);
  std::vector<u8> bytes(67);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<u8>(i * 37 + 11);
  }
  const auto bytewise = [](std::span<const u8> b, u32 seed) {
    u32 c = seed ^ 0xFFFFFFFFu;
    for (const u8 x : b) {
      c ^= x;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    const std::span<const u8> b(bytes.data(), n);
    EXPECT_EQ(store::crc32(b), bytewise(b, 0)) << n;
    EXPECT_EQ(store::crc32(b, 0x1234u), bytewise(b, 0x1234u)) << n;
  }
}

TEST(Codec, MetaRoundTrip) {
  const CampaignMeta m = sample_meta();
  const CampaignMeta back = decode_meta(encode_meta(m));
  EXPECT_TRUE(m.same_campaign(back));
}

TEST(Codec, MetricsFrameRoundTrip) {
  MetricsFrame mf;
  mf.worker = 3;
  mf.seq = 41;
  mf.snapshot.counters.emplace_back("injections", 1234);
  mf.snapshot.counters.emplace_back("outcome.Vanished", 1100);
  mf.snapshot.gauges.emplace_back("wall_seconds", 2.5);
  telemetry::MetricsSnapshot::Hist h;
  h.name = "injection_seconds";
  h.bounds = {0.001, 0.01, 0.1};
  h.buckets = {7, 5, 1, 0};
  h.count = 13;
  h.sum = 0.125;
  mf.snapshot.histograms.push_back(h);

  const MetricsFrame back = decode_metrics(encode_metrics(mf));
  EXPECT_EQ(back.worker, 3u);
  EXPECT_EQ(back.seq, 41u);
  EXPECT_EQ(back.snapshot.counter_value("injections"), 1234u);
  EXPECT_EQ(back.snapshot.counter_value("outcome.Vanished"), 1100u);
  EXPECT_DOUBLE_EQ(back.snapshot.gauge_value("wall_seconds"), 2.5);
  const telemetry::MetricsSnapshot::Hist* bh =
      back.snapshot.histogram("injection_seconds");
  ASSERT_NE(bh, nullptr);
  EXPECT_EQ(bh->bounds, h.bounds);
  EXPECT_EQ(bh->buckets, h.buckets);
  EXPECT_EQ(bh->count, 13u);
  EXPECT_DOUBLE_EQ(bh->sum, 0.125);

  // Canonical encoding: re-encoding the decoded frame is byte-identical.
  EXPECT_EQ(encode_metrics(back), encode_metrics(mf));
}

TEST(Store, MetricsFramesAreInvisibleToReadersAndMerge) {
  const CampaignMeta meta = sample_meta();
  TempFile plain("no_metrics"), with("with_metrics");
  write_sample_store(plain.path(), 5, meta);
  {
    StoreWriter w = StoreWriter::create(with.path(), meta);
    MetricsFrame mf;
    mf.worker = 0;
    for (u32 i = 0; i < 5; ++i) {
      w.append(sample_record(i));
      mf.seq = i;
      mf.snapshot.counters.assign({{"injections", u64{i} + 1}});
      w.append(mf);
    }
    w.flush();
  }

  // The 'M' frames made the file strictly larger...
  ASSERT_GT(slurp(with.path()).size(), slurp(plain.path()).size());
  // ...but a reader sees the identical record stream,
  const StoreContents a = read_store(plain.path());
  const StoreContents b = read_store(with.path());
  ASSERT_EQ(b.records.size(), a.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(b.records[i].index, a.records[i].index);
    EXPECT_EQ(b.records[i].rec.outcome, a.records[i].rec.outcome);
  }
  EXPECT_FALSE(b.torn_tail);
  // ...and canonical merge drops them: byte-identical outputs.
  TempFile canon_a("no_metrics_canon"), canon_b("with_metrics_canon");
  (void)merge_stores({plain.path()}, canon_a.path());
  (void)merge_stores({with.path()}, canon_b.path());
  EXPECT_EQ(slurp(canon_a.path()), slurp(canon_b.path()));
}

TEST(Codec, MetaRejectsTrailingBytes) {
  std::vector<u8> payload = encode_meta(sample_meta());
  payload.push_back(0);
  EXPECT_THROW((void)decode_meta(payload), StoreError);
}

TEST(Codec, RecordRoundTripAllFields) {
  for (u32 i = 0; i < 12; ++i) {
    const StoredRecord sr = sample_record(i);
    const StoredRecord back = decode_record(encode_record(sr));
    EXPECT_EQ(encode_record(back), encode_record(sr)) << "index " << i;
    EXPECT_EQ(back.index, sr.index);
    EXPECT_EQ(back.rec.fault.index, sr.rec.fault.index);
    EXPECT_EQ(back.rec.fault.mode, sr.rec.fault.mode);
    EXPECT_EQ(back.rec.outcome, sr.rec.outcome);
    EXPECT_EQ(back.rec.unit, sr.rec.unit);
    EXPECT_EQ(back.rec.type, sr.rec.type);
    EXPECT_EQ(back.rec.end_cycle, sr.rec.end_cycle);
    EXPECT_EQ(back.rec.early_exited, sr.rec.early_exited);
    EXPECT_EQ(back.rec.recoveries, sr.rec.recoveries);
  }
}

TEST(Codec, RecordRejectsOutOfRangeEnum) {
  std::vector<u8> payload = encode_record(sample_record(0));
  // The outcome byte sits at offset 28 (index u32, target u8, fault.index
  // u32, array_bit u64, cycle u64, mode u8, ...). Rather than hardcode the
  // offset, corrupt every byte position and require that decode either
  // round-trips to a valid record or throws — never reads out-of-range
  // enum values silently.
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    std::vector<u8> bad = payload;
    bad[pos] = 0xFF;
    try {
      const StoredRecord r = decode_record(bad);
      EXPECT_LT(static_cast<std::size_t>(r.rec.outcome), inject::kNumOutcomes);
      EXPECT_LT(static_cast<std::size_t>(r.rec.unit), netlist::kNumUnits);
      EXPECT_LT(static_cast<std::size_t>(r.rec.type), netlist::kNumLatchTypes);
    } catch (const StoreError&) {
      // rejection is the expected behaviour for enum/flag bytes
    }
  }
}

TEST(Store, WriteReadRoundTrip) {
  TempFile f("roundtrip");
  const CampaignMeta meta = sample_meta();
  write_sample_store(f.path(), 7, meta);

  const StoreContents c = read_store(f.path());
  EXPECT_TRUE(c.meta.same_campaign(meta));
  ASSERT_EQ(c.records.size(), 7u);
  for (u32 i = 0; i < 7; ++i) {
    EXPECT_EQ(encode_record(c.records[i]), encode_record(sample_record(i)));
  }
  EXPECT_FALSE(c.torn_tail);
}

TEST(Store, MissingFileThrows) {
  EXPECT_THROW((void)read_store("/nonexistent/definitely_not_here.sfr"),
               StoreError);
}

TEST(Store, BadMagicThrows) {
  TempFile f("badmagic");
  write_sample_store(f.path(), 2, sample_meta());
  std::vector<u8> bytes = slurp(f.path());
  bytes[0] ^= 0x01;
  spit(f.path(), bytes);
  EXPECT_THROW((void)read_store(f.path()), StoreError);
}

TEST(Store, CrcCorruptionMidFileAlwaysThrows) {
  TempFile f("midcorrupt");
  write_sample_store(f.path(), 5, sample_meta());
  std::vector<u8> bytes = slurp(f.path());
  // Flip a byte in the middle of the file: this lands inside an early
  // record frame, with valid frames behind it — not a torn tail.
  bytes[bytes.size() / 2] ^= 0xFF;
  spit(f.path(), bytes);
  EXPECT_THROW((void)read_store(f.path()), StoreError);
  // Even the tolerant reader refuses: the corruption is not at the tail.
  EXPECT_THROW((void)read_store(f.path(), {.tolerate_torn_tail = true}),
               StoreError);
}

TEST(Store, TornTailToleratedAndTruncatable) {
  TempFile f("torn");
  write_sample_store(f.path(), 5, sample_meta());
  const std::vector<u8> whole = slurp(f.path());

  // Chop 3 bytes off the final frame: the classic killed-mid-append shape.
  std::vector<u8> torn(whole.begin(), whole.end() - 3);
  spit(f.path(), torn);

  // Strict read refuses.
  EXPECT_THROW((void)read_store(f.path()), StoreError);

  // Tolerant read returns the intact prefix and the safe truncation point.
  const StoreContents c = read_store(f.path(), {.tolerate_torn_tail = true});
  EXPECT_TRUE(c.torn_tail);
  ASSERT_EQ(c.records.size(), 4u);
  EXPECT_LT(c.valid_bytes, torn.size());

  // Truncating at valid_bytes yields a clean store again.
  std::filesystem::resize_file(f.path(), c.valid_bytes);
  const StoreContents clean = read_store(f.path());
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_EQ(clean.records.size(), 4u);
}

TEST(Store, CorruptTailByteIsTornNotFatal) {
  TempFile f("tailflip");
  write_sample_store(f.path(), 3, sample_meta());
  std::vector<u8> bytes = slurp(f.path());
  bytes.back() ^= 0xFF;  // last CRC byte — tail corruption
  spit(f.path(), bytes);
  EXPECT_THROW((void)read_store(f.path()), StoreError);
  const StoreContents c = read_store(f.path(), {.tolerate_torn_tail = true});
  EXPECT_TRUE(c.torn_tail);
  EXPECT_EQ(c.records.size(), 2u);
}

TEST(Codec, AssignmentRoundTrip) {
  const AssignmentFrame as{2, 9, 1, 64};
  const AssignmentFrame back = decode_assignment(encode_assignment(as));
  EXPECT_EQ(back.worker, as.worker);
  EXPECT_EQ(back.shard, as.shard);
  EXPECT_EQ(back.attempt, as.attempt);
  EXPECT_EQ(back.count, as.count);
  std::vector<u8> bad = encode_assignment(as);
  bad.pop_back();
  EXPECT_THROW((void)decode_assignment(bad), StoreError);
}

TEST(Store, CommitMarkersInvisibleToRecordConsumers) {
  TempFile marked("markers"), plain("markerless");
  const CampaignMeta meta = sample_meta();
  {
    StoreWriter w = StoreWriter::create(marked.path(), meta,
                                        {.commit_markers = true});
    for (u32 i = 0; i < 5; ++i) w.append(sample_record(i));
    w.flush();
  }
  write_sample_store(plain.path(), 5, meta);

  // Same records through the reader, marker frames skipped like any other
  // unknown-to-the-consumer kind.
  const StoreContents c = read_store(marked.path());
  ASSERT_EQ(c.records.size(), 5u);
  EXPECT_FALSE(c.torn_tail);

  // Canonical merge strips markers: both producers collapse to identical
  // bytes — the farm/scheduler byte-identity bridge.
  TempFile ma("markers_canon"), mb("markerless_canon");
  (void)merge_stores({marked.path()}, ma.path());
  (void)merge_stores({plain.path()}, mb.path());
  EXPECT_EQ(slurp(ma.path()), slurp(mb.path()));
}

TEST(Store, TornFlushWindowDroppedWholly) {
  TempFile f("commitwin");
  const CampaignMeta meta = sample_meta();
  {
    StoreWriter w = StoreWriter::create(f.path(), meta,
                                        {.commit_markers = true});
    w.append(sample_record(0));
    w.flush();  // window 1 sealed
    w.append(sample_record(1));
    w.append(sample_record(2));
    w.flush();  // window 2 sealed
  }
  // Shear off exactly the final commit marker (empty payload: 1 kind +
  // 4 length + 4 CRC = 9 bytes). Records 1 and 2 remain as fully valid,
  // CRC-clean frames — but their flush window never committed.
  std::vector<u8> bytes = slurp(f.path());
  bytes.resize(bytes.size() - 9);
  spit(f.path(), bytes);

  const StoreContents c = read_store(f.path(), {.tolerate_torn_tail = true});
  EXPECT_TRUE(c.torn_tail);
  ASSERT_EQ(c.records.size(), 1u);  // the orphans are dropped wholly
  EXPECT_EQ(c.records[0].index, 0u);
  EXPECT_LT(c.valid_bytes, bytes.size());

  // Truncating at valid_bytes yields a clean marker store again.
  std::filesystem::resize_file(f.path(), c.valid_bytes);
  const StoreContents clean = read_store(f.path());
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_EQ(clean.records.size(), 1u);
}

TEST(Store, TornFlushWindowMixedKinds) {
  TempFile f("commitwin_mixed");
  const CampaignMeta meta = sample_meta();
  {
    StoreWriter w = StoreWriter::create(f.path(), meta,
                                        {.commit_markers = true});
    w.append(sample_record(0));
    w.flush();
    // A farm-shaped flush window: assignment echo, record, its footprint.
    w.append(AssignmentFrame{1, 4, 0, 1});
    w.append(sample_record(1));
    inject::PropagationRecord fp;
    fp.index = 1;
    w.append(fp);
    w.flush();
  }
  std::vector<u8> bytes = slurp(f.path());
  bytes.resize(bytes.size() - 9);  // drop the window's commit marker
  spit(f.path(), bytes);

  // The orphan 'R' looks valid on its own, but its companion frames can no
  // longer be trusted complete: the whole window is truncated away.
  const StoreContents c = read_store(f.path(), {.tolerate_torn_tail = true});
  EXPECT_TRUE(c.torn_tail);
  ASSERT_EQ(c.records.size(), 1u);
  EXPECT_EQ(c.records[0].index, 0u);

  std::filesystem::resize_file(f.path(), c.valid_bytes);
  u64 fps = 0;
  (void)for_each_propagation(f.path(),
                             [&](const inject::PropagationRecord&) { ++fps; });
  EXPECT_EQ(fps, 0u);  // the footprint died with its window
}

TEST(Store, LegacyStoresKeepPerFrameTornSemantics) {
  // No markers anywhere: the tolerant reader must keep truncating to the
  // last complete *frame*, as before — old stores do not get stricter.
  TempFile f("legacy_torn");
  write_sample_store(f.path(), 3, sample_meta());
  std::vector<u8> bytes = slurp(f.path());
  bytes.resize(bytes.size() - 2);  // tear inside the final record frame
  spit(f.path(), bytes);
  const StoreContents c = read_store(f.path(), {.tolerate_torn_tail = true});
  EXPECT_TRUE(c.torn_tail);
  EXPECT_EQ(c.records.size(), 2u);  // per-frame, not whole-window
}

/// The record and footprint indices a reader delivered, in stream order, or
/// that it refused the file.
struct Delivered {
  bool threw = false;
  std::vector<u32> records;
  std::vector<u32> footprints;
};

void note_frame(Delivered& d, u8 kind, std::span<const u8> payload) {
  if (kind == kRecordFrame) d.records.push_back(decode_record(payload).index);
  if (kind == kPropagationFrame) {
    d.footprints.push_back(decode_propagation(payload).index);
  }
}

void expect_delivered(const Delivered& got, const Delivered& want) {
  EXPECT_EQ(got.threw, want.threw);
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.footprints, want.footprints);
}

/// Runs every tolerant reader over `path`, expects them to agree with each
/// other, and returns what they delivered.
Delivered tolerant_readers(const std::string& path) {
  const ReadOptions tolerant{.tolerate_torn_tail = true};
  const auto attempt = [](const std::function<void(Delivered&)>& read) {
    Delivered d;
    try {
      read(d);
    } catch (const StoreError&) {
      d = Delivered{};
      d.threw = true;
    }
    return d;
  };
  const Delivered frames = attempt([&](Delivered& d) {
    StoreReader r(path, tolerant);
    u8 kind = 0;
    std::vector<u8> payload;
    while (r.next_frame(kind, payload)) note_frame(d, kind, payload);
  });
  const Delivered stored = attempt([&](Delivered& d) {
    for (const StoredRecord& sr : read_store(path, tolerant).records) {
      d.records.push_back(sr.index);
    }
  });
  const Delivered streamed = attempt([&](Delivered& d) {
    (void)for_each_record(
        path, [&](const StoredRecord& sr) { d.records.push_back(sr.index); },
        tolerant);
    (void)for_each_propagation(
        path,
        [&](const inject::PropagationRecord& fp) {
          d.footprints.push_back(fp.index);
        },
        tolerant);
  });
  const Delivered aggregated = attempt([&](Delivered& d) {
    d.records.resize(aggregate_store(path, tolerant).second.total());
  });
  expect_delivered(streamed, frames);
  EXPECT_EQ(stored.threw, frames.threw);
  EXPECT_EQ(stored.records, frames.records);
  EXPECT_EQ(aggregated.threw, frames.threw);
  EXPECT_EQ(aggregated.records.size(), frames.records.size());
  return frames;
}

TEST(Store, ReadersAgreeAtEveryTear) {
  TempFile f("tears"), grow("tears_grow");
  const CampaignMeta meta = sample_meta();
  // A canonical (marker-free) prefix, as `sfi merge` writes it, resumed with
  // commit markers: records and footprints over several flush windows.
  write_sample_store(f.path(), 3, meta);
  {
    StoreWriter w =
        StoreWriter::append_to(f.path(), {.commit_markers = true});
    for (const std::vector<u32>& window :
         {std::vector<u32>{3, 4}, {5}, {6, 7}}) {
      for (const u32 i : window) {
        w.append(sample_record(i));
        if (i % 2 == 1) {
          inject::PropagationRecord fp;
          fp.index = i;
          fp.samples.push_back({.offset = 1, .total_bits = 2});
          w.append(fp);
        }
      }
      w.flush();
    }
  }
  const std::vector<u8> whole = slurp(f.path());

  // The commit rule restated as an oracle: before the first marker every
  // frame commits itself; after it, only a marker commits its window.
  // `ends` holds each frame's end offset, `committed` what a reader may
  // deliver from a file cut at each commit point.
  std::vector<u64> ends = {kMagic.size() + kFrameOverhead +
                           encode_meta(meta).size()};
  std::vector<std::pair<u64, Delivered>> committed = {{ends[0], {}}};
  {
    StoreReader r(f.path());
    Delivered so_far;
    bool saw_marker = false;
    u8 kind = 0;
    std::vector<u8> payload;
    while (r.next_frame(kind, payload)) {
      ends.push_back(ends.back() + kFrameOverhead + payload.size());
      note_frame(so_far, kind, payload);
      saw_marker = saw_marker || kind == kCommitFrame;
      if (!saw_marker || kind == kCommitFrame) {
        committed.emplace_back(ends.back(), so_far);
      }
    }
  }
  ASSERT_EQ(ends.back(), whole.size());
  ASSERT_EQ(committed.back().second.records.size(), 8u);
  const auto committed_at = [&](u64 offset) {
    Delivered d;
    for (const auto& [end, prefix] : committed) {
      if (end <= offset) d = prefix;
    }
    return d;
  };

  // Truncated at every byte offset: the file grows one byte at a time while
  // a FrameTail polls it, and at each size every tolerant reader delivers
  // exactly the committed prefix (or, before the header is whole, refuses).
  FrameTail tail(grow.path());
  Delivered tailed;
  std::ofstream out(grow.path(), std::ios::binary);
  for (std::size_t k = 0;; ++k) {
    out.flush();
    SCOPED_TRACE("file cut at byte " + std::to_string(k));
    Delivered want = committed_at(k);
    tail.poll([&](u8 kind, std::span<const u8> p) {
      note_frame(tailed, kind, p);
    });
    EXPECT_FALSE(tail.corrupt());
    expect_delivered(tailed, want);
    want.threw = k < ends[0];
    expect_delivered(tolerant_readers(grow.path()), want);
    if (k == whole.size()) break;
    out.put(static_cast<char>(whole[k]));
  }

  // One CRC byte flipped per frame. A bad frame with intact frames behind it
  // is refused by strict and tolerant readers alike; at the very end it is
  // a torn tail. A FrameTail flags it and has delivered what was committed
  // before it.
  for (std::size_t j = 0; j < ends.size(); ++j) {
    SCOPED_TRACE("CRC flipped in frame " + std::to_string(j));
    std::vector<u8> bad = whole;
    bad[ends[j] - 1] ^= 0x5A;
    spit(f.path(), bad);
    const bool at_tail = ends[j] == whole.size();
    Delivered want = j == 0 ? Delivered{} : committed_at(ends[j - 1]);
    FrameTail flipped(f.path());
    Delivered got;
    flipped.poll([&](u8 kind, std::span<const u8> p) {
      note_frame(got, kind, p);
    });
    EXPECT_TRUE(flipped.corrupt());
    expect_delivered(got, want);
    if (!at_tail) {
      EXPECT_THROW((void)read_store(f.path()), StoreError);
      want = Delivered{};
      want.threw = true;
    }
    expect_delivered(tolerant_readers(f.path()), want);
  }
}

TEST(Store, AggregateMatchesRecords) {
  TempFile f("agg");
  write_sample_store(f.path(), 20, sample_meta());
  const auto [meta, agg] = aggregate_store(f.path());
  const StoreContents c = read_store(f.path());
  inject::CampaignAggregate manual;
  for (const auto& sr : c.records) manual.add(sr.rec);
  EXPECT_EQ(agg.total(), 20u);
  for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
    const auto oc = static_cast<inject::Outcome>(o);
    EXPECT_EQ(agg.counts.of(oc), manual.counts.of(oc));
  }
  for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
    EXPECT_EQ(agg.by_unit[u].total(), manual.by_unit[u].total());
  }
  for (std::size_t t = 0; t < netlist::kNumLatchTypes; ++t) {
    EXPECT_EQ(agg.by_type[t].total(), manual.by_type[t].total());
  }
}

TEST(Merge, ShardsFoldIntoCanonicalStore) {
  TempFile a("shard_a"), b("shard_b"), out("merged");
  const CampaignMeta meta = sample_meta();  // num_injections = 7
  {
    StoreWriter w = StoreWriter::create(a.path(), meta);
    // Out of order within the shard, plus one index shard B also has.
    for (const u32 i : {4u, 0u, 2u, 5u}) w.append(sample_record(i));
    w.flush();
  }
  {
    StoreWriter w = StoreWriter::create(b.path(), meta);
    for (const u32 i : {1u, 3u, 5u, 6u}) w.append(sample_record(i));
    w.flush();
  }
  const MergeSummary s = merge_stores({a.path(), b.path()}, out.path());
  EXPECT_EQ(s.inputs, 2u);
  EXPECT_EQ(s.records_read, 8u);
  EXPECT_EQ(s.records_written, 7u);
  EXPECT_EQ(s.duplicates, 1u);
  EXPECT_EQ(s.missing, 0u);

  const StoreContents c = read_store(out.path());
  ASSERT_EQ(c.records.size(), 7u);
  for (u32 i = 0; i < 7; ++i) EXPECT_EQ(c.records[i].index, i);

  // Canonical: merging in the other order gives the identical bytes.
  TempFile out2("merged2");
  (void)merge_stores({b.path(), a.path()}, out2.path());
  EXPECT_EQ(slurp(out.path()), slurp(out2.path()));
}

TEST(Merge, ReportsMissingIndices) {
  TempFile a("gap_a"), out("gap_out");
  {
    StoreWriter w = StoreWriter::create(a.path(), sample_meta());
    for (const u32 i : {0u, 2u, 6u}) w.append(sample_record(i));
    w.flush();
  }
  const MergeSummary s = merge_stores({a.path()}, out.path());
  EXPECT_EQ(s.records_written, 3u);
  EXPECT_EQ(s.missing, 4u);  // 1, 3, 4, 5 of 0..6
}

TEST(Merge, RejectsForeignCampaign) {
  TempFile a("mx_a"), b("mx_b"), out("mx_out");
  write_sample_store(a.path(), 2, sample_meta());
  CampaignMeta other = sample_meta();
  other.seed = 43;
  write_sample_store(b.path(), 2, other);
  EXPECT_THROW((void)merge_stores({a.path(), b.path()}, out.path()),
               StoreError);
}

TEST(Merge, RejectsDisagreeingShards) {
  TempFile a("dis_a"), b("dis_b"), out("dis_out");
  const CampaignMeta meta = sample_meta();
  write_sample_store(a.path(), 2, meta);
  {
    StoreWriter w = StoreWriter::create(b.path(), meta);
    StoredRecord lie = sample_record(1);
    lie.rec.end_cycle += 1;  // same index, different payload
    w.append(lie);
    w.flush();
  }
  EXPECT_THROW((void)merge_stores({a.path(), b.path()}, out.path()),
               StoreError);
}

// ---------------------------------------------------------------------------
// Scheduler: real campaigns through the store.

avp::Testcase small_testcase() {
  avp::TestcaseConfig cfg;
  cfg.seed = 11;
  cfg.num_instructions = 80;
  return avp::generate_testcase(cfg);
}

inject::CampaignConfig small_campaign(u32 n = 60) {
  inject::CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = n;
  return cfg;
}

void expect_same_aggregate(const inject::CampaignAggregate& a,
                           const inject::CampaignAggregate& b) {
  for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
    const auto oc = static_cast<inject::Outcome>(o);
    EXPECT_EQ(a.counts.of(oc), b.counts.of(oc));
  }
  for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
    for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
      const auto oc = static_cast<inject::Outcome>(o);
      EXPECT_EQ(a.by_unit[u].of(oc), b.by_unit[u].of(oc));
    }
  }
  for (std::size_t t = 0; t < netlist::kNumLatchTypes; ++t) {
    for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
      const auto oc = static_cast<inject::Outcome>(o);
      EXPECT_EQ(a.by_type[t].of(oc), b.by_type[t].of(oc));
    }
  }
}

TEST(Scheduler, MatchesInMemoryCampaign) {
  TempFile f("sched_match");
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign();

  const inject::CampaignResult mem = inject::run_campaign(tc, cfg);
  sched::SchedulerConfig sc;
  sc.threads = 2;
  sc.shard_size = 16;
  const sched::ScheduledResult out =
      sched::run_campaign_to_store(tc, cfg, f.path(), sc);

  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.executed, cfg.num_injections);
  EXPECT_EQ(out.resumed, 0u);
  expect_same_aggregate(out.agg, mem.agg);

  // The aggregate is reconstructible purely from the file.
  const auto [meta, file_agg] = aggregate_store(f.path());
  EXPECT_TRUE(meta.same_campaign(out.meta));
  expect_same_aggregate(file_agg, mem.agg);
}

TEST(Scheduler, ProgressReachesTotal) {
  TempFile f("sched_progress");
  sched::SchedulerConfig sc;
  sc.threads = 2;
  sc.shard_size = 8;
  sc.flush_records = 4;
  u64 last_done = 0;
  u64 calls = 0;
  sc.on_progress = [&](const sched::Progress& p) {
    EXPECT_GE(p.done, last_done);  // monotone under the store lock
    EXPECT_EQ(p.total, 40u);
    last_done = p.done;
    ++calls;
  };
  const auto out = sched::run_campaign_to_store(
      small_testcase(), small_campaign(40), f.path(), sc);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(last_done, 40u);
  EXPECT_GE(calls, 40u / sc.flush_records);
}

TEST(Scheduler, ResumeEquivalence) {
  TempFile uninterrupted("resume_base"), interrupted("resume_cut");
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign();

  sched::SchedulerConfig sc;
  sc.threads = 2;
  sc.shard_size = 16;
  const auto full = sched::run_campaign_to_store(tc, cfg, uninterrupted.path(),
                                                 sc);
  ASSERT_TRUE(full.complete);

  // Interrupt after ~1/3 of the campaign...
  sched::SchedulerConfig cut = sc;
  cut.max_new_injections = cfg.num_injections / 3;
  const auto part =
      sched::run_campaign_to_store(tc, cfg, interrupted.path(), cut);
  EXPECT_FALSE(part.complete);
  EXPECT_LE(part.executed, cfg.num_injections / 3 + sc.shard_size);

  // ...then resume to completion.
  const auto rest = sched::run_campaign_to_store(tc, cfg, interrupted.path(),
                                                 sc, /*resume=*/true);
  EXPECT_TRUE(rest.complete);
  EXPECT_EQ(rest.resumed, part.executed);
  EXPECT_EQ(rest.executed + rest.resumed, u64{cfg.num_injections});
  expect_same_aggregate(rest.agg, full.agg);

  // The headline guarantee: canonical merges are byte-identical.
  TempFile ma("resume_merge_a"), mb("resume_merge_b");
  (void)merge_stores({uninterrupted.path()}, ma.path());
  (void)merge_stores({interrupted.path()}, mb.path());
  EXPECT_EQ(slurp(ma.path()), slurp(mb.path()));
}

TEST(Scheduler, WorkerExceptionReachesCallerAndResumes) {
  // A throw on a pool thread (here the progress callback, on its 3rd call)
  // must reach the caller once every worker has joined instead of
  // terminating the process, and the store it leaves resumes like any
  // other interruption.
  TempFile uninterrupted("throw_base"), interrupted("throw_cut");
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign();

  sched::SchedulerConfig sc;
  sc.threads = 2;
  sc.shard_size = 8;
  sc.flush_records = 4;
  (void)sched::run_campaign_to_store(tc, cfg, uninterrupted.path(), sc);

  sched::SchedulerConfig failing = sc;
  int calls = 0;  // progress runs under the store lock
  failing.on_progress = [&](const sched::Progress&) {
    if (++calls == 3) throw std::runtime_error("progress sink failed");
  };
  EXPECT_THROW((void)sched::run_campaign_to_store(tc, cfg,
                                                  interrupted.path(), failing),
               std::runtime_error);

  const auto rest = sched::run_campaign_to_store(tc, cfg, interrupted.path(),
                                                 sc, /*resume=*/true);
  EXPECT_TRUE(rest.complete);
  EXPECT_GT(rest.resumed, 0u);

  TempFile ma("throw_merge_a"), mb("throw_merge_b");
  (void)merge_stores({uninterrupted.path()}, ma.path());
  (void)merge_stores({interrupted.path()}, mb.path());
  EXPECT_EQ(slurp(ma.path()), slurp(mb.path()));
}

TEST(Scheduler, ResumeAfterTornTail) {
  TempFile f("resume_torn");
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(30);

  sched::SchedulerConfig cut;
  cut.threads = 1;
  cut.shard_size = 8;
  cut.max_new_injections = 16;
  (void)sched::run_campaign_to_store(tc, cfg, f.path(), cut);

  // Simulate the writer dying mid-append: shear bytes off the tail.
  std::vector<u8> bytes = slurp(f.path());
  bytes.resize(bytes.size() - 5);
  spit(f.path(), bytes);

  sched::SchedulerConfig sc;
  sc.threads = 2;
  const auto out =
      sched::run_campaign_to_store(tc, cfg, f.path(), sc, /*resume=*/true);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.executed + out.resumed, 30u);

  // The repaired store holds exactly the campaign, cleanly framed.
  const StoreContents c = read_store(f.path());
  EXPECT_EQ(c.records.size(), 30u);

  // And equals the uninterrupted campaign after canonicalisation.
  TempFile base("torn_base"), ma("torn_ma"), mb("torn_mb");
  (void)sched::run_campaign_to_store(tc, cfg, base.path(), sc);
  (void)merge_stores({base.path()}, ma.path());
  (void)merge_stores({f.path()}, mb.path());
  EXPECT_EQ(slurp(ma.path()), slurp(mb.path()));
}

TEST(Scheduler, ResumeRefusesForeignStore) {
  TempFile f("resume_refuse");
  const avp::Testcase tc = small_testcase();
  (void)sched::run_campaign_to_store(tc, small_campaign(20), f.path(), {});

  // Different seed → different fault list → refuse.
  inject::CampaignConfig other = small_campaign(20);
  other.seed = 8;
  EXPECT_THROW((void)sched::run_campaign_to_store(tc, other, f.path(), {},
                                                  /*resume=*/true),
               StoreError);

  // Different campaign size → refuse.
  EXPECT_THROW((void)sched::run_campaign_to_store(tc, small_campaign(21),
                                                  f.path(), {},
                                                  /*resume=*/true),
               StoreError);
}

TEST(Scheduler, ResumeOfCompleteStoreIsNoOp) {
  TempFile f("resume_noop");
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig cfg = small_campaign(20);
  (void)sched::run_campaign_to_store(tc, cfg, f.path(), {});
  const std::vector<u8> before = slurp(f.path());

  const auto again =
      sched::run_campaign_to_store(tc, cfg, f.path(), {}, /*resume=*/true);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.resumed, 20u);
  EXPECT_EQ(slurp(f.path()), before);
}

TEST(Scheduler, FingerprintSensitivity) {
  const avp::Testcase tc = small_testcase();
  const inject::CampaignConfig a = small_campaign();
  const inject::CampaignPlan plan_a = inject::plan_campaign(tc, a);
  const u64 fp_a = sched::campaign_fingerprint(a, plan_a);

  // Same inputs → same fingerprint (pure function).
  EXPECT_EQ(sched::campaign_fingerprint(a, inject::plan_campaign(tc, a)),
            fp_a);

  // A config change that alters outcome classification changes it.
  inject::CampaignConfig b = a;
  b.run.hang_margin *= 2;
  EXPECT_NE(sched::campaign_fingerprint(b, inject::plan_campaign(tc, b)),
            fp_a);

  // A population change changes it.
  inject::CampaignConfig c = a;
  c.filter = [](const netlist::LatchMeta& m) {
    return m.unit == netlist::Unit::FXU;
  };
  EXPECT_NE(sched::campaign_fingerprint(c, inject::plan_campaign(tc, c)),
            fp_a);
}

TEST(Scheduler, WorkloadIdTracksProgram) {
  avp::TestcaseConfig a;
  a.seed = 11;
  a.num_instructions = 80;
  avp::TestcaseConfig b = a;
  b.seed = 12;
  EXPECT_EQ(sched::workload_id(avp::generate_testcase(a)),
            sched::workload_id(avp::generate_testcase(a)));
  EXPECT_NE(sched::workload_id(avp::generate_testcase(a)),
            sched::workload_id(avp::generate_testcase(b)));
}

TEST(Progress, RateClampsUntilFirstRealSample) {
  // The first progress report of a run fires before any injection has
  // completed (executed == 0, wall ~ 0): rate and ETA must be "not yet",
  // never 0/inf/nan leaking into the live line.
  sched::Progress p;
  p.total = 100;
  EXPECT_FALSE(p.rate_per_s().has_value());
  EXPECT_FALSE(p.eta_seconds().has_value());

  // Executed work with a zero-width wall window (clock resolution) is still
  // not a measurable rate.
  p.executed = 8;
  p.wall_seconds = 0.0;
  EXPECT_FALSE(p.rate_per_s().has_value());
  EXPECT_FALSE(p.eta_seconds().has_value());

  // A denormal window would divide to inf — clamped too.
  p.wall_seconds = 4.9e-324;
  EXPECT_FALSE(p.rate_per_s().has_value());

  // First real sample: both become available and consistent.
  p.done = 8;
  p.wall_seconds = 2.0;
  ASSERT_TRUE(p.rate_per_s().has_value());
  EXPECT_DOUBLE_EQ(*p.rate_per_s(), 4.0);
  ASSERT_TRUE(p.eta_seconds().has_value());
  EXPECT_DOUBLE_EQ(*p.eta_seconds(), 23.0);

  // Resume overshoot (done > total, e.g. a re-grown store): no ETA.
  p.done = 101;
  EXPECT_TRUE(p.rate_per_s().has_value());
  EXPECT_FALSE(p.eta_seconds().has_value());
}

}  // namespace
}  // namespace sfi::store
