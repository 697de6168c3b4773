#include "store/codec.hpp"

#include <bit>
#include <string>
#include <type_traits>

namespace sfi::store {

namespace {

// Each payload type's layout is one field list, run by an Encoder to write
// the payload and by a Decoder to read it back. Integers are little-endian
// at their declared width, bools and enums take one byte, doubles travel as
// their bit pattern, and strings and sequences carry a u32 count first.

/// Cap on any one string field (metric names, span labels and args).
constexpr u32 kMaxString = 4096;
/// Cap on any one metrics sequence (counters, gauges, histograms, bounds).
constexpr u32 kMaxCount = 1u << 20;

class Encoder {
 public:
  static constexpr bool kDecoding = false;

  template <class... T>
  void operator()(const T&... fields) {
    (field(fields), ...);
  }
  template <class E>
  void enumeration(const E& v, unsigned /*limit*/, const char* /*what*/) {
    field(v);
  }
  template <class... B>
  void flags(const B&... bits) {
    u8 packed = 0;
    unsigned bit = 0;
    ((packed |= static_cast<u8>((bits ? 1u : 0u) << bit++)), ...);
    field(packed);
  }
  template <class Seq, class Each>
  void seq(const Seq& s, std::size_t /*max*/, const char* /*what*/,
           Each&& each) {
    field(static_cast<u32>(s.size()));
    for (const auto& e : s) each(e);
  }
  /// Bytes so far; a count cap computed from it is ignored when encoding.
  [[nodiscard]] std::size_t size() const { return bytes.size(); }

  std::vector<u8> bytes;

 private:
  template <class T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      field(static_cast<u32>(v.size()));
      bytes.insert(bytes.end(), v.begin(), v.end());
    } else if constexpr (std::is_same_v<T, double>) {
      field(std::bit_cast<u64>(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      field(static_cast<u8>(v ? 1 : 0));
    } else {
      const u64 raw = static_cast<u64>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        bytes.push_back(static_cast<u8>(raw >> (8 * i)));
      }
    }
  }
};

/// Reads a payload back in layout order; any byte the layout does not allow
/// (short payload, trailing bytes, out-of-range enum, oversized count or
/// string) throws StoreError naming the payload.
class Decoder {
 public:
  static constexpr bool kDecoding = true;

  Decoder(std::span<const u8> data, const char* payload)
      : data_(data), payload_(payload) {}

  template <class... T>
  void operator()(T&... fields) {
    (field(fields), ...);
  }
  template <class E>
  void enumeration(E& v, unsigned limit, const char* what) {
    u8 raw = 0;
    field(raw);
    if (raw >= limit) {
      fail("out-of-range " + std::string(what) + " value " +
           std::to_string(raw));
    }
    v = static_cast<E>(raw);
  }
  template <class... B>
  void flags(B&... bits) {
    u8 packed = 0;
    field(packed);
    unsigned bit = 0;
    ((bits = ((packed >> bit++) & 1u) != 0), ...);
  }
  /// A u32 count, refused above `max` before anything is allocated for it.
  template <class Seq, class Each>
  void seq(Seq& s, std::size_t max, const char* what, Each&& each) {
    u32 n = 0;
    field(n);
    if (n > max) {
      fail("implausible " + std::string(what) + " count " + std::to_string(n));
    }
    s.resize(n);
    for (auto& e : s) each(e);
  }
  /// Size of the whole payload.
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  void finish() const {
    if (pos_ != data_.size()) fail("trailing bytes");
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw StoreError(why + " in " + payload_ + " payload");
  }

 private:
  template <class T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      u32 n = 0;
      field(n);
      if (n > kMaxString) fail("string too long");
      need(n);
      v.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
      pos_ += n;
    } else if constexpr (std::is_same_v<T, double>) {
      u64 raw = 0;
      field(raw);
      v = std::bit_cast<double>(raw);
    } else if constexpr (std::is_same_v<T, bool>) {
      u8 raw = 0;
      field(raw);
      v = raw != 0;
    } else {
      need(sizeof(T));
      u64 raw = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        raw |= static_cast<u64>(data_[pos_++]) << (8 * i);
      }
      v = static_cast<T>(raw);
    }
  }
  void need(std::size_t n) const {
    if (n > data_.size() - pos_) fail("payload shorter than its layout");
  }

  std::span<const u8> data_;
  const char* payload_;
  std::size_t pos_ = 0;
};

/// The frame kind, name and field list of one payload type. `fields` takes
/// the payload const when encoding and mutable when decoding.
template <class Payload>
struct Layout;

template <>
struct Layout<CampaignMeta> {
  static constexpr u8 kKind = kHeaderFrame;
  static constexpr const char* kName = "header";
  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.format_version);
    if constexpr (Io::kDecoding) {
      if (m.format_version != kFormatVersion) {
        io.fail("unsupported store format version " +
                std::to_string(m.format_version) + " (expected " +
                std::to_string(kFormatVersion) + ")");
      }
    }
    io(m.seed, m.num_injections, m.config_fingerprint, m.workload_id,
       m.population_size, m.workload_cycles, m.workload_instructions,
       m.window_begin, m.window_end);
  }
};

template <>
struct Layout<StoredRecord> {
  static constexpr u8 kKind = kRecordFrame;
  static constexpr const char* kName = "record";
  template <class Io, class S>
  static void fields(Io& io, S& sr) {
    auto& rec = sr.rec;
    auto& f = rec.fault;
    io(sr.index);
    io.enumeration(f.target, 2, "fault target");
    io(f.index, f.array_bit, f.cycle);
    io.enumeration(f.mode, 2, "fault mode");
    io(f.sticky_duration, f.sticky_value, f.adjacent_bits);
    io.enumeration(rec.outcome, inject::kNumOutcomes, "outcome");
    io.enumeration(rec.unit, netlist::kNumUnits, "unit");
    io.enumeration(rec.type, netlist::kNumLatchTypes, "latch type");
    io(rec.end_cycle, rec.early_exited, rec.recoveries);
  }
};

template <>
struct Layout<inject::PropagationRecord> {
  static constexpr u8 kKind = kPropagationFrame;
  static constexpr const char* kName = "propagation";
  /// Encoded size of one footprint sample.
  static constexpr std::size_t kSampleBytes = 8 + 4 * netlist::kNumUnits;
  template <class Io, class P>
  static void fields(Io& io, P& rec) {
    io(rec.index);
    io.enumeration(rec.unit, netlist::kNumUnits, "unit");
    io.enumeration(rec.type, netlist::kNumLatchTypes, "latch type");
    io.enumeration(rec.outcome, inject::kNumOutcomes, "outcome");
    io.flags(rec.masked, rec.detected, rec.reached_arch, rec.reached_memory,
             rec.truncated, rec.checker_fired, rec.checker_fatal);
    // The checker id is meaningful, and so range-checked, only if one fired.
    io.enumeration(rec.checker, rec.checker_fired ? core::kNumCheckers : 256,
                   "checker id");
    io(rec.fault_cycle, rec.masked_at, rec.detected_at, rec.peak_bits,
       rec.rerun_cycles);
    for (auto& fc : rec.first_corrupt) io(fc);
    // A sample count the payload could not hold is refused before
    // allocating for it.
    io.seq(rec.samples, io.size() / kSampleBytes, "sample", [&](auto& s) {
      io(s.offset, s.total_bits);
      for (auto& b : s.unit_bits) io(b);
    });
  }
};

template <>
struct Layout<AssignmentFrame> {
  static constexpr u8 kKind = kAssignmentFrame;
  static constexpr const char* kName = "assignment";
  template <class Io, class A>
  static void fields(Io& io, A& as) {
    io(as.worker, as.shard, as.attempt, as.count);
  }
};

template <>
struct Layout<MetricsFrame> {
  static constexpr u8 kKind = kMetricsFrame;
  static constexpr const char* kName = "metrics";
  template <class Io, class M>
  static void fields(Io& io, M& mf) {
    auto& s = mf.snapshot;
    io(mf.worker, mf.seq);
    io.seq(s.counters, kMaxCount, "counter",
           [&](auto& c) { io(c.first, c.second); });
    io.seq(s.gauges, kMaxCount, "gauge",
           [&](auto& g) { io(g.first, g.second); });
    io.seq(s.histograms, kMaxCount, "histogram", [&](auto& h) {
      io(h.name);
      io.seq(h.bounds, kMaxCount, "histogram bound", [&](auto& b) { io(b); });
      // One bucket per bound plus the overflow bucket; the count is implied.
      if constexpr (Io::kDecoding) h.buckets.resize(h.bounds.size() + 1);
      for (auto& c : h.buckets) io(c);
      io(h.count, h.sum);
    });
  }
};

template <>
struct Layout<telemetry::SpanRecord> {
  static constexpr u8 kKind = kSpanFrame;
  static constexpr const char* kName = "span";
  template <class Io, class S>
  static void fields(Io& io, S& s) {
    io(s.trace_id, s.span_id, s.parent_id, s.pid, s.tid, s.ph);
    if constexpr (Io::kDecoding) {
      if (s.ph != 'X' && s.ph != 'i') {
        io.fail("unknown span phase " +
                std::to_string(static_cast<u8>(s.ph)));
      }
    }
    io(s.ts_us, s.dur_us, s.process, s.name, s.cat, s.args_json);
  }
};

/// Complete `frame` (kind and length placeholders, then the payload) into a
/// CRC-framed frame: kind | payload_len | payload | crc32.
std::vector<u8> seal(u8 kind, std::vector<u8> frame) {
  const u32 len = static_cast<u32>(frame.size() - 5);
  frame[0] = kind;
  for (int i = 0; i < 4; ++i) frame[1 + i] = static_cast<u8>(len >> (8 * i));
  const u32 crc = crc32(frame);
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<u8>(crc >> (8 * i)));
  return frame;
}

template <class Payload>
std::vector<u8> encode(const Payload& payload) {
  Encoder e;
  Layout<Payload>::fields(e, payload);
  return std::move(e.bytes);
}

template <class Payload>
Payload decode(std::span<const u8> payload) {
  Decoder d(payload, Layout<Payload>::kName);
  Payload out;
  Layout<Payload>::fields(d, out);
  d.finish();
  return out;
}

}  // namespace

template <class Payload>
std::vector<u8> encode_frame(const Payload& payload) {
  Encoder e;
  e.bytes.resize(5);
  Layout<Payload>::fields(e, payload);
  return seal(Layout<Payload>::kKind, std::move(e.bytes));
}

template std::vector<u8> encode_frame(const CampaignMeta&);
template std::vector<u8> encode_frame(const StoredRecord&);
template std::vector<u8> encode_frame(const inject::PropagationRecord&);
template std::vector<u8> encode_frame(const AssignmentFrame&);
template std::vector<u8> encode_frame(const MetricsFrame&);
template std::vector<u8> encode_frame(const telemetry::SpanRecord&);

std::vector<u8> make_frame(u8 kind, std::span<const u8> payload) {
  std::vector<u8> frame(5);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return seal(kind, std::move(frame));
}

std::vector<u8> encode_meta(const CampaignMeta& m) { return encode(m); }
CampaignMeta decode_meta(std::span<const u8> p) {
  return decode<CampaignMeta>(p);
}
std::vector<u8> encode_record(const StoredRecord& sr) { return encode(sr); }
StoredRecord decode_record(std::span<const u8> p) {
  return decode<StoredRecord>(p);
}
std::vector<u8> encode_propagation(const inject::PropagationRecord& rec) {
  return encode(rec);
}
inject::PropagationRecord decode_propagation(std::span<const u8> p) {
  return decode<inject::PropagationRecord>(p);
}
std::vector<u8> encode_assignment(const AssignmentFrame& as) {
  return encode(as);
}
AssignmentFrame decode_assignment(std::span<const u8> p) {
  return decode<AssignmentFrame>(p);
}
std::vector<u8> encode_metrics(const MetricsFrame& mf) { return encode(mf); }
MetricsFrame decode_metrics(std::span<const u8> p) {
  return decode<MetricsFrame>(p);
}
std::vector<u8> encode_span(const telemetry::SpanRecord& span) {
  return encode(span);
}
telemetry::SpanRecord decode_span(std::span<const u8> p) {
  return decode<telemetry::SpanRecord>(p);
}

}  // namespace sfi::store
