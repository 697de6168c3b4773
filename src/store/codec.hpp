// Payload codecs for the six payload frame kinds, plus frame assembly.
// Each payload type has one field list (codec.cpp) that both encodes and
// decodes it. Encoding is canonical: a given (meta, records) set has exactly
// one byte representation, which is what lets `merge` promise byte-identical
// output for equal record sets (the resume-equivalence proof in
// tests/test_store).
#pragma once

#include <span>
#include <vector>

#include "sfi/propagation.hpp"
#include "sfi/record.hpp"
#include "store/format.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace sfi::store {

/// One persisted injection: its campaign index plus the full record.
struct StoredRecord {
  u32 index = 0;  ///< injection index i within the campaign; RNG = (seed, i)
  inject::InjectionRecord rec;
};

[[nodiscard]] std::vector<u8> encode_meta(const CampaignMeta& meta);
[[nodiscard]] CampaignMeta decode_meta(std::span<const u8> payload);

[[nodiscard]] std::vector<u8> encode_record(const StoredRecord& sr);
[[nodiscard]] StoredRecord decode_record(std::span<const u8> payload);

[[nodiscard]] std::vector<u8> encode_propagation(
    const inject::PropagationRecord& rec);
[[nodiscard]] inject::PropagationRecord decode_propagation(
    std::span<const u8> payload);

/// Farm shard assignment echo ('A' frame): worker accepted (shard, attempt).
struct AssignmentFrame {
  u32 worker = 0;
  u64 shard = 0;
  u32 attempt = 0;  ///< 0 on first dispatch, +1 per supervised retry
  u32 count = 0;    ///< indices in this assignment
};

[[nodiscard]] std::vector<u8> encode_assignment(const AssignmentFrame& as);
[[nodiscard]] AssignmentFrame decode_assignment(std::span<const u8> payload);

/// Farm-worker metrics snapshot ('M' frame): the worker's cumulative
/// metrics registry at one point in time. `seq` is monotonically increasing
/// per worker process; the coordinator keeps only the latest snapshot per
/// (slot, generation), so a replayed or reordered frame is harmless.
struct MetricsFrame {
  u32 worker = 0;  ///< worker id within the farm
  u64 seq = 0;     ///< monotonically increasing per worker process
  telemetry::MetricsSnapshot snapshot;
};

[[nodiscard]] std::vector<u8> encode_metrics(const MetricsFrame& mf);
[[nodiscard]] MetricsFrame decode_metrics(std::span<const u8> payload);

/// Distributed-tracing span ('S' frame): self-describing (process label and
/// wall-anchored timestamps travel inside), so a stitcher can reassemble a
/// fleet timeline from shard stores alone.
[[nodiscard]] std::vector<u8> encode_span(const telemetry::SpanRecord& span);
[[nodiscard]] telemetry::SpanRecord decode_span(std::span<const u8> payload);

/// One CRC-framed frame carrying `payload`, ready for appending. The frame
/// kind follows from the payload's type (CampaignMeta 'H', StoredRecord 'R',
/// PropagationRecord 'P', AssignmentFrame 'A', MetricsFrame 'M', SpanRecord
/// 'S'); no other type is encodable.
template <class Payload>
[[nodiscard]] std::vector<u8> encode_frame(const Payload& payload);

/// Wrap a raw payload into a CRC-framed byte sequence ready for appending.
[[nodiscard]] std::vector<u8> make_frame(u8 kind, std::span<const u8> payload);

}  // namespace sfi::store
