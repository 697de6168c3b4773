// On-disk format of the campaign record store (`.sfr`).
//
// A store file is the durable form of one campaign (or one shard of one):
//
//   file  := magic[8] frame*
//   frame := kind:u8 | payload_len:u32 | payload[payload_len] | crc32:u32
//
// The first frame is the campaign header (kind 'H'); the frames after it are
// injection records (kind 'R') and the optional kinds below. All integers
// are little-endian and fixed-width; the CRC-32 (IEEE, reflected 0xEDB88320)
// covers kind, payload_len and payload, so torn writes and bit rot are both
// detectable per frame. Records carry their campaign index explicitly,
// which is what makes stores order-insensitive (shards append as they
// finish) and resumable (a restarted campaign skips persisted indices).
#pragma once

#include <array>
#include <span>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace sfi::store {

/// Any malformed-store condition (bad magic, version, CRC, truncation).
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::array<u8, 8> kMagic = {'S', 'F', 'I', 'R',
                                             'E', 'C', 'v', '1'};
inline constexpr u32 kFormatVersion = 1;

inline constexpr u8 kHeaderFrame = 'H';
inline constexpr u8 kRecordFrame = 'R';
/// Propagation-forensics footprint (optional; readers that do not know a
/// frame kind skip it after CRC validation, so stores stay readable by
/// older builds and record-only consumers).
inline constexpr u8 kPropagationFrame = 'P';
/// Flush-commit marker (empty payload): everything before it reached the OS
/// in one piece. Writers opened with commit markers emit one per flush();
/// tolerant readers then truncate a torn tail back to the last marker,
/// dropping a *whole* interrupted flush window instead of keeping a
/// valid-looking orphan ('R' whose companion 'P' was lost mid-flush).
inline constexpr u8 kCommitFrame = 'F';
/// Retired: the farm-worker heartbeat that older builds flushed before each
/// injection. Nothing writes it now; readers skip it like any kind they do
/// not know, so the shard stores older farms kept still read.
inline constexpr u8 kHeartbeatFrame = 'B';
/// Farm shard assignment echo: which (shard, attempt) a worker accepted,
/// committed before it runs any of it. The coordinator blames only an
/// accepted assignment, and a new worker's first echo ends its startup
/// deadline. The echoes also let a replay reconstruct the full dispatch
/// history of a supervised campaign from its shard files.
inline constexpr u8 kAssignmentFrame = 'A';
/// Farm-worker metrics snapshot: the worker's whole metrics registry
/// (cumulative counters/gauges/histograms) serialized every N injections so
/// the coordinator — and through it the serve daemon's /metrics endpoint —
/// sees fleet-wide telemetry without a side channel. Observability-only:
/// canonical merge drops these frames, so a store written with snapshots on
/// merges byte-identical to one written with them off.
inline constexpr u8 kMetricsFrame = 'M';
/// Distributed-tracing span ('S' frame): one wall-anchored slice or instant
/// from the process that owns the store (worker shard, coordinator sidecar).
/// Observability-only, exactly like 'M': canonical merge drops these frames
/// and `sfi trace` stitches them back into one fleet timeline afterwards.
inline constexpr u8 kSpanFrame = 'S';
// kCommitFrame/kHeartbeatFrame/kAssignmentFrame/kMetricsFrame/kSpanFrame are
// all skipped by readers that predate them (unknown kinds are CRC-validated
// and ignored), keeping format_version at 1.

/// Frame overhead: kind + payload_len + crc32.
inline constexpr std::size_t kFrameOverhead = 1 + 4 + 4;

/// Sanity cap on one frame payload. Real payloads are well under a kilobyte,
/// so a larger length field is corruption, never a frame worth waiting for.
inline constexpr u32 kMaxPayload = 1u << 20;

namespace detail {
/// Slicing-by-8 tables: kCrc32Tables[0] is the classic byte table, and
/// table k advances a byte's contribution past k further zero bytes, so
/// eight bytes fold per step instead of one (metrics frames run to ~8 KB).
constexpr std::array<std::array<u32, 256>, 8> make_crc32_tables() {
  std::array<std::array<u32, 256>, 8> t{};
  for (u32 n = 0; n < 256; ++n) {
    u32 c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (u32 n = 0; n < 256; ++n) {
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    }
  }
  return t;
}
inline constexpr std::array<std::array<u32, 256>, 8> kCrc32Tables =
    make_crc32_tables();
}  // namespace detail

/// IEEE CRC-32 over `bytes`, chainable via `seed` (pass a previous result).
[[nodiscard]] constexpr u32 crc32(std::span<const u8> bytes, u32 seed = 0) {
  const auto& t = detail::kCrc32Tables;
  u32 c = seed ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const u32 lo = c ^ (u32{bytes[i]} | u32{bytes[i + 1]} << 8 |
                        u32{bytes[i + 2]} << 16 | u32{bytes[i + 3]} << 24);
    const u32 hi = u32{bytes[i + 4]} | u32{bytes[i + 5]} << 8 |
                   u32{bytes[i + 6]} << 16 | u32{bytes[i + 7]} << 24;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < bytes.size(); ++i) {
    c = t[0][(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// Campaign identity and provenance, written once per store file. Two stores
/// are shards of the same campaign iff every field below matches.
struct CampaignMeta {
  u32 format_version = kFormatVersion;
  u64 seed = 0;
  u32 num_injections = 0;
  /// Fingerprint of everything that shapes the fault list and outcomes:
  /// population ordinals, injection window, fault mode, run and core config
  /// (computed by the scheduler, sched/scheduler.hpp).
  u64 config_fingerprint = 0;
  /// Identity of the workload (program image + initial state).
  u64 workload_id = 0;
  u64 population_size = 0;
  u64 workload_cycles = 0;
  u64 workload_instructions = 0;
  u64 window_begin = 0;
  u64 window_end = 0;

  [[nodiscard]] bool same_campaign(const CampaignMeta& o) const {
    return format_version == o.format_version && seed == o.seed &&
           num_injections == o.num_injections &&
           config_fingerprint == o.config_fingerprint &&
           workload_id == o.workload_id &&
           population_size == o.population_size &&
           workload_cycles == o.workload_cycles &&
           workload_instructions == o.workload_instructions &&
           window_begin == o.window_begin && window_end == o.window_end;
  }
};

}  // namespace sfi::store
