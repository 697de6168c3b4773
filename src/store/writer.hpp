// StoreWriter: append-only producer side of a `.sfr` campaign store.
//
// Writes are frame-granular: a record either lands completely (with a valid
// CRC) or, on a crash, leaves a torn final frame the reader can detect and
// the scheduler truncates away on resume. The writer buffers in the ofstream
// and only promises durability at flush() — schedulers decide the flush
// cadence (throughput vs. at-risk window). flush() hands the bytes to the OS:
// they survive a crash of this process, not of the machine (no fsync).
#pragma once

#include <memory>
#include <string>
#include <type_traits>

#include "store/codec.hpp"

namespace sfi::store {

struct WriteOptions {
  /// Emit a kCommitFrame after the header and at every flush() that pushed
  /// new frames. Markers let tolerant readers truncate a torn tail back to
  /// the last *complete flush window* rather than the last complete frame —
  /// closing the crash window where an 'R' survives but its companion 'P'
  /// (same flush) was lost. Merge output stays marker-free so canonical
  /// stores remain byte-identical across marker and legacy producers.
  bool commit_markers = false;
};

class StoreWriter {
 public:
  /// Create (truncate) `path` and write the campaign header.
  static StoreWriter create(const std::string& path, const CampaignMeta& meta,
                            WriteOptions opts = {});

  /// Open an existing, already-validated store for appending more records.
  /// (Callers are expected to have read/validated the file first — the
  /// resume path in src/sched/ does — since appending to a store with a
  /// torn tail would bury the tear mid-file.)
  static StoreWriter append_to(const std::string& path,
                               WriteOptions opts = {});

  /// Append one frame; its kind follows from the payload's type (see
  /// encode_frame in codec.hpp). Only injection records count toward
  /// records_written(): footprints, assignment echoes, metrics snapshots
  /// and spans are observability data, and canonical merge drops all but
  /// the records.
  template <class Payload>
  void append(const Payload& payload) {
    write_bytes(encode_frame(payload));
    ++uncommitted_frames_;
    if constexpr (std::is_same_v<Payload, StoredRecord>) ++records_written_;
  }

  /// Push buffered frames to the OS. With commit markers enabled, seals the
  /// window first by appending a kCommitFrame (only if frames are pending —
  /// a redundant flush must not grow the file, or byte-level no-op resume
  /// guarantees break).
  void flush();

  /// Records appended through this writer (not counting pre-existing ones).
  [[nodiscard]] u64 records_written() const { return records_written_; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  StoreWriter(const std::string& path, bool truncate, WriteOptions opts);

  void write_bytes(std::span<const u8> bytes);

  std::string path_;
  /// Using a FILE-free ofstream keeps the writer movable.
  struct OfstreamHolder;
  std::shared_ptr<OfstreamHolder> out_;
  WriteOptions opts_;
  u64 records_written_ = 0;
  /// Frames appended since the last commit marker.
  u64 uncommitted_frames_ = 0;
};

}  // namespace sfi::store
