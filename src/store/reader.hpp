// StoreReader: streaming consumer side of a `.sfr` campaign store.
//
// Frames are validated (magic, version, per-frame CRC) as they are read, so
// a full pass holds at most one flush window in memory — analysis over a
// 100M-record store streams. Every reader of a store file — StoreReader, the
// helpers below that wrap it, and FrameTail (tail.hpp) over a file still
// being written — runs on one envelope scanner and applies one commit rule,
// so all of them deliver the same committed prefix:
//
//   Commit rule. In a store without commit markers, each frame is released
//   as it validates. Once a store has shown a commit marker
//   (store::WriteOptions::commit_markers), a frame is released only when
//   the next marker seals its flush window. A flush is multi-frame (records
//   plus their footprints), so a tear mid-flush could otherwise surface a
//   valid-looking orphan 'R' whose companion 'P' was lost.
//
//   End of file, strict (default): the frames of an unsealed final window
//   are still delivered, and any malformed byte throws StoreError. This is
//   what `report`/`merge` use — a corrupt analysis input should never be
//   silently partial.
//
//   End of file, tolerate-torn-tail: an unsealed final window, or a frame
//   cut short or failing its CRC at the very end of the file — the
//   signature of a writer killed mid-append — ends the stream cleanly
//   without delivering that window. torn_tail() reports it and
//   valid_bytes() is the offset to truncate to; the resume scheduler
//   truncates there and re-executes only the injections past the tear.
//   Corruption that is NOT at the tail (a bad CRC with further bytes behind
//   it) still throws.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sfi/aggregate.hpp"
#include "store/codec.hpp"

namespace sfi::store {

struct ReadOptions {
  bool tolerate_torn_tail = false;
};

/// The envelope scanner and commit rule over one store file (reader.cpp).
class FrameCursor;

class StoreReader {
 public:
  StoreReader(const std::string& path, ReadOptions opts = {});
  ~StoreReader();
  StoreReader(StoreReader&&) noexcept;
  StoreReader& operator=(StoreReader&&) noexcept;

  [[nodiscard]] const CampaignMeta& meta() const { return meta_; }

  /// Read the next *injection* record. Returns false at end of stream (or
  /// at a tolerated torn tail). Frames of other kinds — propagation
  /// footprints, kinds from future format extensions — are CRC-validated
  /// and skipped, so record-only consumers (report, merge, resume) read
  /// stores with forensic frames unchanged.
  [[nodiscard]] bool next(StoredRecord& out);

  /// Read the next released frame of any kind, commit markers included, in
  /// file order (validated, payload returned raw). Returns false at end of
  /// stream. Forensics consumers use this to pull kPropagationFrame payloads
  /// out of a mixed store.
  [[nodiscard]] bool next_frame(u8& kind, std::vector<u8>& payload);

  /// True once the stream ended at a torn tail under tolerate_torn_tail: an
  /// incomplete or corrupt final frame, or an unsealed final window.
  [[nodiscard]] bool torn_tail() const { return torn_tail_; }

  /// Byte offset just past the last released frame: once the stream has
  /// ended, the safe truncation point for resume-after-crash.
  [[nodiscard]] u64 valid_bytes() const;

 private:
  /// Next released frame as a view valid until the next call.
  bool next_view(u8& kind, std::span<const u8>& payload);

  std::unique_ptr<FrameCursor> cursor_;
  ReadOptions opts_;
  CampaignMeta meta_;
  bool torn_tail_ = false;
  bool ended_ = false;
};

/// A fully materialised store.
struct StoreContents {
  CampaignMeta meta;
  std::vector<StoredRecord> records;
  bool torn_tail = false;
  u64 valid_bytes = 0;
};

[[nodiscard]] StoreContents read_store(const std::string& path,
                                       ReadOptions opts = {});

/// Stream `path`, calling `fn` per record; returns the record count.
u64 for_each_record(const std::string& path,
                    const std::function<void(const StoredRecord&)>& fn,
                    ReadOptions opts = {});

/// Stream `path`, calling `fn` per propagation footprint (kPropagationFrame);
/// returns the footprint count. Injection records are skipped.
u64 for_each_propagation(
    const std::string& path,
    const std::function<void(const inject::PropagationRecord&)>& fn,
    ReadOptions opts = {});

/// Rebuild the campaign aggregation (outcome histogram, by-unit, by-type)
/// purely from a store file — no simulation.
[[nodiscard]] std::pair<CampaignMeta, inject::CampaignAggregate>
aggregate_store(const std::string& path, ReadOptions opts = {});

}  // namespace sfi::store
