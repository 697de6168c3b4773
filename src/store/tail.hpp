// FrameTail: incremental, commit-aware reader of a *growing* store file.
//
// The farm coordinator tails each worker's shard store while the worker is
// still writing it: the frame stream doubles as the supervision channel
// (assignment echoes, results). Polling a live file means every
// read may end mid-frame, so FrameTail keeps its place across polls and only
// surfaces a frame once its full extent (and CRC) is in hand.
//
// It runs the same envelope scanner and commit rule as StoreReader
// (reader.hpp): a frame is delivered once a commit marker seals its flush
// window. A live file has no end, so an unsealed window simply waits. That
// alignment is load-bearing — the coordinator marks an injection done only
// when its record frame is *committed*, and the final merge (tolerant read)
// keeps precisely the committed prefix, so "coordinator counted it" always
// implies "merge will contain it".
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "store/reader.hpp"

namespace sfi::store {

class FrameTail {
 public:
  explicit FrameTail(std::string path);
  ~FrameTail();

  /// Read any new bytes of the file and deliver newly *committed* frames to
  /// `fn` in stream order (the header and commit markers are punctuation
  /// and not delivered). Returns the number of frames delivered this poll.
  /// A missing or not-yet-created file delivers nothing. Safe to call
  /// forever.
  std::size_t poll(const std::function<void(u8 kind,
                                            std::span<const u8> payload)>& fn);

  /// A complete frame extent failed validation (bad magic, bad CRC, garbage
  /// length). Unlike a short tail — which may simply not be written yet —
  /// this cannot heal; the supervisor treats the worker as failed.
  [[nodiscard]] bool corrupt() const { return corrupt_; }

 private:
  std::unique_ptr<FrameCursor> cursor_;
  bool header_seen_ = false;
  bool corrupt_ = false;
};

}  // namespace sfi::store
