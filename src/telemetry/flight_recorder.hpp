// Crash flight recorder: a fixed-size in-memory ring of recent telemetry
// event lines, flushed to a postmortem file when something dies.
//
// A farm worker SIGKILLed by the watchdog, a daemon taken down by a bad
// deploy, a strikeout after three crashes — the JSONL event log (when one
// is even attached) ends mid-stream with none of the context that explains
// the last seconds. The recorder keeps the tail of the event stream in
// preallocated memory:
//
//   * note() claims a sequence number with one relaxed fetch_add, then its
//     slot with one compare-and-swap, and copies the line in — no
//     allocation, no locks, bounded work — so it can sit on the event
//     emission path permanently;
//   * the ring overwrites oldest-first; capacity bounds memory, not
//     runtime;
//   * dump() writes the surviving lines oldest-first to a file. dump_fd()
//     is async-signal-safe (write(2) only), and arm_signals() installs
//     fatal-signal handlers (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT) that
//     dump the global recorder before re-raising, so even an abort leaves
//     a readable trace.
//
// The recorder never feeds anything back into the campaign: it is a copy
// of lines that were (or would have been) emitted anyway, so enabling it
// cannot change records or stores.
//
// Concurrency: note() is safe from any thread, and a slot's text and length
// are one publication. Each slot carries a stamp naming the line it holds
// (and whether a writer is mid-copy); a writer claims the slot by
// compare-and-swap and publishes by stamping its line, and a reader
// (snapshot, dump) copies the text and keeps it only if the stamp still
// names the line it expected — a seqlock. The text is held as relaxed
// atomic words, so the copy races nothing. Two writers one ring capacity
// apart cannot share a slot: the later one drops its line if the earlier
// is still copying. A slot caught mid-overwrite is skipped, never emitted
// torn.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace sfi::telemetry {

class FlightRecorder {
 public:
  /// Longest line a slot holds; longer lines are truncated, not dropped.
  static constexpr std::size_t kLineBytes = 480;
  /// Ring size the daemon and `sfi campaign --postmortem` enable.
  static constexpr std::size_t kSlots = 2048;

  FlightRecorder() = default;
  /// Frees the ring. The global() recorder is never destroyed (signal
  /// handlers may read it during teardown); local instances are.
  ~FlightRecorder() { delete[] slots_.load(std::memory_order_acquire); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder that EventLog tees into and fatal-signal
  /// handlers dump. Starts disabled (note() is one relaxed load + branch).
  static FlightRecorder& global();

  /// Allocate the ring. First call wins; later calls are no-ops (the ring
  /// must never move once signal handlers may read it).
  void enable(std::size_t slots);
  [[nodiscard]] bool enabled() const {
    return slots_.load(std::memory_order_acquire) != nullptr;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Lines ever noted (>= capacity ⇒ the ring has wrapped).
  [[nodiscard]] u64 noted() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Record one line (no trailing newline). No-op while disabled.
  void note(std::string_view line);

  /// Copy the live ring, oldest line first (empty if disabled). The
  /// non-signal-path sibling of dump(): the farm supervisor converts the
  /// tail into trace instants when a worker dies, so the stitched trace
  /// shows what the fleet was doing around the fatality.
  [[nodiscard]] std::vector<std::string> snapshot() const;

  /// Write the live ring, oldest line first, one per line, to `path`
  /// (created/truncated). Returns lines written; 0 if disabled.
  std::size_t dump(const std::string& path) const;

  /// Async-signal-safe dump to an already-open fd.
  void dump_fd(int fd) const;

  /// Install fatal-signal handlers that dump the *global* recorder to
  /// `path` and then re-raise with the default disposition. Call once,
  /// after global().enable().
  static void arm_signals(const std::string& path);

 private:
  static constexpr std::size_t kWords = kLineBytes / sizeof(u64);
  static_assert(kLineBytes % sizeof(u64) == 0);
  struct Slot {
    /// 2 * (seq + 1) once line `seq` is published here, plus 1 while a
    /// writer copies it in; 0 = never written.
    std::atomic<u64> stamp{0};
    std::atomic<u32> len{0};
    std::atomic<u64> text[kWords]{};
  };
  /// Copy line `seq` out of its slot into `out` (kLineBytes); its length,
  /// or 0 when the slot holds another line or a writer overwrote it
  /// meanwhile. Async-signal-safe.
  [[nodiscard]] u32 read_line(u64 seq, char* out) const;

  std::atomic<Slot*> slots_{nullptr};
  std::size_t capacity_ = 0;
  std::atomic<u64> head_{0};
};

// Field extraction from a recorded line. Lines are machine-written JSONL
// ({"ev":"...","t_us":N,...}), so a substring scan is reliable enough for a
// postmortem overlay; a miss degrades to a default, never an error.

/// The line's `"t_us"` stamp (0 when absent).
[[nodiscard]] u64 recorded_t_us(std::string_view line);
/// The line's `"ev"` kind ("event" when absent).
[[nodiscard]] std::string_view recorded_event(std::string_view line);

}  // namespace sfi::telemetry
