// CheckpointStore: delta-compressed interval snapshots of the reference run.
//
// Every injection used to replay the workload fault-free from cycle 0 to the
// injection cycle — for a window of W cycles that is ~W/2 cycles of pure
// replay per run, the dominant cost of a large campaign. The paper's AWAN
// flow instead *reloads checkpoints* between injections (§2, Figure 1). This
// store reproduces that: during one extra fault-free replay it snapshots the
// machine every K cycles, and the runner warm-starts each injection from the
// nearest checkpoint at or before the fault cycle, fast-forwarding only the
// remainder (expected K/2 cycles instead of W/2).
//
// Checkpoints are stored XOR-delta + zero-run encoded against their stored
// predecessor, with a full snapshot every kFullEvery records to bound the
// reconstruction chain. The reference execution is deterministic and a
// snapshot captures *all* machine state (latches + aux: arrays, main store,
// scrub cursor), so a restored state at cycle c is by construction equal to
// the replayed state at cycle c — the builder asserts this against the
// golden trace's per-cycle registry hash.
//
// Build once (single-threaded, cycles strictly increasing), then share
// read-only: materialize() only touches immutable data and caller storage,
// so any number of workers may reconstruct checkpoints concurrently.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "emu/emulator.hpp"

namespace sfi::emu {

struct GoldenTrace;

/// Sentinel interval: pick K automatically from the window size and the
/// memory budget (campaign/beam config default).
inline constexpr Cycle kCkptAuto = ~Cycle{0};

struct CheckpointStoreConfig {
  /// Snapshot every `interval` cycles; 0 = auto from window + budget.
  Cycle interval = 0;
  /// Bound on resident encoded bytes: once reached, further snapshots are
  /// dropped (runs fall back to the nearest earlier checkpoint).
  u64 memory_budget_bytes = 64ull << 20;
};

class CheckpointStore {
 public:
  CheckpointStore() = default;
  explicit CheckpointStore(const CheckpointStoreConfig& cfg)
      : budget_bytes_(cfg.memory_budget_bytes) {}

  /// Append a snapshot. Cycles must be strictly increasing and every
  /// checkpoint must describe the same machine (same latch/aux sizes).
  void add(const Checkpoint& cp);

  [[nodiscard]] std::size_t size() const { return recs_.size(); }
  [[nodiscard]] bool empty() const { return recs_.empty(); }

  /// Index of the latest checkpoint with cycle <= c, if any.
  [[nodiscard]] std::optional<std::size_t> index_at_or_before(Cycle c) const;
  [[nodiscard]] Cycle cycle_at(std::size_t idx) const;

  /// Reconstruct checkpoint `idx` into `out` (resized as needed; restores
  /// in place on repeat calls). Thread-safe: const, writes only to `out`.
  void materialize(std::size_t idx, Checkpoint& out) const;

  /// Encoded bytes held resident (deltas + periodic full snapshots).
  [[nodiscard]] u64 resident_bytes() const { return resident_bytes_; }
  /// Snapshots dropped because the memory budget was reached.
  [[nodiscard]] u64 dropped() const { return dropped_; }

  /// The interval the store was built at (reporting only).
  [[nodiscard]] Cycle interval() const { return interval_; }
  void set_interval(Cycle k) { interval_ = k; }

 private:
  struct Rec {
    Cycle cycle = 0;
    std::size_t base = 0;       ///< index of this chain's full snapshot
    bool full = false;
    /// Zero-run encoding: alternating (skip, literal_count) word pairs.
    std::vector<u32> runs;
    /// Literal payload: raw words (full) or XOR-vs-predecessor (delta).
    std::vector<u64> words;
  };

  void flatten(const Checkpoint& cp, std::vector<u64>& out) const;
  void apply(const Rec& r, Checkpoint& out, bool xor_mode) const;
  void write_words(Checkpoint& out, std::size_t pos, const u64* src,
                   std::size_t count, bool xor_mode) const;

  /// A full (non-delta) snapshot every kFullEvery records bounds
  /// reconstruction to at most kFullEvery-1 delta applications.
  static constexpr std::size_t kFullEvery = 16;

  std::vector<Rec> recs_;
  u64 budget_bytes_ = 64ull << 20;
  Cycle interval_ = 0;
  u64 resident_bytes_ = 0;
  u64 dropped_ = 0;

  // machine dimensions, fixed by the first add()
  u32 num_bits_ = 0;
  std::size_t latch_words_ = 0;
  std::size_t aux_bytes_ = 0;
  std::size_t total_words_ = 0;

  // builder scratch (unused after the last add)
  std::vector<u64> prev_flat_;
  std::vector<u64> cur_flat_;
  std::size_t last_full_ = 0;
};

/// Auto interval: conservatively assume every stored checkpoint costs a full
/// snapshot, fit as many as the budget allows (clamped to [2, 4096]) and
/// spread them over the window.
[[nodiscard]] Cycle auto_checkpoint_interval(Cycle last_cycle,
                                             std::size_t snapshot_bytes,
                                             u64 budget_bytes);

/// Build a store by replaying the emulator's loaded workload fault-free from
/// reset through `last_cycle`, snapshotting every K cycles (K from `cfg`,
/// auto-tuned when cfg.interval == 0). When `trace` is given, every snapshot
/// is asserted equal to the golden trace's registry hash at that cycle —
/// the determinism guarantee that makes warm-started injections bit-exact.
/// The emulator is left at `last_cycle`.
[[nodiscard]] CheckpointStore build_checkpoint_store(
    Emulator& emu, Cycle last_cycle, const CheckpointStoreConfig& cfg = {},
    const GoldenTrace* trace = nullptr);

}  // namespace sfi::emu
