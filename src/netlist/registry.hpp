// LatchRegistry: the model's latch inventory.
//
// During model construction every unit registers its latch fields here; the
// registry assigns each field a bit range in the StateVector and an
// *injectable ordinal* range. Ordinals number real latch bits densely
// (0..num_latches-1) with no padding, so "choose k random latches from all
// latches in the design" (paper Figure 1, step 2) is a uniform draw over
// ordinals.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "netlist/latch.hpp"

namespace sfi::netlist {

/// Lightweight handle to a registered field; used by Field accessors.
struct FieldRef {
  u32 bit_offset = 0;
  u32 width = 0;
};

/// A circular buffer a unit declares over its fields: equal-layout slots
/// addressed by a head and a tail pointer (mod the slot count). Rotating it
/// by d moves slot i's fields to slot (i + d) mod N and adds d to both
/// pointers; an entry count, being rotation-free, is not part of it. A
/// pipeline flush resets such pointers to slot 0, so a recovered run holds
/// the reference's entries rotated (DESIGN §16, "Recovery tails").
struct LatchRing {
  /// Bound on slots x fields per slot (rotation holds them on the stack).
  static constexpr std::size_t kMaxFields = 64;
  std::vector<std::vector<FieldRef>> slots;  ///< slot-major, same widths
  FieldRef head;
  FieldRef tail;
};

/// The ring's head pointer in a state image, mod its slot count.
[[nodiscard]] u32 ring_head(std::span<const u64> words, const LatchRing& ring);
/// Rotate `ring` by `delta` slots in a state image.
void rotate_ring(std::span<u64> words, const LatchRing& ring, u32 delta);

class LatchRegistry {
 public:
  LatchRegistry() = default;

  /// Register a latch field of `width` bits (1..64). Fields never straddle a
  /// 64-bit word: the allocator pads to the next word when needed (padding
  /// bits are not injectable and not hashed). `hashable` is authoritative:
  /// pass false ONLY for state a flip provably cannot feed back into
  /// execution (free-running counters, engineering spares, benign scan-only
  /// configuration) — the golden-trace early exit's soundness rests on it.
  /// `role` marks the latches a recovered run may differ in and still be
  /// the reference running late (LatchRole).
  FieldRef add(std::string name, Unit unit, LatchType type, u8 scan_ring,
               u32 width, bool hashable = true,
               LatchRole role = LatchRole::Plain);

  /// Declare a ring over registered fields (before finalize()).
  void add_ring(LatchRing ring);
  [[nodiscard]] const std::vector<LatchRing>& rings() const { return rings_; }

  /// Freeze the registry: computes per-word hash masks and ordinal lookup
  /// structures. No further add() calls are allowed.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Total bits allocated in the StateVector (including padding).
  [[nodiscard]] u32 total_bits() const { return next_bit_; }
  /// Number of injectable latch bits (excludes padding).
  [[nodiscard]] u32 num_latches() const { return next_ordinal_; }
  [[nodiscard]] std::size_t num_fields() const { return fields_.size(); }

  [[nodiscard]] const std::vector<LatchMeta>& fields() const { return fields_; }

  /// Map an injectable ordinal to its StateVector bit index.
  [[nodiscard]] BitIndex bit_of_ordinal(u32 ordinal) const;
  /// Metadata of the field containing an injectable ordinal.
  [[nodiscard]] const LatchMeta& meta_of_ordinal(u32 ordinal) const;
  /// Fully-qualified bit name, e.g. "lsu.stq3.data[17]".
  [[nodiscard]] std::string name_of_ordinal(u32 ordinal) const;

  /// All ordinals whose metadata satisfies `pred`. Used for targeted
  /// injection (per-unit, per-latch-type, per-scan-ring campaigns).
  [[nodiscard]] std::vector<u32> collect_ordinals(
      const std::function<bool(const LatchMeta&)>& pred) const;

  /// Latch-bit counts per unit / per latch type (paper Figure 4 weighting).
  [[nodiscard]] std::array<u32, kNumUnits> latch_count_by_unit() const;
  [[nodiscard]] std::array<u32, kNumLatchTypes> latch_count_by_type() const;

  /// Per-word AND-masks selecting hashable bits; size == words_for_bits
  /// (total_bits). Valid after finalize().
  [[nodiscard]] const std::vector<u64>& hash_masks() const;

  /// Per-unit word masks selecting each unit's *hashable* bits, flattened
  /// group-major: unit_masks()[u * W + w] is unit u's mask for state word w,
  /// with W == hash_masks().size(). The infection tracker's per-unit diff
  /// kernel (StateVector::masked_diff_groups) consumes this layout directly.
  /// Valid after finalize().
  [[nodiscard]] const std::vector<u64>& unit_masks() const;

  /// Same layout per latch type: type_masks()[t * W + w]. Used to decide
  /// whether corruption reached architected (REGFILE) state.
  [[nodiscard]] const std::vector<u64>& type_masks() const;

  /// Per-word masks of the fields declared LatchRole::Phase / ::Tally (same
  /// size as hash_masks()). Valid after finalize().
  [[nodiscard]] const std::vector<u64>& phase_masks() const;
  [[nodiscard]] const std::vector<u64>& tally_masks() const;

 private:
  [[nodiscard]] std::size_t field_index_of_ordinal(u32 ordinal) const;

  std::vector<LatchMeta> fields_;
  std::vector<u64> hash_masks_;
  std::vector<u64> unit_masks_;
  std::vector<u64> type_masks_;
  std::vector<u64> phase_masks_;
  std::vector<u64> tally_masks_;
  std::vector<LatchRing> rings_;
  u32 next_bit_ = 0;
  u32 next_ordinal_ = 0;
  bool finalized_ = false;
};

}  // namespace sfi::netlist
