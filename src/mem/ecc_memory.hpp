// EccMemory: the main-store side of the machine — SEC-DED protected DRAM
// behind a memory controller.
//
// This implements the paper's stated future work ("fault injections in the
// periphery of the core, such as the ... memory subsystem"): every aligned
// 64-bit word carries Hamming(72,64) check bits, the controller verifies and
// corrects on every access (scrub-on-access write-back), a background
// patrol scrubber sweeps the whole store, and uncorrectable words are
// reported as fatal. Storage bits (data + check) are injectable, so beam
// strikes and targeted periphery campaigns reach main store exactly like
// core latches.
//
// The controller sits at the machine's access chokepoints (cache refills,
// uncached loads, store drains); the ISA golden model keeps its own plain
// memory — ECC is a microarchitectural mechanism, invisible when it works.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/aux_sig.hpp"
#include "common/types.hpp"
#include "isa/memory.hpp"

namespace sfi::mem {

class EccMemory {
 public:
  explicit EccMemory(u32 size_bytes);

  [[nodiscard]] u32 size() const { return data_.size(); }

  // --- controller accesses (verify containing words, then read/write) ---
  [[nodiscard]] u64 load(u64 addr, u32 size);
  [[nodiscard]] u64 load_u32(u64 addr) { return load(addr, 4); }
  [[nodiscard]] u64 load_u64(u64 addr) { return load(addr, 8); }
  void store(u64 addr, u64 v, u32 size);

  /// Bulk image write with check-bit regeneration (program loading).
  void write_block(u64 addr, std::span<const u8> bytes);
  void fill_zero();

  /// Patrol scrubber: call once per cycle; verifies one word every
  /// `kScrubInterval` cycles.
  static constexpr u32 kScrubInterval = 16;
  void scrub_step();

  /// Corrected-word events since the last call (reported into the machine's
  /// corrected counters by the model).
  [[nodiscard]] u32 take_corrected();
  /// An uncorrectable word was accessed since the last call (fatal).
  [[nodiscard]] bool take_fatal();

  /// Hash of the *corrected view* of a byte range: what software would read.
  /// Verifies (and thereby corrects) every touched word first.
  [[nodiscard]] u64 corrected_hash(u64 addr, u32 len);

  /// Exact compare against an encoded-image snapshot (data bytes followed by
  /// one check byte per word, as produced by a fault-free machine). When the
  /// images are bit-identical every word decodes clean, so a readout walk
  /// would correct nothing and report nothing — callers may skip it. This is
  /// the classifier's fast path; it has no side effects.
  [[nodiscard]] bool encoded_image_equals(std::span<const u8> image) const;

  /// Raw injectable storage: data bits then, per word, 8 check bits.
  [[nodiscard]] u64 storage_bits() const {
    return static_cast<u64>(num_words()) * 72;
  }
  void flip_storage_bit(u64 bit);

  /// The raw byte image (tests/diagnostics; bypasses the controller).
  [[nodiscard]] const isa::Memory& raw() const { return data_; }
  [[nodiscard]] isa::Memory& raw() { return data_; }

  void save(std::vector<u8>& out) const;
  void load_snapshot(std::span<const u8>& in);

  /// Where save() puts the patrol scrubber's cursor (word and timer) in the
  /// bytes it appends: {offset, size}. A scrub of a clean word changes
  /// nothing, so the cursor is phase, not state (DESIGN §16).
  [[nodiscard]] std::pair<std::size_t, std::size_t> patrol_in_save() const {
    return {data_.size() + check_.size() + 2 * sizeof(u32), 2 * sizeof(u32)};
  }

  /// Attach a mutation signature (common/aux_sig.hpp). Stores, correcting
  /// write-backs, fatal-word detections and storage flips fold into it;
  /// snapshot load/save, program loading and fill_zero do not.
  void set_aux_sig(AuxSig* sig) { aux_sig_ = sig; }

 private:
  [[nodiscard]] u32 num_words() const { return data_.size() / 8; }
  [[nodiscard]] u32 word_of(u64 addr) const {
    return (static_cast<u32>(addr) & (data_.size() - 1)) / 8;
  }
  /// Verify/correct one aligned word; updates the event counters.
  void verify_word(u32 word);
  void encode_word(u32 word);

  isa::Memory data_;
  std::vector<u8> check_;
  u32 corrected_pending_ = 0;
  bool fatal_pending_ = false;
  u32 scrub_pos_ = 0;
  u32 scrub_timer_ = 0;
  AuxSig* aux_sig_ = nullptr;
};

}  // namespace sfi::mem
