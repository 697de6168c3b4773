// GoldenTrace: the fault-free reference execution.
//
// Before a campaign, the workload is run once without faults and the
// per-cycle fingerprint of the functional latch state is recorded. An
// injected run that re-matches the fingerprint at the same cycle — with a
// clean RAS status — has provably converged back onto the fault-free
// execution and can be classified VANISHED immediately. This early exit is
// what makes software SFI approach hardware-emulation campaign sizes.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "emu/emulator.hpp"
#include "isa/arch_state.hpp"

namespace sfi::emu {

struct GoldenTrace {
  /// hash[c] = functional-state fingerprint observed at the *end* of cycle c
  /// (i.e. the state entering cycle c+1). Recorded until completion+margin.
  std::vector<u64> hashes;

  /// Optional masked state matrix: words[c * word_stride + i] is state word
  /// i AND-ed with hash mask i at the end of cycle c. When present, the
  /// injection runner's per-cycle convergence poll is an exact word compare
  /// (collision-free and cheaper than hashing — a diverged state usually
  /// differs in the first few words). Empty unless requested at recording
  /// time: campaigns and beam runs pay the ~(cycles × state bytes) memory,
  /// one-off diagnostic runs don't need to.
  std::vector<u64> masked_words;
  u32 word_stride = 0;

  /// One reference step's accesses to one state word: the bits the step
  /// that produced the state at `cycle` read and wrote (AccessRecorder
  /// sets; a read-modify-write is in both).
  struct WordAccess {
    u64 reads = 0;
    u64 writes = 0;
    Cycle cycle = 0;
  };
  /// Access timeline, recorded with the masked states: accesses[w] lists,
  /// in cycle order, every reference step up to completion that touched
  /// state word w. Empty when states are not recorded or past the memory
  /// cap.
  std::vector<std::vector<WordAccess>> accesses;
  /// Latch bits the classifier peeks at (Model::ras_status and
  /// Model::arch_state, one word mask each): data-independent field reads,
  /// so one recorded probe gives them. Empty exactly when there is no
  /// timeline.
  std::vector<u64> peek_reads;

  /// Cycle at which the workload's STOP was first observed complete.
  Cycle completion_cycle = 0;
  bool completed = false;

  /// Architected state at completion (equals the ISA golden model's result
  /// for a correct core — asserted by the integration tests).
  isa::ArchState final_state;

  /// Fingerprint valid at cycle c?
  [[nodiscard]] bool has_cycle(Cycle c) const { return c < hashes.size(); }
  /// Masked per-cycle states recorded (and for every hashed cycle)?
  [[nodiscard]] bool has_states() const { return word_stride != 0; }
  /// Masked reference state at the end of cycle c (requires has_states()).
  [[nodiscard]] const u64* masked_state(Cycle c) const {
    return masked_words.data() + c * word_stride;
  }
  /// Access timeline and peek set recorded?
  [[nodiscard]] bool has_timeline() const { return !peek_reads.empty(); }
  /// The first reference step after cycle `after` that touches any of
  /// `bits` in state word `word` (nullptr: none up to completion). Requires
  /// has_timeline().
  [[nodiscard]] const WordAccess* first_access(u32 word, u64 bits,
                                               Cycle after) const;
  /// Resident bytes of the access timeline and peek set.
  [[nodiscard]] u64 timeline_bytes() const;
};

/// Run the emulator's current workload fault-free from reset and record the
/// trace. `margin` extra cycles are recorded past completion so that
/// injections landing near the end still have reference fingerprints.
/// The emulator is left in the completed state. With `record_states` the
/// per-cycle masked state and the access timeline are kept alongside the
/// hashes (each up to an internal memory cap, after which recording
/// silently degrades to hashes only; no states means no timeline).
[[nodiscard]] GoldenTrace record_golden_trace(Emulator& emu, Cycle max_cycles,
                                              Cycle margin = 64,
                                              bool record_states = false);

}  // namespace sfi::emu
