// Latch metadata: the taxonomy the paper's experiments slice by.
//
// Figure 3/4 slice flips by microarchitectural *unit* (IFU..RUT, Core
// pervasive); Figure 5 slices by *latch type* (scan-only MODE/GPTR vs
// read-write REGFILE/FUNC). Every latch bit in the model carries both tags
// plus a scan-ring id, mirroring how a real design's scan chains are
// enumerated for injection.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace sfi::netlist {

/// Microarchitectural unit owning a latch (paper Figure 3 categories).
enum class Unit : u8 {
  IFU,   ///< instruction fetch unit
  IDU,   ///< instruction decode/dispatch unit
  FXU,   ///< fixed point unit (incl. GPR file)
  FPU,   ///< floating point unit (incl. FPR file)
  LSU,   ///< load/store unit (incl. D-cache control, store queue)
  RUT,   ///< recovery unit
  Core,  ///< core pervasive logic (FIRs, hang detection, scan control)
};
inline constexpr std::size_t kNumUnits = 7;

/// Latch type (paper Figure 5 categories).
enum class LatchType : u8 {
  Func,     ///< pipeline/read-write functional latch
  RegFile,  ///< register-file latch (read-write)
  Mode,     ///< scan-only configuration latch
  Gptr,     ///< scan-only general-purpose test register latch
};
inline constexpr std::size_t kNumLatchTypes = 4;

[[nodiscard]] constexpr std::string_view to_string(Unit u) {
  constexpr std::array<std::string_view, kNumUnits> names = {
      "IFU", "IDU", "FXU", "FPU", "LSU", "RUT", "Core"};
  return names[static_cast<std::size_t>(u)];
}

[[nodiscard]] constexpr std::string_view to_string(LatchType t) {
  constexpr std::array<std::string_view, kNumLatchTypes> names = {
      "FUNC", "REGFILE", "MODE", "GPTR"};
  return names[static_cast<std::size_t>(t)];
}

/// True for latches that hold their value across the whole functional run
/// (written only through the scan interface).
[[nodiscard]] constexpr bool is_scan_only(LatchType t) {
  return t == LatchType::Mode || t == LatchType::Gptr;
}

inline constexpr std::array<Unit, kNumUnits> kAllUnits = {
    Unit::IFU, Unit::IDU, Unit::FXU, Unit::FPU,
    Unit::LSU, Unit::RUT, Unit::Core};

inline constexpr std::array<LatchType, kNumLatchTypes> kAllLatchTypes = {
    LatchType::Func, LatchType::RegFile, LatchType::Mode, LatchType::Gptr};

/// What a field is to the recovery-tail certificate (DESIGN §16, "Recovery
/// tails"), declared next to `hashable`. A recovered run re-executes the
/// reference late; these are the latches it may legitimately still differ in.
enum class LatchRole : u8 {
  Plain,
  /// A free-running scrubber's phase: a scrub of ECC-clean storage changes
  /// nothing but the phase itself, so two machines out of phase behave alike.
  Phase,
  /// A RAS event counter the classifier copies into the record (recoveries,
  /// corrections): a run's own count, never compared with the reference's.
  Tally,
};

/// Static description of one registered latch field (a named group of
/// adjacent bits sharing unit/type/ring).
struct LatchMeta {
  std::string name;      ///< hierarchical name, e.g. "lsu.stq3.data"
  Unit unit = Unit::Core;
  LatchType type = LatchType::Func;
  u8 scan_ring = 0;      ///< scan-ring id used for ring-targeted injection
  u32 bit_offset = 0;    ///< first bit position in the StateVector
  u32 width = 0;         ///< number of bits
  u32 ordinal_start = 0; ///< first injectable-latch ordinal of this field
  bool hashable = true;  ///< participates in the golden-trace state hash
  LatchRole role = LatchRole::Plain;
};

}  // namespace sfi::netlist
