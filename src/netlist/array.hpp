// Protected SRAM-like arrays.
//
// The paper distinguishes latches from arrays: arrays (register-file
// checkpoints in the RUT, cache data) are parity- or ECC-protected, so beam
// strikes on them are overwhelmingly *corrected* events, and latch-mode SFI
// (what the paper injects) does not target them. We model them explicitly so
// that (a) the beam simulator can strike them and (b) the recovery paths that
// read them exercise real encode/decode logic.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/aux_sig.hpp"
#include "common/types.hpp"
#include "netlist/ecc.hpp"
#include "netlist/latch.hpp"

namespace sfi::netlist {

enum class ArrayProtection : u8 {
  Parity,  ///< 1 check bit per entry: detects, cannot correct
  SecDed,  ///< Hamming(72,64)+parity: corrects 1 bit, detects 2
};

/// Outcome of reading one protected entry.
enum class ArrayReadStatus : u8 {
  Clean,      ///< no error
  Corrected,  ///< single-bit error corrected in-line (ECC arrays only)
  Detected,   ///< error detected but not correctable in-line
};

class ProtectedArray {
 public:
  ProtectedArray(std::string name, Unit unit, ArrayProtection prot,
                 u32 num_entries, u32 data_width);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Unit unit() const { return unit_; }
  [[nodiscard]] ArrayProtection protection() const { return prot_; }
  [[nodiscard]] u32 num_entries() const { return num_entries_; }
  [[nodiscard]] u32 data_width() const { return data_width_; }

  /// Total raw storage bits (data + check), the beam's target space.
  [[nodiscard]] u64 storage_bits() const {
    return static_cast<u64>(num_entries_) * (data_width_ + check_width_);
  }

  /// Store a value, regenerating check bits.
  void write(u32 entry, u64 value);

  struct ReadResult {
    u64 value = 0;
    ArrayReadStatus status = ArrayReadStatus::Clean;
  };

  /// Read and verify/correct an entry. Corrections are written back
  /// (hardware scrub-on-read), so repeated reads of a corrected entry are
  /// Clean.
  ReadResult read(u32 entry);

  /// Verify/correct an entry *without* writing back (no scrub side effect).
  /// For out-of-band state extraction; the cycle loop uses read().
  [[nodiscard]] ReadResult peek_decoded(u32 entry) const;

  /// Raw entry inspection without verification (diagnostics/tests).
  [[nodiscard]] u64 raw_data(u32 entry) const;
  [[nodiscard]] u8 raw_check(u32 entry) const;

  /// Flip one raw storage bit (beam injection). `bit` indexes the array's
  /// storage as entry-major: [entry][data bits..., check bits...].
  void flip_storage_bit(u64 bit);

  void fill_zero();

  /// Snapshot support (checkpoint/reload).
  void save(std::vector<u8>& out) const;
  void load(std::span<const u8>& in);

  /// Attach a mutation signature (common/aux_sig.hpp). Every content change
  /// made through the access API (write, scrub-on-read, flips) folds into
  /// it; snapshot load/save and fill_zero do not (they are machine
  /// lifecycle, not cycle behaviour). `salt` distinguishes instances.
  void set_aux_sig(AuxSig* sig, u64 salt) {
    aux_sig_ = sig;
    aux_salt_ = salt;
  }

 private:
  std::string name_;
  Unit unit_;
  ArrayProtection prot_;
  u32 num_entries_;
  u32 data_width_;
  u32 check_width_;
  std::vector<u64> data_;
  std::vector<u8> check_;
  AuxSig* aux_sig_ = nullptr;
  u64 aux_salt_ = 0;
};

/// Inventory of all protected arrays in a model; the beam simulator draws
/// strike targets from (latch bits ∪ array storage bits) through this.
class ArrayRegistry {
 public:
  void add(ProtectedArray& arr);
  [[nodiscard]] std::size_t num_arrays() const { return arrays_.size(); }
  [[nodiscard]] u64 total_storage_bits() const { return total_bits_; }
  [[nodiscard]] std::span<ProtectedArray* const> arrays() const {
    return arrays_;
  }

  /// Map a global storage-bit index to (array, local bit).
  struct Target {
    ProtectedArray* array = nullptr;
    u64 local_bit = 0;
  };
  [[nodiscard]] Target locate(u64 global_bit) const;

 private:
  std::vector<ProtectedArray*> arrays_;
  std::vector<u64> cumulative_bits_;
  u64 total_bits_ = 0;
};

}  // namespace sfi::netlist
