#include "netlist/registry.hpp"

#include <algorithm>
#include <array>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace sfi::netlist {

FieldRef LatchRegistry::add(std::string name, Unit unit, LatchType type,
                            u8 scan_ring, u32 width, bool hashable,
                            LatchRole role) {
  require(!finalized_, "LatchRegistry::add after finalize");
  require(width >= 1 && width <= 64, "field width in [1,64]");

  // Keep every field inside one 64-bit word for single-load access.
  const u32 word_remainder = 64 - (next_bit_ % 64);
  if (width > word_remainder) next_bit_ += word_remainder;

  LatchMeta meta;
  meta.name = std::move(name);
  meta.unit = unit;
  meta.type = type;
  meta.scan_ring = scan_ring;
  meta.bit_offset = next_bit_;
  meta.width = width;
  meta.ordinal_start = next_ordinal_;
  // `hashable` is authoritative. Callers exclude free-running counters and
  // *benign* scan-only latches (their flips provably cannot alter
  // execution, so golden-trace convergence stays sound); scan-only bits
  // with functional reach (clock stops, error forcing, scan enables) MUST
  // stay hashable — a flip there never re-converges and therefore never
  // takes the early exit.
  meta.hashable = hashable;
  meta.role = role;

  next_bit_ += width;
  next_ordinal_ += width;
  fields_.push_back(std::move(meta));
  return FieldRef{fields_.back().bit_offset, width};
}

void LatchRegistry::add_ring(LatchRing ring) {
  require(!finalized_, "LatchRegistry::add_ring after finalize");
  const std::size_t n = ring.slots.size();
  require(n >= 2, "a ring has at least two slots");
  require(mask_low(ring.head.width) >= n - 1 &&
              mask_low(ring.tail.width) >= n - 1,
          "ring pointers must address every slot");
  const std::vector<FieldRef>& first = ring.slots.front();
  require(!first.empty() && n * first.size() <= LatchRing::kMaxFields,
          "ring slots hold 1..LatchRing::kMaxFields/N fields");
  for (const std::vector<FieldRef>& slot : ring.slots) {
    require(slot.size() == first.size(), "ring slots differ in layout");
    for (std::size_t j = 0; j < slot.size(); ++j) {
      require(slot[j].width == first[j].width, "ring slots differ in layout");
    }
  }
  rings_.push_back(std::move(ring));
}

void LatchRegistry::finalize() {
  require(!finalized_, "LatchRegistry::finalize called twice");
  require(!fields_.empty(), "LatchRegistry::finalize with no fields");
  finalized_ = true;

  const std::size_t words = words_for_bits(next_bit_);
  hash_masks_.assign(words, 0);
  unit_masks_.assign(words * kNumUnits, 0);
  type_masks_.assign(words * kNumLatchTypes, 0);
  phase_masks_.assign(words, 0);
  tally_masks_.assign(words, 0);
  for (const LatchMeta& f : fields_) {
    const u32 word = f.bit_offset / 64;
    const u32 lsb = f.bit_offset % 64;
    ensure(lsb + f.width <= 64, "field straddles a word");
    const u64 m = mask_low(f.width) << lsb;
    if (f.role == LatchRole::Phase) phase_masks_[word] |= m;
    if (f.role == LatchRole::Tally) tally_masks_[word] |= m;
    if (!f.hashable) continue;
    hash_masks_[word] |= m;
    unit_masks_[static_cast<std::size_t>(f.unit) * words + word] |= m;
    type_masks_[static_cast<std::size_t>(f.type) * words + word] |= m;
  }
}

std::size_t LatchRegistry::field_index_of_ordinal(u32 ordinal) const {
  require(ordinal < next_ordinal_, "ordinal out of range");
  // Binary search for the last field with ordinal_start <= ordinal.
  auto it = std::upper_bound(
      fields_.begin(), fields_.end(), ordinal,
      [](u32 ord, const LatchMeta& m) { return ord < m.ordinal_start; });
  ensure(it != fields_.begin(), "ordinal before first field");
  return static_cast<std::size_t>(std::distance(fields_.begin(), it)) - 1;
}

BitIndex LatchRegistry::bit_of_ordinal(u32 ordinal) const {
  const LatchMeta& m = fields_[field_index_of_ordinal(ordinal)];
  return m.bit_offset + (ordinal - m.ordinal_start);
}

const LatchMeta& LatchRegistry::meta_of_ordinal(u32 ordinal) const {
  return fields_[field_index_of_ordinal(ordinal)];
}

std::string LatchRegistry::name_of_ordinal(u32 ordinal) const {
  const LatchMeta& m = meta_of_ordinal(ordinal);
  const u32 bit = ordinal - m.ordinal_start;
  if (m.width == 1) return m.name;
  return m.name + "[" + std::to_string(bit) + "]";
}

std::vector<u32> LatchRegistry::collect_ordinals(
    const std::function<bool(const LatchMeta&)>& pred) const {
  std::vector<u32> out;
  for (const LatchMeta& m : fields_) {
    if (!pred(m)) continue;
    for (u32 i = 0; i < m.width; ++i) out.push_back(m.ordinal_start + i);
  }
  return out;
}

std::array<u32, kNumUnits> LatchRegistry::latch_count_by_unit() const {
  std::array<u32, kNumUnits> counts{};
  for (const LatchMeta& m : fields_) {
    counts[static_cast<std::size_t>(m.unit)] += m.width;
  }
  return counts;
}

std::array<u32, kNumLatchTypes> LatchRegistry::latch_count_by_type() const {
  std::array<u32, kNumLatchTypes> counts{};
  for (const LatchMeta& m : fields_) {
    counts[static_cast<std::size_t>(m.type)] += m.width;
  }
  return counts;
}

const std::vector<u64>& LatchRegistry::hash_masks() const {
  require(finalized_, "hash_masks before finalize");
  return hash_masks_;
}

const std::vector<u64>& LatchRegistry::unit_masks() const {
  require(finalized_, "unit_masks before finalize");
  return unit_masks_;
}

const std::vector<u64>& LatchRegistry::type_masks() const {
  require(finalized_, "type_masks before finalize");
  return type_masks_;
}

const std::vector<u64>& LatchRegistry::phase_masks() const {
  require(finalized_, "phase_masks before finalize");
  return phase_masks_;
}

const std::vector<u64>& LatchRegistry::tally_masks() const {
  require(finalized_, "tally_masks before finalize");
  return tally_masks_;
}

namespace {

u64 read_field(std::span<const u64> words, FieldRef f) {
  return extract(words[f.bit_offset / 64], f.bit_offset % 64, f.width);
}

void write_field(std::span<u64> words, FieldRef f, u64 v) {
  u64& w = words[f.bit_offset / 64];
  w = insert(w, f.bit_offset % 64, f.width, v);
}

}  // namespace

u32 ring_head(std::span<const u64> words, const LatchRing& ring) {
  return static_cast<u32>(read_field(words, ring.head) % ring.slots.size());
}

void rotate_ring(std::span<u64> words, const LatchRing& ring, u32 delta) {
  const std::size_t n = ring.slots.size();
  delta %= n;
  if (delta == 0) return;
  const std::size_t per = ring.slots.front().size();
  std::array<u64, LatchRing::kMaxFields> held{};
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t j = 0; j < per; ++j) {
      held[s * per + j] = read_field(words, ring.slots[s][j]);
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t to = (s + delta) % n;
    for (std::size_t j = 0; j < per; ++j) {
      write_field(words, ring.slots[to][j], held[s * per + j]);
    }
  }
  for (const FieldRef p : {ring.head, ring.tail}) {
    write_field(words, p, (read_field(words, p) + delta) % n);
  }
}

}  // namespace sfi::netlist
