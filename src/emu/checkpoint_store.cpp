#include "emu/checkpoint_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "emu/golden_trace.hpp"

namespace sfi::emu {

namespace {

/// Approximate heap footprint of one record beyond its payload vectors.
constexpr u64 kRecOverheadBytes = 64;

u64 rec_bytes(const std::vector<u32>& runs, const std::vector<u64>& words) {
  return kRecOverheadBytes + runs.size() * sizeof(u32) +
         words.size() * sizeof(u64);
}

}  // namespace

void CheckpointStore::flatten(const Checkpoint& cp,
                              std::vector<u64>& out) const {
  out.resize(total_words_);
  const auto words = cp.latches.words();
  std::copy(words.begin(), words.end(), out.begin());
  std::size_t pos = latch_words_;
  for (std::size_t off = 0; off < aux_bytes_; off += 8) {
    const std::size_t n = std::min<std::size_t>(8, aux_bytes_ - off);
    u64 w = 0;
    std::memcpy(&w, cp.aux.data() + off, n);
    out[pos++] = w;
  }
}

void CheckpointStore::add(const Checkpoint& cp) {
  if (recs_.empty()) {
    num_bits_ = cp.latches.num_bits();
    latch_words_ = cp.latches.words().size();
    aux_bytes_ = cp.aux.size();
    total_words_ = latch_words_ + (aux_bytes_ + 7) / 8;
  } else {
    require(cp.latches.num_bits() == num_bits_ && cp.aux.size() == aux_bytes_,
            "CheckpointStore: snapshot dimensions changed mid-build");
    require(cp.cycle > recs_.back().cycle,
            "CheckpointStore: cycles must be strictly increasing");
  }
  flatten(cp, cur_flat_);

  Rec r;
  r.cycle = cp.cycle;
  r.full = recs_.empty() || (recs_.size() - last_full_) >= kFullEvery;
  if (r.full) {
    r.base = recs_.size();
    r.runs = {0, static_cast<u32>(total_words_)};
    r.words = cur_flat_;
  } else {
    r.base = last_full_;
    // XOR + zero-run encode vs the previous *stored* snapshot.
    std::size_t pos = 0;
    while (pos < total_words_) {
      std::size_t skip = pos;
      while (skip < total_words_ && cur_flat_[skip] == prev_flat_[skip]) {
        ++skip;
      }
      if (skip == total_words_) break;
      std::size_t end = skip;
      while (end < total_words_ && cur_flat_[end] != prev_flat_[end]) ++end;
      r.runs.push_back(static_cast<u32>(skip - pos));
      r.runs.push_back(static_cast<u32>(end - skip));
      for (std::size_t i = skip; i < end; ++i) {
        r.words.push_back(cur_flat_[i] ^ prev_flat_[i]);
      }
      pos = end;
    }
  }

  const u64 bytes = rec_bytes(r.runs, r.words);
  if (!recs_.empty() && resident_bytes_ + bytes > budget_bytes_) {
    // Budget reached: drop this snapshot. prev_flat_ keeps describing the
    // last *stored* record, so later deltas stay chain-consistent.
    ++dropped_;
    return;
  }
  if (r.full) last_full_ = recs_.size();
  resident_bytes_ += bytes;
  recs_.push_back(std::move(r));
  std::swap(prev_flat_, cur_flat_);
}

std::optional<std::size_t> CheckpointStore::index_at_or_before(
    Cycle c) const {
  if (recs_.empty() || recs_.front().cycle > c) return std::nullopt;
  const auto it = std::upper_bound(
      recs_.begin(), recs_.end(), c,
      [](Cycle cycle, const Rec& r) { return cycle < r.cycle; });
  return static_cast<std::size_t>(it - recs_.begin()) - 1;
}

Cycle CheckpointStore::cycle_at(std::size_t idx) const {
  require(idx < recs_.size(), "CheckpointStore::cycle_at out of range");
  return recs_[idx].cycle;
}

void CheckpointStore::write_words(Checkpoint& out, std::size_t pos,
                                  const u64* src, std::size_t count,
                                  bool xor_mode) const {
  // Latch words first, then aux bytes in 8-byte words (the last possibly
  // short): a run of literals is copied or XOR-ed in bulk.
  const auto latches = out.latches.words_mut();
  for (; count > 0 && pos < latch_words_; --count, ++pos, ++src) {
    latches[pos] = xor_mode ? latches[pos] ^ *src : *src;
  }
  if (count == 0) return;
  u8* aux = out.aux.data() + (pos - latch_words_) * 8;
  const std::size_t bytes = std::min<std::size_t>(
      count * 8, aux_bytes_ - (pos - latch_words_) * 8);
  if (!xor_mode) {
    std::memcpy(aux, src, bytes);
    return;
  }
  for (std::size_t off = 0; off < bytes; off += 8, ++src) {
    const std::size_t n = std::min<std::size_t>(8, bytes - off);
    u64 cur = 0;
    std::memcpy(&cur, aux + off, n);
    cur ^= *src;
    std::memcpy(aux + off, &cur, n);
  }
}

void CheckpointStore::apply(const Rec& r, Checkpoint& out,
                            bool xor_mode) const {
  std::size_t pos = 0;
  std::size_t lit = 0;
  for (std::size_t i = 0; i + 1 < r.runs.size(); i += 2) {
    pos += r.runs[i];
    const u32 count = r.runs[i + 1];
    write_words(out, pos, r.words.data() + lit, count, xor_mode);
    pos += count;
    lit += count;
  }
  ensure(lit == r.words.size(), "CheckpointStore: corrupt run encoding");
}

void CheckpointStore::materialize(std::size_t idx, Checkpoint& out) const {
  require(idx < recs_.size(), "CheckpointStore::materialize out of range");
  if (out.latches.num_bits() != num_bits_) {
    out.latches = netlist::StateVector(num_bits_);
  }
  out.aux.resize(aux_bytes_);
  const Rec& r = recs_[idx];
  apply(recs_[r.base], out, /*xor_mode=*/false);
  for (std::size_t j = r.base + 1; j <= idx; ++j) {
    apply(recs_[j], out, /*xor_mode=*/true);
  }
  out.cycle = r.cycle;
}

Cycle auto_checkpoint_interval(Cycle last_cycle, std::size_t snapshot_bytes,
                               u64 budget_bytes) {
  const u64 max_ckpts = std::clamp<u64>(
      budget_bytes / std::max<u64>(snapshot_bytes, 1), 2, 4096);
  return std::max<Cycle>(1, (last_cycle + max_ckpts - 1) / max_ckpts);
}

CheckpointStore build_checkpoint_store(Emulator& emu, Cycle last_cycle,
                                       const CheckpointStoreConfig& cfg,
                                       const GoldenTrace* trace) {
  emu.reset();
  Cycle interval = cfg.interval;
  if (interval == 0) {
    const Checkpoint probe = emu.save_checkpoint();
    interval = auto_checkpoint_interval(last_cycle, probe.size_bytes(),
                                        cfg.memory_budget_bytes);
  }
  CheckpointStore store(cfg);
  store.set_interval(interval);
  const auto& masks = emu.model().registry().hash_masks();
  for (Cycle c = 1; c <= last_cycle; ++c) {
    emu.step();
    if (c % interval != 0) continue;
    const Checkpoint cp = emu.save_checkpoint();
    if (trace != nullptr && trace->has_cycle(c - 1)) {
      ensure(cp.latches.masked_hash(masks) == trace->hashes[c - 1],
             "checkpoint diverged from the golden trace: the reference "
             "execution is not deterministic");
    }
    store.add(cp);
  }
  return store;
}

}  // namespace sfi::emu
