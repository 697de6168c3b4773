#include "sfi/propagation.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "sfi/campaign.hpp"

namespace sfi::inject {

u32 PropagationRecord::units_crossed() const {
  u32 n = 0;
  for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
    if (u == static_cast<std::size_t>(unit)) continue;
    if (first_corrupt[u] != kNeverCorrupted) ++n;
  }
  return n;
}

bool footprint_should_trace(const FootprintConfig& cfg, u32 index,
                            Outcome outcome) {
  if (!cfg.enabled) return false;
  if (outcome != Outcome::Vanished) return true;
  return cfg.vanished_sample != 0 && index % cfg.vanished_sample == 0;
}

InfectionTracker::InfectionTracker(core::Pearl6Model& model,
                                   const emu::Emulator& emu,
                                   const emu::GoldenTrace& trace,
                                   const avp::GoldenResult& golden,
                                   FootprintConfig cfg)
    : model_(model),
      emu_(emu),
      trace_(trace),
      golden_(golden),
      cfg_(cfg),
      window_(std::max(cfg.max_trace_cycles, kEscapeTraceCycles)) {
  // Footprint diffing needs the recorded per-cycle reference states, not
  // just their hashes (a hash can say "different" but not *where*).
  usable_ = cfg_.enabled && trace_.has_states();
  if (!usable_) return;
  const auto& um = model_.registry().unit_masks();
  const auto& tm = model_.registry().type_masks();
  group_masks_.reserve(um.size() + tm.size());
  group_masks_.insert(group_masks_.end(), um.begin(), um.end());
  group_masks_.insert(group_masks_.end(), tm.begin(), tm.end());
  // The first checker to fire, counted only while observing (the reference
  // fires none, so cycles read off the timeline have none).
  model_.set_cycle_observer(
      [this](const core::Signals& sig, const core::Controls&) {
        if (!open_ || rec_.checker_fired || sig.events.empty()) return;
        const core::CheckerEvent& e = sig.events.front();
        rec_.checker_fired = true;
        rec_.checker = e.id;
        rec_.checker_fatal = e.fatal;
        checker_at_ = offset_ + 1;  // the step under way
      });
}

InfectionTracker::~InfectionTracker() {
  if (usable_) model_.clear_cycle_observer();
}

void InfectionTracker::start(const FaultSpec& fault, const Admission& adm) {
  fault_ = fault;
  rec_ = PropagationRecord{};
  open_ = true;
  offset_ = 0;
  checker_at_ = arch_at_ = kNeverCorrupted;
  readout_due_ = false;
  record_end_.reset();
  if (adm.record) {
    record_end_ = adm.record->end_cycle;
  } else if (adm.entry.cycle != fault.cycle) {
    read_timeline(adm.entry.cycle);
  } else if (fault.cycle >= 1 && trace_.has_cycle(fault.cycle - 1)) {
    // Offset 0: the seed footprint right after the flip (a toggle shows its
    // single bit; a multi-bit upset its cluster; an array strike zero).
    sample_machine(0, trace_.masked_state(fault.cycle - 1));
  }
}

void InfectionTracker::sample_machine(u32 offset, const u64* ref) {
  push_sample(offset, emu_.state().masked_diff_groups(
                          model_.registry().hash_masks(), ref, group_masks_,
                          group_bits_.size(), group_bits_));
}

void InfectionTracker::push_sample(u32 offset, u32 total) {
  constexpr std::size_t kRegFileGroup =
      netlist::kNumUnits + static_cast<std::size_t>(netlist::LatchType::RegFile);
  FootprintSample s;
  s.offset = offset;
  s.total_bits = total;
  std::copy_n(group_bits_.begin(), netlist::kNumUnits, s.unit_bits.begin());
  if (group_bits_[kRegFileGroup] > 0) arch_at_ = std::min(arch_at_, offset);
  rec_.samples.push_back(s);
}

void InfectionTracker::close(u32 offset) {
  open_ = false;
  rec_.rerun_cycles = offset;
}

void InfectionTracker::mask(u32 offset) {
  // Terminal sample: the series returns to zero.
  rec_.masked = true;
  rec_.masked_at = offset;
  FootprintSample zero;
  zero.offset = offset;
  rec_.samples.push_back(zero);
  close(offset);
}

template <class Sample>
void InfectionTracker::advance(u32 offset, bool masked, Sample&& sample) {
  if (masked) return mask(offset);
  if (cfg_.sampling == FootprintSampling::EveryCycle ||
      std::has_single_bit(offset)) {
    sample();
  }
  if (offset >= window_) {
    rec_.truncated = true;
    close(offset);
  }
}

void InfectionTracker::read_timeline(Cycle last) {
  // Until a flipped bit is read the run is the reference plus the flipped
  // bits not yet overwritten (InjectionRunner::admit): its RAS status is
  // the reference's, no checker fires, and a hashed flipped bit differs
  // until the cycle its first access purely overwrites it.
  const netlist::LatchRegistry& reg = model_.registry();
  const auto& masks = reg.hash_masks();
  const std::size_t words = masks.size();
  constexpr Cycle kNever = ~Cycle{0};
  struct Flip {
    BitIndex bit;
    Cycle until;  ///< first cycle the bit no longer differs
  };
  std::array<Flip, kMaxUpsetBits> flips{};
  u32 n = 0;
  for (u32 k = 0; k < std::max<u32>(1, fault_.adjacent_bits); ++k) {
    const u32 ordinal = fault_.index + k;
    if (ordinal >= reg.num_latches()) break;
    const BitIndex bit = reg.bit_of_ordinal(ordinal);
    const u32 w = bit / 64;
    const u64 m = u64{1} << (bit % 64);
    if ((masks[w] & m) == 0) continue;  // never shows in a masked diff
    const emu::GoldenTrace::WordAccess* a =
        trace_.first_access(w, m, fault_.cycle);
    flips[n++] = {bit, a != nullptr && (a->reads & m) == 0 ? a->cycle : kNever};
  }
  const auto sample = [&](u32 offset, Cycle t) {
    group_bits_.fill(0);
    u32 total = 0;
    for (u32 i = 0; i < n; ++i) {
      if (t >= flips[i].until) continue;
      ++total;
      const u32 w = flips[i].bit / 64;
      const u32 b = flips[i].bit % 64;
      for (std::size_t g = 0; g < group_bits_.size(); ++g) {
        group_bits_[g] += (group_masks_[g * words + w] >> b) & 1;
      }
    }
    push_sample(offset, total);
  };

  if (fault_.cycle >= 1 && trace_.has_cycle(fault_.cycle - 1)) {
    sample(0, fault_.cycle);
  }
  for (Cycle t = fault_.cycle + 1; t <= last && open_; ++t) {
    const auto offset = static_cast<u32>(t - fault_.cycle);
    offset_ = offset;
    if (t >= trace_.completion_cycle) {
      // Test end: the final sample. The readout matches the golden result,
      // as no flipped bit the classifier peeks at was flipped.
      if (trace_.has_cycle(t - 1)) sample(offset, t);
      return close(offset);
    }
    const bool masked =
        std::none_of(flips.begin(), flips.begin() + n,
                     [&](const Flip& f) { return t < f.until; });
    advance(offset, masked, [&] { sample(offset, t); });
  }
}

void InfectionTracker::observe(Cycle now, const emu::RasStatus& ras,
                               std::optional<bool> converged) {
  if (!open_) return;
  const auto offset = static_cast<u32>(now - fault_.cycle);
  offset_ = offset;
  if (ras.checkstop || ras.hang_detected || ras.test_finished) {
    if (trace_.has_cycle(now - 1)) {
      sample_machine(offset, trace_.masked_state(now - 1));
    }
    if (ras.test_finished) {
      // The classifier reads a finished run out unless it also stopped or
      // hung; then the footprint makes the readout itself.
      readout_due_ = true;
      if (ras.checkstop || ras.hang_detected) {
        read_out(avp::check_against_golden(model_, emu_.state(), golden_));
      }
    }
    return close(offset);
  }
  if (!trace_.has_cycle(now - 1)) {
    // The reference states end at workload completion; past that there is
    // nothing to diff against. We never saw the footprint return to zero.
    rec_.truncated = true;
    return close(offset);
  }
  if (ras.recovery_active || ras.recovery_count > 0) {
    // A rollback recovery restores a clean pre-fault checkpoint: the
    // infection is scrubbed the moment it engages, and every later diff
    // against the reference would measure replay skew (the machine
    // re-executing behind the reference timeline), not corruption.
    return mask(offset);
  }
  const u64* ref = trace_.masked_state(now - 1);
  // Mask detection: the convergence poll's exact word compare, or the same
  // compare where the poll does not run. Invalid while a sticky force is
  // armed; recovery skew is handled above.
  const bool armed = fault_.mode == FaultMode::Sticky &&
                     now <= fault_.cycle + fault_.sticky_duration;
  advance(offset,
          !armed && (converged ? *converged
                               : emu_.state().masked_equals(
                                     model_.registry().hash_masks(), ref)),
          [&] { sample_machine(offset, ref); });
}

void InfectionTracker::read_out(const avp::Verdict& v) {
  if (!readout_due_) return;
  readout_due_ = false;
  rec_.reached_arch = !v.state_matches;
  rec_.reached_memory = !v.memory_matches;
}

PropagationRecord InfectionTracker::footprint(u32 index,
                                              const RunResult& primary) {
  require(usable_, "InfectionTracker::footprint while not usable");
  if (record_end_) read_timeline(*record_end_);
  if (open_) {
    // The run exited (a deadline or the horizon) inside the window.
    rec_.truncated = true;
    close(offset_);
  }
  PropagationRecord rec = std::move(rec_);
  rec.index = index;
  rec.outcome = primary.outcome;
  rec.fault_cycle = fault_.cycle;
  // Unit and type exactly as the injection's own record carries them (an
  // array cell is not a latch; the footprint shows its latch fallout).
  const InjectionRecord primary_rec = make_record(model_, fault_, primary);
  rec.unit = primary_rec.unit;
  rec.type = primary_rec.type;
  rec.detected = primary.detected_cycle.has_value();
  if (rec.detected) rec.detected_at = *primary.detected_cycle - fault_.cycle;

  // Escape classes keep their whole observation; the bulk classes are cut
  // to their window, as if observation had stopped there.
  const bool escape = primary.outcome == Outcome::Hang ||
                      primary.outcome == Outcome::Checkstop ||
                      primary.outcome == Outcome::BadArchState;
  const auto window = static_cast<u32>(
      std::min<Cycle>(escape ? kEscapeTraceCycles : cfg_.max_trace_cycles,
                      window_));
  if (rec.rerun_cycles > window) {
    std::erase_if(rec.samples, [&](const FootprintSample& s) {
      return s.offset > window;
    });
    rec.truncated = true;
    rec.masked = false;
    rec.masked_at = 0;
    rec.rerun_cycles = window;
    rec.reached_arch = rec.reached_memory = false;  // the readout is past it
    if (checker_at_ > window) {
      rec.checker_fired = false;
      rec.checker_fatal = false;
      rec.checker = {};
    }
  }
  rec.first_corrupt.fill(kNeverCorrupted);
  for (const FootprintSample& s : rec.samples) {
    rec.peak_bits = std::max(rec.peak_bits, s.total_bits);
    for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
      if (s.unit_bits[u] > 0 && rec.first_corrupt[u] == kNeverCorrupted) {
        rec.first_corrupt[u] = s.offset;
      }
    }
  }
  rec.reached_arch = rec.reached_arch || arch_at_ <= rec.rerun_cycles;
  return rec;
}

}  // namespace sfi::inject
