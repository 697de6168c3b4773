#include "sfi/propagation.hpp"

#include <algorithm>

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
                                   emu::Emulator& emu,
                                   InjectionRunner& runner,
                                   const emu::GoldenTrace& trace,
                                   const avp::GoldenResult& golden,
                                   FootprintConfig cfg)
    : model_(model),
      emu_(emu),
      runner_(runner),
      trace_(trace),
      golden_(golden),
      cfg_(cfg) {
  // Footprint diffing needs the recorded per-cycle reference states, not
  // just their hashes (a hash can say "different" but not *where*).
  usable_ = cfg_.enabled && trace_.has_states();
  if (!usable_) return;
  const auto& um = model_.registry().unit_masks();
  const auto& tm = model_.registry().type_masks();
  group_masks_.reserve(um.size() + tm.size());
  group_masks_.insert(group_masks_.end(), um.begin(), um.end());
  group_masks_.insert(group_masks_.end(), tm.begin(), tm.end());
}

PropagationRecord InfectionTracker::trace(u32 index, const FaultSpec& fault,
                                          const RunResult& primary) {
  require(usable_, "InfectionTracker::trace while not usable");

  PropagationRecord rec;
  rec.index = index;
  rec.outcome = primary.outcome;
  rec.fault_cycle = fault.cycle;
  rec.first_corrupt.fill(kNeverCorrupted);
  // Unit and type exactly as the injection's own record carries them (an
  // array cell is not a latch; the footprint shows its latch fallout).
  const InjectionRecord primary_rec = make_record(model_, fault, primary);
  rec.unit = primary_rec.unit;
  rec.type = primary_rec.type;
  rec.detected = primary.detected_cycle.has_value();
  if (rec.detected) rec.detected_at = *primary.detected_cycle - fault.cycle;

  // Deterministic replay from the fault's own cycle and bits (the primary
  // run may have entered later, but on the same trajectory).
  runner_.begin(fault, RunEntry::at_fault(fault));

  bool saw_checker = false;
  model_.set_cycle_observer(
      [&](const core::Signals& sig, const core::Controls&) {
        if (saw_checker || sig.events.empty()) return;
        const core::CheckerEvent& e = sig.events.front();
        saw_checker = true;
        rec.checker_fired = true;
        rec.checker = e.id;
        rec.checker_fatal = e.fatal;
      });

  const auto& masks = model_.registry().hash_masks();
  constexpr std::size_t kNumGroups =
      netlist::kNumUnits + netlist::kNumLatchTypes;
  constexpr std::size_t kRegFileGroup =
      netlist::kNumUnits + static_cast<std::size_t>(netlist::LatchType::RegFile);
  const bool sticky = fault.mode == FaultMode::Sticky;
  const bool escape = primary.outcome == Outcome::Hang ||
                      primary.outcome == Outcome::Checkstop ||
                      primary.outcome == Outcome::BadArchState;
  const Cycle window =
      escape ? kEscapeTraceCycles : cfg_.max_trace_cycles;

  const auto take_sample = [&](u32 offset, const u64* ref) {
    const u32 total = emu_.state().masked_diff_groups(
        masks, ref, group_masks_, kNumGroups, group_bits_);
    FootprintSample s;
    s.offset = offset;
    s.total_bits = total;
    for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
      s.unit_bits[u] = group_bits_[u];
      if (group_bits_[u] > 0 && rec.first_corrupt[u] == kNeverCorrupted) {
        rec.first_corrupt[u] = offset;
      }
    }
    if (group_bits_[kRegFileGroup] > 0) rec.reached_arch = true;
    rec.peak_bits = std::max(rec.peak_bits, total);
    rec.samples.push_back(s);
  };

  // Offset 0: the seed footprint right after the flip (a toggle shows its
  // single bit; a multi-bit upset its cluster; an array strike zero).
  if (fault.cycle >= 1 && trace_.has_cycle(fault.cycle - 1)) {
    take_sample(0, trace_.masked_state(fault.cycle - 1));
  }

  Cycle next_sample = 1;
  bool finished_run = false;
  while (true) {
    emu_.step();
    ++rec.rerun_cycles;
    const Cycle now = emu_.cycle();
    const u32 offset = static_cast<u32>(now - fault.cycle);
    const emu::RasStatus ras = model_.ras_status(emu_.state());

    if (ras.checkstop || ras.hang_detected || ras.test_finished) {
      if (trace_.has_cycle(now - 1)) {
        take_sample(offset, trace_.masked_state(now - 1));
      }
      finished_run = ras.test_finished;
      break;
    }
    if (!trace_.has_cycle(now - 1)) {
      // The reference states end at workload completion; past that there is
      // nothing to diff against. We never saw the footprint return to zero.
      rec.truncated = true;
      break;
    }
    if (ras.recovery_active || ras.recovery_count > 0) {
      // A rollback recovery restores a clean pre-fault checkpoint: the
      // infection is scrubbed the moment it engages, and every later diff
      // against the reference would measure replay skew (the machine
      // re-executing behind the reference timeline), not corruption. End the
      // footprint here — this is also what keeps tracing Corrected outcomes
      // cheap (the post-recovery replay tail costs hundreds of cycles in the
      // primary run and would double with forensics on).
      rec.masked = true;
      rec.masked_at = offset;
      FootprintSample zero;
      zero.offset = offset;
      rec.samples.push_back(zero);
      break;
    }
    const u64* ref = trace_.masked_state(now - 1);

    // Cheap per-cycle mask detection (exact early-out word compare, same
    // soundness condition as the runner's convergence poll: invalid while a
    // sticky force is armed; recovery skew is handled by the break above).
    if (!(sticky && now <= fault.cycle + fault.sticky_duration) &&
        emu_.state().masked_equals(masks, ref)) {
      rec.masked = true;
      rec.masked_at = offset;
      FootprintSample zero;  // terminal sample: the series returns to zero
      zero.offset = offset;
      rec.samples.push_back(zero);
      break;
    }

    if (cfg_.sampling == FootprintSampling::EveryCycle ||
        offset >= next_sample) {
      take_sample(offset, ref);
      while (next_sample <= offset) next_sample *= 2;
    }

    if (offset >= window) {
      rec.truncated = true;
      break;
    }
  }
  model_.clear_cycle_observer();

  if (finished_run) {
    // The traced run reached end-of-test: read out architected state and
    // memory against the golden result to see whether corruption escaped
    // the core. Drain the readout's ECC side channels so nothing leaks into
    // the next primary run (its seek restores a checkpoint anyway).
    const avp::Verdict v =
        avp::check_against_golden(model_, emu_.state(), golden_);
    (void)model_.memory().take_corrected();
    (void)model_.memory().take_fatal();
    (void)model_.rut().checkpoint_readout_ras();
    if (!v.state_matches) rec.reached_arch = true;
    if (!v.memory_matches) rec.reached_memory = true;
  }
  return rec;
}

}  // namespace sfi::inject
