#include "sfi/runner.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "sfi/telemetry.hpp"

namespace sfi::inject {

namespace {

using Tick = std::chrono::steady_clock::time_point;

inline Tick tick(const RunPhaseTimes* tel) {
  return tel != nullptr ? std::chrono::steady_clock::now() : Tick{};
}

inline double seconds_between(Tick a, Tick b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

InjectionRunner::InjectionRunner(core::Pearl6Model& model, emu::Emulator& emu,
                                 const emu::Checkpoint& reset_checkpoint,
                                 const emu::GoldenTrace& trace,
                                 const avp::GoldenResult& golden,
                                 RunConfig cfg,
                                 const emu::CheckpointStore* checkpoints)
    : model_(model),
      emu_(emu),
      reset_cp_(reset_checkpoint),
      trace_(trace),
      golden_(golden),
      cfg_(cfg),
      ckpts_(checkpoints != nullptr && !checkpoints->empty() ? checkpoints
                                                             : nullptr) {
  require(trace.completed, "InjectionRunner needs a completed golden trace");
}

void InjectionRunner::seek_to(Cycle target, RunPhaseTimes* tel) {
  const Tick t0 = tick(tel);
  const emu::Checkpoint* from = &reset_cp_;
  if (ckpts_ != nullptr) {
    if (const auto idx = ckpts_->index_at_or_before(target)) {
      if (*idx != warm_idx_) {
        ckpts_->materialize(*idx, warm_cp_);
        warm_idx_ = *idx;
        if (tel != nullptr) tel->new_checkpoint = true;
      }
      from = &warm_cp_;
    }
  }
  emu_.restore_checkpoint(*from);
  const Cycle base = emu_.cycle();
  if (from == &reset_cp_) {
    ensure(base == 0, "reset checkpoint must be at cycle 0");
  }
#ifndef NDEBUG
  // Warm-start safety: the restored state must equal the replayed state at
  // the same cycle (the reference execution is deterministic).
  if (base >= 1 && trace_.has_cycle(base - 1)) {
    ensure(emu_.state().masked_hash(model_.registry().hash_masks()) ==
               trace_.hashes[base - 1],
           "restored checkpoint diverges from the golden trace");
  }
#endif
  if (tel == nullptr) {
    emu_.run(target - base);
    return;
  }
  const Tick t1 = tick(tel);
  tel->seconds[static_cast<std::size_t>(RunPhase::Restore)] =
      seconds_between(t0, t1);
  tel->warm_restore = from == &warm_cp_;
  tel->restore_cycle = base;
  tel->ff_cycles = target - base;
  emu_.run(target - base);
  tel->seconds[static_cast<std::size_t>(RunPhase::FastForward)] =
      seconds_between(t1, tick(tel));
}

RunResult InjectionRunner::classify_now(bool finished, bool early_exited,
                                        std::optional<Cycle> detected) const {
  RunResult r = classify_outcome(finished, early_exited);
  r.detected_cycle = detected;
  if (!r.detected_cycle &&
      (r.outcome == Outcome::Checkstop || r.outcome == Outcome::Hang ||
       r.recoveries > 0 || r.corrected > 0)) {
    r.detected_cycle = r.end_cycle;
  }
  return r;
}

RunResult InjectionRunner::classify_outcome(bool finished,
                                            bool early_exited) const {
  const emu::RasStatus ras = model_.ras_status(emu_.state());
  RunResult r;
  r.end_cycle = emu_.cycle();
  r.early_exited = early_exited;
  r.recoveries = ras.recovery_count;
  r.corrected = ras.corrected_count;

  if (ras.checkstop) {
    r.outcome = Outcome::Checkstop;
    return r;
  }
  if (ras.hang_detected || !finished) {
    r.outcome = Outcome::Hang;
    return r;
  }
  if (early_exited) {
    // Converged back onto the fault-free execution with a clean RAS window:
    // the remaining run is provably identical to the reference.
    r.outcome = ras.recovery_count > 0 || ras.corrected_count > 0
                    ? Outcome::Corrected
                    : Outcome::Vanished;
    return r;
  }
  const avp::Verdict v =
      avp::check_against_golden(model_, emu_.state(), golden_);
  // The end-of-test readout goes through the memory controller: latent
  // main-store upsets surface here. A correctable one is a (late) corrected
  // event; an uncorrectable one stops the machine the moment software
  // touches the word — a checkstop, never silent corruption.
  u32 late_corrected = model_.memory().take_corrected();
  bool readout_fatal = model_.memory().take_fatal();
  // Same for the RUT's architected checkpoint: the compare above read it
  // through its ECC.
  const core::Rut::ReadoutRas ckpt =
      model_.rut().checkpoint_readout_ras();
  late_corrected += ckpt.corrected;
  readout_fatal = readout_fatal || ckpt.fatal;
  if (readout_fatal) {
    r.outcome = Outcome::Checkstop;
    return r;
  }
  r.corrected += late_corrected;
  if (!v.state_matches || !v.memory_matches) {
    r.outcome = Outcome::BadArchState;
    r.first_diff = v.first_diff;
    return r;
  }
  r.outcome = ras.recovery_count > 0 || r.corrected > 0
                  ? Outcome::Corrected
                  : Outcome::Vanished;
  return r;
}

void InjectionRunner::apply_fault(const FaultSpec& fault) {
  // Inject (adjacent_bits > 1 models a multi-bit upset from one strike).
  const u32 width = std::max<u32>(1, fault.adjacent_bits);
  switch (fault.target) {
    case FaultTarget::Latch: {
      for (u32 k = 0; k < width; ++k) {
        const u32 ordinal = fault.index + k;
        if (ordinal >= model_.registry().num_latches()) break;
        const BitIndex bit = model_.registry().bit_of_ordinal(ordinal);
        if (fault.mode == FaultMode::Toggle) {
          emu_.flip_latch(bit);
        } else {
          emu_.force_latch(bit, fault.sticky_value,
                           std::max<Cycle>(1, fault.sticky_duration));
        }
      }
      break;
    }
    case FaultTarget::ArrayCell: {
      for (u32 k = 0; k < width; ++k) {
        const u64 gbit = fault.array_bit + k;
        if (gbit >= model_.arrays().total_storage_bits()) break;
        const auto target = model_.arrays().locate(gbit);
        target.array->flip_storage_bit(target.local_bit);
      }
      break;
    }
  }
}

std::optional<RunResult> InjectionRunner::dead_on_arrival(
    const FaultSpec& fault) const {
  const Cycle finish = trace_.completion_cycle;
  if (fault.target != FaultTarget::Latch || fault.mode != FaultMode::Toggle ||
      !trace_.has_timeline() || fault.cycle >= finish) {
    return std::nullopt;
  }
  const netlist::LatchRegistry& reg = model_.registry();
  const auto& masks = reg.hash_masks();
  // The run equals the reference XOR the surviving flipped bits for as long
  // as no step reads one (equal reads, equal writes — aux state included),
  // and a bit the reference overwrites stops differing. The masked poll
  // first fires on the cycle after the flip, and not before the last
  // hashed flipped bit is overwritten; never, if one survives.
  Cycle converged = fault.cycle + 1;
  bool hashed_survivor = false;
  const u32 width = std::max<u32>(1, fault.adjacent_bits);
  for (u32 k = 0; k < width; ++k) {
    const u32 ordinal = fault.index + k;
    if (ordinal >= reg.num_latches()) break;
    const BitIndex bit = reg.bit_of_ordinal(ordinal);
    const u32 w = bit / 64;
    const u64 m = u64{1} << (bit % 64);
    if ((trace_.peek_reads[w] & m) != 0) return std::nullopt;
    const bool hashed = (masks[w] & m) != 0;
    const emu::GoldenTrace::WordAccess* a =
        trace_.first_access(w, m, fault.cycle);
    if (a == nullptr) {
      hashed_survivor = hashed_survivor || hashed;
    } else if ((a->reads & m) != 0) {
      return std::nullopt;  // read before it is overwritten: live
    } else if (hashed) {
      converged = std::max(converged, a->cycle);
    }
  }

  // continue_run's exits in its order on a shared cycle: test end, then
  // the convergence poll, then the horizon (the hang deadline lies past
  // test end). The RAS window stays the reference's: clean.
  constexpr Cycle kNever = ~Cycle{0};
  const Cycle poll =
      cfg_.early_exit && !hashed_survivor ? converged : kNever;
  const Cycle hard_stop = fault.cycle + std::max<Cycle>(1, cfg_.horizon);
  if (finish <= poll && finish <= hard_stop) {
    return clean_exit(CleanExit::TestEnd, finish);
  }
  if (poll <= hard_stop) return clean_exit(CleanExit::Converged, poll);
  return clean_exit(CleanExit::Overdue, hard_stop);
}

RunResult InjectionRunner::clean_exit(CleanExit how, Cycle at) {
  RunResult r;  // Vanished, no recovery, no correction
  r.end_cycle = at;
  r.early_exited = how == CleanExit::Converged;
  if (how == CleanExit::Overdue) {
    r.outcome = Outcome::Hang;
    r.detected_cycle = at;  // classify_now's rule for an undetected Hang
  }
  return r;
}

void InjectionRunner::begin(const FaultSpec& fault, RunPhaseTimes* tel) {
  seek_to(fault.cycle, tel);
  apply_fault(fault);
}

RunResult InjectionRunner::run(const FaultSpec& fault, RunPhaseTimes* tel) {
  if (tel != nullptr) *tel = RunPhaseTimes{};
  begin(fault, tel);
  return continue_run(fault, tel);
}

RunResult InjectionRunner::continue_run(const FaultSpec& fault,
                                        RunPhaseTimes* tel, bool stepped) {
  const auto& masks = model_.registry().hash_masks();
  const Cycle deadline = trace_.completion_cycle + cfg_.hang_margin;
  const Cycle hard_stop = fault.cycle + cfg_.horizon;
  const bool sticky = fault.mode == FaultMode::Sticky;
  // Array contents are not part of the latch-state hash, so convergence
  // proves nothing about a struck array cell (it may be corrected — and
  // reported — much later by a scrub). Run those to completion.
  const bool early_exit =
      cfg_.early_exit && fault.target == FaultTarget::Latch;

  // Detection latency bookkeeping (plain compares on the RAS status already
  // in hand — never alters simulation) and the post-fault phase timers.
  std::optional<Cycle> detect;
  const Tick t_loop = tick(tel);
  // Poll timing is sampled (1 in 16) and scaled to the poll count: two
  // clock reads around every compare would cost more than the compare
  // itself on short workloads.
  constexpr u64 kPollSampleMask = 15;
  double sampled_poll_seconds = 0.0;
  u64 sampled_polls = 0;
  u64 polls = 0;

  // Terminal path shared by every exit: classification is its own timed
  // phase; the loop's wall time minus the poll aggregate is post-fault sim.
  const auto finish = [&](bool finished, bool early) {
    const Tick t_cl = tick(tel);
    RunResult r = classify_now(finished, early, detect);
    if (tel != nullptr) {
      const double poll_seconds =
          sampled_polls == 0
              ? 0.0
              : sampled_poll_seconds * static_cast<double>(polls) /
                    static_cast<double>(sampled_polls);
      tel->seconds[static_cast<std::size_t>(RunPhase::PostFaultSim)] =
          seconds_between(t_loop, t_cl) - poll_seconds;
      tel->seconds[static_cast<std::size_t>(RunPhase::ConvergencePoll)] =
          poll_seconds;
      tel->seconds[static_cast<std::size_t>(RunPhase::Classify)] =
          seconds_between(t_cl, tick(tel));
      tel->polls = polls;
    }
    return r;
  };

  if (!stepped) emu_.step();
  while (true) {
    const Cycle now = emu_.cycle();
    const emu::RasStatus ras = model_.ras_status(emu_.state());
    if (!detect && (ras.checkstop || ras.hang_detected ||
                    ras.recovery_active || ras.recovery_count > 0 ||
                    ras.corrected_count > 0)) {
      detect = now;
    }
    if (ras.checkstop || ras.hang_detected) {
      return finish(/*finished=*/false, /*early=*/false);
    }
    if (ras.test_finished) {
      return finish(/*finished=*/true, /*early=*/false);
    }

    // Golden convergence check (invalid while a sticky force remains armed
    // or a recovery is rebuilding state). With recorded reference states
    // this is an exact early-out word compare; otherwise a hash compare.
    if (early_exit && !ras.recovery_active && trace_.has_cycle(now - 1) &&
        !(sticky && now <= fault.cycle + fault.sticky_duration)) {
      const bool time_this_poll =
          tel != nullptr && (polls & kPollSampleMask) == 0;
      const Tick t_poll =
          time_this_poll ? std::chrono::steady_clock::now() : Tick{};
      const bool converged =
          trace_.has_states()
              ? emu_.state().masked_equals(masks, trace_.masked_state(now - 1))
              : emu_.state().masked_hash(masks) == trace_.hashes[now - 1];
      if (time_this_poll) {
        sampled_poll_seconds +=
            seconds_between(t_poll, std::chrono::steady_clock::now());
        ++sampled_polls;
      }
      if (tel != nullptr) ++polls;
      if (converged) {
        return finish(/*finished=*/true, /*early=*/true);
      }
    }

    if (now >= deadline || now >= hard_stop) {
      return finish(/*finished=*/false, /*early=*/false);
    }
    emu_.step();
  }
}

}  // namespace sfi::inject
