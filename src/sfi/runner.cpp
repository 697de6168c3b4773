#include "sfi/runner.hpp"

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
  if (ckpts_ != nullptr) {
    if (const auto idx = ckpts_->index_at_or_before(target)) {
      if (*idx != warm_idx_) {
        ckpts_->materialize(*idx, warm_cp_);
        warm_idx_ = *idx;
        if (tel != nullptr) tel->new_checkpoint = true;
      }
      emu_.restore_checkpoint(warm_cp_);
#ifndef NDEBUG
      // Warm-start safety: the restored state must equal the replayed state
      // at the same cycle (the reference execution is deterministic).
      if (warm_cp_.cycle >= 1 && trace_.has_cycle(warm_cp_.cycle - 1)) {
        ensure(emu_.state().masked_hash(model_.registry().hash_masks()) ==
                   trace_.hashes[warm_cp_.cycle - 1],
               "restored checkpoint diverges from the golden trace");
      }
#endif
      if (tel != nullptr) {
        const Tick t1 = tick(tel);
        tel->seconds[static_cast<std::size_t>(RunPhase::Restore)] =
            seconds_between(t0, t1);
        tel->warm_restore = true;
        tel->restore_cycle = warm_cp_.cycle;
        tel->ff_cycles = target - warm_cp_.cycle;
        emu_.run(target - warm_cp_.cycle);
        tel->seconds[static_cast<std::size_t>(RunPhase::FastForward)] =
            seconds_between(t1, tick(tel));
      } else {
        emu_.run(target - warm_cp_.cycle);
      }
      return;
    }
  }
  emu_.restore_checkpoint(reset_cp_);
  ensure(emu_.cycle() == 0, "reset checkpoint must be at cycle 0");
  if (tel != nullptr) {
    const Tick t1 = tick(tel);
    tel->seconds[static_cast<std::size_t>(RunPhase::Restore)] =
        seconds_between(t0, t1);
    tel->restore_cycle = 0;
    tel->ff_cycles = target;
    emu_.run(target);
    tel->seconds[static_cast<std::size_t>(RunPhase::FastForward)] =
        seconds_between(t1, tick(tel));
  } else {
    emu_.run(target);
  }
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

RunResult InjectionRunner::run(const FaultSpec& fault, RunPhaseTimes* tel,
                               emu::Checkpoint* prefault) {
  if (tel != nullptr) *tel = RunPhaseTimes{};

  // Bring the machine fault-free to the injection point (warm-started from
  // the checkpoint store when one is attached).
  seek_to(fault.cycle, tel);

  if (prefault != nullptr) emu_.save_checkpoint(*prefault);

  apply_fault(fault);

  return continue_run(fault, tel);
}

RunResult InjectionRunner::continue_run(const FaultSpec& fault,
                                        RunPhaseTimes* tel,
                                        const std::function<bool()>* eject,
                                        bool* ejected) {
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

  while (true) {
    emu_.step();
    const Cycle now = emu_.cycle();

    // Probation poll: one chance, right after the first step, before this
    // cycle's checks run. See the declaration for the contract.
    if (eject != nullptr) [[unlikely]] {
      const bool out = (*eject)();
      eject = nullptr;
      if (out) {
        *ejected = true;
        return {};
      }
    }

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
  }
}

}  // namespace sfi::inject
