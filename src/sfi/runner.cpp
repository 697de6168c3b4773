#include "sfi/runner.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <span>

#include "common/check.hpp"
#include "sfi/propagation.hpp"
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
                                                             : nullptr),
      tails_(ckpts_ != nullptr && trace.has_timeline()) {
  require(trace.completed, "InjectionRunner needs a completed golden trace");
  if (!tails_) return;
  // The recovery-tail certificate's lookups. Entry c of ref_completed_ is
  // the reference state at cycle c: the reset state, then the masked state
  // at the end of each recorded cycle (the count is hashed).
  netlist::StateVector sv = reset_checkpoint.latches;
  ref_completed_.push_back(model.ras_status(sv).instructions_completed);
  const auto words = sv.words_mut();
  for (Cycle c = 0; c < trace.hashes.size(); ++c) {
    std::copy_n(trace.masked_state(c), words.size(), words.begin());
    ref_completed_.push_back(model.ras_status(sv).instructions_completed);
  }
  // A wrapped counter admits no candidate search.
  tails_ = std::is_sorted(ref_completed_.begin(), ref_completed_.end());
  // The scratch is sized once, with the rest of the worker's machine, so a
  // certificate mid-campaign allocates nothing.
  tail_cp_ = reset_checkpoint;
  aux_now_.reserve(reset_checkpoint.aux.size());
  rotated_.reserve(words.size());
  ring_word_.assign(words.size(), false);
  for (const netlist::LatchRing& ring : model.registry().rings()) {
    for (const auto& slot : ring.slots) {
      for (const netlist::FieldRef f : slot) {
        ring_word_[f.bit_offset / 64] = true;
      }
    }
    ring_word_[ring.head.bit_offset / 64] = true;
    ring_word_[ring.tail.bit_offset / 64] = true;
  }
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
                                        std::optional<Cycle> detected,
                                        InfectionTracker* observer) const {
  RunResult r = classify_outcome(finished, early_exited, observer);
  r.detected_cycle = detected;
  if (!r.detected_cycle &&
      (r.outcome == Outcome::Checkstop || r.outcome == Outcome::Hang ||
       r.recoveries > 0 || r.corrected > 0)) {
    r.detected_cycle = r.end_cycle;
  }
  return r;
}

RunResult InjectionRunner::classify_outcome(bool finished, bool early_exited,
                                            InfectionTracker* observer) const {
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
  if (observer != nullptr) observer->read_out(v);
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

RunEntry RunEntry::at_fault(const FaultSpec& fault) {
  RunEntry e;
  e.cycle = fault.cycle;
  for (u32 k = 0; k < std::max<u32>(1, fault.adjacent_bits); ++k) {
    e.bits.set(k);
  }
  return e;
}

void InjectionRunner::apply_fault(const FaultSpec& fault,
                                  const std::bitset<kMaxUpsetBits>& bits) {
  // Inject (adjacent_bits > 1 models a multi-bit upset from one strike).
  const u32 width = std::max<u32>(1, fault.adjacent_bits);
  switch (fault.target) {
    case FaultTarget::Latch: {
      for (u32 k = 0; k < width; ++k) {
        const u32 ordinal = fault.index + k;
        if (ordinal >= model_.registry().num_latches()) break;
        if (!bits[k]) continue;
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
        if (!bits[k]) continue;
        const auto target = model_.arrays().locate(gbit);
        target.array->flip_storage_bit(target.local_bit);
      }
      break;
    }
  }
}

Admission InjectionRunner::admit(const FaultSpec& fault) const {
  Admission adm;
  adm.entry = RunEntry::at_fault(fault);
  const Cycle finish = trace_.completion_cycle;
  if (fault.target != FaultTarget::Latch || fault.mode != FaultMode::Toggle ||
      !trace_.has_timeline() || fault.cycle >= finish) {
    return adm;
  }
  const netlist::LatchRegistry& reg = model_.registry();
  const auto& masks = reg.hash_masks();
  // Each flipped bit's first access after the flip (nullptr: none up to
  // completion), and `live`, the first step that reads one of them.
  constexpr Cycle kNever = ~Cycle{0};
  std::array<const emu::GoldenTrace::WordAccess*, kMaxUpsetBits> first{};
  Cycle live = kNever;
  u32 width = 0;
  for (; width < std::max<u32>(1, fault.adjacent_bits); ++width) {
    const u32 ordinal = fault.index + width;
    if (ordinal >= reg.num_latches()) break;
    const BitIndex bit = reg.bit_of_ordinal(ordinal);
    const u32 w = bit / 64;
    const u64 m = u64{1} << (bit % 64);
    if ((trace_.peek_reads[w] & m) != 0) return adm;
    first[width] = trace_.first_access(w, m, fault.cycle);
    if (first[width] != nullptr && (first[width]->reads & m) != 0) {
      live = std::min(live, first[width]->cycle);
    }
  }
  // Until the state at live - 1 the run equals the reference XOR the
  // flipped bits not yet overwritten (equal reads, equal writes — aux state
  // included): a bit the reference overwrites before `live` stops
  // differing, the others survive to the entry. The masked poll first
  // fires on the cycle after the flip, and not before the last hashed bit
  // that drops out is overwritten; never before `live`, if a hashed bit
  // survives.
  Cycle converged = fault.cycle + 1;
  bool hashed_survivor = false;
  for (u32 k = 0; k < width; ++k) {
    const BitIndex bit = reg.bit_of_ordinal(fault.index + k);
    const bool hashed = ((masks[bit / 64] >> (bit % 64)) & 1) != 0;
    if (first[k] != nullptr && first[k]->cycle < live) {
      adm.entry.bits.reset(k);  // a pure overwrite before the read
      if (hashed) converged = std::max(converged, first[k]->cycle);
    } else {
      hashed_survivor = hashed_survivor || hashed;
    }
  }

  // continue_run's exits before the read, in its order on a shared cycle:
  // test end (only when no bit is ever read, as `live` comes no later than
  // completion), then the convergence poll, then the horizon (the hang
  // deadline lies past test end). The RAS window stays the reference's:
  // clean.
  adm.dead = live == kNever;
  const Cycle last = live - 1;
  const Cycle poll =
      cfg_.early_exit && !hashed_survivor ? converged : kNever;
  const Cycle hard_stop = fault.cycle + std::max<Cycle>(1, cfg_.horizon);
  if (finish <= std::min({poll, hard_stop, last})) {
    adm.record = clean_exit(CleanExit::TestEnd, finish);
  } else if (poll <= std::min(hard_stop, last)) {
    adm.record = clean_exit(CleanExit::Converged, poll);
  } else if (hard_stop <= last) {
    adm.record = clean_exit(CleanExit::Overdue, hard_stop);
  } else {
    adm.entry.cycle = last;  // the step into `live` is the run's first
    adm.pre_read_skipped = last - fault.cycle;
    return adm;
  }
  if (!adm.dead) adm.pre_read_skipped = adm.record->end_cycle - fault.cycle;
  return adm;
}

RunResult InjectionRunner::clean_exit(CleanExit how, Cycle at,
                                      const Carried& carried) {
  RunResult r;
  r.end_cycle = at;
  r.early_exited = how == CleanExit::Converged;
  r.recoveries = carried.recoveries;
  r.corrected = carried.corrected;
  r.detected_cycle = carried.detected;
  if (how == CleanExit::Overdue) {
    r.outcome = Outcome::Hang;
  } else if (r.recoveries > 0 || r.corrected > 0) {
    r.outcome = Outcome::Corrected;
  } else {
    return r;  // Vanished, never detected
  }
  if (!r.detected_cycle) r.detected_cycle = at;  // classify_now's rule
  return r;
}

std::optional<bool> InjectionRunner::latches_match(Cycle c) {
  const netlist::LatchRegistry& reg = model_.registry();
  const auto& masks = reg.hash_masks();
  const auto& phase = reg.phase_masks();
  const auto& tally = reg.tally_masks();
  const std::span<const u64> ref(trace_.masked_state(c - 1),
                                 trace_.word_stride);
  bool permanent = false;
  const auto harmless = [&](u32 w, u64 mine) {
    const u64 d = ((mine & masks[w]) ^ ref[w]) & ~phase[w];
    if (d == 0) return true;
    // The classifier reads nothing that differs but the run's own tallies.
    if ((d & trace_.peek_reads[w] & ~tally[w]) != 0) return false;
    // Every difference is overwritten before anything reads it, or never
    // touched again — which a tally must be, for its count to stand.
    u64 left = d;
    Cycle after = c;
    while (left != 0) {
      const emu::GoldenTrace::WordAccess* a =
          trace_.first_access(w, left, after);
      if (a == nullptr) break;
      if ((a->reads & left) != 0 || (a->writes & left & tally[w]) != 0) {
        return false;
      }
      left &= ~a->writes;
      after = a->cycle;
    }
    permanent = permanent || (d & tally[w]) != 0;
    return true;
  };
  // Words outside the rings first, as they stand (most candidates fail
  // there), then the ring words rotated to the reference's heads.
  const auto cur = emu_.state().words();
  for (u32 w = 0; w < ref.size(); ++w) {
    if (!ring_word_[w] && !harmless(w, cur[w])) return std::nullopt;
  }
  rotated_.assign(cur.begin(), cur.end());
  for (const netlist::LatchRing& ring : reg.rings()) {
    const auto n = static_cast<u32>(ring.slots.size());
    netlist::rotate_ring(rotated_, ring,
                         n + netlist::ring_head(ref, ring) -
                             netlist::ring_head(rotated_, ring));
  }
  for (u32 w = 0; w < ref.size(); ++w) {
    if (ring_word_[w] && !harmless(w, rotated_[w])) return std::nullopt;
  }
  return permanent;
}

bool InjectionRunner::aux_matches(std::size_t idx) {
  if (tail_idx_ != idx) {
    ckpts_->materialize(idx, tail_cp_);
    tail_idx_ = idx;
  }
  aux_now_.clear();
  model_.save_aux(aux_now_);
  const std::vector<u8>& ref = tail_cp_.aux;
  const emu::AuxSpan ph = model_.aux_phase();
  const auto phase_begin = static_cast<std::ptrdiff_t>(ph.offset);
  const auto phase_end = phase_begin + static_cast<std::ptrdiff_t>(ph.size);
  return aux_now_.size() == ref.size() &&
         std::equal(ref.begin(), ref.begin() + phase_begin,
                    aux_now_.begin()) &&
         std::equal(ref.begin() + phase_end, ref.end(),
                    aux_now_.begin() + phase_end);
}

std::optional<RunResult> InjectionRunner::certify_tail(
    const FaultSpec& fault, const emu::RasStatus& ras,
    std::optional<Cycle> detect) {
  const std::vector<u64>& done = ref_completed_;
  const Cycle now = emu_.cycle();
  const Cycle finish = trace_.completion_cycle;
  // Candidates: reference cycles in [1, min(finish, now) - 1] at the
  // machine's completed count, with a snapshot for the aux compare.
  const auto begin = done.begin() + 1;
  const auto end = done.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(finish, now));
  const auto lo = std::lower_bound(begin, end, ras.instructions_completed);
  if (lo == end || *lo != ras.instructions_completed) return std::nullopt;
  const auto hi = std::upper_bound(lo, end, ras.instructions_completed);
  const Cycle first = static_cast<Cycle>(lo - done.begin());
  const Cycle last = static_cast<Cycle>(hi - done.begin()) - 1;

  const Cycle deadline = finish + cfg_.hang_margin;
  const Cycle hard_stop = fault.cycle + cfg_.horizon;
  const Cycle overdue = std::min(deadline, hard_stop);
  for (std::optional<std::size_t> idx = ckpts_->index_at_or_before(last);
       idx && ckpts_->cycle_at(*idx) >= first;
       idx = *idx == 0 ? std::nullopt : std::optional(*idx - 1)) {
    const Cycle c = ckpts_->cycle_at(*idx);
    const std::optional<bool> permanent = latches_match(c);
    if (!permanent || !aux_matches(*idx)) continue;
    // The convergence poll compares the run with the reference at the same
    // cycle. A differing hashed tally (the run's recovery count) is never
    // touched again by either, so the poll cannot fire on the way to the
    // exit; without one, decline.
    if (cfg_.early_exit && fault.target == FaultTarget::Latch && !*permanent) {
      continue;
    }
    // From here the run is the reference k cycles late: its test ends at
    // finish + k unless a deadline or the horizon comes first.
    const Cycle k = now - c;
    const bool test_end = finish + k <= overdue;
    const Cycle exit = test_end ? finish + k : overdue;
    const Carried carried{ras.recovery_count, ras.corrected_count, detect};
    return clean_exit(test_end ? CleanExit::TestEnd : CleanExit::Overdue,
                      exit, carried);
  }
  return std::nullopt;
}

void InjectionRunner::begin(const FaultSpec& fault, const RunEntry& entry,
                            RunPhaseTimes* tel) {
  seek_to(entry.cycle, tel);
  apply_fault(fault, entry.bits);
}

RunResult InjectionRunner::run(const FaultSpec& fault, RunPhaseTimes* tel,
                               InfectionTracker* observer) {
  Admission adm = admit(fault);
  if (tel != nullptr) {
    *tel = RunPhaseTimes{.dead_on_arrival = adm.dead,
                         .pre_read_cycles_skipped = adm.pre_read_skipped};
  }
  if (adm.record) {
    if (observer != nullptr) observer->start(fault, adm);
    return std::move(*adm.record);
  }
  begin(fault, adm.entry, tel);
  if (observer != nullptr) observer->start(fault, adm);
  return continue_run(fault, tel, /*stepped=*/false, observer);
}

RunResult InjectionRunner::continue_run(const FaultSpec& fault,
                                        RunPhaseTimes* tel, bool stepped,
                                        InfectionTracker* observer) {
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
  // Work accounting: the cycle this loop's simulation starts from, and the
  // cycle the last recovery ended at (the tail the certificate can cut).
  const Cycle entered = emu_.cycle() - (stepped ? 1 : 0);
  u32 recoveries_seen = 0;
  Cycle recovered_at = entered;

  // Terminal path shared by every exit: classification is its own timed
  // phase; the loop's wall time minus the poll aggregate is post-fault sim.
  const auto report = [&](const RunResult& r, Tick t_cl, bool certified) {
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
      const Cycle now = emu_.cycle();
      tel->post_fault_cycles = now - entered;
      tel->tail_cycles = recoveries_seen > 0 ? now - recovered_at : 0;
      tel->tail_certified = certified;
      tel->tail_cycles_skipped = certified ? r.end_cycle - now : 0;
    }
    return r;
  };
  const auto finish = [&](bool finished, bool early) {
    const Tick t_cl = tick(tel);
    return report(classify_now(finished, early, detect, observer), t_cl,
                  false);
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
    if (ras.recovery_count != recoveries_seen) {
      recoveries_seen = ras.recovery_count;
      recovered_at = now;
    }
    const bool terminal =
        ras.checkstop || ras.hang_detected || ras.test_finished;

    // Golden convergence check (invalid while a sticky force remains armed
    // or a recovery is rebuilding state). With recorded reference states
    // this is an exact early-out word compare; otherwise a hash compare.
    std::optional<bool> converged;
    if (!terminal && early_exit && !ras.recovery_active &&
        trace_.has_cycle(now - 1) &&
        !(sticky && now <= fault.cycle + fault.sticky_duration)) {
      const bool time_this_poll =
          tel != nullptr && (polls & kPollSampleMask) == 0;
      const Tick t_poll =
          time_this_poll ? std::chrono::steady_clock::now() : Tick{};
      converged =
          trace_.has_states()
              ? emu_.state().masked_equals(masks, trace_.masked_state(now - 1))
              : emu_.state().masked_hash(masks) == trace_.hashes[now - 1];
      if (time_this_poll) {
        sampled_poll_seconds +=
            seconds_between(t_poll, std::chrono::steady_clock::now());
        ++sampled_polls;
      }
      if (tel != nullptr) ++polls;
    }
    // The footprint sees the cycle ahead of the exits.
    if (observer != nullptr) observer->observe(now, ras, converged);

    if (ras.checkstop || ras.hang_detected) {
      return finish(/*finished=*/false, /*early=*/false);
    }
    if (ras.test_finished) {
      return finish(/*finished=*/true, /*early=*/false);
    }
    if (converged == true) {
      return finish(/*finished=*/true, /*early=*/true);
    }

    if (now >= deadline || now >= hard_stop) {
      return finish(/*finished=*/false, /*early=*/false);
    }

    // A finished recovery re-executes the reference late: once that is
    // proven, the tail's exit follows without simulating it.
    if (tails_ && ras.recovery_count > 0 && !ras.recovery_active &&
        !(sticky && now <= fault.cycle + fault.sticky_duration)) {
      const Tick t_cert = tick(tel);
      if (std::optional<RunResult> r = certify_tail(fault, ras, detect)) {
        return report(*r, t_cert, true);
      }
    }
    emu_.step();
  }
}

}  // namespace sfi::inject
