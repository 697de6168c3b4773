#include "core/pervasive.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace sfi::core {

namespace {
using netlist::LatchType;
using netlist::Unit;
constexpr u8 kRing = 6;
}  // namespace

Pervasive::Pervasive(netlist::LatchRegistry& reg)
    : mode_(reg, "core", Unit::Core, kRing, CheckerId::CoreWatchdog, 2),
      spares_(reg, "core", Unit::Core, kRing, 400) {
  rec_fir_ = netlist::Field(reg.add("core.fir.rec", Unit::Core, LatchType::Func, kRing, 7));
  fatal_fir_ = netlist::Field(reg.add("core.fir.fatal", Unit::Core, LatchType::Func, kRing, 7));
  first_err_v_ = netlist::Flag(reg.add("core.fir.first.v", Unit::Core, LatchType::Func, kRing, 1));
  first_err_unit_ = netlist::Field(reg.add("core.fir.first.unit", Unit::Core, LatchType::Func, kRing, 3));
  first_err_chk_ = netlist::Field(reg.add("core.fir.first.chk", Unit::Core, LatchType::Func, kRing, 5));

  checkstop_ = netlist::Flag(reg.add("core.checkstop", Unit::Core, LatchType::Func, kRing, 1));
  hang_ = netlist::Flag(reg.add("core.hang", Unit::Core, LatchType::Func, kRing, 1));
  done_ = netlist::Flag(reg.add("core.done", Unit::Core, LatchType::Func, kRing, 1));

  wd_counter_ = netlist::Field(reg.add("core.wd.counter", Unit::Core, LatchType::Func, kRing, 12));
  rec_cycles_ = netlist::Field(reg.add("core.rec.cycles", Unit::Core, LatchType::Func, kRing, 8));
  rec_since_completion_ = netlist::Field(reg.add("core.rec.since_cmpl", Unit::Core, LatchType::Func, kRing, 3));
  recovery_count_ = netlist::Field(reg.add("core.rec.count", Unit::Core, LatchType::Func, kRing, 8,
                                           true, netlist::LatchRole::Tally));
  corrected_count_ = netlist::Field(reg.add("core.corrected.count", Unit::Core, LatchType::Func, kRing, 8,
                                            true, netlist::LatchRole::Tally));
  rec_active_flag_ = netlist::Flag(reg.add("core.rec.active", Unit::Core, LatchType::Func, kRing, 1));

  timebase_ = netlist::Field(reg.add("core.timebase", Unit::Core, LatchType::Func, kRing, 24,
                                     /*hashable=*/false));

  // All of these are benign under a single flip in an otherwise fault-free
  // run (the watchdog timeout's single-bit neighbourhood stays far above the
  // longest legitimate completion gap; thresholds/enables only matter once
  // some other error exists), so they are excluded from the golden hash.
  cfg_wd_timeout_ = netlist::Field(reg.add("core.mode.wd_timeout", Unit::Core, LatchType::Mode, kRing, 12, /*hashable=*/false));
  cfg_rec_thresh_ = netlist::Field(reg.add("core.mode.rec_thresh", Unit::Core, LatchType::Mode, kRing, 3, /*hashable=*/false));
  cfg_rec_timeout_ = netlist::Field(reg.add("core.mode.rec_timeout", Unit::Core, LatchType::Mode, kRing, 8, /*hashable=*/false));
  cfg_rec_enable_ = netlist::Flag(reg.add("core.mode.rec_enable", Unit::Core, LatchType::Mode, kRing, 1, /*hashable=*/false));

  gptr_test_ = netlist::Field(reg.add("core.gptr.test", Unit::Core, LatchType::Gptr, kRing, 16, /*hashable=*/false));
  gptr_ring_ = netlist::Field(reg.add("core.gptr.ring", Unit::Core, LatchType::Gptr, kRing, 8, /*hashable=*/false));
  pm_completions_ = netlist::Field(reg.add("core.pm.completions", Unit::Core, LatchType::Func, kRing, 32, /*hashable=*/false));
  pm_recoveries_ = netlist::Field(reg.add("core.pm.recoveries", Unit::Core, LatchType::Func, kRing, 32, /*hashable=*/false));
  pm_events_ = netlist::Field(reg.add("core.pm.events", Unit::Core, LatchType::Func, kRing, 32, /*hashable=*/false));
  pm_stall_ = netlist::Field(reg.add("core.pm.stall", Unit::Core, LatchType::Func, kRing, 32, /*hashable=*/false));
}

bool Pervasive::frozen(const netlist::StateVector& sv) const {
  return checkstop_.peek(sv) || hang_.peek(sv) || done_.peek(sv);
}

Controls Pervasive::decide(const netlist::CycleFrame& f, const Signals& sig,
                           bool rut_active) {
  Controls ctl;
  ctl.recovery_active = rut_active;

  const bool wd_on = mode_.checker_on(f, CheckerId::CoreWatchdog);
  const bool proto_on = mode_.checker_on(f, CheckerId::CoreRecoveryProtocol);

  bool fatal = sig.any_fatal() || fatal_fir_.get(f) != 0;

  // Cross-check the redundant recovery-active flag against the sequencer.
  if (proto_on && rec_active_flag_.get(f) != rut_active) {
    fatal = true;
  }
  if (mode_.force_error(f) && wd_on) {
    fatal = true;  // pervasive force_error drives the checkstop network
  }

  const bool new_recoverable = sig.any_recoverable();
  const bool latched_recoverable = rec_fir_.get(f) != 0;

  if (rut_active) {
    // Any new detected error while recovery is rebuilding state is
    // unrecoverable (the paper's §3.1 observation).
    if (new_recoverable) fatal = true;
    if (wd_on && rec_cycles_.get(f) >= cfg_rec_timeout_.get(f)) fatal = true;
  } else if (new_recoverable || latched_recoverable) {
    if (!cfg_rec_enable_.get(f)) {
      fatal = true;  // recovery fused off: detected errors stop the machine
    } else if (rec_since_completion_.get(f) >= cfg_rec_thresh_.get(f)) {
      fatal = true;  // recovery livelock breaker
    } else {
      ctl.start_recovery = true;
      ctl.flush = true;
    }
  }

  // Completion watchdog (hang detection). Paused while recovering.
  if (!rut_active && !ctl.start_recovery && wd_on &&
      wd_counter_.get(f) >= cfg_wd_timeout_.get(f)) {
    ctl.hang = true;
  }

  if (fatal) {
    ctl.checkstop = true;
    ctl.start_recovery = false;
    ctl.hang = false;
    ctl.flush = false;  // state freezes as-is for fault isolation readout
  }

  ctl.block_completion = ctl.flush || ctl.checkstop || ctl.hang;
  ctl.block_issue = ctl.block_completion || rut_active;
  return ctl;
}

void Pervasive::update(const netlist::CycleFrame& f, const Signals& sig,
                       const Controls& ctl, bool rut_active) {
  if (mode_.clocks_stopped(f)) return;  // pervasive clocks fused off: hold
  // FIR capture.
  u64 rec = rec_fir_.get(f);
  u64 fat = fatal_fir_.get(f);
  for (const CheckerEvent& e : sig.events) {
    const u64 bit = u64{1} << static_cast<unsigned>(e.unit);
    if (e.fatal) {
      fat |= bit;
    } else {
      rec |= bit;
    }
    if (!first_err_v_.get(f) && !first_err_v_.staged(f)) {
      first_err_v_.set(f, true);
      first_err_unit_.set(f, static_cast<u64>(e.unit));
      first_err_chk_.set(f, static_cast<u64>(e.id));
    }
  }
  if (sig.recovery_refetch) rec = 0;  // recovery completed: clear its FIR
  rec_fir_.set(f, rec);
  fatal_fir_.set(f, fat);

  // Terminal latches.
  if (ctl.checkstop) checkstop_.set(f, true);
  if (ctl.hang) hang_.set(f, true);

  const bool completion_ok = sig.completion && !ctl.block_completion;
  if (completion_ok && sig.completion_is_stop) done_.set(f, true);

  // Watchdog.
  if (completion_ok) {
    wd_counter_.set(f, 0);
  } else if (!rut_active) {
    wd_counter_.set(f, (wd_counter_.get(f) + 1) & 0xFFF);
  }

  // Recovery bookkeeping.
  rec_cycles_.set(f, rut_active ? std::min<u64>(rec_cycles_.get(f) + 1, 255)
                                : 0);
  if (ctl.start_recovery) {
    rec_since_completion_.set(
        f, std::min<u64>(rec_since_completion_.get(f) + 1, 7));
  } else if (completion_ok) {
    rec_since_completion_.set(f, 0);
  }
  if (sig.recovery_refetch) {
    recovery_count_.set(f, std::min<u64>(recovery_count_.get(f) + 1, 255));
  }
  if (sig.corrected > 0) {
    corrected_count_.set(
        f, std::min<u64>(corrected_count_.get(f) + sig.corrected, 255));
  }

  // Redundant recovery-active flag mirrors the RUT sequencer's staging rule.
  rec_active_flag_.set(f, ctl.start_recovery ||
                              (rut_active && !sig.recovery_refetch));

  // Performance monitor (free-running event counters).
  if (completion_ok) {
    pm_completions_.set(f, (pm_completions_.get(f) + 1) & 0xFFFFFFFF);
  } else {
    pm_stall_.set(f, (pm_stall_.get(f) + 1) & 0xFFFFFFFF);
  }
  if (sig.recovery_refetch) {
    pm_recoveries_.set(f, (pm_recoveries_.get(f) + 1) & 0xFFFFFFFF);
  }
  if (!sig.events.empty()) {
    pm_events_.set(f, (pm_events_.get(f) + sig.events.size()) & 0xFFFFFFFF);
  }

  timebase_.set(f, (timebase_.get(f) + 1) & 0xFFFFFF);
}

bool Pervasive::checkstop_peek(const netlist::StateVector& sv) const {
  return checkstop_.peek(sv);
}
bool Pervasive::hang_peek(const netlist::StateVector& sv) const {
  return hang_.peek(sv);
}
bool Pervasive::done_peek(const netlist::StateVector& sv) const {
  return done_.peek(sv);
}
u32 Pervasive::recovery_count_peek(const netlist::StateVector& sv) const {
  return static_cast<u32>(recovery_count_.peek(sv));
}
u32 Pervasive::corrected_count_peek(const netlist::StateVector& sv) const {
  return static_cast<u32>(corrected_count_.peek(sv));
}

void Pervasive::reset(netlist::StateVector& sv, const CoreConfig& cfg) {
  mode_.reset(sv, cfg);
  rec_fir_.poke(sv, 0);
  fatal_fir_.poke(sv, 0);
  first_err_v_.poke(sv, false);
  first_err_unit_.poke(sv, 0);
  first_err_chk_.poke(sv, 0);
  checkstop_.poke(sv, false);
  hang_.poke(sv, false);
  done_.poke(sv, false);
  wd_counter_.poke(sv, 0);
  rec_cycles_.poke(sv, 0);
  rec_since_completion_.poke(sv, 0);
  recovery_count_.poke(sv, 0);
  corrected_count_.poke(sv, 0);
  rec_active_flag_.poke(sv, false);
  timebase_.poke(sv, 0);
  cfg_wd_timeout_.poke(sv, cfg.watchdog_timeout & 0xFFF);
  cfg_rec_thresh_.poke(sv, cfg.recovery_threshold & 0x7);
  cfg_rec_timeout_.poke(sv, cfg.recovery_timeout & 0xFF);
  cfg_rec_enable_.poke(sv, cfg.recovery_enabled);
  gptr_test_.poke(sv, 0);
  gptr_ring_.poke(sv, 0);
  pm_completions_.poke(sv, 0);
  pm_recoveries_.poke(sv, 0);
  pm_events_.poke(sv, 0);
  pm_stall_.poke(sv, 0);
  spares_.reset(sv);
}

}  // namespace sfi::core
