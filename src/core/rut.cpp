#include "core/rut.hpp"

#include <bit>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace sfi::core {

namespace {
using netlist::ArrayProtection;
using netlist::ArrayReadStatus;
using netlist::LatchType;
using netlist::Unit;
constexpr u8 kRing = 5;
constexpr u64 kFsmIdle = 0b01;
constexpr u64 kFsmRestore = 0b10;
}  // namespace

Rut::Rut(netlist::LatchRegistry& reg)
    : mode_(reg, "rut", Unit::RUT, kRing, CheckerId::RutEccReport, 2),
      spares_(reg, "rut", Unit::RUT, kRing, 100),
      ckpt_("rut.ckpt", Unit::RUT, ArrayProtection::SecDed, kArrayEntries, 64) {
  fsm_ = netlist::Field(reg.add("rut.fsm", Unit::RUT, LatchType::Func, kRing, 2));
  restore_cnt_ = netlist::Field(reg.add("rut.restore_cnt", Unit::RUT, LatchType::Func, kRing, 6));
  cpc_ = netlist::Field(reg.add("rut.cpc", Unit::RUT, LatchType::Func, kRing, 16));
  cpc_par_ = netlist::Flag(reg.add("rut.cpc.p", Unit::RUT, LatchType::Func, kRing, 1));
  ccount_ = netlist::Field(reg.add("rut.ccount", Unit::RUT, LatchType::Func, kRing, 16));
  refetch_pc_ = netlist::Field(reg.add("rut.refetch_pc", Unit::RUT, LatchType::Func, kRing, 16));
  refetch_par_ = netlist::Flag(reg.add("rut.refetch_pc.p", Unit::RUT, LatchType::Func, kRing, 1));
  for (u32 i = 0; i < 2; ++i) {
    const std::string n = "rut.wport" + std::to_string(i);
    port_[i].v = netlist::Flag(reg.add(n + ".v", Unit::RUT, LatchType::Func, kRing, 1));
    port_[i].idx = netlist::Field(reg.add(n + ".idx", Unit::RUT, LatchType::Func, kRing, 6));
    port_[i].data = netlist::Field(reg.add(n + ".data", Unit::RUT, LatchType::Func, kRing, 64));
    port_[i].par = netlist::Flag(reg.add(n + ".p", Unit::RUT, LatchType::Func, kRing, 1));
  }
  // The scrubber pauses during a restore, so a recovered run is out of
  // phase with the reference for good: declared as phase, not state.
  scrub_idx_ = netlist::Field(reg.add("rut.scrub.idx", Unit::RUT, LatchType::Func, kRing, 6,
                                      true, netlist::LatchRole::Phase));
  scrub_timer_ = netlist::Field(reg.add("rut.scrub.timer", Unit::RUT, LatchType::Func, kRing, 6,
                                        true, netlist::LatchRole::Phase));
}

bool Rut::active(const netlist::CycleFrame& f) const {
  return fsm_.get(f) != kFsmIdle;
}

bool Rut::active_peek(const netlist::StateVector& sv) const {
  return fsm_.peek(sv) != kFsmIdle;
}

Rut::Plan Rut::detect(const netlist::CycleFrame& f, Signals& sig) {
  Plan plan;
  if (mode_.clocks_stopped(f)) {
    plan.held = true;
    return plan;
  }
  if (mode_.force_error(f) && mode_.checker_on(f, CheckerId::RutEccReport)) {
    sig.raise(CheckerId::RutEccReport, Unit::RUT, false,
              "rut mode force_error");
  }

  const u64 fsm = fsm_.get(f);
  const bool fsm_checker = mode_.checker_on(f, CheckerId::RutFsmCheck);

  // Sequencer consistency: the state register is one-hot, and the restore
  // counter must be 0 while idle. Violations are unrecoverable (there is no
  // checkpoint of the recovery hardware itself).
  if (fsm_checker) {
    if (std::popcount(fsm) != 1) {
      sig.raise(CheckerId::RutFsmCheck, Unit::RUT, true,
                "rut sequencer state not one-hot");
      return plan;
    }
    if (fsm == kFsmIdle && restore_cnt_.get(f) != 0) {
      sig.raise(CheckerId::RutFsmCheck, Unit::RUT, true,
                "rut restore counter nonzero while idle");
      return plan;
    }
  }

  // Write-port verification + drain plan.
  for (u32 i = 0; i < 2; ++i) {
    if (!port_[i].v.get(f)) continue;
    const u64 data = port_[i].data.get(f);
    const u64 idx = port_[i].idx.get(f);
    const bool ok = parity(data ^ idx) ==
                    static_cast<u32>(port_[i].par.get(f) ? 1 : 0);
    if (!ok && mode_.checker_on(f, CheckerId::RutEccReport)) {
      // Caught before the checkpoint is polluted: recoverable.
      sig.raise(CheckerId::RutEccReport, Unit::RUT, false,
                "rut write port parity");
      continue;
    }
    plan.port_write[i] = true;
    plan.port_idx[i] = static_cast<u32>(idx) % kArrayEntries;
    plan.port_val[i] = data;
  }

  if (fsm == kFsmRestore) {
    const auto cnt = static_cast<u32>(restore_cnt_.get(f));
    if (cnt < kRestoreEntries) {
      const auto rr = ckpt_.read(cnt);
      if (rr.status == ArrayReadStatus::Corrected) {
        if (mode_.checker_on(f, CheckerId::RutEccReport)) ++sig.corrected;
      } else if (rr.status == ArrayReadStatus::Detected &&
                 mode_.checker_on(f, CheckerId::RutEccReport)) {
        sig.raise(CheckerId::RutEccReport, Unit::RUT, true,
                  "uncorrectable checkpoint entry during restore");
        return plan;
      }
      plan.restore.valid = true;
      plan.restore.entry = cnt;
      plan.restore.value = rr.value;
      if (cnt + 1 == kRestoreEntries) {
        plan.finish_restore = true;
        // Refetch from the checkpoint PC; a corrupt checkpoint PC cannot be
        // recovered from.
        const auto pc = static_cast<u32>(cpc_.get(f));
        const bool pc_ok =
            parity(pc, 16) == static_cast<u32>(cpc_par_.get(f) ? 1 : 0);
        if (!pc_ok && fsm_checker) {
          sig.raise(CheckerId::RutFsmCheck, Unit::RUT, true,
                    "checkpoint pc parity during restore");
          plan.finish_restore = false;
          return plan;
        }
        sig.recovery_refetch = true;
        sig.recovery_refetch_pc = pc;
      }
    } else {
      // Counter overran (flip mid-restore): unrecoverable.
      if (fsm_checker) {
        sig.raise(CheckerId::RutFsmCheck, Unit::RUT, true,
                  "rut restore counter overrun");
      }
      return plan;
    }
  } else if (scrub_timer_.get(f) == 0) {
    plan.scrub = true;
    const auto idx = static_cast<u32>(scrub_idx_.get(f)) % kArrayEntries;
    const auto rr = ckpt_.read(idx);  // read corrects & scrubs in place
    if (rr.status == ArrayReadStatus::Corrected) {
      if (mode_.checker_on(f, CheckerId::RutEccReport)) ++sig.corrected;
    } else if (rr.status == ArrayReadStatus::Detected &&
               mode_.checker_on(f, CheckerId::RutEccReport)) {
      // An uncorrectable checkpoint entry means recovery would fail if
      // attempted; the machine stops rather than run unprotected.
      sig.raise(CheckerId::RutEccReport, Unit::RUT, true,
                "uncorrectable checkpoint entry found by scrub");
    }
  }
  return plan;
}

void Rut::update(const netlist::CycleFrame& f, const Plan& plan,
                 const Controls& ctl) {
  if (plan.held) return;

  // Drain write ports into the array (these are architected completions and
  // survive flushes).
  for (u32 i = 0; i < 2; ++i) {
    if (plan.port_write[i]) ckpt_.write(plan.port_idx[i], plan.port_val[i]);
    if (port_[i].v.get(f)) port_[i].v.set(f, false);
  }

  // Sequencer transitions.
  if (ctl.start_recovery) {
    fsm_.set(f, kFsmRestore);
    restore_cnt_.set(f, 0);
  } else if (plan.finish_restore) {
    fsm_.set(f, kFsmIdle);
    restore_cnt_.set(f, 0);
    refetch_pc_.set(f, cpc_.get(f));
    refetch_par_.set(f, cpc_par_.get(f));
  } else if (plan.restore.valid) {
    restore_cnt_.set(f, restore_cnt_.get(f) + 1);
  }

  // Scrubber.
  if (fsm_.get(f) == kFsmIdle) {
    const u64 t = scrub_timer_.get(f);
    if (t == 0) {
      scrub_timer_.set(f, 63);
      scrub_idx_.set(f, (scrub_idx_.get(f) + 1) % kArrayEntries);
    } else {
      scrub_timer_.set(f, t - 1);
    }
  }
}

void Rut::stage_port(const netlist::CycleFrame& f, u32 slot, u32 entry,
                     u64 value) const {
  ensure(slot < 2, "rut port slot");
  port_[slot].v.set(f, true);
  port_[slot].idx.set(f, entry);
  port_[slot].data.set(f, value);
  port_[slot].par.set(f, parity(value ^ entry) != 0);
}

void Rut::on_completion(const netlist::CycleFrame& f, u32 pc_next,
                        bool count) const {
  pc_next &= 0xFFFF;
  cpc_.set(f, pc_next);
  cpc_par_.set(f, parity(pc_next, 16) != 0);
  if (count) ccount_.set(f, (ccount_.get(f) + 1) & 0xFFFF);
}

u64 Rut::completion_count(const netlist::StateVector& sv) const {
  return ccount_.peek(sv);
}

u32 Rut::completion_pc_peek(const netlist::StateVector& sv) const {
  return static_cast<u32>(cpc_.peek(sv));
}

u32 Rut::completion_pc(const netlist::CycleFrame& f) const {
  return static_cast<u32>(cpc_.get(f));
}

isa::ArchState Rut::arch_state(const netlist::StateVector& sv) const {
  isa::ArchState st;
  for (u32 i = 0; i < isa::kNumGprs; ++i) {
    st.gpr[i] = ckpt_.peek_decoded(kGprBase + i).value;
  }
  for (u32 i = 0; i < isa::kNumFprs; ++i) {
    st.fpr[i] = ckpt_.peek_decoded(kFprBase + i).value;
  }
  st.cr = static_cast<u32>(ckpt_.peek_decoded(kCrEntry).value);
  st.lr = ckpt_.peek_decoded(kLrEntry).value;
  st.ctr = ckpt_.peek_decoded(kCtrEntry).value;
  st.pc = cpc_.peek(sv);
  return st;
}

Rut::ReadoutRas Rut::checkpoint_readout_ras() const {
  ReadoutRas r;
  for (u32 e = 0; e < kRestoreEntries; ++e) {
    switch (ckpt_.peek_decoded(e).status) {
      case netlist::ArrayReadStatus::Clean:
        break;
      case netlist::ArrayReadStatus::Corrected:
        ++r.corrected;
        break;
      case netlist::ArrayReadStatus::Detected:
        r.fatal = true;
        break;
    }
  }
  return r;
}

void Rut::reset(netlist::StateVector& sv, const isa::ArchState& init,
                u32 entry_pc, const CoreConfig& cfg) {
  mode_.reset(sv, cfg);
  spares_.reset(sv);
  ckpt_.fill_zero();
  for (u32 i = 0; i < isa::kNumGprs; ++i) ckpt_.write(kGprBase + i, init.gpr[i]);
  for (u32 i = 0; i < isa::kNumFprs; ++i) ckpt_.write(kFprBase + i, init.fpr[i]);
  ckpt_.write(kCrEntry, init.cr);
  ckpt_.write(kLrEntry, init.lr);
  ckpt_.write(kCtrEntry, init.ctr);
  fsm_.poke(sv, kFsmIdle);
  restore_cnt_.poke(sv, 0);
  entry_pc &= 0xFFFF;
  cpc_.poke(sv, entry_pc);
  cpc_par_.poke(sv, parity(entry_pc, 16) != 0);
  ccount_.poke(sv, 0);
  refetch_pc_.poke(sv, 0);
  refetch_par_.poke(sv, false);
  for (u32 i = 0; i < 2; ++i) {
    port_[i].v.poke(sv, false);
    port_[i].idx.poke(sv, 0);
    port_[i].data.poke(sv, 0);
    port_[i].par.poke(sv, false);
  }
  scrub_idx_.poke(sv, 0);
  scrub_timer_.poke(sv, 63);
}

}  // namespace sfi::core
