#include "core/ifu.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "isa/encoding.hpp"

namespace sfi::core {

namespace {
using netlist::LatchType;
using netlist::Unit;
constexpr u8 kRing = 0;
}  // namespace

Ifu::Ifu(netlist::LatchRegistry& reg)
    : mode_(reg, "ifu", Unit::IFU, kRing, CheckerId::IfuIcacheTagParity, 3),
      spares_(reg, "ifu", Unit::IFU, kRing, 900),
            icache_(reg, kRing) {
  fetch_pc_ = netlist::Field(
      reg.add("ifu.fetch_pc", Unit::IFU, LatchType::Func, kRing, 16));
  fetch_pc_par_ = netlist::Flag(
      reg.add("ifu.fetch_pc.p", Unit::IFU, LatchType::Func, kRing, 1));
  halt_ =
      netlist::Flag(reg.add("ifu.halt", Unit::IFU, LatchType::Func, kRing, 1));
  netlist::LatchRing ring;
  for (u32 i = 0; i < kEntries; ++i) {
    const std::string n = "ifu.fbuf" + std::to_string(i);
    const auto& slot = ring.slots.emplace_back(std::vector<netlist::FieldRef>{
        reg.add(n + ".v", Unit::IFU, LatchType::Func, kRing, 1),
        reg.add(n + ".instr", Unit::IFU, LatchType::Func, kRing, 32),
        reg.add(n + ".pc", Unit::IFU, LatchType::Func, kRing, 16),
        reg.add(n + ".p", Unit::IFU, LatchType::Func, kRing, 1)});
    v_.emplace_back(slot[0]);
    instr_.emplace_back(slot[1]);
    pc_.emplace_back(slot[2]);
    par_.emplace_back(slot[3]);
  }
  ring.head = reg.add("ifu.fbuf.head", Unit::IFU, LatchType::Func, kRing, 2);
  ring.tail = reg.add("ifu.fbuf.tail", Unit::IFU, LatchType::Func, kRing, 2);
  head_ = netlist::Field(ring.head);
  tail_ = netlist::Field(ring.tail);
  count_ =
      netlist::Field(reg.add("ifu.fbuf.count", Unit::IFU, LatchType::Func, kRing, 3));
  reg.add_ring(std::move(ring));
}

Ifu::Plan Ifu::detect(const netlist::CycleFrame& f, Signals& sig,
                      bool quiesced) {
  Plan plan;
  if (mode_.clocks_stopped(f)) {
    plan.held = true;
    return plan;
  }
  if (mode_.force_error(f) &&
      mode_.checker_on(f, CheckerId::IfuIcacheTagParity)) {
    sig.raise(CheckerId::IfuIcacheTagParity, Unit::IFU, false,
              "ifu mode force_error");
  }
  if (quiesced) {
    // Keep the miss FSM draining, nothing else.
    plan.ic = icache_.plan_fetch(f, 0, false, mode_, sig);
    return plan;
  }

  const auto pc = static_cast<u32>(fetch_pc_.get(f));
  const bool pc_ok =
      parity(pc, 16) == static_cast<u32>(fetch_pc_par_.get(f) ? 1 : 0);
  if (!pc_ok && mode_.checker_on(f, CheckerId::IfuIbufParity)) {
    sig.raise(CheckerId::IfuIbufParity, Unit::IFU, false,
              "fetch pc parity");
    plan.ic = icache_.plan_fetch(f, pc, false, mode_, sig);
    return plan;
  }

  const bool want = !halt_.get(f) && count_.get(f) < kEntries;
  plan.ic = icache_.plan_fetch(f, pc, want, mode_, sig);
  if (plan.ic.hit) {
    plan.enqueue = true;
    plan.instr = plan.ic.word;
    plan.pc = pc;
  }
  return plan;
}

Ifu::Head Ifu::head(const netlist::CycleFrame& f) const {
  Head h;
  const auto hd = static_cast<u32>(head_.get(f)) % kEntries;
  if (count_.get(f) == 0 || !v_[hd].get(f)) return h;
  h.valid = true;
  h.instr = static_cast<u32>(instr_[hd].get(f));
  h.pc = static_cast<u32>(pc_[hd].get(f));
  return h;
}

bool Ifu::head_ok(const netlist::CycleFrame& f, Signals& sig) const {
  const auto hd = static_cast<u32>(head_.get(f)) % kEntries;
  const bool ok =
      entry_parity(static_cast<u32>(instr_[hd].get(f)),
                   static_cast<u32>(pc_[hd].get(f))) == par_[hd].get(f);
  if (!ok) {
    if (mode_.checker_on(f, CheckerId::IfuIbufParity)) {
      sig.raise(CheckerId::IfuIbufParity, Unit::IFU, false,
                "fetch buffer entry parity");
      return false;  // consumption blocked; recovery flushes this cycle
    }
    return true;  // checker masked: the corrupted entry flows on
  }
  return true;
}

void Ifu::clear_buffer(const netlist::CycleFrame& f) const {
  for (u32 i = 0; i < kEntries; ++i) v_[i].set(f, false);
  head_.set(f, 0);
  tail_.set(f, 0);
  count_.set(f, 0);
}

void Ifu::set_fetch_pc(const netlist::CycleFrame& f, u32 pc) const {
  pc &= 0xFFFF;
  fetch_pc_.set(f, pc);
  fetch_pc_par_.set(f, parity(pc, 16) != 0);
}

void Ifu::update(const netlist::CycleFrame& f, const Plan& plan,
                 const Controls& ctl, const Signals& sig, bool dequeue,
                 mem::EccMemory& mem) {
  if (plan.held) return;

  // The miss FSM keeps running across redirects (a stale refill is benign).
  icache_.update(f, plan.ic, mem);

  if (sig.recovery_refetch) {
    clear_buffer(f);
    set_fetch_pc(f, sig.recovery_refetch_pc);
    halt_.set(f, false);
    return;
  }
  if (ctl.flush) {
    clear_buffer(f);
    halt_.set(f, false);
    return;
  }
  if (sig.redirect) {
    clear_buffer(f);
    set_fetch_pc(f, sig.redirect_pc);
    halt_.set(f, false);
    return;
  }

  u32 hd = static_cast<u32>(head_.get(f)) % kEntries;
  u32 tl = static_cast<u32>(tail_.get(f)) % kEntries;
  u32 cnt = static_cast<u32>(count_.get(f));

  if (dequeue && cnt > 0) {
    v_[hd].set(f, false);
    hd = (hd + 1) % kEntries;
    --cnt;
  }
  if (plan.enqueue && cnt < kEntries && !ctl.block_issue) {
    v_[tl].set(f, true);
    instr_[tl].set(f, plan.instr);
    pc_[tl].set(f, plan.pc);
    par_[tl].set(f, entry_parity(plan.instr, plan.pc));
    tl = (tl + 1) % kEntries;
    ++cnt;
    set_fetch_pc(f, plan.pc + 4);
    if (plan.instr == isa::kStopWord) halt_.set(f, true);
  }
  head_.set(f, hd);
  tail_.set(f, tl);
  count_.set(f, cnt);
}

void Ifu::reset(netlist::StateVector& sv, u32 entry_pc, const CoreConfig& cfg) {
  mode_.reset(sv, cfg);
  spares_.reset(sv);
  icache_.reset(sv);
  entry_pc &= 0xFFFF;
  fetch_pc_.poke(sv, entry_pc);
  fetch_pc_par_.poke(sv, parity(entry_pc, 16) != 0);
  halt_.poke(sv, false);
  for (u32 i = 0; i < kEntries; ++i) {
    v_[i].poke(sv, false);
    instr_[i].poke(sv, 0);
    pc_[i].poke(sv, 0);
    par_[i].poke(sv, false);
  }
  head_.poke(sv, 0);
  tail_.poke(sv, 0);
  count_.poke(sv, 0);
}

}  // namespace sfi::core
