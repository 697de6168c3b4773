#include "core/lsu.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "isa/exec.hpp"

namespace sfi::core {

namespace {
using isa::Mnemonic;
using netlist::LatchType;
using netlist::Unit;
constexpr u8 kRing = 4;

constexpr u32 enc_size(u32 size) { return size == 1 ? 0 : size == 4 ? 1 : 2; }
constexpr u32 dec_size(u32 enc) { return enc == 0 ? 1 : enc == 1 ? 4 : 8; }
}  // namespace

u32 Lsu::size_of(Mnemonic mn) { return isa::access_size(mn); }

bool Lsu::is_store_mn(Mnemonic mn) {
  return mn == Mnemonic::STW || mn == Mnemonic::STB || mn == Mnemonic::STD ||
         mn == Mnemonic::STFD;
}

Lsu::Lsu(netlist::LatchRegistry& reg)
    : mode_(reg, "lsu", Unit::LSU, kRing, CheckerId::LsuStqParity, 4),
      spares_(reg, "lsu", Unit::LSU, kRing, 2600),
      dcache_(reg, kRing) {
  ex1_v_ = netlist::Flag(reg.add("lsu.ex1.v", Unit::LSU, LatchType::Func, kRing, 1));
  ex1_mn_ = netlist::Field(reg.add("lsu.ex1.mn", Unit::LSU, LatchType::Func, kRing, 6));
  ex1_dest_ = netlist::Field(reg.add("lsu.ex1.dest", Unit::LSU, LatchType::Func, kRing, 5));
  ex1_ea_ = netlist::Field(reg.add("lsu.ex1.ea", Unit::LSU, LatchType::Func, kRing, 16));
  ex1_eapar_ = netlist::Flag(reg.add("lsu.ex1.ea.p", Unit::LSU, LatchType::Func, kRing, 1));
  ex1_sd_ = netlist::Field(reg.add("lsu.ex1.sd", Unit::LSU, LatchType::Func, kRing, 64));
  ex1_sdpar_ = netlist::Flag(reg.add("lsu.ex1.sd.p", Unit::LSU, LatchType::Func, kRing, 1));
  ex1_pc_ = netlist::Field(reg.add("lsu.ex1.pc", Unit::LSU, LatchType::Func, kRing, 16));
  ex1_pcn_ = netlist::Field(reg.add("lsu.ex1.pcn", Unit::LSU, LatchType::Func, kRing, 16));
  ex1_ctlpar_ = netlist::Flag(reg.add("lsu.ex1.ctl.p", Unit::LSU, LatchType::Func, kRing, 1));
  ex1_dk_ = netlist::Field(reg.add("lsu.ex1.dk", Unit::LSU, LatchType::Func, kRing, 2));

  ex2_v_ = netlist::Flag(reg.add("lsu.ex2.v", Unit::LSU, LatchType::Func, kRing, 1));
  ex2_mn_ = netlist::Field(reg.add("lsu.ex2.mn", Unit::LSU, LatchType::Func, kRing, 6));
  ex2_dest_ = netlist::Field(reg.add("lsu.ex2.dest", Unit::LSU, LatchType::Func, kRing, 5));
  ex2_pa_ = netlist::Field(reg.add("lsu.ex2.pa", Unit::LSU, LatchType::Func, kRing, 16));
  ex2_papar_ = netlist::Flag(reg.add("lsu.ex2.pa.p", Unit::LSU, LatchType::Func, kRing, 1));
  ex2_sd_ = netlist::Field(reg.add("lsu.ex2.sd", Unit::LSU, LatchType::Func, kRing, 64));
  ex2_sdpar_ = netlist::Flag(reg.add("lsu.ex2.sd.p", Unit::LSU, LatchType::Func, kRing, 1));
  ex2_pc_ = netlist::Field(reg.add("lsu.ex2.pc", Unit::LSU, LatchType::Func, kRing, 16));
  ex2_pcn_ = netlist::Field(reg.add("lsu.ex2.pcn", Unit::LSU, LatchType::Func, kRing, 16));
  ex2_ctlpar_ = netlist::Flag(reg.add("lsu.ex2.ctl.p", Unit::LSU, LatchType::Func, kRing, 1));
  ex2_dk_ = netlist::Field(reg.add("lsu.ex2.dk", Unit::LSU, LatchType::Func, kRing, 2));

  stq_.resize(kStq);
  netlist::LatchRing ring;
  for (u32 i = 0; i < kStq; ++i) {
    const std::string n = "lsu.stq" + std::to_string(i);
    const auto& slot = ring.slots.emplace_back(std::vector<netlist::FieldRef>{
        reg.add(n + ".v", Unit::LSU, LatchType::Func, kRing, 1),
        reg.add(n + ".addr", Unit::LSU, LatchType::Func, kRing, 16),
        reg.add(n + ".addr.p", Unit::LSU, LatchType::Func, kRing, 1),
        reg.add(n + ".data", Unit::LSU, LatchType::Func, kRing, 64),
        reg.add(n + ".data.p", Unit::LSU, LatchType::Func, kRing, 1),
        reg.add(n + ".size", Unit::LSU, LatchType::Func, kRing, 2)});
    stq_[i].v = netlist::Flag(slot[0]);
    stq_[i].addr = netlist::Field(slot[1]);
    stq_[i].apar = netlist::Flag(slot[2]);
    stq_[i].data = netlist::Field(slot[3]);
    stq_[i].dpar = netlist::Flag(slot[4]);
    stq_[i].size = netlist::Field(slot[5]);
  }
  ring.head = reg.add("lsu.stq.head", Unit::LSU, LatchType::Func, kRing, 3);
  ring.tail = reg.add("lsu.stq.tail", Unit::LSU, LatchType::Func, kRing, 3);
  stq_head_ = netlist::Field(ring.head);
  stq_tail_ = netlist::Field(ring.tail);
  stq_count_ = netlist::Field(reg.add("lsu.stq.count", Unit::LSU, LatchType::Func, kRing, 4));
  reg.add_ring(std::move(ring));

  erat_.resize(kErat);
  for (u32 i = 0; i < kErat; ++i) {
    const std::string n = "lsu.erat" + std::to_string(i);
    erat_[i].v = netlist::Flag(reg.add(n + ".v", Unit::LSU, LatchType::Func, kRing, 1));
    erat_[i].ppn = netlist::Field(reg.add(n + ".ppn", Unit::LSU, LatchType::Func, kRing, 4));
    erat_[i].par = netlist::Flag(reg.add(n + ".p", Unit::LSU, LatchType::Func, kRing, 1));
  }
  erat_busy_ = netlist::Flag(reg.add("lsu.erat.fill.busy", Unit::LSU, LatchType::Func, kRing, 1));
  erat_page_ = netlist::Field(reg.add("lsu.erat.fill.page", Unit::LSU, LatchType::Func, kRing, 4));
  erat_wait_ = netlist::Field(reg.add("lsu.erat.fill.wait", Unit::LSU, LatchType::Func, kRing, 2));
}

Lsu::Plan Lsu::detect(const netlist::CycleFrame& f, Signals& sig,
                      mem::EccMemory& mem) {
  Plan plan;
  if (mode_.clocks_stopped(f)) {
    plan.held = true;
    return plan;
  }
  if (mode_.force_error(f) && mode_.checker_on(f, CheckerId::LsuStqParity)) {
    sig.raise(CheckerId::LsuStqParity, Unit::LSU, false,
              "lsu mode force_error");
  }

  // ---- EX2: cache access / store-queue insert ----
  bool ex2_will_drain = !ex2_v_.get(f);
  bool dcache_claimed = false;
  if (ex2_v_.get(f)) {
    const auto mn = static_cast<Mnemonic>(ex2_mn_.get(f));
    const auto pa = static_cast<u32>(ex2_pa_.get(f));
    const bool pa_ok =
        parity(pa, 16) == static_cast<u32>(ex2_papar_.get(f) ? 1 : 0);
    if (!pa_ok && mode_.checker_on(f, CheckerId::LsuDcacheTagParity)) {
      sig.raise(CheckerId::LsuDcacheTagParity, Unit::LSU, false,
                "lsu physical address parity");
    }
    WbData wb;
    wb.mn = mn;
    wb.pc = static_cast<u32>(ex2_pc_.get(f));
    wb.pc_next = static_cast<u32>(ex2_pcn_.get(f));
    wb.ctl_par = ex2_ctlpar_.get(f);
    if (is_store_mn(mn)) {
      plan.stq_insert = true;
      plan.stq_addr = pa;
      plan.stq_size = size_of(mn);
      plan.stq_data = ex2_sd_.get(f);
      plan.retire_ex2 = true;
      ex2_will_drain = true;
      wb.valid = true;
      wb.dest_kind = DestKind::None;
      wb.is_store = true;
      wb.vpar = parity(u64{0}) != 0;
      plan.wb = wb;
    } else {
      plan.dc = dcache_.plan_load(f, pa, size_of(mn), true, mode_, sig, mem);
      dcache_claimed = true;
      if (plan.dc.done) {
        u64 value = plan.dc.data;
        wb.valid = true;
        wb.dest_kind = static_cast<DestKind>(ex2_dk_.get(f));
        wb.dest = static_cast<u8>(ex2_dest_.get(f));
        wb.value = value;
        wb.vpar = parity(value) != 0;
        wb.res2 = static_cast<u8>(residue3(value));
        plan.wb = wb;
        plan.retire_ex2 = true;
        ex2_will_drain = true;
      }
    }
  }
  if (!dcache_claimed) {
    // Keep the miss FSM advancing even with no load in EX2.
    plan.dc = dcache_.plan_load(f, 0, 1, false, mode_, sig, mem);
  }

  // ---- EX1: address translation ----
  if (ex1_v_.get(f) && ex2_will_drain && !erat_busy_.get(f)) {
    const auto ea = static_cast<u32>(ex1_ea_.get(f));
    const bool ea_ok =
        parity(ea, 16) == static_cast<u32>(ex1_eapar_.get(f) ? 1 : 0);
    if (!ea_ok && mode_.checker_on(f, CheckerId::LsuEratParity)) {
      sig.raise(CheckerId::LsuEratParity, Unit::LSU, false,
                "lsu effective address parity");
    }
    const u32 page = (ea >> 12) & 0xF;
    const EratEntry& e = erat_[page];
    if (!e.v.get(f)) {
      plan.start_erat_fill = true;
      plan.erat_page = page;
    } else {
      const u64 ppn = e.ppn.get(f);
      const bool erat_ok =
          parity(ppn | (u64{1} << 4), 5) ==
          static_cast<u32>(e.par.get(f) ? 1 : 0);
      if (!erat_ok && mode_.checker_on(f, CheckerId::LsuEratParity)) {
        sig.raise(CheckerId::LsuEratParity, Unit::LSU, false,
                  "erat entry parity");
        // A cached translation is disposable: drop it so the refill — not a
        // recovery livelock — repairs the structure.
        plan.erat_invalidate = true;
        plan.erat_page = page;
      } else {
        plan.advance_ex1 = true;
      }
    }
  }
  return plan;
}

Lsu::DrainPlan Lsu::plan_drain(const netlist::CycleFrame& f,
                               Signals& sig) const {
  DrainPlan plan;
  const auto head = static_cast<u32>(stq_head_.get(f)) % kStq;
  const StqEntry& e = stq_[head];
  const u64 addr = e.addr.get(f);
  const u64 data = e.data.get(f);
  const bool entry_ok =
      e.v.get(f) &&
      parity(addr, 16) == static_cast<u32>(e.apar.get(f) ? 1 : 0) &&
      parity(data) == static_cast<u32>(e.dpar.get(f) ? 1 : 0);
  if (!entry_ok) {
    if (mode_.checker_on(f, CheckerId::LsuStqParity)) {
      // Detected at the commit boundary, *before* the store architects:
      // completion is blocked, the pipeline flushes, and the store
      // re-executes from the checkpoint — fully recoverable.
      sig.raise(CheckerId::LsuStqParity, Unit::LSU, false,
                "store corrupted in store queue");
      return plan;
    }
    // Checker masked: the corrupted store drains silently (SDC path).
  }
  plan.valid = true;
  plan.addr = static_cast<u32>(addr);
  plan.size = dec_size(static_cast<u32>(e.size.get(f)));
  plan.data = data;
  return plan;
}

void Lsu::apply_drain(const netlist::CycleFrame& f, const DrainPlan& plan,
                      mem::EccMemory& mem) {
  const auto head = static_cast<u32>(stq_head_.get(f)) % kStq;
  if (plan.valid) {
    dcache_.commit_store(f, plan.addr, plan.size, plan.data, mem);
  }
  stq_[head].v.set(f, false);
  stq_head_.set(f, (head + 1) % kStq);
  const u64 cnt = stq_count_.get(f);
  stq_count_.set(f, cnt > 0 ? cnt - 1 : 0);
}

void Lsu::update(const netlist::CycleFrame& f, const Plan& plan,
                 const Controls& ctl, const std::optional<IssueBundle>& issue,
                 mem::EccMemory& mem) {
  if (plan.held) return;

  dcache_.update(f, plan.dc, mem);

  // ERAT fill sequencer runs across flushes (a fill is never speculative
  // state — identity translation).
  if (erat_busy_.get(f)) {
    const u64 w = erat_wait_.get(f);
    if (w > 0) {
      erat_wait_.set(f, w - 1);
    } else {
      const auto page = static_cast<u32>(erat_page_.get(f));
      erat_[page].v.set(f, true);
      erat_[page].ppn.set(f, page);  // identity translation
      erat_[page].par.set(f, parity(page | (u64{1} << 4), 5) != 0);
      erat_busy_.set(f, false);
    }
  } else if (plan.start_erat_fill && !ctl.flush) {
    erat_busy_.set(f, true);
    erat_page_.set(f, plan.erat_page);
    erat_wait_.set(f, CoreConfig::kEratFillLatency - 1);
  }

  // Parity-casualty translations are dropped even across a flush (the
  // invalidate is structural repair, not speculative state).
  if (plan.erat_invalidate) erat_[plan.erat_page].v.set(f, false);

  if (ctl.flush) {
    ex1_v_.set(f, false);
    ex2_v_.set(f, false);
    // Uncommitted stores die with the flush; committed ones were already
    // drained at completion time.
    for (u32 i = 0; i < kStq; ++i) stq_[i].v.set(f, false);
    stq_head_.set(f, 0);
    stq_tail_.set(f, 0);
    stq_count_.set(f, 0);
    return;
  }

  if (plan.stq_insert) {
    const auto tail = static_cast<u32>(stq_tail_.get(f)) % kStq;
    StqEntry& e = stq_[tail];
    e.v.set(f, true);
    e.addr.set(f, plan.stq_addr & 0xFFFF);
    e.apar.set(f, parity(plan.stq_addr & 0xFFFF, 16) != 0);
    e.data.set(f, plan.stq_data);
    e.dpar.set(f, parity(plan.stq_data) != 0);
    e.size.set(f, enc_size(plan.stq_size));
    stq_tail_.set(f, (tail + 1) % kStq);
    stq_count_.set(f, stq_count_.get(f) + 1);
  }

  if (plan.retire_ex2) ex2_v_.set(f, false);

  if (plan.advance_ex1) {
    const auto ea = static_cast<u32>(ex1_ea_.get(f));
    const u32 page = (ea >> 12) & 0xF;
    const auto ppn = static_cast<u32>(erat_[page].ppn.get(f));
    const u32 pa = ((ppn << 12) | (ea & 0xFFF)) & 0xFFFF;
    ex2_v_.set(f, true);
    ex2_mn_.set(f, ex1_mn_.get(f));
    ex2_dest_.set(f, ex1_dest_.get(f));
    ex2_pa_.set(f, pa);
    ex2_papar_.set(f, parity(pa, 16) != 0);
    ex2_sd_.set(f, ex1_sd_.get(f));
    ex2_sdpar_.set(f, ex1_sdpar_.get(f));
    ex2_pc_.set(f, ex1_pc_.get(f));
    ex2_pcn_.set(f, ex1_pcn_.get(f));
    ex2_ctlpar_.set(f, ex1_ctlpar_.get(f));
    ex2_dk_.set(f, ex1_dk_.get(f));
    ex1_v_.set(f, false);
  }

  if (issue) {
    const IssueBundle& is = *issue;
    const u32 ea = static_cast<u32>(is.a) & 0xFFFF;
    ex1_v_.set(f, true);
    ex1_mn_.set(f, static_cast<u64>(is.mn));
    ex1_dest_.set(f, is.dest);
    ex1_ea_.set(f, ea);
    ex1_eapar_.set(f, parity(ea, 16) != 0);
    ex1_sd_.set(f, is.b);
    ex1_sdpar_.set(f, parity(is.b) != 0);
    ex1_pc_.set(f, is.pc & 0xFFFF);
    ex1_pcn_.set(f, is.pc_next & 0xFFFF);
    ex1_ctlpar_.set(f, control_parity(is.mn, is.dest_kind, is.dest,
                                      is.pc & 0xFFFF, is.pc_next & 0xFFFF,
                                      is.is_store, false, false, false));
    ex1_dk_.set(f, static_cast<u64>(is.dest_kind));
  }
}

void Lsu::reset(netlist::StateVector& sv, const CoreConfig& cfg) {
  mode_.reset(sv, cfg);
  spares_.reset(sv);
  dcache_.reset(sv);
  ex1_v_.poke(sv, false);
  ex1_mn_.poke(sv, 0);
  ex1_dest_.poke(sv, 0);
  ex1_ea_.poke(sv, 0);
  ex1_eapar_.poke(sv, false);
  ex1_sd_.poke(sv, 0);
  ex1_sdpar_.poke(sv, false);
  ex1_pc_.poke(sv, 0);
  ex1_pcn_.poke(sv, 0);
  ex1_ctlpar_.poke(sv, false);
  ex1_dk_.poke(sv, 0);
  ex2_v_.poke(sv, false);
  ex2_mn_.poke(sv, 0);
  ex2_dest_.poke(sv, 0);
  ex2_pa_.poke(sv, 0);
  ex2_papar_.poke(sv, false);
  ex2_sd_.poke(sv, 0);
  ex2_sdpar_.poke(sv, false);
  ex2_pc_.poke(sv, 0);
  ex2_pcn_.poke(sv, 0);
  ex2_ctlpar_.poke(sv, false);
  ex2_dk_.poke(sv, 0);
  for (u32 i = 0; i < kStq; ++i) {
    stq_[i].v.poke(sv, false);
    stq_[i].addr.poke(sv, 0);
    stq_[i].apar.poke(sv, false);
    stq_[i].data.poke(sv, 0);
    stq_[i].dpar.poke(sv, false);
    stq_[i].size.poke(sv, 0);
  }
  stq_head_.poke(sv, 0);
  stq_tail_.poke(sv, 0);
  stq_count_.poke(sv, 0);
  // ERAT comes up warm with identity translations (a cold ERAT would only
  // add fill latency to the golden run).
  for (u32 i = 0; i < kErat; ++i) {
    erat_[i].v.poke(sv, true);
    erat_[i].ppn.poke(sv, i);
    erat_[i].par.poke(sv, parity(i | (u64{1} << 4), 5) != 0);
  }
  erat_busy_.poke(sv, false);
  erat_page_.poke(sv, 0);
  erat_wait_.poke(sv, 0);
}

}  // namespace sfi::core
