#include "core/core_model.hpp"

#include "common/check.hpp"

namespace sfi::core {

namespace {
using netlist::Unit;
}

Pearl6Model::Pearl6Model(CoreConfig cfg)
    : cfg_(cfg),
      mem_(CoreConfig::kMemBytes),
      ifu_(reg_),
      idu_(reg_),
      fxu_(reg_),
      fpu_(reg_),
      lsu_(reg_),
      rut_(reg_),
      perv_(reg_) {
  reg_.finalize();
  arrays_.add(ifu_.icache().data_array());
  arrays_.add(lsu_.dcache().data_array());
  arrays_.add(rut_.checkpoint_array());
}

void Pearl6Model::load_workload(isa::Program program, isa::ArchState init) {
  program_ = std::move(program);
  init_ = init;
}

void Pearl6Model::reset(netlist::StateVector& sv) {
  mem_.fill_zero();
  // Load the program image through the controller so every word carries
  // consistent check bits.
  for (std::size_t i = 0; i < program_.code.size(); ++i) {
    mem_.store(program_.code_base + i * 4, program_.code[i], 4);
  }
  for (const isa::Program::DataBlob& blob : program_.data) {
    mem_.write_block(blob.addr, blob.bytes);
  }
  (void)mem_.take_corrected();
  (void)mem_.take_fatal();
  const auto entry = static_cast<u32>(program_.entry);
  ifu_.reset(sv, entry, cfg_);
  idu_.reset(sv, init_, cfg_);
  fxu_.reset(sv, init_, cfg_);
  fpu_.reset(sv, init_, cfg_);
  lsu_.reset(sv, cfg_);
  rut_.reset(sv, init_, entry, cfg_);
  perv_.reset(sv, cfg_);
}

void Pearl6Model::evaluate(const netlist::CycleFrame& f) {
  // A checkstopped, hung or finished machine holds all state.
  if (perv_.frozen(f.cur)) return;

  Signals sig;

  // Main-store patrol scrub + controller event pickup (periphery RAS; the
  // memory controller reports independently of the core checker masks).
  mem_.scrub_step();
  sig.corrected += mem_.take_corrected();
  if (mem_.take_fatal()) {
    sig.raise(CheckerId::MemEcc, Unit::Core, true,
              "uncorrectable main-store word");
  }

  // ---------- detect ----------
  const WbData wb = idu_.wb_view(f);
  Lsu::DrainPlan drain;
  if (wb.valid) {
    sig.completion = true;
    sig.completion_is_stop = wb.is_stop;
    idu_.verify_completion(f, wb, sig, rut_.completion_pc(f), fxu_.mode(),
                           fpu_.mode(), lsu_.mode());
    if (wb.is_store) drain = lsu_.plan_drain(f, sig);
  }

  const bool rut_active_now = rut_.active(f);
  const Rut::Plan rut_plan = rut_.detect(f, sig);
  Fxu::Plan fxu_plan = fxu_.detect(f, sig);
  Fpu::Plan fpu_plan = fpu_.detect(f, sig);
  Lsu::Plan lsu_plan = lsu_.detect(f, sig, mem_);
  Ifu::Plan ifu_plan = ifu_.detect(f, sig, /*quiesced=*/rut_active_now);
  Idu::IssuePlan issue_plan = idu_.plan_issue(f, sig, ifu_, fxu_, fpu_, lsu_);

  // In-order invariant: at most one instruction may reach WB per cycle. A
  // violation means corrupted valid bits — a completion-bus collision the
  // pervasive protocol checker treats as fatal.
  WbData wb_next;
  {
    int producers = 0;
    for (const WbData* cand :
         {&fxu_plan.wb, &fpu_plan.wb, &lsu_plan.wb}) {
      if (cand->valid) {
        ++producers;
        if (!wb_next.valid) wb_next = *cand;
      }
    }
    if (producers > 1 &&
        perv_.mode().checker_on(f, CheckerId::CoreRecoveryProtocol)) {
      sig.raise(CheckerId::CoreRecoveryProtocol, Unit::Core, true,
                "completion bus collision");
    }
  }

  // ---------- decide ----------
  const bool rut_active = rut_active_now;
  const Controls ctl = perv_.decide(f, sig, rut_active);

  const bool allow_issue = !ctl.flush && !ctl.block_issue;
  if (!allow_issue) {
    sig.redirect = false;  // a squashed branch must not redirect fetch
  }
  const bool do_issue = issue_plan.issue && allow_issue;
  const bool do_take = issue_plan.take_fetch && allow_issue &&
                       (do_issue || issue_plan.issue == false);

  // ---------- update ----------
  // 0. RUT first: it drains (and clears) its checkpoint write ports from the
  //    *current* state before this cycle's completion stages new ones —
  //    otherwise a back-to-back completion's port write would be clobbered.
  rut_.update(f, rut_plan, ctl);

  // 1. Completion (architects state; must precede the IDU's issue staging so
  //    scoreboard releases compose with same-cycle sets).
  if (wb.valid && !ctl.block_completion) {
    u32 port = 0;
    switch (wb.dest_kind) {
      case DestKind::Gpr:
        fxu_.gpr().write(f, wb.dest, wb.value);
        rut_.stage_port(f, port++, Rut::kGprBase + wb.dest, wb.value);
        break;
      case DestKind::Fpr: {
        const u32 idx = wb.dest % isa::kNumFprs;
        fpu_.fpr().write(f, idx, wb.value);
        rut_.stage_port(f, port++, Rut::kFprBase + idx, wb.value);
        break;
      }
      case DestKind::Cr: {
        const u32 cr_after = idu_.write_cr_field(f, wb.dest & 7,
                                                 static_cast<u32>(wb.value));
        rut_.stage_port(f, port++, Rut::kCrEntry, cr_after);
        break;
      }
      case DestKind::None:
        break;
    }
    if (wb.write_lr) {
      idu_.write_lr(f, wb.lr_val);
      rut_.stage_port(f, port++, Rut::kLrEntry, wb.lr_val);
    }
    if (wb.write_ctr) {
      ensure(port < 2, "completion needs more than two checkpoint ports");
      idu_.write_ctr(f, wb.ctr_val);
      rut_.stage_port(f, port++, Rut::kCtrEntry, wb.ctr_val);
    }
    rut_.on_completion(f, wb.pc_next, /*count=*/!wb.is_stop);
    idu_.release_scoreboard(f, wb);
    if (wb.is_store) lsu_.apply_drain(f, drain, mem_);
  }

  // 2. Restore write path (mutually exclusive with completions: the
  //    pipeline is flushed while the RUT sequencer runs).
  if (rut_plan.restore.valid) {
    const u32 e = rut_plan.restore.entry;
    const u64 v = rut_plan.restore.value;
    if (e < Rut::kFprBase) {
      fxu_.gpr().write(f, e - Rut::kGprBase, v);
    } else if (e < Rut::kFprBase + isa::kNumFprs) {
      fpu_.fpr().write(f, e - Rut::kFprBase, v);
    } else if (e == Rut::kCrEntry) {
      idu_.write_cr_whole(f, static_cast<u32>(v));
    } else if (e == Rut::kLrEntry) {
      idu_.write_lr(f, v);
    } else if (e == Rut::kCtrEntry) {
      idu_.write_ctr(f, v);
    }
  }

  // 3. Execution units (issue routing honours the decision).
  std::optional<IssueBundle> to_fxu;
  std::optional<IssueBundle> to_fpu;
  std::optional<IssueBundle> to_lsu;
  if (do_issue) {
    switch (issue_plan.target) {
      case IssueTarget::Fxu: to_fxu = issue_plan.bundle; break;
      case IssueTarget::Fpu: to_fpu = issue_plan.bundle; break;
      case IssueTarget::Lsu: to_lsu = issue_plan.bundle; break;
      case IssueTarget::None: break;
    }
  }
  fxu_.update(f, fxu_plan, ctl, to_fxu);
  fpu_.update(f, fpu_plan, ctl, to_fpu);
  lsu_.update(f, lsu_plan, ctl, to_lsu, mem_);

  // 4. IDU: WB staging, DEC movement, scoreboard.
  {
    Idu::IssuePlan gated = issue_plan;
    gated.issue = do_issue;
    gated.take_fetch = do_take;
    idu_.update(f, gated, ctl, wb_next);
    if (do_take) {
      const Ifu::Head head = ifu_.head(f);
      idu_.stage_dec(f, head.instr, head.pc);
    }
  }

  // 5. IFU (fetch, redirects, buffer movement).
  ifu_.update(f, ifu_plan, ctl, sig, /*dequeue=*/do_take, mem_);

  // 6. Pervasive bookkeeping.
  perv_.update(f, sig, ctl, rut_active);

  if (observer_ &&
      (!sig.events.empty() || ctl.start_recovery || ctl.checkstop ||
       ctl.hang || sig.recovery_refetch || sig.corrected > 0)) {
    observer_(sig, ctl);
  }
}

emu::RasStatus Pearl6Model::ras_status(
    const netlist::StateVector& sv) const {
  emu::RasStatus s;
  s.checkstop = perv_.checkstop_peek(sv);
  s.hang_detected = perv_.hang_peek(sv);
  s.recovery_active = rut_.active_peek(sv);
  s.recovery_count = perv_.recovery_count_peek(sv);
  s.corrected_count = perv_.corrected_count_peek(sv);
  s.instructions_completed = rut_.completion_count(sv);
  s.test_finished = perv_.done_peek(sv);
  return s;
}

isa::ArchState Pearl6Model::arch_state(const netlist::StateVector& sv) const {
  return rut_.arch_state(sv);
}

void Pearl6Model::save_aux(std::vector<u8>& out) const {
  mem_.save(out);
  ifu_.icache().data_array().save(out);
  lsu_.dcache().data_array().save(out);
  rut_.checkpoint_array().save(out);
}

emu::AuxSpan Pearl6Model::aux_phase() const {
  const auto [offset, size] = mem_.patrol_in_save();
  return {offset, size};
}

void Pearl6Model::restore_aux(std::span<const u8> in) {
  mem_.load_snapshot(in);
  ifu_.icache().data_array().load(in);
  lsu_.dcache().data_array().load(in);
  rut_.checkpoint_array().load(in);
  require(in.empty(), "aux snapshot size mismatch");
}

}  // namespace sfi::core
