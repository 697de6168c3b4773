// Engine implementations.
//
// CampaignWorker is the scalar engine: one injection at a time, seek + flip
// + simulate + classify (with the footprint tracker observing the run when
// forensics are on), then retire() builds the record, reports it and keeps
// the footprint. It is also the lane engine's private executor.
// Both engines first admit the fault against the golden trace's access
// timeline (InjectionRunner::admit): a fault whose run ends before any
// reference step reads a flipped bit — dead on arrival, or an exit before
// the first read — retires from the timeline with no seek and no simulated
// cycle. The scalar engine enters every other toggle's run at the first
// step that reads a flipped bit; the lane engine rides it from its own
// cycle.
//
// LaneEngine is concurrent fault simulation by sparse diffs. Each in-flight
// injection ("lane") is represented as the XOR difference D between its
// latch state and one shared fault-free reference replay (the lead cursor).
// During the lead's step an AccessRecorder captures the exact bit-sets the
// model read (R) and wrote (W) that cycle. Then, per lane:
//
//   - D ∩ R = ∅: no value the lane's cycle depends on differed, so its
//     cycle was *provably identical* to the reference's — nothing is
//     simulated, and reference writes land in the lane too: D ← D \ W.
//     (A bit that is read-modify-written is in R, so only pure overwrites
//     erase diff bits. Aux state — memory and data arrays — stays equal by
//     the same induction: identical reads imply identical writes.)
//   - D ∩ R ≠ ∅: the lane's cycle may diverge. The lane is materialized
//     from the trail cursor (one cycle behind the lead) by XOR-ing D into
//     its snapshot, and finishes on a private executor — a CampaignWorker
//     running the *same* InjectionRunner post-fault loop (continue_run)
//     the scalar engine runs, and retiring through the same retire() — so
//     records are byte-identical by construction.
//
// A lane retires Vanished the moment its masked diff (D ∩ hash_masks)
// empties, under exactly the scalar runner's convergence-poll gate; lanes
// still in flight when the reference's test finishes are materialized from
// the lead and classified by the scalar classify_now. Faults the diff
// algebra cannot carry — sticky forces, array-cell strikes, flips landing
// in the RAS/status bits the classifier reads — fall back to a plain
// scalar run at admission. Every fallback path is the scalar code itself,
// which is what makes the engine outcome-byte-identical rather than
// approximately equal.
//
// Probation re-admission bounds the cost of a trip. Without it a tripped
// lane runs the entire scalar post-fault tail, so with trip fraction f the
// whole engine's speedup is capped near 1/f regardless of lane count. Most
// trips, though, diverge for exactly one cycle (a flipped bit feeds a
// bypass or a compare and the difference dies or moves on): the executor
// steps the divergent cycle, and try_readmit then re-admits the lane as a
// fresh diff D' against the lead if three checks certify the lane is still
// carryable:
//
//   (a) the executor's auxiliary-mutation signature (common/aux_sig.hpp)
//       for the cycle equals the lead's, certifying array/memory state
//       stayed equal through the divergent cycle;
//   (b) the executor's RasStatus equals the lead's field-for-field, so no
//       detection bookkeeping or terminal check could have diverged; and
//   (c) the latch re-diff D' = exec ⊕ lead is within the diff carrier
//       (≤ kMaxDiffWords words, disjoint from the RAS bit-set).
//
// A re-admitted lane skips the rest of the scalar tail entirely; the
// divergent cycle's checks (test_finished, convergence poll, deadlines) run
// this same cycle in step_reference under the scalar ordering. If any
// certificate fails, the executor enters the scalar post-fault loop at that
// cycle's checks (continue_run with the first step taken) and the tail runs
// unmodified — so probation, like every other fast path here, can only ever
// reproduce the scalar result or fall back to computing it.

#include "sfi/engine.hpp"

#include <algorithm>
#include <array>

#include "common/aux_sig.hpp"
#include "common/bits.hpp"
#include "common/check.hpp"
#include "sfi/telemetry.hpp"

namespace sfi::inject {

CampaignWorker::CampaignWorker(const avp::Testcase& tc,
                               const CampaignConfig& cfg,
                               const CampaignPlan& plan)
    : plan_(plan) {
  model_ = std::make_unique<core::Pearl6Model>(cfg.core);
  model_->load_workload(tc.program, tc.init);
  emu_ = std::make_unique<emu::Emulator>(*model_);
  emu_->reset();
  reset_cp_ = emu_->save_checkpoint();
  runner_ = std::make_unique<InjectionRunner>(
      *model_, *emu_, reset_cp_, plan.trace, plan.golden, cfg.run,
      plan.ckpts.empty() ? nullptr : &plan.ckpts);
  if (cfg.footprint.enabled) {
    tracker_ = std::make_unique<InfectionTracker>(
        *model_, *emu_, plan.trace, plan.golden, cfg.footprint);
    if (!tracker_->usable()) tracker_.reset();
  }
}

InjectionRecord CampaignWorker::run(
    const FaultSpec& fault, WorkerTelemetry* telemetry, u32 index,
    std::optional<PropagationRecord>* footprint) {
  RunPhaseTimes* phases =
      telemetry != nullptr ? telemetry->phase_scratch() : nullptr;
  return retire(index, fault, runner_->run(fault, phases, tracker_.get()),
                telemetry, footprint, /*observed=*/true);
}

void CampaignWorker::run(const Next& next, const Emit& emit,
                         WorkerTelemetry* telemetry) {
  while (const std::optional<u32> i = next()) {
    std::optional<PropagationRecord> fp;
    const InjectionRecord rec = run(plan_.faults[*i], telemetry, *i, &fp);
    emit(*i, rec, std::move(fp));
  }
}

InjectionRecord CampaignWorker::retire(
    u32 index, const FaultSpec& fault, const RunResult& rr,
    WorkerTelemetry* telemetry, std::optional<PropagationRecord>* footprint,
    bool observed) {
  InjectionRecord rec = make_record(*model_, fault, rr);
  if (telemetry != nullptr) {
    std::optional<Cycle> latency;
    if (rr.detected_cycle) latency = *rr.detected_cycle - fault.cycle;
    telemetry->record_injection(index, rec, latency);
  }
  if (tracker_ != nullptr && tracker_->should_trace(index, rr.outcome)) {
    if (!observed) {
      // A run the tracker did not see (the lane engine's own retirements):
      // the same run once more, observed.
      const RunResult again = runner_->run(fault, nullptr, tracker_.get());
      ensure(again.outcome == rr.outcome && again.end_cycle == rr.end_cycle,
             "observed re-run diverges from the record it explains");
    }
    PropagationRecord prec = tracker_->footprint(index, rr);
    if (telemetry != nullptr) telemetry->record_footprint(index, prec);
    if (footprint != nullptr) *footprint = std::move(prec);
  }
  return rec;
}

u64 CampaignWorker::cycles_evaluated() const {
  return emu_->cycles_evaluated();
}

u64 CampaignWorker::cycles_fast_forwarded() const {
  return emu_->cycles_fast_forwarded();
}

u64 CampaignWorker::checkpoint_ops() const {
  return emu_->hostlink().checkpoint_ops;
}

namespace {

class LaneEngine final : public InjectionEngine {
 public:
  LaneEngine(const avp::Testcase& tc, const CampaignConfig& cfg,
             const CampaignPlan& plan)
      : plan_(plan),
        trace_(&plan.trace),
        ckpts_(plan.ckpts.empty() ? nullptr : &plan.ckpts),
        run_cfg_(cfg.run),
        lanes_target_(std::max(1u, cfg.lanes)),
        exec_(tc, cfg, plan) {
    require(plan.trace.has_states(),
            "LaneEngine needs a golden trace with recorded states (the "
            "campaign planner always records them)");
    lead_ = make_cursor(tc, cfg);
    trail_ = make_cursor(tc, cfg);

    const std::size_t words = lead_.emu->state().words().size();
    masks_ = exec_.model().registry().hash_masks();
    word_lanes_.resize(words);
    rec_log_.bind(words);
    lead_.emu->set_access_recorder(&rec_log_);

    // The bit-set the classifier's RAS peeks read. A lane whose diff
    // touches these bits could make the machine's *visible* RAS state
    // diverge without the diff ever being read by evaluate(), so such
    // faults never enter the fast path. The peeks are data-independent
    // field reads, so one recorded probe captures them exactly; D only
    // shrinks in fast mode, so an admission-time check holds forever.
    rec_log_.begin_cycle();
    (void)lead_.model->ras_status(lead_.emu->state());
    ras_mask_.assign(words, 0);
    for (const u32 w : rec_log_.read_words()) {
      ras_mask_[w] |= rec_log_.reads()[w];
    }
    rec_log_.begin_cycle();

    // Probation needs per-cycle aux-mutation signatures on both machines.
    // The same model builds both, so salt order matches and signatures are
    // comparable.
    arm_aux_sig(*lead_.model, lead_sig_);
    arm_aux_sig(exec_.model(), exec_sig_);

    deadline_ = plan.trace.completion_cycle + cfg.run.hang_margin;
  }

  void run(const Next& next, const Emit& emit,
           WorkerTelemetry* telemetry) override {
    emit_ = &emit;
    wt_ = telemetry;
    std::vector<u32> batch;
    batch.reserve(lanes_target_);
    bool drained = false;
    while (!drained) {
      batch.clear();
      while (batch.size() < lanes_target_) {
        const std::optional<u32> i = next();
        if (!i) {
          drained = true;
          break;
        }
        batch.push_back(*i);
      }
      if (!batch.empty()) sweep(batch);
    }
    emit_ = nullptr;
    wt_ = nullptr;
  }

  [[nodiscard]] u64 cycles_evaluated() const override {
    return lead_.emu->cycles_evaluated() + trail_.emu->cycles_evaluated() +
           exec_.cycles_evaluated();
  }
  [[nodiscard]] u64 cycles_fast_forwarded() const override {
    return lead_.emu->cycles_fast_forwarded() +
           trail_.emu->cycles_fast_forwarded() +
           exec_.cycles_fast_forwarded();
  }
  [[nodiscard]] u64 checkpoint_ops() const override {
    return lead_.emu->hostlink().checkpoint_ops +
           trail_.emu->hostlink().checkpoint_ops + exec_.checkpoint_ops();
  }

 private:
  static constexpr u32 kMaxDiffWords = 4;
  static constexpr Cycle kFar = ~Cycle{0};
  static constexpr std::size_t kNoIdx = ~std::size_t{0};
  static constexpr u32 kNoSlot = ~u32{0};

  /// Route every auxiliary-state mutation the model can make into `sig`.
  /// Array salts start past the EccMemory site tags so the two streams
  /// cannot alias.
  static void arm_aux_sig(core::Pearl6Model& m, AuxSig& sig) {
    m.memory().set_aux_sig(&sig);
    u64 salt = 16;
    for (netlist::ProtectedArray* arr : m.arrays().arrays()) {
      arr->set_aux_sig(&sig, salt++);
    }
  }

  struct DiffWord {
    u32 word = 0;
    u64 bits = 0;
  };

  struct Lane {
    u32 index = 0;
    const FaultSpec* fault = nullptr;
    std::array<DiffWord, kMaxDiffWords> d{};
    u32 nd = 0;
    Cycle hard_stop = 0;
    /// Cycle the current diff was formed at (admission or probation
    /// re-admission). A lane re-admitted at cycle `now` carries a diff that
    /// already reflects the whole of cycle `now`, so that cycle's R/W scans
    /// must skip it.
    Cycle admitted_at = 0;
    bool live = false;
    bool polled = false;  ///< queued in poll_candidates_

    [[nodiscard]] u64* bits_ptr(u32 w) {
      for (u32 i = 0; i < nd; ++i) {
        if (d[i].word == w) return &d[i].bits;
      }
      return nullptr;
    }
    [[nodiscard]] bool masked_empty(std::span<const u64> masks) const {
      for (u32 i = 0; i < nd; ++i) {
        if ((d[i].bits & masks[d[i].word]) != 0) return false;
      }
      return true;
    }
  };

  struct Cursor {
    std::unique_ptr<core::Pearl6Model> model;
    std::unique_ptr<emu::Emulator> emu;
    emu::Checkpoint reset_cp;
    emu::Checkpoint warm_cp;
    std::size_t warm_idx = kNoIdx;
  };

  static Cursor make_cursor(const avp::Testcase& tc,
                            const CampaignConfig& cfg) {
    Cursor c;
    c.model = std::make_unique<core::Pearl6Model>(cfg.core);
    c.model->load_workload(tc.program, tc.init);
    c.emu = std::make_unique<emu::Emulator>(*c.model);
    c.emu->reset();
    c.reset_cp = c.emu->save_checkpoint();
    return c;
  }

  /// Bring a cursor fault-free to `target` (forward run, or warm restore
  /// from the plan's checkpoint store / the reset snapshot).
  void seek_cursor(Cursor& cu, Cycle target) {
    emu::Emulator& e = *cu.emu;
    std::optional<std::size_t> idx;
    Cycle base = 0;
    if (ckpts_ != nullptr) {
      idx = ckpts_->index_at_or_before(target);
      if (idx) base = ckpts_->cycle_at(*idx);
    }
    if (e.cycle() > target || e.cycle() < base) {
      if (idx) {
        if (*idx != cu.warm_idx) {
          ckpts_->materialize(*idx, cu.warm_cp);
          cu.warm_idx = *idx;
        }
        e.restore_checkpoint(cu.warm_cp);
      } else {
        e.restore_checkpoint(cu.reset_cp);
      }
    }
    e.run(target - e.cycle());
  }

  /// Park lead and trail together at `c` (the next admission cycle).
  void seek_pair(Cycle c) {
    seek_cursor(lead_, c);
    lead_.emu->save_checkpoint(pair_cp_);
    trail_.emu->restore_checkpoint(pair_cp_);
    trail_saved_ = false;
  }

  void sweep(std::vector<u32>& batch) {
    std::sort(batch.begin(), batch.end(), [&](u32 a, u32 b) {
      const Cycle ca = plan_.faults[a].cycle;
      const Cycle cb = plan_.faults[b].cycle;
      return ca != cb ? ca < cb : a < b;
    });
    lanes_.clear();
    for (auto& wl : word_lanes_) wl.clear();
    poll_candidates_.clear();
    live_ = 0;
    next_hard_stop_ = kFar;
    trail_saved_ = false;
    exec_mirror_ = kNoSlot;  // slot numbers are reused across sweeps

    std::size_t ap = 0;
    seek_pair(plan_.faults[batch[ap]].cycle);
    while (ap < batch.size() || live_ > 0) {
      const Cycle at = lead_.emu->cycle();
      while (ap < batch.size() && plan_.faults[batch[ap]].cycle == at) {
        admit(batch[ap]);
        ++ap;
      }
      if (live_ == 0) {
        if (ap >= batch.size()) break;
        seek_pair(plan_.faults[batch[ap]].cycle);
        continue;
      }
      step_reference();
    }
  }

  void admit(u32 index) {
    const FaultSpec& f = plan_.faults[index];
    bool fast = f.target == FaultTarget::Latch && f.mode == FaultMode::Toggle;
    std::array<DiffWord, kMaxDiffWords> d{};
    u32 nd = 0;
    if (fast) {
      const netlist::LatchRegistry& reg = exec_.model().registry();
      const u32 width = std::max<u32>(1, f.adjacent_bits);
      for (u32 k = 0; k < width && fast; ++k) {
        const u32 ordinal = f.index + k;
        if (ordinal >= reg.num_latches()) break;
        const BitIndex bit = reg.bit_of_ordinal(ordinal);
        const u32 w = bit / 64;
        const u64 m = u64{1} << (bit % 64);
        u32 slot = nd;
        for (u32 i = 0; i < nd; ++i) {
          if (d[i].word == w) {
            slot = i;
            break;
          }
        }
        if (slot == nd) {
          if (nd == kMaxDiffWords) {
            fast = false;  // upset wider than the diff carrier: scalar path
            break;
          }
          d[nd].word = w;
          d[nd].bits = 0;
          ++nd;
        }
        d[slot].bits ^= m;  // XOR, exactly like flip_latch
      }
      for (u32 i = 0; i < nd && fast; ++i) {
        if ((d[i].bits & ras_mask_[d[i].word]) != 0) fast = false;
      }
    }
    if (!fast) {
      run_scalar(index, f);
      return;
    }
    // The admission's records retire here. Every other fault rides from
    // its own cycle: the lanes carry the cycles before its first read for
    // free, so a late entry would buy nothing.
    if (const Admission adm = exec_.runner().admit(f); adm.record) {
      if (wt_ != nullptr) {
        *wt_->phase_scratch() =
            RunPhaseTimes{.dead_on_arrival = adm.dead,
                          .pre_read_cycles_skipped = adm.pre_read_skipped};
      }
      finalize(index, f, *adm.record);
      return;
    }
    const u32 slot = static_cast<u32>(lanes_.size());
    Lane ln;
    ln.index = index;
    ln.fault = &f;
    ln.d = d;
    ln.nd = nd;
    ln.hard_stop = f.cycle + run_cfg_.horizon;
    ln.admitted_at = f.cycle;
    ln.live = true;
    for (u32 i = 0; i < nd; ++i) {
      if (ln.d[i].bits != 0) word_lanes_[ln.d[i].word].push_back(slot);
    }
    // First convergence poll happens on the next cycle; queueing now covers
    // lanes whose flipped bits all sit outside the hash masks (or that
    // flipped nothing at all — out-of-range upset tail), which the scalar
    // runner retires at its first poll.
    if (run_cfg_.early_exit) {
      ln.polled = true;
      poll_candidates_.push_back(slot);
    }
    lanes_.push_back(ln);
    ++live_;
    next_hard_stop_ = std::min(next_hard_stop_, ln.hard_stop);
  }

  /// One reference cycle: lead steps (recorded), lanes trip/erase/retire,
  /// then the trail catches up.
  void step_reference() {
    rec_log_.begin_cycle();
    lead_sig_.acc = 0;
    lead_.emu->step();
    const Cycle now = lead_.emu->cycle();
    // RAS before the scans: the probation certificate compares against it.
    // The peeks add the RAS bit-set to this cycle's R, which is harmless —
    // no lane's diff overlaps those bits (admission and re-admission both
    // reject overlapping diffs), so they can never trip anyone.
    lead_ras_ = lead_.model->ras_status(lead_.emu->state());

    // Trips first: R and W both describe this cycle, and a lane whose diff
    // was read re-executes the whole cycle from the trail's state — the
    // write-erase below must not touch its diff.
    for (const u32 w : rec_log_.read_words()) {
      auto& ll = word_lanes_[w];
      if (ll.empty()) continue;
      const u64 rmask = rec_log_.reads()[w];
      for (std::size_t k = 0; k < ll.size();) {
        Lane& ln = lanes_[ll[k]];
        u64* bits = ln.live ? ln.bits_ptr(w) : nullptr;
        if (bits == nullptr || *bits == 0) {
          ll[k] = ll.back();
          ll.pop_back();
          continue;
        }
        if (ln.admitted_at == now) {
          // Re-admitted earlier in this very scan: D' already reflects the
          // whole cycle.
          ++k;
          continue;
        }
        if ((*bits & rmask) != 0) {
          if (trip_lane(ll[k])) {
            // Retired on the executor; drop its entry.
            ll[k] = ll.back();
            ll.pop_back();
          } else {
            // Ejected back into the pool with a fresh diff. Keep the entry:
            // the re-admission dedupe saw it and did not push a duplicate.
            ++k;
          }
          continue;
        }
        ++k;
      }
    }
    // Pure overwrites erase diff bits (reference and lane wrote the same
    // value: anything read-modify-written tripped above).
    for (const u32 w : rec_log_.write_words()) {
      auto& ll = word_lanes_[w];
      if (ll.empty()) continue;
      const u64 wmask = rec_log_.writes()[w];
      for (std::size_t k = 0; k < ll.size();) {
        const u32 slot = ll[k];
        Lane& ln = lanes_[slot];
        u64* bits = ln.live ? ln.bits_ptr(w) : nullptr;
        if (bits == nullptr || *bits == 0) {
          ll[k] = ll.back();
          ll.pop_back();
          continue;
        }
        if (ln.admitted_at == now) {
          ++k;
          continue;
        }
        if ((*bits & wmask) != 0) {
          *bits &= ~wmask;
          if (!ln.polled) {
            ln.polled = true;
            poll_candidates_.push_back(slot);
          }
          if (*bits == 0) {
            ll[k] = ll.back();
            ll.pop_back();
            continue;
          }
        }
        ++k;
      }
    }

    // The reference is fault-free, so of the scalar loop's terminal checks
    // only test_finished can fire — and a fast lane's RAS state equals the
    // reference's (its diff is disjoint from the RAS bits by admission).
    // Check order mirrors the scalar loop: finish, then poll, then
    // deadlines.
    if (lead_ras_.test_finished) {
      finish_live(now);
    } else {
      if (live_ > 0 && run_cfg_.early_exit && trace_->has_cycle(now - 1)) {
        retire_converged(now);
      }
      if (live_ > 0 && (now >= deadline_ || now >= next_hard_stop_)) {
        hang_overdue(now);
      }
    }

    trail_.emu->step();
    trail_saved_ = false;
  }

  /// The lane's cycle may diverge from the reference's: rebuild its full
  /// state (trail snapshot ⊕ D, one cycle behind the lead) and step the
  /// divergent cycle on the executor. Usually probation then re-admits the
  /// lane with a fresh diff (returns false: the lane stays live); otherwise
  /// the executor finishes the run with the scalar post-fault loop and the
  /// lane retires (returns true).
  bool trip_lane(u32 slot) {
    Lane& ln = lanes_[slot];
    emu::Emulator& exec_emu = exec_.emulator();
    if (exec_mirror_ == slot && exec_emu.cycle() + 1 == lead_.emu->cycle()) {
      // The executor already holds this lane's exact state from its last
      // probation cycle (nothing touched it since, and the erase scan
      // skipped the lane's re-admission cycle): the restore would be a
      // byte-for-byte no-op.
    } else {
      if (!trail_saved_) {
        trail_.emu->save_checkpoint(pair_cp_);
        trail_saved_ = true;
      }
      const auto words = pair_cp_.latches.words_mut();
      for (u32 i = 0; i < ln.nd; ++i) words[ln.d[i].word] ^= ln.d[i].bits;
      exec_emu.restore_checkpoint(pair_cp_);
      for (u32 i = 0; i < ln.nd; ++i) words[ln.d[i].word] ^= ln.d[i].bits;
    }
    exec_mirror_ = kNoSlot;
    exec_sig_.acc = 0;
    exec_emu.step();
    if (try_readmit(slot)) {
      exec_mirror_ = slot;
      return false;
    }
    const RunResult rr = exec_.runner().continue_run(
        *ln.fault, wt_ != nullptr ? wt_->phase_scratch() : nullptr,
        /*stepped=*/true);
    ln.live = false;
    --live_;
    finalize(ln.index, *ln.fault, rr);
    return true;
  }

  /// Probation certificate, checked after the divergent cycle's step (exec
  /// is at the lead's cycle). True re-admits the lane with
  /// D' = exec ⊕ lead.
  bool try_readmit(u32 slot) {
    // (a) Equal aux-mutation signatures: array/memory state stayed equal
    // through the cycle (given equal before it, which holds inductively).
    if (exec_sig_.acc != lead_sig_.acc) return false;
    // (b) Equal RAS view: no detection bookkeeping, terminal check or
    // convergence gate could have seen anything the reference's didn't.
    const emu::RasStatus er =
        exec_.model().ras_status(exec_.emulator().state());
    if (er.checkstop != lead_ras_.checkstop ||
        er.hang_detected != lead_ras_.hang_detected ||
        er.recovery_active != lead_ras_.recovery_active ||
        er.recovery_count != lead_ras_.recovery_count ||
        er.corrected_count != lead_ras_.corrected_count ||
        er.instructions_completed != lead_ras_.instructions_completed ||
        er.test_finished != lead_ras_.test_finished) {
      return false;
    }
    // (c) The re-diff must fit the carrier and stay clear of the RAS bits
    // (the admission invariant the whole fast path rests on).
    const std::span<const u64> ew = exec_.emulator().state().words();
    const std::span<const u64> lw = lead_.emu->state().words();
    std::array<DiffWord, kMaxDiffWords> d{};
    u32 nd = 0;
    for (std::size_t w = 0; w < ew.size(); ++w) {
      const u64 x = ew[w] ^ lw[w];
      if (x == 0) continue;
      if ((x & ras_mask_[w]) != 0 || nd == kMaxDiffWords) return false;
      d[nd].word = static_cast<u32>(w);
      d[nd].bits = x;
      ++nd;
    }

    Lane& ln = lanes_[slot];
    ln.d = d;
    ln.nd = nd;
    ln.admitted_at = lead_.emu->cycle();
    for (u32 i = 0; i < nd; ++i) {
      auto& ll = word_lanes_[d[i].word];
      if (std::find(ll.begin(), ll.end(), slot) == ll.end()) {
        ll.push_back(slot);
      }
    }
    // The scalar runner polls convergence on this very cycle (after the
    // step we just certified); retire_converged runs later this cycle and
    // must consider the lane.
    if (run_cfg_.early_exit && !ln.polled) {
      ln.polled = true;
      poll_candidates_.push_back(slot);
    }
    return true;
  }

  /// Reference test finished with lanes still in flight: each one's state
  /// is lead ⊕ D; classify it exactly like the scalar runner's
  /// finish(finished=true, early=false).
  void finish_live(Cycle now) {
    if (live_ == 0) return;
    exec_mirror_ = kNoSlot;
    lead_.emu->save_checkpoint(finish_cp_);
    const auto words = finish_cp_.latches.words_mut();
    for (u32 slot = 0; slot < lanes_.size(); ++slot) {
      Lane& ln = lanes_[slot];
      if (!ln.live) continue;
      for (u32 i = 0; i < ln.nd; ++i) words[ln.d[i].word] ^= ln.d[i].bits;
      exec_.emulator().restore_checkpoint(finish_cp_);
      for (u32 i = 0; i < ln.nd; ++i) words[ln.d[i].word] ^= ln.d[i].bits;
      const RunResult rr = exec_.runner().classify_now(
          /*finished=*/true, /*early_exited=*/false);
      ensure(rr.end_cycle == now, "lane finish cycle mismatch");
      ln.live = false;
      --live_;
      finalize(ln.index, *ln.fault, rr);
    }
  }

  /// Convergence poll: a lane retires Vanished the moment its masked diff
  /// empties — the same cycle the scalar runner's masked_equals poll fires,
  /// since lane state == lead state ⊕ D and the lead tracks the trace.
  void retire_converged(Cycle now) {
    for (std::size_t k = 0; k < poll_candidates_.size();) {
      const u32 slot = poll_candidates_[k];
      Lane& ln = lanes_[slot];
      if (ln.live && ln.masked_empty(masks_)) {
        // Clean RAS window by the admission invariant: the reference's
        // counters are zero and the lane's RAS state equals the
        // reference's, exactly the scalar early-exit classification.
        ln.live = false;
        --live_;
        finalize(ln.index, *ln.fault,
                 InjectionRunner::clean_exit(
                     InjectionRunner::CleanExit::Converged, now));
      }
      ln.polled = false;
      poll_candidates_[k] = poll_candidates_.back();
      poll_candidates_.pop_back();
    }
  }

  /// Deadline / horizon expiry: the scalar loop classifies these Hang with
  /// no further state reads (clean RAS, finished=false), so the record is
  /// the runner's clean exit.
  void hang_overdue(Cycle now) {
    Cycle nxt = kFar;
    for (u32 slot = 0; slot < lanes_.size(); ++slot) {
      Lane& ln = lanes_[slot];
      if (!ln.live) continue;
      if (now >= deadline_ || now >= ln.hard_stop) {
        ln.live = false;
        --live_;
        finalize(ln.index, *ln.fault,
                 InjectionRunner::clean_exit(
                     InjectionRunner::CleanExit::Overdue, now));
      } else {
        nxt = std::min(nxt, ln.hard_stop);
      }
    }
    next_hard_stop_ = nxt;
  }

  /// Scalar fallback: the unmodified CampaignWorker flow on the executor.
  void run_scalar(u32 index, const FaultSpec& f) {
    exec_mirror_ = kNoSlot;
    std::optional<PropagationRecord> fp;
    const InjectionRecord rec = exec_.run(f, wt_, index, &fp);
    (*emit_)(index, rec, std::move(fp));
  }

  /// Retire a lane through the executor's record tail. A kept footprint
  /// runs the fault once more on the executor (the tracker did not see the
  /// lane), which then mirrors no lane.
  void finalize(u32 index, const FaultSpec& fault, const RunResult& rr) {
    std::optional<PropagationRecord> fp;
    const InjectionRecord rec = exec_.retire(index, fault, rr, wt_, &fp);
    if (fp) exec_mirror_ = kNoSlot;
    (*emit_)(index, rec, std::move(fp));
  }

  const CampaignPlan& plan_;
  const emu::GoldenTrace* trace_;
  const emu::CheckpointStore* ckpts_;
  RunConfig run_cfg_;
  u32 lanes_target_;

  /// Private executor for everything that leaves the fast path.
  CampaignWorker exec_;
  Cursor lead_;
  Cursor trail_;

  netlist::AccessRecorder rec_log_;
  std::span<const u64> masks_;       ///< hash masks (executor's registry)
  std::vector<u64> ras_mask_;        ///< bits the RAS/classifier peeks read
  AuxSig lead_sig_;                  ///< lead's aux mutations, this cycle
  AuxSig exec_sig_;                  ///< exec's aux mutations, probation
  emu::RasStatus lead_ras_{};        ///< lead RAS after this cycle's step
  /// Lane whose exact state the executor still holds after a re-admission
  /// (kNoSlot when the executor has been repurposed since): lets a lane
  /// that trips on consecutive cycles skip the checkpoint restore.
  u32 exec_mirror_ = kNoSlot;
  std::vector<Lane> lanes_;          ///< this sweep's lanes (slot-indexed)
  std::vector<std::vector<u32>> word_lanes_;  ///< live diff slots per word
  std::vector<u32> poll_candidates_;
  u32 live_ = 0;
  Cycle deadline_ = 0;
  Cycle next_hard_stop_ = kFar;
  emu::Checkpoint pair_cp_;    ///< trail snapshot (trip materialization)
  emu::Checkpoint finish_cp_;  ///< lead snapshot (end-of-test classify)
  bool trail_saved_ = false;

  const Emit* emit_ = nullptr;
  WorkerTelemetry* wt_ = nullptr;
};

}  // namespace

std::unique_ptr<InjectionEngine> make_engine(const avp::Testcase& tc,
                                             const CampaignConfig& cfg,
                                             const CampaignPlan& plan) {
  switch (cfg.engine) {
    case EngineKind::Scalar:
      return std::make_unique<CampaignWorker>(tc, cfg, plan);
    case EngineKind::Lanes:
      return std::make_unique<LaneEngine>(tc, cfg, plan);
  }
  throw InternalError("unknown engine kind");
}

const char* engine_name(EngineKind kind) {
  return kind == EngineKind::Lanes ? "lanes" : "scalar";
}

std::optional<EngineKind> parse_engine(std::string_view name) {
  if (name == "scalar") return EngineKind::Scalar;
  if (name == "lanes") return EngineKind::Lanes;
  return std::nullopt;
}

}  // namespace sfi::inject
