// Admission (InjectionRunner::admit): a latch toggle whose flipped bits the
// fault-free reference overwrites before reading retires from the golden
// trace's access timeline, with no simulated cycle ("dead on arrival"); one
// whose flipped bits are read enters its run at the first step that reads
// one, or retires on an exit before that step ("late flips"). Both rest on
// one invariant — the AccessRecorder misses no read — so this file checks
// both halves over the AVP and every SPEC-like testcase:
//
//   - every record admission returns, and every record of a run it enters
//     late, equals a run entered at the fault's own cycle
//     (InjectionRunner::begin at RunEntry::at_fault, then continue_run),
//     field for field, under each of its exits (test end, convergence
//     poll, horizon), the late-entered machine equals that run's at the
//     entry, and admission declines what it cannot prove;
//   - flipping bits outside a reference step's recorded read set changes
//     that step's outcome by exactly the flips it does not overwrite, with
//     equal auxiliary-state mutations (DESIGN §16's D∩R=∅ rule, checked
//     one step at a time), and the classifier's peeks read a fixed bit-set.
//
// Recovery tails (the runner's certificate that a recovered run is the
// reference k cycles late) get the same two halves: every record run()
// returns equals a full simulation of the tail, and the two model facts the
// proof rests on — a step commutes with ring rotation, and a clean scrub
// changes nothing but its own phase — are checked one step at a time.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "avp/runner.hpp"
#include "avp/testgen.hpp"
#include "common/aux_sig.hpp"
#include "common/bits.hpp"
#include "core/core_model.hpp"
#include "emu/checkpoint_store.hpp"
#include "emu/emulator.hpp"
#include "sfi/runner.hpp"
#include "sfi/telemetry.hpp"
#include "stats/rng.hpp"
#include "workload/spec_profiles.hpp"

namespace sfi::inject {
namespace {

/// Testcase 0 is the AVP; 1..11 are workload::spec_components().
constexpr std::size_t kNumTestcases = 12;

avp::Testcase testcase(std::size_t i) {
  if (i == 0) {
    avp::TestcaseConfig cfg;
    cfg.seed = 11;
    cfg.num_instructions = 80;
    return avp::generate_testcase(cfg);
  }
  return workload::make_component_testcase(workload::spec_components()[i - 1],
                                           5);
}

std::string testcase_name(std::size_t i) {
  if (i == 0) return "avp";
  const std::string& name = workload::spec_components()[i - 1].name;
  return name.substr(0, name.find('.'));
}

/// A campaign's reference (states and access timeline recorded) and a
/// runner over it.
struct Machine {
  avp::Testcase tc;
  avp::GoldenResult golden;
  core::Pearl6Model model;
  std::unique_ptr<emu::Emulator> emu;
  emu::Checkpoint reset_cp;
  emu::GoldenTrace trace;
  std::unique_ptr<InjectionRunner> runner;

  Machine(const avp::Testcase& t, RunConfig rc) : tc(t) {
    golden = avp::run_golden(tc);
    emu = std::make_unique<emu::Emulator>(model);
    trace = avp::run_reference(model, *emu, tc, /*max_cycles=*/200000,
                               /*record_states=*/true);
    emu->reset();
    reset_cp = emu->save_checkpoint();
    runner = std::make_unique<InjectionRunner>(model, *emu, reset_cp, trace,
                                               golden, rc);
  }
};

/// A run entered at the fault's own cycle and bits, every cycle from there
/// simulated by continue_run (no admission).
RunResult full_run(InjectionRunner& runner, const FaultSpec& f,
                   RunPhaseTimes* ph = nullptr) {
  runner.begin(f, RunEntry::at_fault(f), ph);
  return runner.continue_run(f, ph);
}

/// Admission declined `f`: no record, and the fault's own entry.
bool declined(const Admission& adm, const FaultSpec& f) {
  return !adm.record && !adm.dead && adm.pre_read_skipped == 0 &&
         adm.entry.cycle == f.cycle &&
         adm.entry.bits == RunEntry::at_fault(f).bits;
}

void expect_same_result(const RunResult& dead, const RunResult& full,
                        const std::string& what) {
  EXPECT_EQ(dead.outcome, full.outcome) << what;
  EXPECT_EQ(dead.end_cycle, full.end_cycle) << what;
  EXPECT_EQ(dead.early_exited, full.early_exited) << what;
  EXPECT_EQ(dead.recoveries, full.recoveries) << what;
  EXPECT_EQ(dead.corrected, full.corrected) << what;
  EXPECT_EQ(dead.first_diff, full.first_diff) << what;
  EXPECT_EQ(dead.detected_cycle, full.detected_cycle) << what;
}

class DeadOnArrival : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeadOnArrival, RecordsEqualTheFullRun) {
  const avp::Testcase tc = testcase(GetParam());
  struct Variant {
    bool early_exit;
    bool short_horizon;  ///< horizon ends before completion: Hang exits
  };
  const Variant variants[] = {
      {true, false}, {false, false}, {true, true}, {false, true}};
  Machine b(tc, RunConfig{});
  ASSERT_TRUE(b.trace.has_timeline());
  u32 sampled = 0;
  u32 fired = 0;
  u32 by_exit[3] = {};  // test end, convergence poll, horizon
  for (const Variant& v : variants) {
    RunConfig rc;
    rc.early_exit = v.early_exit;
    if (v.short_horizon) rc.horizon = b.trace.completion_cycle / 3;
    b.runner = std::make_unique<InjectionRunner>(b.model, *b.emu, b.reset_cp,
                                                 b.trace, b.golden, rc);
    const u32 latches = b.model.registry().num_latches();
    stats::Xoshiro256 rng(GetParam() * 977 + (v.early_exit ? 1 : 0) +
                          (v.short_horizon ? 2 : 0));
    for (int i = 0; i < 60; ++i) {
      FaultSpec f;
      f.index = static_cast<u32>(rng.below(latches));
      f.cycle = rng.below(b.trace.completion_cycle);
      f.adjacent_bits = static_cast<u8>(1 + i % 9);
      ++sampled;
      const Admission adm = b.runner->admit(f);
      if (!adm.dead) continue;
      ASSERT_TRUE(adm.record);
      EXPECT_EQ(adm.pre_read_skipped, 0u);
      const RunResult& dead = *adm.record;
      ++fired;
      by_exit[dead.outcome == Outcome::Hang ? 2
              : dead.early_exited          ? 1
                                           : 0]++;
      expect_same_result(dead, full_run(*b.runner, f),
                         b.model.registry().name_of_ordinal(f.index) + " x" +
                             std::to_string(f.adjacent_bits) + " @" +
                             std::to_string(f.cycle) +
                             (v.early_exit ? " early-exit" : " no-exit") +
                             (v.short_horizon ? " short horizon" : ""));
    }
  }
  // A non-trivial share retires, through every exit.
  EXPECT_GE(fired * 5, sampled) << fired << " of " << sampled;
  EXPECT_GT(by_exit[0], 0u);
  EXPECT_GT(by_exit[1], 0u);
  EXPECT_GT(by_exit[2], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DeadOnArrival, ::testing::Range<std::size_t>(0, kNumTestcases),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return testcase_name(info.param);
    });

TEST(DeadOnArrival, DeclinesWhatItCannotProve) {
  Machine b(testcase(0), RunConfig{});
  const netlist::LatchRegistry& reg = b.model.registry();
  stats::Xoshiro256 rng(3);
  // A toggle it retires...
  FaultSpec dead;
  for (int i = 0; i < 1000; ++i) {
    dead.index = static_cast<u32>(rng.below(reg.num_latches()));
    dead.cycle = rng.below(b.trace.completion_cycle);
    if (b.runner->admit(dead).dead) break;
  }
  ASSERT_TRUE(b.runner->admit(dead).dead);
  // ...declined (no record, entered at its own cycle) as a sticky force of
  // the same bit,
  FaultSpec sticky = dead;
  sticky.mode = FaultMode::Sticky;
  sticky.sticky_duration = 4;
  EXPECT_TRUE(declined(b.runner->admit(sticky), sticky));
  // an array-cell strike,
  FaultSpec cell = dead;
  cell.target = FaultTarget::ArrayCell;
  cell.array_bit = 17;
  EXPECT_TRUE(declined(b.runner->admit(cell), cell));
  // at or past test end,
  FaultSpec late = dead;
  late.cycle = b.trace.completion_cycle;
  EXPECT_TRUE(declined(b.runner->admit(late), late));
  // and for any flip of a bit the classifier peeks at.
  u32 peeked = 0;
  for (u32 o = 0; o < reg.num_latches(); ++o) {
    const BitIndex bit = reg.bit_of_ordinal(o);
    if ((b.trace.peek_reads[bit / 64] & (u64{1} << (bit % 64))) == 0) {
      continue;
    }
    ++peeked;
    FaultSpec f = dead;
    f.index = o;
    EXPECT_TRUE(declined(b.runner->admit(f), f)) << reg.name_of_ordinal(o);
  }
  EXPECT_GT(peeked, 0u);

  // A reference recorded without states has no timeline: no exit.
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace plain = avp::run_reference(model, emu, b.tc);
  EXPECT_FALSE(plain.has_timeline());
  InjectionRunner runner(model, emu, b.reset_cp, plain, b.golden);
  EXPECT_TRUE(declined(runner.admit(dead), dead));
}

// --- the recorder misses no read -------------------------------------------

void arm_aux_sig(core::Pearl6Model& m, AuxSig* sig) {
  m.memory().set_aux_sig(sig);
  u64 salt = 16;
  for (netlist::ProtectedArray* arr : m.arrays().arrays()) {
    arr->set_aux_sig(sig, salt++);
  }
}

class RecorderSoundness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RecorderSoundness, UnreadFlipsOnlyLoseTheirOverwrittenBits) {
  const avp::Testcase tc = testcase(GetParam());
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  const u32 bits = model.registry().total_bits();
  const std::size_t words = emu.state().words().size();

  netlist::AccessRecorder rec;
  rec.bind(words);
  AuxSig sig;
  arm_aux_sig(model, &sig);
  stats::Xoshiro256 rng(GetParam() + 101);
  emu::Checkpoint at;
  constexpr int kSamples = 16;
  for (int s = 0; s < kSamples; ++s) {
    const Cycle c = trace.completion_cycle * s / kSamples;
    emu.reset();
    emu.run(c);
    emu.save_checkpoint(at);

    // The reference step, recorded.
    emu.set_access_recorder(&rec);
    rec.begin_cycle();
    sig.acc = 0;
    emu.step();
    emu.set_access_recorder(nullptr);
    const netlist::StateVector ref = emu.state();
    const u64 ref_sig = sig.acc;

    // Two flip sets outside the read set: every unread bit, and a sparse
    // random handful of them.
    for (const bool all : {true, false}) {
      std::vector<u64> flips(words, 0);
      for (BitIndex i = 0; i < bits; ++i) {
        const u64 m = u64{1} << (i % 64);
        if ((rec.reads()[i / 64] & m) != 0) continue;
        if (all || rng.below(bits) < 24) flips[i / 64] |= m;
      }
      emu.restore_checkpoint(at);
      for (std::size_t w = 0; w < words; ++w) {
        for (u64 m = flips[w]; m != 0; m &= m - 1) {
          emu.flip_latch(static_cast<BitIndex>(w * 64 + std::countr_zero(m)));
        }
      }
      sig.acc = 0;
      emu.step();
      const auto got = emu.state().words();
      for (std::size_t w = 0; w < words; ++w) {
        EXPECT_EQ(got[w], ref.words()[w] ^ (flips[w] & ~rec.writes()[w]))
            << "cycle " << c << " word " << w
            << (all ? " (every unread bit flipped)" : " (sparse flips)");
      }
      EXPECT_EQ(sig.acc, ref_sig) << "cycle " << c;
    }
  }
  arm_aux_sig(model, nullptr);
}

TEST_P(RecorderSoundness, PeeksReadOneBitSetWhateverTheState) {
  const avp::Testcase tc = testcase(GetParam());
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(
      model, emu, tc, /*max_cycles=*/200000, /*record_states=*/true);
  ASSERT_TRUE(trace.has_timeline());
  const std::size_t words = emu.state().words().size();

  netlist::AccessRecorder rec;
  rec.bind(words);
  const auto peek = [&](netlist::StateVector sv) {
    sv.set_recorder(&rec);
    rec.begin_cycle();
    (void)model.ras_status(sv);
    (void)model.arch_state(sv);
    return std::vector<u64>(rec.reads().begin(), rec.reads().end());
  };
  // The completed state the timeline's probe saw, an early one, and one
  // with every latch bit inverted.
  const netlist::StateVector done = emu.state();
  emu.reset();
  emu.run(trace.completion_cycle / 2);
  const netlist::StateVector mid = emu.state();
  netlist::StateVector inverted = mid;
  for (BitIndex i = 0; i < inverted.num_bits(); ++i) inverted.flip_bit(i);

  const std::vector<u64> want(trace.peek_reads);
  EXPECT_EQ(peek(done), want);
  EXPECT_EQ(peek(mid), want);
  EXPECT_EQ(peek(inverted), want);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RecorderSoundness,
    ::testing::Range<std::size_t>(0, kNumTestcases),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return testcase_name(info.param);
    });

// --- recovery tails --------------------------------------------------------

/// run()'s post-fault loop as it stood before the recovery-tail certificate:
/// continue_run's exits in its order, each cycle simulated, entered through
/// begin() at the fault's own cycle and bits.
RunResult full_tail(Machine& b, InjectionRunner& runner, const RunConfig& rc,
                    const FaultSpec& f) {
  runner.begin(f, RunEntry::at_fault(f));
  emu::Emulator& emu = *b.emu;
  const auto& masks = b.model.registry().hash_masks();
  const Cycle deadline = b.trace.completion_cycle + rc.hang_margin;
  const Cycle hard_stop = f.cycle + rc.horizon;
  const bool sticky = f.mode == FaultMode::Sticky;
  const bool early_exit = rc.early_exit && f.target == FaultTarget::Latch;
  std::optional<Cycle> detect;
  while (true) {
    emu.step();
    const Cycle now = emu.cycle();
    const emu::RasStatus ras = b.model.ras_status(emu.state());
    if (!detect && (ras.checkstop || ras.hang_detected ||
                    ras.recovery_active || ras.recovery_count > 0 ||
                    ras.corrected_count > 0)) {
      detect = now;
    }
    if (ras.checkstop || ras.hang_detected) {
      return runner.classify_now(false, false, detect);
    }
    if (ras.test_finished) return runner.classify_now(true, false, detect);
    if (early_exit && !ras.recovery_active && b.trace.has_cycle(now - 1) &&
        !(sticky && now <= f.cycle + f.sticky_duration) &&
        emu.state().masked_equals(masks, b.trace.masked_state(now - 1))) {
      return runner.classify_now(true, true, detect);
    }
    if (now >= deadline || now >= hard_stop) {
      return runner.classify_now(false, false, detect);
    }
  }
}

class RecoveryTail : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RecoveryTail, RecordsEqualTheFullRun) {
  const avp::Testcase tc = testcase(GetParam());
  Machine b(tc, RunConfig{});
  ASSERT_TRUE(b.trace.has_timeline());
  const Cycle finish = b.trace.completion_cycle;
  // The campaign's snapshots: the certificate's aux compare needs them.
  const emu::CheckpointStore ckpts =
      emu::build_checkpoint_store(*b.emu, finish - 1, {}, &b.trace);
  struct Variant {
    bool early_exit;
    Cycle hang_margin;
    bool short_horizon;
  };
  // A hang margin or a horizon shorter than the recovery's delay sends a
  // certified tail to the Hang exit.
  const Variant variants[] = {{true, 2000, false}, {false, 2000, false},
                              {true, 16, false},   {false, 16, false},
                              {true, 2000, true},  {false, 2000, true}};
  const netlist::LatchRegistry& reg = b.model.registry();
  u32 recovered = 0;
  u32 certified = 0;
  u32 by_exit[2] = {};  // test end, Hang
  for (std::size_t vi = 0; vi < std::size(variants); ++vi) {
    const Variant& v = variants[vi];
    RunConfig rc;
    rc.early_exit = v.early_exit;
    rc.hang_margin = v.hang_margin;
    if (v.short_horizon) rc.horizon = finish / 2;
    InjectionRunner runner(b.model, *b.emu, b.reset_cp, b.trace, b.golden,
                           rc, &ckpts);
    stats::Xoshiro256 rng(GetParam() * 131 + vi);
    u32 taken = 0;
    for (int i = 0; i < 600 && taken < 16; ++i) {
      // Toggles of width 1-9 and sticky forces, at random latches.
      FaultSpec f;
      f.index = static_cast<u32>(rng.below(reg.num_latches()));
      f.cycle = rng.below(finish);
      f.adjacent_bits = static_cast<u8>(1 + i % 9);
      if (i % 3 == 2) {
        f.mode = FaultMode::Sticky;
        f.sticky_value = (i & 4) != 0;
        f.sticky_duration = 1 + i % 7;
      }
      RunPhaseTimes ph;
      const RunResult got = runner.run(f, &ph);
      if (got.recoveries == 0) continue;
      ++taken;
      const RunResult want = full_tail(b, runner, rc, f);
      const std::string what =
          reg.name_of_ordinal(f.index) + " x" +
          std::to_string(f.adjacent_bits) +
          (f.mode == FaultMode::Sticky ? " sticky" : " toggle") + " @" +
          std::to_string(f.cycle) + (v.early_exit ? " early-exit" : "") +
          " margin " + std::to_string(rc.hang_margin) + " horizon " +
          std::to_string(rc.horizon);
      expect_same_result(got, want, what);
      // A late entry skips exactly the cycles the full run simulates before
      // it, the certificate exactly those past it, and neither simulates
      // any of its own.
      EXPECT_EQ(ph.pre_read_cycles_skipped + ph.post_fault_cycles +
                    ph.tail_cycles_skipped,
                want.end_cycle - f.cycle)
          << what;
      ++recovered;
      if (ph.tail_certified) {
        ++certified;
        ++by_exit[got.outcome == Outcome::Hang ? 1 : 0];
      }
    }
  }
  // The certificate retires most recovered runs, through both its exits.
  EXPECT_GT(recovered, 0u);
  EXPECT_GE(certified * 2, recovered) << certified << " of " << recovered;
  EXPECT_GT(by_exit[0], 0u);
  EXPECT_GT(by_exit[1], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RecoveryTail, ::testing::Range<std::size_t>(0, kNumTestcases),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return testcase_name(info.param);
    });

/// A field's name for a failure message: the first registered field with a
/// set bit in `bits` of state word `w`.
std::string field_in(const netlist::LatchRegistry& reg, std::size_t w,
                     u64 bits) {
  for (const netlist::LatchMeta& m : reg.fields()) {
    if (m.bit_offset / 64 != w) continue;
    if (((bits >> (m.bit_offset % 64)) & mask_low(m.width)) != 0) {
      return m.name;
    }
  }
  return "?";
}

class RingRotation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingRotation, StepPreservesEqualityModuloRotation) {
  const avp::Testcase tc = testcase(GetParam());
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(
      model, emu, tc, /*max_cycles=*/200000, /*record_states=*/true);
  ASSERT_TRUE(trace.has_timeline());
  const netlist::LatchRegistry& reg = model.registry();
  ASSERT_FALSE(reg.rings().empty());
  const std::size_t words = emu.state().words().size();
  // Every ring's slot bits: the only place a flush can leave a rotated
  // run's stale entries.
  std::vector<u64> slot_bits(words, 0);
  for (const netlist::LatchRing& ring : reg.rings()) {
    for (const auto& slot : ring.slots) {
      for (const netlist::FieldRef f : slot) {
        slot_bits[f.bit_offset / 64] |= mask_low(f.width)
                                        << (f.bit_offset % 64);
      }
    }
  }

  AuxSig sig;
  arm_aux_sig(model, &sig);
  emu::Checkpoint at;
  emu::Checkpoint next;
  u32 moved = 0;  // rotations that moved a non-zero entry
  constexpr int kSamples = 24;
  for (int s = 0; s < kSamples; ++s) {
    const Cycle c = 1 + (trace.completion_cycle - 3) * s / kSamples;
    emu.reset();
    emu.run(c);
    emu.save_checkpoint(at);
    sig.acc = 0;
    emu.step();
    const u64 ref_sig = sig.acc;
    emu.save_checkpoint(next);
    const auto want = next.latches.words();

    for (const netlist::LatchRing& ring : reg.rings()) {
      const auto n = static_cast<u32>(ring.slots.size());
      for (u32 delta = 1; delta < n; ++delta) {
        emu::Checkpoint rotated = at;
        netlist::rotate_ring(rotated.latches.words_mut(), ring, delta);
        for (std::size_t w = 0; w < words; ++w) {
          if (((rotated.latches.words()[w] ^ at.latches.words()[w]) &
               slot_bits[w]) != 0) {
            ++moved;
            break;
          }
        }
        emu.restore_checkpoint(rotated);
        sig.acc = 0;
        emu.step();
        EXPECT_EQ(sig.acc, ref_sig) << "cycle " << c << " delta " << delta;
        // Rotate the result back to the reference's heads: it must be the
        // reference's next state, but for stale slot entries the reference
        // overwrites before reading (a flush resets the pointers to slot 0
        // and leaves the entries where they were).
        std::vector<u64> got(emu.state().words().begin(),
                             emu.state().words().end());
        for (const netlist::LatchRing& r : reg.rings()) {
          const auto m = static_cast<u32>(r.slots.size());
          netlist::rotate_ring(got, r,
                               m + netlist::ring_head(want, r) -
                                   netlist::ring_head(got, r));
        }
        for (std::size_t w = 0; w < words; ++w) {
          const u64 d = got[w] ^ want[w];
          if (d == 0) continue;
          EXPECT_EQ(d & ~slot_bits[w], 0u)
              << "cycle " << c << " delta " << delta << ": "
              << field_in(reg, w, d & ~slot_bits[w]);
          u64 left = d & slot_bits[w];
          Cycle after = c + 1;
          while (left != 0) {
            const emu::GoldenTrace::WordAccess* a =
                trace.first_access(static_cast<u32>(w), left, after);
            if (a == nullptr) break;
            EXPECT_EQ(a->reads & left, 0u)
                << "cycle " << c << " delta " << delta << ": stale "
                << field_in(reg, w, a->reads & left) << " read at "
                << a->cycle;
            left &= ~(a->writes | a->reads);
            after = a->cycle;
          }
        }
      }
    }
  }
  EXPECT_GT(moved, 0u);
  arm_aux_sig(model, nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RingRotation, ::testing::Range<std::size_t>(0, kNumTestcases),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return testcase_name(info.param);
    });

class ScrubPhase : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScrubPhase, CleanScrubChangesOnlyItsPhase) {
  const avp::Testcase tc = testcase(GetParam());
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  const netlist::LatchRegistry& reg = model.registry();
  std::vector<netlist::FieldRef> phases;
  for (const netlist::LatchMeta& m : reg.fields()) {
    if (m.role == netlist::LatchRole::Phase) {
      phases.push_back({m.bit_offset, m.width});
    }
  }
  ASSERT_FALSE(phases.empty());
  const std::vector<u64>& phase_bits = reg.phase_masks();
  const emu::AuxSpan aux_phase = model.aux_phase();
  ASSERT_GT(aux_phase.size, 0u);
  const auto in_aux_phase = [&](std::size_t i) {
    return i >= aux_phase.offset && i < aux_phase.offset + aux_phase.size;
  };

  AuxSig sig;
  arm_aux_sig(model, &sig);
  stats::Xoshiro256 rng(GetParam() + 7);
  emu::Checkpoint at;
  emu::Checkpoint next;
  emu::Checkpoint later;
  std::vector<u8> aux;
  // The patrol cursor takes its phases from the reference 1..16 cycles
  // on (its timer's whole period, so one of them scrubs this very cycle);
  // the latch phases are random, or zero (a scrub this cycle) on even
  // trials.
  constexpr Cycle kPatrolPeriod = 16;
  constexpr int kSamples = 12;
  for (int s = 0; s < kSamples; ++s) {
    const Cycle c = 1 + (trace.completion_cycle - kPatrolPeriod - 2) * s /
                            kSamples;
    emu.reset();
    emu.run(c);
    emu.save_checkpoint(at);
    sig.acc = 0;
    emu.step();
    const u64 ref_sig = sig.acc;
    emu.save_checkpoint(next);
    const emu::RasStatus ref_ras = model.ras_status(next.latches);
    std::vector<std::vector<u8>> patrol;
    for (Cycle d = 1; d <= kPatrolPeriod; ++d) {
      emu.save_checkpoint(later);
      patrol.emplace_back(later.aux.begin() + aux_phase.offset,
                          later.aux.begin() + aux_phase.offset +
                              aux_phase.size);
      emu.step();
    }

    for (std::size_t trial = 0; trial < patrol.size(); ++trial) {
      emu::Checkpoint moved = at;
      for (const netlist::FieldRef f : phases) {
        moved.latches.write(f.bit_offset, f.width,
                            trial % 2 == 0 ? 0 : rng.below(u64{1} << f.width));
      }
      std::copy(patrol[trial].begin(), patrol[trial].end(),
                moved.aux.begin() + aux_phase.offset);
      emu.restore_checkpoint(moved);
      sig.acc = 0;
      emu.step();
      EXPECT_EQ(sig.acc, ref_sig) << "cycle " << c << " trial " << trial;
      const emu::RasStatus ras = model.ras_status(emu.state());
      EXPECT_EQ(ras.corrected_count, ref_ras.corrected_count);
      EXPECT_FALSE(ras.checkstop);
      const auto got = emu.state().words();
      const auto want = next.latches.words();
      for (std::size_t w = 0; w < got.size(); ++w) {
        const u64 d = (got[w] ^ want[w]) & ~phase_bits[w];
        EXPECT_EQ(d, 0u) << "cycle " << c << " trial " << trial << ": "
                         << field_in(reg, w, d);
      }
      aux.clear();
      model.save_aux(aux);
      ASSERT_EQ(aux.size(), next.aux.size());
      for (std::size_t i = 0; i < aux.size(); ++i) {
        if (in_aux_phase(i)) continue;
        ASSERT_EQ(aux[i], next.aux[i])
            << "cycle " << c << " trial " << trial << " aux byte " << i;
      }
    }
  }
  arm_aux_sig(model, nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ScrubPhase, ::testing::Range<std::size_t>(0, kNumTestcases),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return testcase_name(info.param);
    });

// --- late flips ------------------------------------------------------------

/// A latch toggle of width 1 + i % 9 at a random latch and cycle before
/// completion.
FaultSpec random_toggle(stats::Xoshiro256& rng, const Machine& b, int i) {
  FaultSpec f;
  f.index = static_cast<u32>(rng.below(b.model.registry().num_latches()));
  f.cycle = rng.below(b.trace.completion_cycle);
  f.adjacent_bits = static_cast<u8>(1 + i % 9);
  return f;
}

std::string describe(const Machine& b, const FaultSpec& f,
                     const RunConfig& rc) {
  return b.model.registry().name_of_ordinal(f.index) + " x" +
         std::to_string(f.adjacent_bits) + " @" + std::to_string(f.cycle) +
         (rc.early_exit ? " early-exit" : " no-exit") + " horizon " +
         std::to_string(rc.horizon);
}

class LateFlip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LateFlip, StateAtEntryEqualsTheFullRun) {
  Machine b(testcase(GetParam()), RunConfig{});
  ASSERT_TRUE(b.trace.has_timeline());
  const netlist::LatchRegistry& reg = b.model.registry();
  stats::Xoshiro256 rng(GetParam() * 389 + 5);
  std::vector<u8> late_aux;
  std::vector<u8> full_aux;
  u32 entered = 0;
  for (int i = 0; i < 4000 && entered < 24; ++i) {
    const FaultSpec f = random_toggle(rng, b, i);
    const Admission adm = b.runner->admit(f);
    if (adm.record || adm.entry.cycle == f.cycle) continue;
    ++entered;
    const std::string what = describe(b, f, b.runner->config()) +
                             " entered @" + std::to_string(adm.entry.cycle);
    EXPECT_EQ(adm.pre_read_skipped, adm.entry.cycle - f.cycle) << what;
    EXPECT_TRUE((adm.entry.bits & ~RunEntry::at_fault(f).bits).none())
        << what;

    b.runner->begin(f, adm.entry);
    ASSERT_EQ(b.emu->cycle(), adm.entry.cycle);
    const std::vector<u64> late(b.emu->state().words().begin(),
                                b.emu->state().words().end());
    late_aux.clear();
    b.model.save_aux(late_aux);

    // The same fault entered at its own cycle, stepped to the entry.
    b.runner->begin(f, RunEntry::at_fault(f));
    while (b.emu->cycle() < adm.entry.cycle) b.emu->step();
    const auto full = b.emu->state().words();
    ASSERT_EQ(late.size(), full.size());
    for (std::size_t w = 0; w < full.size(); ++w) {
      EXPECT_EQ(late[w], full[w])
          << what << ": " << field_in(reg, w, late[w] ^ full[w]);
    }
    full_aux.clear();
    b.model.save_aux(full_aux);
    EXPECT_EQ(late_aux, full_aux) << what;
  }
  EXPECT_EQ(entered, 24u);
}

TEST_P(LateFlip, RecordsEqualTheFullRun) {
  Machine b(testcase(GetParam()), RunConfig{});
  ASSERT_TRUE(b.trace.has_timeline());
  const Cycle finish = b.trace.completion_cycle;
  // The campaign's snapshots: an entry warm-starts from the one at or
  // before it, and recovered runs take the certificate.
  const emu::CheckpointStore ckpts =
      emu::build_checkpoint_store(*b.emu, finish - 1, {}, &b.trace);
  struct Variant {
    bool early_exit;
    bool short_horizon;  ///< horizon ends before completion
  };
  const Variant variants[] = {
      {true, false}, {false, false}, {true, true}, {false, true}};
  u32 by_path[3] = {};  // late entry, Converged before the read, Overdue
  for (std::size_t vi = 0; vi < std::size(variants); ++vi) {
    const Variant& v = variants[vi];
    RunConfig rc;
    rc.early_exit = v.early_exit;
    if (v.short_horizon) rc.horizon = finish / 8;
    InjectionRunner runner(b.model, *b.emu, b.reset_cp, b.trace, b.golden,
                           rc, &ckpts);
    stats::Xoshiro256 rng(GetParam() * 613 + vi);
    u32 taken = 0;
    for (int i = 0; i < 8000 && taken < 96; ++i) {
      const FaultSpec f = random_toggle(rng, b, i);
      const Admission adm = runner.admit(f);
      if (adm.pre_read_skipped == 0) continue;  // not a late flip
      ++taken;
      const std::string what = describe(b, f, rc);
      RunPhaseTimes ph;
      const RunResult got = runner.run(f, &ph);
      RunPhaseTimes full_ph;
      const RunResult want = full_run(runner, f, &full_ph);
      expect_same_result(got, want, what);
      EXPECT_EQ(ph.pre_read_cycles_skipped, adm.pre_read_skipped) << what;
      if (adm.record) {
        // An exit before the read: the poll or the horizon, unsimulated.
        EXPECT_TRUE(got.early_exited || got.outcome == Outcome::Hang)
            << what;
        EXPECT_EQ(adm.pre_read_skipped, want.end_cycle - f.cycle) << what;
        EXPECT_EQ(ph.post_fault_cycles, 0u) << what;
        ++by_path[got.outcome == Outcome::Hang ? 2 : 1];
      } else {
        // The entry simulates exactly the cycles the full run simulates
        // from it.
        EXPECT_EQ(ph.pre_read_cycles_skipped + ph.post_fault_cycles,
                  full_ph.post_fault_cycles)
            << what;
        ++by_path[0];
      }
    }
  }
  EXPECT_GT(by_path[0], 0u);
  EXPECT_GT(by_path[1], 0u);
  EXPECT_GT(by_path[2], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LateFlip, ::testing::Range<std::size_t>(0, kNumTestcases),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return testcase_name(info.param);
    });

}  // namespace
}  // namespace sfi::inject
