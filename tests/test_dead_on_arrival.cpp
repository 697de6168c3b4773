// Dead on arrival (InjectionRunner::dead_on_arrival): a latch toggle whose
// flipped bits the fault-free reference overwrites before reading retires
// from the golden trace's access timeline, with no simulated cycle. The
// exit rests on one invariant — the AccessRecorder misses no read — so this
// file checks both halves over the AVP and every SPEC-like testcase:
//
//   - every record the predictor returns equals InjectionRunner::run's,
//     field for field, under each of its exits (test end, convergence poll,
//     horizon), and it declines what it cannot prove;
//   - flipping bits outside a reference step's recorded read set changes
//     that step's outcome by exactly the flips it does not overwrite, with
//     equal auxiliary-state mutations (DESIGN §16's D∩R=∅ rule, checked
//     one step at a time), and the classifier's peeks read a fixed bit-set.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "avp/runner.hpp"
#include "avp/testgen.hpp"
#include "common/aux_sig.hpp"
#include "core/core_model.hpp"
#include "emu/emulator.hpp"
#include "sfi/runner.hpp"
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
      const std::optional<RunResult> dead = b.runner->dead_on_arrival(f);
      if (!dead) continue;
      ++fired;
      by_exit[dead->outcome == Outcome::Hang ? 2
              : dead->early_exited          ? 1
                                            : 0]++;
      expect_same_result(*dead, b.runner->run(f),
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
    if (b.runner->dead_on_arrival(dead)) break;
  }
  ASSERT_TRUE(b.runner->dead_on_arrival(dead));
  // ...declined as a sticky force of the same bit,
  FaultSpec sticky = dead;
  sticky.mode = FaultMode::Sticky;
  sticky.sticky_duration = 4;
  EXPECT_FALSE(b.runner->dead_on_arrival(sticky));
  // an array-cell strike,
  FaultSpec cell = dead;
  cell.target = FaultTarget::ArrayCell;
  cell.array_bit = 17;
  EXPECT_FALSE(b.runner->dead_on_arrival(cell));
  // at or past test end,
  FaultSpec late = dead;
  late.cycle = b.trace.completion_cycle;
  EXPECT_FALSE(b.runner->dead_on_arrival(late));
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
    EXPECT_FALSE(b.runner->dead_on_arrival(f)) << reg.name_of_ordinal(o);
  }
  EXPECT_GT(peeked, 0u);

  // A reference recorded without states has no timeline: no exit.
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace plain = avp::run_reference(model, emu, b.tc);
  EXPECT_FALSE(plain.has_timeline());
  InjectionRunner runner(model, emu, b.reset_cp, plain, b.golden);
  EXPECT_FALSE(runner.dead_on_arrival(dead));
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

}  // namespace
}  // namespace sfi::inject
