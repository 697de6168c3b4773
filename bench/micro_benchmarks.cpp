// google-benchmark microbenchmarks: the costs perfbench's `--trace 1`
// probes do not take — ECC encode/decode and the telemetry primitives
// (counter add, histogram observe, shard merge, phase-timed injection)
// that DESIGN §10 quotes. Field access, hashing, core cycles, checkpoints
// and injection runs are timed by perfbench against the real workloads.
#include <benchmark/benchmark.h>

#include "avp/runner.hpp"
#include "avp/testgen.hpp"
#include "core/core_model.hpp"
#include "emu/checkpoint_store.hpp"
#include "emu/emulator.hpp"
#include "netlist/ecc.hpp"
#include "sfi/runner.hpp"
#include "sfi/telemetry.hpp"
#include "stats/rng.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace sfi;

void BM_EccEncodeDecode(benchmark::State& state) {
  stats::Xoshiro256 rng(1);
  for (auto _ : state) {
    const u64 v = rng.next();
    const u8 c = netlist::ecc_encode(v);
    benchmark::DoNotOptimize(netlist::ecc_decode(v ^ 1, c));
  }
}
BENCHMARK(BM_EccEncodeDecode);

void BM_TelemetryCounterAdd(benchmark::State& state) {
  // The hot-path instrumentation primitive: one unsharded, unlocked add
  // into a worker's private shard. Budget: a handful of cycles.
  telemetry::MetricsRegistry reg;
  const auto c = reg.counter("hits");
  telemetry::MetricsShard shard = reg.make_shard();
  for (auto _ : state) {
    shard.add(c);
    benchmark::DoNotOptimize(shard);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  // Per-injection phase timing lands here: a lower_bound over ~22
  // exponential bounds plus two adds, per observation.
  telemetry::MetricsRegistry reg;
  const auto h =
      reg.histogram("seconds", telemetry::exp_buckets(1e-6, 10.0, 3));
  telemetry::MetricsShard shard = reg.make_shard();
  stats::Xoshiro256 rng(11);
  for (auto _ : state) {
    shard.observe(h, rng.uniform() * 0.01);
    benchmark::DoNotOptimize(shard);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TelemetryRegistryMerge(benchmark::State& state) {
  // Folding a worker shard into the registry (once per flush/finish, not
  // per injection) across a campaign-sized instrument set.
  telemetry::MetricsRegistry reg;
  std::vector<telemetry::CounterId> counters;
  std::vector<telemetry::HistogramId> hists;
  for (int i = 0; i < 16; ++i) {
    counters.push_back(reg.counter("c" + std::to_string(i)));
  }
  for (int i = 0; i < 16; ++i) {
    hists.push_back(reg.histogram("h" + std::to_string(i),
                                  telemetry::exp_buckets(1e-6, 10.0, 3)));
  }
  telemetry::MetricsShard shard = reg.make_shard();
  stats::Xoshiro256 rng(12);
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto c : counters) shard.add(c, 3);
    for (const auto h : hists) shard.observe(h, rng.uniform());
    state.ResumeTiming();
    reg.merge(shard);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TelemetryRegistryMerge);

void BM_InjectionRunTelemetry(benchmark::State& state) {
  // A warm-started injection run with the phase-timer out-param attached:
  // against perfbench's sfi.inj_us (timed without it), the per-injection
  // telemetry overhead (clock reads at phase boundaries; the budget is <5%,
  // gated end to end by bench/ablation_planes).
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 6;
    cfg.num_instructions = 160;
    return avp::generate_testcase(cfg);
  }();
  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  const emu::CheckpointStore store = emu::build_checkpoint_store(
      emu, trace.completion_cycle - 1, {}, &trace);
  emu.reset();
  const emu::Checkpoint cp = emu.save_checkpoint();
  inject::InjectionRunner runner(model, emu, cp, trace, golden, {}, &store);

  inject::RunPhaseTimes phases;
  stats::Xoshiro256 rng(9);
  const u32 latches = model.registry().num_latches();
  for (auto _ : state) {
    inject::FaultSpec f;
    f.index = static_cast<u32>(rng.below(latches));
    f.cycle = 1 + rng.below(trace.completion_cycle - 1);
    benchmark::DoNotOptimize(runner.run(f, &phases));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_InjectionRunTelemetry);

}  // namespace

BENCHMARK_MAIN();
