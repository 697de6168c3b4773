// Ablation — lane-batched injection engine: N in-flight injections as
// sparse XOR diffs over one shared reference replay. Like the early-exit
// ablation, this knob must change wall-clock only, never a single record:
// every lane-count row is checked record-for-record (outcome AND end_cycle)
// against the scalar baseline, and the bench exits nonzero on any mismatch.
#include <iostream>

#include "bench/common.hpp"
#include "sfi/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace sfi;
  const bench::Options opt = bench::parse_options(argc, argv);
  const u32 n = opt.full ? 10000 : 1500;
  bench::print_scale_note(opt, "1500 flips per row", "10000 flips per row");

  const avp::Testcase tc = bench::standard_testcase();

  inject::CampaignConfig base;
  base.seed = opt.seed;
  base.num_injections = n;
  base.threads = 1;  // isolate engine throughput from thread scaling
  const inject::CampaignResult scalar = inject::run_campaign(tc, base);

  std::cout << report::section(
      "Ablation: lane engine (in-flight lanes vs scalar baseline)");
  report::Table t({"engine", "lanes", "inj/s", "cycles evaluated", "wall s",
                   "speedup", "records"});
  t.add_row({"scalar", "-", report::Table::num(scalar.injections_per_second(), 0),
             report::Table::count(scalar.cycles_evaluated),
             report::Table::num(scalar.wall_seconds), "1.0x", "baseline"});

  bool identical = true;
  double best = 0.0;
  u32 best_lanes = 0;
  for (const u32 lanes : {16u, 64u, 256u, 512u, 1024u}) {
    inject::CampaignConfig cfg = base;
    cfg.engine = inject::EngineKind::Lanes;
    cfg.lanes = lanes;
    const inject::CampaignResult r = inject::run_campaign(tc, cfg);

    u64 mismatches = 0;
    for (std::size_t i = 0; i < scalar.records.size(); ++i) {
      const auto& a = scalar.records[i];
      const auto& b = r.records[i];
      if (a.outcome != b.outcome || a.end_cycle != b.end_cycle ||
          a.early_exited != b.early_exited || a.recoveries != b.recoveries) {
        ++mismatches;
        if (mismatches <= 3) std::cout << "MISMATCH at injection " << i << "\n";
      }
    }
    if (mismatches != 0) identical = false;

    const double speedup = scalar.wall_seconds / std::max(1e-9, r.wall_seconds);
    if (speedup > best) {
      best = speedup;
      best_lanes = lanes;
    }
    t.add_row({"lanes", report::Table::count(lanes),
               report::Table::num(r.injections_per_second(), 0),
               report::Table::count(r.cycles_evaluated),
               report::Table::num(r.wall_seconds),
               report::Table::num(speedup, 1) + "x",
               mismatches == 0 ? "identical"
                               : report::Table::count(mismatches) + " diffs"});
  }
  std::cout << t.to_string();

  // Amdahl decomposition from the scalar run's work counters: a recovered
  // run re-executes from a checkpoint carrying RAS state the fault-free
  // reference never holds, so the cycles the scalar runner simulates for it
  // — up to the recovery's end, and after it until the recovery-tail
  // certificate retires the rest — are divergent simulation no amount of
  // lane sharing can absorb. Everything else can in principle amortize onto
  // the shared reference replay, so total/divergent approximates the
  // cycle-reduction ceiling at infinite lanes. Tails the certificate
  // retires are never simulated by either engine, so they count on neither
  // side. The counts come from a second, untimed scalar run with telemetry
  // attached (same records, same work).
  inject::CampaignTelemetry tel;
  inject::CampaignConfig counted = base;
  counted.telemetry = &tel;
  (void)inject::run_campaign(tc, counted);
  const telemetry::MetricsRegistry& m = tel.metrics();
  const u64 divergent_cycles =
      m.counter_value_by_name("post_fault_cycles.corrected_to_recovery_end") +
      m.counter_value_by_name("post_fault_cycles.corrected_after_recovery");
  const u64 divergent_records =
      m.counter_value_by_name("outcome.Corrected");
  const double ceiling =
      static_cast<double>(scalar.cycles_evaluated) /
      static_cast<double>(std::max<u64>(1, divergent_cycles));

  std::cout << "\nrecords identical across every lane count: "
            << (identical ? "yes" : "NO") << "\n"
            << "best: " << report::Table::num(best, 1) << "x at " << best_lanes
            << " lanes\n"
            << "amdahl: " << report::Table::count(divergent_records)
            << " corrected runs pin " << report::Table::count(divergent_cycles)
            << " of " << report::Table::count(scalar.cycles_evaluated)
            << " scalar cycles as divergent simulation ("
            << report::Table::count(
                   m.counter_value_by_name("tails_certified"))
            << " tails, "
            << report::Table::count(
                   m.counter_value_by_name("tail_cycles_skipped"))
            << " cycles retired unsimulated) -> cycle-reduction ceiling ~"
            << report::Table::num(ceiling, 1) << "x at infinite lanes\n";
  return identical ? 0 : 1;
}
