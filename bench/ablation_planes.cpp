// Ablation — overhead and read-only gate of both telemetry planes on one
// farm plan. Every rep runs three arms back to back:
//
//   off    no telemetry attached;
//   obs    the observability plane: campaign telemetry (which has the
//          workers ship 'M' metrics frames), a concurrent Prometheus-
//          rendering scrape thread and the crash flight recorder;
//   trace  the span plane on that telemetry: worker 'S' frames (beside the
//          'M' frames) with exemplar phase slices, coordinator dispatch
//          spans, the sidecar tee and the post-run stitch (inside the arm's
//          wall time: "trace on" pays for both recording and reassembly).
//
// Each plane's merged store must be byte-identical to its rep's off arm
// (checked on every pair) and cost <5% wall clock. The overhead estimate is
// the MEDIAN of the per-rep plane/off ratios: a rep's arms run back to back
// under the same ambient load, so pairing cancels runner drift, and the
// median discards the rep a noisy neighbour landed on (min-vs-min compares
// arms that may have gotten lucky at different times). Nonzero exit on any
// violation.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "farm/farm.hpp"
#include "sfi/telemetry.hpp"
#include "store/trace_stitch.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/prometheus.hpp"

namespace {

std::vector<sfi::u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfi;
  const bench::Options opt = bench::parse_options(argc, argv);
  // Quick mode still runs ~1.5s arms: shorter farm runs are dominated by
  // supervision-poll jitter and the overhead estimate turns into a coin
  // flip against a 5% budget (the planes' true cost is ~2-3%).
  const u32 n = opt.full ? 10000 : 5000;
  const u32 reps = opt.full ? 3 : 5;
  bench::print_scale_note(opt, "5000 flips x 5 reps/arm",
                          "10000 flips x 3 reps/arm");

  const avp::Testcase tc = bench::standard_testcase();
  inject::CampaignConfig base;
  base.seed = opt.seed;
  base.num_injections = n;
  farm::FarmConfig farm_base;
  farm_base.workers = 2;
  farm_base.shard_size = 64;

  const auto dir = std::filesystem::temp_directory_path();
  const auto out_path = [&](const std::string& arm) {
    return (dir / ("sfi_planes_" + arm + ".sfr")).string();
  };
  const std::string postmortem = (dir / "sfi_planes.postmortem").string();

  // The observability plane's process-wide half: the crash flight recorder
  // ring that the event-emission path tees into on every line.
  telemetry::FlightRecorder::global().enable(2048);

  u64 scrapes = 0;
  u64 scrape_bytes = 0;
  const auto run_obs = [&](const std::string& out) {
    inject::CampaignTelemetry tel;
    inject::CampaignConfig cfg = base;
    cfg.telemetry = &tel;
    farm::FarmConfig fc = farm_base;
    fc.postmortem_path = postmortem;

    // A /metrics scrape once a second, rendered exactly the way the serve
    // daemon renders it: fleet snapshot (with quantile gauges) under the
    // campaign labels, concurrent with the running coordinator.
    std::atomic<bool> running{true};
    std::thread scraper([&] {
      const std::vector<telemetry::PromLabel> labels = {
          {"campaign", "1"}, {"tenant", "bench"}, {"engine", "farm"}};
      while (running.load(std::memory_order_relaxed)) {
        telemetry::PrometheusWriter pw;
        pw.add_gauge("campaign.injections_total", labels, n);
        pw.add_gauge("campaign.fleet_workers", labels,
                     static_cast<double>(tel.fleet_workers()));
        pw.add_snapshot(tel.fleet_snapshot(), labels);
        scrape_bytes += pw.str().size();
        ++scrapes;
        for (int i = 0; i < 20 && running.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
    const farm::FarmResult r = farm::run_farm_campaign(tc, cfg, out, fc);
    running.store(false);
    scraper.join();
    return r;
  };

  store::StitchResult stitched;
  const auto run_trace = [&](const std::string& out) {
    inject::CampaignTelemetry tel;
    tel.enable_span_plane("sfi", /*trace_id=*/0);
    inject::CampaignConfig cfg = base;
    cfg.telemetry = &tel;
    farm::FarmResult r = farm::run_farm_campaign(tc, cfg, out, farm_base);
    const auto t0 = std::chrono::steady_clock::now();
    stitched = store::stitch_trace(out);
    r.wall_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return r;
  };

  // One row per arm; arms[0] is the plane-off baseline.
  struct Arm {
    std::string name;
    std::function<farm::FarmResult(const std::string&)> run;
    std::vector<double> ratios;  ///< per-rep arm/off wall ratios
    bool identical = true;       ///< merged store == the off arm's, every rep
  };
  std::vector<Arm> arms = {
      {"off",
       [&](const std::string& out) {
         return farm::run_farm_campaign(tc, base, out, farm_base);
       },
       {},
       true},
      {"obs", run_obs, {}, true},
      {"trace", run_trace, {}, true}};

  const auto remove_outputs = [&](const std::string& out) {
    std::filesystem::remove(out);
    std::filesystem::remove(
        store::store_sibling(out, store::kTraceSidecarSuffix));
  };

  std::cout << report::section(
      "Ablation: telemetry-plane overhead + read-only gate");
  report::Table t({"rep", "plane", "executed", "wall (s)", "inj/s"});
  const auto add_row = [&](u32 rep, const std::string& plane,
                           const farm::FarmResult& r) {
    t.add_row({report::Table::count(rep), plane,
               report::Table::count(r.executed),
               report::Table::num(r.wall_seconds, 2),
               report::Table::count(
                   static_cast<u64>(r.injections_per_second()))});
  };
  for (u32 rep = 0; rep < reps; ++rep) {
    std::vector<farm::FarmResult> results(arms.size());
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const std::string out = out_path(arms[a].name);
      remove_outputs(out);
      results[a] = arms[a].run(out);
      if (!results[a].complete) {
        std::cout << "ERROR: farm run incomplete (" << arms[a].name << ")\n";
        return 1;
      }
    }
    const std::vector<u8> off_bytes = slurp(out_path("off"));
    for (std::size_t a = 0; a < arms.size(); ++a) {
      add_row(rep, arms[a].name, results[a]);
      if (a == 0) continue;
      if (slurp(out_path(arms[a].name)) != off_bytes) {
        arms[a].identical = false;
      }
      if (results[0].wall_seconds > 0.0) {
        arms[a].ratios.push_back(results[a].wall_seconds /
                                 results[0].wall_seconds);
      }
    }
  }
  std::cout << t.to_string();

  std::cout << "\nscrapes: " << scrapes << " (" << scrape_bytes
            << " bytes of exposition text)\n";
  std::cout << "stitched: " << stitched.spans << " spans across "
            << stitched.processes << " processes (" << stitched.json.size()
            << " bytes of trace JSON)\n";

  // A farm arm is 3 processes (coordinator + 2 workers); on a machine with
  // fewer cores than that they time-slice one another and wall clock
  // measures scheduler contention, not the plane. The overhead gate is only
  // meaningful — and only enforced — where the arms can actually run
  // unserialized (CI runners have 4 cores).
  const unsigned cores = std::thread::hardware_concurrency();
  const bool contended = cores != 0 && cores < 3;
  bool ok = true;
  for (std::size_t a = 1; a < arms.size(); ++a) {
    Arm& p = arms[a];
    std::sort(p.ratios.begin(), p.ratios.end());
    const double overhead =
        p.ratios.empty() ? 0.0 : p.ratios[p.ratios.size() / 2] - 1.0;
    std::cout << p.name << ": per-pair ratios";
    for (const double r : p.ratios) {
      std::cout << ' ' << report::Table::num(r, 3);
    }
    std::cout << ", median overhead " << report::Table::pct(overhead)
              << " (budget 5%), merged store byte-identical to off: "
              << (p.identical ? "yes" : "NO") << "\n";
    if (!p.identical) {
      std::cout << "VIOLATION: " << p.name << " plane changed store bytes\n";
      ok = false;
    }
    if (overhead >= 0.05) {
      if (contended) {
        std::cout << "WARNING: " << p.name
                  << " overhead above the 5% budget, but this machine has "
                  << cores
                  << " core(s) for a 3-process farm — measurement is "
                     "contention-dominated, not gating\n";
      } else {
        std::cout << "VIOLATION: " << p.name
                  << " plane overhead above the 5% budget\n";
        ok = false;
      }
    }
  }
  if (stitched.spans == 0 || stitched.processes < 2) {
    std::cout << "VIOLATION: trace stitched empty (plane not recording?)\n";
    ok = false;
  }

  for (const Arm& arm : arms) remove_outputs(out_path(arm.name));
  std::filesystem::remove(postmortem);
  return ok ? 0 : 1;
}
