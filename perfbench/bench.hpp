// Shared pieces of the campaign benchmark: named metrics, the span tracer
// that times calls into the repo's layers from the outside, and the
// per-layer probes (layers.cpp) that perfbench.cpp runs in a traced run.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "avp/testgen.hpp"
#include "sfi/campaign.hpp"
#include "store/codec.hpp"

namespace perfbench {

using sfi::u32;
using sfi::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they were set; setting a name again overwrites it.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// One timed call into a layer: name, layer, start/end, the enclosing span.
struct Span {
  std::string name;
  std::string layer;
  u64 id = 0;
  u64 parent = 0;  ///< 0: a root span
  u64 start_us = 0;
  u64 end_us = 0;
};

/// Spans recorded in memory on the benchmark's main thread and written as a
/// Chrome trace when the run ends. Disabled tracers record nothing.
class Tracer {
 public:
  Tracer(u64 run_id, bool enabled);

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t slot_ = 0;
    bool open_ = false;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the time its direct
  /// children cover, summed by layer, largest first.
  [[nodiscard]] std::vector<std::pair<std::string, double>>
  self_seconds_by_layer() const;

  /// Chrome trace-event JSON: one complete ("X") event per span, with the
  /// run id and parent span id in its args; `context` goes in as metadata.
  void write_chrome_json(const std::string& path,
                         const std::string& context_json) const;

 private:
  [[nodiscard]] u64 now_us() const;

  Clock::time_point epoch_;
  u64 run_id_ = 0;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span slots
};

/// Everything the per-layer probes work on: the workload's own testcase,
/// campaign config and plan, the injections it ran (in dispatch order) and
/// the records it produced.
struct ProbeInput {
  const sfi::avp::Testcase& tc;
  const sfi::inject::CampaignConfig& cfg;
  const sfi::inject::CampaignPlan& plan;
  std::vector<u32> indices;
  std::vector<sfi::store::StoredRecord> records;
  sfi::store::CampaignMeta meta;
  u32 threads = 1;
  u32 shard_size = 64;
  u32 flush_records = 32;
  /// Cycles the scalar engine evaluated on `indices` (the reference run).
  u64 scalar_cycles = 0;
};

/// Engine-level cost of running `indices` without any store: plan build plus
/// `threads` engines pulling shards of the cycle-sorted order (the scheduler's
/// dispatch with a null sink).
struct DirectRun {
  double seconds = 0.0;
  u64 injections = 0;
  u64 cycles = 0;
  u64 ff_cycles = 0;
  u64 ckpt_ops = 0;
};
[[nodiscard]] DirectRun run_direct(const ProbeInput& in);

// Per-layer probes (layers.cpp). Each records spans around its calls and
// sets its layer's metrics.
void probe_avp_emu(Tracer& tr, const ProbeInput& in, Metrics& m);
void probe_core_netlist(Tracer& tr, const ProbeInput& in, Metrics& m);
void probe_sfi(Tracer& tr, const ProbeInput& in, Metrics& m);
void probe_store(Tracer& tr, const ProbeInput& in,
                 const std::string& driver_store, Metrics& m);

}  // namespace perfbench
