// Metrics registry: named counters, gauges and fixed-bucket histograms with
// per-worker sharded accumulation.
//
// The hot path of a campaign is a worker thread classifying thousands of
// injections per second; instrumentation must not serialize it. The split:
//
//   * the MetricsRegistry owns the *definitions* (names, bucket bounds) and
//     the merged totals. Registration happens once, single-threaded, before
//     any worker starts;
//   * each worker owns a MetricsShard — plain vectors of u64/double slots,
//     no atomics, no locks — and increments into it;
//   * shards are folded into the registry under one mutex at flush/finish
//     (merge() zeroes the shard, so folding is idempotent to repeat).
//
// With telemetry disabled nothing is allocated and the instrumented code
// branches on a null pointer — the cost is one predicted branch.
#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace sfi::telemetry {

struct CounterId {
  u32 index = 0;
};
struct GaugeId {
  u32 index = 0;
};
struct HistogramId {
  u32 index = 0;
};

/// Roughly-exponential histogram bounds: `per_decade` bucket upper bounds
/// per power of ten, spanning [lo, hi]. Suitable for wall-time (seconds)
/// and latency (cycles) distributions whose range spans decades.
[[nodiscard]] std::vector<double> exp_buckets(double lo, double hi,
                                              u32 per_decade = 3);

class MetricsRegistry;

/// Estimate the q-quantile (q in [0, 1]) of a bucketed histogram by linear
/// interpolation inside the bucket holding the target rank, Prometheus
/// `histogram_quantile` style: the first bucket interpolates from 0, the
/// overflow bucket clamps to the last finite bound (an exp-bucket histogram
/// has no upper edge to interpolate toward). Returns 0 for an empty
/// histogram. `buckets` has bounds.size() + 1 entries (last = overflow).
[[nodiscard]] double histogram_quantile(const std::vector<double>& bounds,
                                        const std::vector<u64>& buckets,
                                        double q);

/// A point-in-time copy of a registry's instruments, detached from ids and
/// shards so it can cross process boundaries (farm workers serialize one per
/// reporting interval; the coordinator folds them into a fleet view).
/// Everything is keyed by name: two snapshots from registries with the same
/// registration set merge instrument-for-instrument, and snapshots from
/// *different* registrations still merge by name union.
struct MetricsSnapshot {
  struct Hist {
    std::string name;
    std::vector<double> bounds;
    std::vector<u64> buckets;  ///< bounds.size() + 1 (last = overflow)
    u64 count = 0;
    double sum = 0.0;

    [[nodiscard]] double quantile(double q) const {
      return histogram_quantile(bounds, buckets, q);
    }
  };

  std::vector<std::pair<std::string, u64>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<Hist> histograms;

  /// Fold `other` into this snapshot: counters and histogram buckets add,
  /// gauges take `other`'s value (last write wins — gauges are levels, not
  /// rates). Instruments missing on either side are unioned in. Histograms
  /// with mismatched bounds keep this snapshot's buckets untouched and only
  /// fold count/sum (cross-version workers; should not happen in practice).
  void merge_from(const MetricsSnapshot& other);

  [[nodiscard]] u64 counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] const Hist* histogram(std::string_view name) const;

  /// The snapshot as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{bounds,buckets,
  /// count,sum}}} in instrument order (registration order for a registry's
  /// snapshot, so stable across runs).
  [[nodiscard]] std::string to_json() const;
};

/// One worker's private accumulation slots. Not thread-safe by design —
/// exactly one thread writes a shard, and the owning registry folds it in
/// under its own lock. Create via MetricsRegistry::make_shard() after all
/// metrics are registered.
class MetricsShard {
 public:
  MetricsShard() = default;

  void add(CounterId c, u64 delta = 1) { counters_[c.index] += delta; }
  /// Record one observation: O(log buckets) bound search, two adds.
  void observe(HistogramId h, double value);

  [[nodiscard]] u64 counter(CounterId c) const { return counters_[c.index]; }

 private:
  friend class MetricsRegistry;

  struct Hist {
    std::vector<u64> buckets;  ///< bounds.size() + 1 (last = overflow)
    u64 count = 0;
    double sum = 0.0;
  };

  const MetricsRegistry* reg_ = nullptr;  ///< bucket bounds (immutable)
  std::vector<u64> counters_;
  std::vector<Hist> hists_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (single-threaded, before make_shard) ---
  CounterId counter(std::string name);
  GaugeId gauge(std::string name);
  /// `bounds` are ascending bucket upper bounds; an overflow bucket is
  /// implicit. Observations land in the first bucket whose bound >= value.
  HistogramId histogram(std::string name, std::vector<double> bounds);

  /// A shard sized to everything registered so far. The registry must
  /// outlive and not register further metrics once shards exist.
  [[nodiscard]] MetricsShard make_shard() const;

  // --- accumulation ---
  /// Fold a worker shard into the merged totals and zero it (safe to call
  /// again; a zeroed shard merges as a no-op). Thread-safe.
  void merge(MetricsShard& shard);
  /// Direct (locked) accumulation for low-rate, non-worker call sites.
  void add(CounterId c, u64 delta = 1);
  void observe(HistogramId h, double value);
  void set_gauge(GaugeId g, double value);

  // --- read-out ---
  [[nodiscard]] u64 counter_value(CounterId c) const;
  /// Read a counter by registered name (0 if unknown) — for tests and
  /// loosely coupled consumers that don't hold the id.
  [[nodiscard]] u64 counter_value_by_name(std::string_view name) const;
  [[nodiscard]] double gauge_value(GaugeId g) const;
  [[nodiscard]] u64 histogram_count(HistogramId h) const;
  [[nodiscard]] double histogram_sum(HistogramId h) const;
  [[nodiscard]] std::vector<u64> histogram_buckets(HistogramId h) const;

  /// Copy every instrument's current merged value (registration order,
  /// stable across runs). Takes the registry lock once; worker shards that
  /// have not been folded yet are not included.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  friend class MetricsShard;

  struct HistDef {
    std::string name;
    std::vector<double> bounds;
  };

  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<HistDef> hist_defs_;

  mutable std::mutex mu_;
  std::vector<u64> counters_;
  std::vector<double> gauges_;
  std::vector<MetricsShard::Hist> hists_;
};

}  // namespace sfi::telemetry
