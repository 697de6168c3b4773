#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "telemetry/json.hpp"

namespace sfi::telemetry {

std::vector<double> exp_buckets(double lo, double hi, u32 per_decade) {
  require(lo > 0.0 && hi > lo, "exp_buckets needs 0 < lo < hi");
  require(per_decade > 0, "exp_buckets needs >= 1 bucket per decade");
  const double step = std::pow(10.0, 1.0 / per_decade);
  std::vector<double> bounds;
  for (double b = lo; b < hi * (1.0 + 1e-12); b *= step) {
    bounds.push_back(b);
  }
  return bounds;
}

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<u64>& buckets, double q) {
  u64 total = 0;
  for (const u64 c : buckets) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil): the same convention
  // Prometheus uses, so pinned values are comparable across stacks.
  const double rank = q * static_cast<double>(total);
  u64 below = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const u64 in_bucket = buckets[b];
    if (static_cast<double>(below + in_bucket) < rank) {
      below += in_bucket;
      continue;
    }
    if (b >= bounds.size()) return bounds.back();  // overflow: clamp
    const double hi = bounds[b];
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    if (in_bucket == 0) return hi;
    const double frac =
        (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * frac;
  }
  return bounds.back();
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  const auto find_counter = [this](std::string_view name) -> u64* {
    for (auto& [n, v] : counters) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  for (const auto& [name, value] : other.counters) {
    if (u64* mine = find_counter(name)) {
      *mine += value;
    } else {
      counters.emplace_back(name, value);
    }
  }
  const auto find_gauge = [this](std::string_view name) -> double* {
    for (auto& [n, v] : gauges) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  for (const auto& [name, value] : other.gauges) {
    if (double* mine = find_gauge(name)) {
      *mine = value;
    } else {
      gauges.emplace_back(name, value);
    }
  }
  const auto find_hist = [this](std::string_view name) -> Hist* {
    for (Hist& h : histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  for (const Hist& theirs : other.histograms) {
    Hist* mine = find_hist(theirs.name);
    if (mine == nullptr) {
      histograms.push_back(theirs);
      continue;
    }
    if (mine->bounds == theirs.bounds) {
      for (std::size_t b = 0; b < mine->buckets.size(); ++b) {
        mine->buckets[b] += theirs.buckets[b];
      }
    }
    mine->count += theirs.count;
    mine->sum += theirs.sum;
  }
}

u64 MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const MetricsSnapshot::Hist* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const Hist& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void MetricsShard::observe(HistogramId h, double value) {
  Hist& hist = hists_[h.index];
  const std::vector<double>& bounds = reg_->hist_defs_[h.index].bounds;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  ++hist.buckets[static_cast<std::size_t>(it - bounds.begin())];
  ++hist.count;
  hist.sum += value;
}

CounterId MetricsRegistry::counter(std::string name) {
  const CounterId id{static_cast<u32>(counter_names_.size())};
  counter_names_.push_back(std::move(name));
  counters_.push_back(0);
  return id;
}

GaugeId MetricsRegistry::gauge(std::string name) {
  const GaugeId id{static_cast<u32>(gauge_names_.size())};
  gauge_names_.push_back(std::move(name));
  gauges_.push_back(0.0);
  return id;
}

HistogramId MetricsRegistry::histogram(std::string name,
                                       std::vector<double> bounds) {
  require(std::is_sorted(bounds.begin(), bounds.end()),
          "histogram bounds must be ascending");
  const HistogramId id{static_cast<u32>(hist_defs_.size())};
  MetricsShard::Hist h;
  h.buckets.assign(bounds.size() + 1, 0);
  hists_.push_back(std::move(h));
  hist_defs_.push_back({std::move(name), std::move(bounds)});
  return id;
}

MetricsShard MetricsRegistry::make_shard() const {
  MetricsShard s;
  s.reg_ = this;
  s.counters_.assign(counter_names_.size(), 0);
  s.hists_.reserve(hist_defs_.size());
  for (const HistDef& def : hist_defs_) {
    MetricsShard::Hist h;
    h.buckets.assign(def.bounds.size() + 1, 0);
    s.hists_.push_back(std::move(h));
  }
  return s;
}

void MetricsRegistry::merge(MetricsShard& shard) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < shard.counters_.size(); ++i) {
    counters_[i] += shard.counters_[i];
    shard.counters_[i] = 0;
  }
  for (std::size_t i = 0; i < shard.hists_.size(); ++i) {
    MetricsShard::Hist& from = shard.hists_[i];
    MetricsShard::Hist& to = hists_[i];
    for (std::size_t b = 0; b < from.buckets.size(); ++b) {
      to.buckets[b] += from.buckets[b];
      from.buckets[b] = 0;
    }
    to.count += from.count;
    to.sum += from.sum;
    from.count = 0;
    from.sum = 0.0;
  }
}

void MetricsRegistry::add(CounterId c, u64 delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[c.index] += delta;
}

void MetricsRegistry::observe(HistogramId h, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsShard::Hist& hist = hists_[h.index];
  const std::vector<double>& bounds = hist_defs_[h.index].bounds;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  ++hist.buckets[static_cast<std::size_t>(it - bounds.begin())];
  ++hist.count;
  hist.sum += value;
}

void MetricsRegistry::set_gauge(GaugeId g, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  gauges_[g.index] = value;
}

u64 MetricsRegistry::counter_value(CounterId c) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_[c.index];
}

u64 MetricsRegistry::counter_value_by_name(std::string_view name) const {
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) {
      const std::lock_guard<std::mutex> lock(mu_);
      return counters_[i];
    }
  }
  return 0;
}

double MetricsRegistry::gauge_value(GaugeId g) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return gauges_[g.index];
}

u64 MetricsRegistry::histogram_count(HistogramId h) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hists_[h.index].count;
}

double MetricsRegistry::histogram_sum(HistogramId h) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hists_[h.index].sum;
}

std::vector<u64> MetricsRegistry::histogram_buckets(HistogramId h) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hists_[h.index].buckets;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    s.counters.emplace_back(counter_names_[i], counters_[i]);
  }
  s.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    s.gauges.emplace_back(gauge_names_[i], gauges_[i]);
  }
  s.histograms.reserve(hist_defs_.size());
  for (std::size_t i = 0; i < hist_defs_.size(); ++i) {
    MetricsSnapshot::Hist h;
    h.name = hist_defs_[i].name;
    h.bounds = hist_defs_[i].bounds;
    h.buckets = hists_[i].buckets;
    h.count = hists_[i].count;
    h.sum = hists_[i].sum;
    s.histograms.push_back(std::move(h));
  }
  return s;
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.field(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) w.field(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const Hist& h : histograms) {
    w.key(h.name).begin_object();
    w.key("bounds").begin_array();
    for (const double b : h.bounds) w.value(b);
    w.end_array();
    w.key("buckets").begin_array();
    for (const u64 c : h.buckets) w.value(c);
    w.end_array();
    w.field("count", h.count);
    w.field("sum", h.sum);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace sfi::telemetry
