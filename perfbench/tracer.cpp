#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "telemetry/json.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

Tracer::Tracer(u64 run_id, bool enabled)
    : epoch_(Clock::now()), run_id_(run_id), enabled_(enabled) {}

u64 Tracer::now_us() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now() - epoch_)
                              .count());
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::string layer)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.id = tracer_.spans_.size() + 1;
  s.parent = tracer_.open_.empty() ? 0 : tracer_.spans_[tracer_.open_.back()].id;
  s.start_us = tracer_.now_us();
  slot_ = tracer_.spans_.size();
  tracer_.spans_.push_back(std::move(s));
  tracer_.open_.push_back(slot_);
  open_ = true;
}

Tracer::Scope::~Scope() {
  if (!open_) return;
  tracer_.spans_[slot_].end_us = tracer_.now_us();
  tracer_.open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds_by_layer()
    const {
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_us[s.parent] += static_cast<double>(s.end_us - s.start_us);
    }
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    const double self =
        static_cast<double>(s.end_us - s.start_us) - child_us[s.id];
    by_layer[s.layer] += std::max(0.0, self) * 1e-6;
  }
  std::vector<std::pair<std::string, double>> out(by_layer.begin(),
                                                  by_layer.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& context_json) const {
  sfi::telemetry::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const Span& s : spans_) {
    w.begin_object()
        .field("name", s.name)
        .field("cat", s.layer)
        .field("ph", "X")
        .field("ts", s.start_us)
        .field("dur", s.end_us - s.start_us)
        .field("pid", u64{1})
        .field("tid", u64{1});
    w.key("args")
        .begin_object()
        .field("id", s.id)
        .field("parent", s.parent)
        .field("run", run_id_)
        .end_object();
    w.end_object();
  }
  w.end_array();
  w.key("metadata").raw(context_json);
  w.end_object();
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << "\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
