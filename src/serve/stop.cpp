#include "serve/stop.hpp"

#include "common/check.hpp"

namespace sfi::serve {

namespace {

void append_strata(const inject::OutcomeCounts& counts,
                   const std::string& prefix, double z,
                   std::vector<StratumInterval>& out) {
  const u64 n = counts.total();
  if (n == 0) return;
  for (const inject::Outcome o : inject::kAllOutcomes) {
    StratumInterval s;
    s.stratum = prefix + std::string(inject::to_string(o));
    s.count = counts.of(o);
    s.n = n;
    s.interval = counts.interval(o, z);
    out.push_back(std::move(s));
  }
}

}  // namespace

std::vector<StratumInterval> stratum_intervals(
    const inject::CampaignAggregate& agg, const StopTarget& target) {
  const double z = target.z();
  std::vector<StratumInterval> out;
  append_strata(agg.counts, "", z, out);
  if (target.by_unit) {
    for (const netlist::Unit u : netlist::kAllUnits) {
      const auto& counts = agg.by_unit[static_cast<std::size_t>(u)];
      append_strata(counts, std::string(netlist::to_string(u)) + "/", z, out);
    }
  }
  return out;
}

bool target_met(const inject::CampaignAggregate& agg,
                const StopTarget& target) {
  if (agg.total() == 0) return false;
  for (const StratumInterval& s : stratum_intervals(agg, target)) {
    if (s.half_width() > target.half_width) return false;
  }
  return true;
}

double widest_half_width(const inject::CampaignAggregate& agg,
                         const StopTarget& target) {
  double widest = -1.0;
  for (const StratumInterval& s : stratum_intervals(agg, target)) {
    if (s.half_width() > widest) widest = s.half_width();
  }
  return widest;
}

StopMonitor::StopMonitor(u32 num_injections, StopTarget target)
    : target_(target), seen_(num_injections, false) {
  require(target.half_width > 0.0, "stop target half_width > 0");
  require(target.confidence > 0.0 && target.confidence < 1.0,
          "stop target confidence in (0,1)");
}

void StopMonitor::observe(const store::StoredRecord& rec) {
  if (rec.index >= seen_.size() || seen_[rec.index]) return;
  seen_[rec.index] = true;
  agg_.add(rec.rec);
  ++committed_;
  met_ = target_met(agg_, target_);
}

}  // namespace sfi::serve
