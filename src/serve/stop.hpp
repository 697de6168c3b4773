// Sequential early stop: the online form of the paper's sample-size
// argument. A fixed-N campaign picks N up front from a guessed proportion
// (stats::required_sample_size); the serve daemon instead watches the
// per-stratum Wilson intervals narrow as committed records arrive and stops
// dispatching the moment every stratum's half-width is under the submitted
// target — the statistics, not a guess, decide when enough flips have run.
//
// Counting is commit-gated: StopMonitor is fed by the executor's on_record
// callback (sched::SchedulerConfig / farm::FarmConfig), which hands over a
// record only once the flush or commit marker sealing it is on disk.
// "Counted" therefore always equals "durable", and the stop point the daemon
// records is exactly the set of records an offline `sfi report` of the
// store will see.
#pragma once

#include <string>
#include <vector>

#include "sfi/aggregate.hpp"
#include "stats/intervals.hpp"
#include "store/codec.hpp"

namespace sfi::serve {

/// What a submitted campaign asks of its estimate.
struct StopTarget {
  double confidence = stats::kDefaultConfidence;
  /// Required Wilson half-width for every stratum proportion.
  double half_width = 0.02;
  /// Additionally require the per-unit outcome strata (units observed so
  /// far) to meet the target, not just the overall outcome proportions.
  bool by_unit = false;

  [[nodiscard]] double z() const {
    return stats::z_for_confidence(confidence);
  }
};

/// One stratum's live interval, for reports and the `interval` event.
struct StratumInterval {
  std::string stratum;  ///< "Vanished", or "IFU/Hang" in by-unit mode
  u64 count = 0;
  u64 n = 0;
  stats::Interval interval;
  [[nodiscard]] double half_width() const { return interval.width() / 2.0; }
};

/// Wilson intervals for every stratum the target covers, at the target's
/// confidence. Empty when no records have been counted yet.
[[nodiscard]] std::vector<StratumInterval> stratum_intervals(
    const inject::CampaignAggregate& agg, const StopTarget& target);

/// True when every stratum interval is at or under the target half-width
/// (never true before the first record).
[[nodiscard]] bool target_met(const inject::CampaignAggregate& agg,
                              const StopTarget& target);

/// The widest current half-width (the binding stratum), or a negative value
/// before any record.
[[nodiscard]] double widest_half_width(const inject::CampaignAggregate& agg,
                                       const StopTarget& target);

/// Online stop decision over committed records, fed through observe() by
/// either execution path's on_record callback. Records are deduplicated by
/// index (resume replays overlap).
class StopMonitor {
 public:
  StopMonitor(u32 num_injections, StopTarget target);

  void observe(const store::StoredRecord& rec);

  [[nodiscard]] bool met() const { return met_; }
  [[nodiscard]] u64 committed() const { return committed_; }
  [[nodiscard]] const inject::CampaignAggregate& agg() const { return agg_; }
  [[nodiscard]] const StopTarget& target() const { return target_; }

 private:
  StopTarget target_;
  std::vector<bool> seen_;
  inject::CampaignAggregate agg_;
  u64 committed_ = 0;
  bool met_ = false;
};

}  // namespace sfi::serve
