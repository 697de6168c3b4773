// One campaign spec: every option a campaign takes, in one table.
//
// The paper defines a campaign by its workload, sample size, latch
// population (unit and latch type, Figs. 3-5) and checker setting (Table 3's
// "Raw"), and runs that one campaign on many emulator copies (§2.2). Here a
// campaign crosses four boundaries: the `sfi` command line, the daemon's
// submit requests, its manifests, and an exec farm worker's argv. Each
// option is one row of spec_options(), and the codecs below only walk the
// rows, so no boundary keeps its own list. campaign_run() turns a spec into
// what every verb and the daemon run, so serve honours every option the
// command line has.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "avp/testgen.hpp"
#include "sched/scheduler.hpp"
#include "serve/stop.hpp"
#include "serve/wire.hpp"
#include "sfi/campaign.hpp"
#include "telemetry/json.hpp"

namespace sfi::serve {

/// A campaign option given a value it cannot take; what() names the flag
/// (`--n`) or the JSON key (`n`). The CLI exits 2, the daemon replies
/// ok:false.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One campaign. A default-constructed spec holds every row's default, and
/// those are the daemon's: `sfi campaign` starts from the scheduler's own
/// shard, flush and thread defaults instead.
struct CampaignSpec {
  CampaignSpec();

  std::string tenant;
  u64 seed = 0;
  u64 testcase_seed = 0;
  u32 instructions = 0;
  u32 n = 0;        ///< fixed-N ceiling; early stop may finish well short
  u32 threads = 0;  ///< scheduler threads (0 on the command line: hardware)
  u32 workers = 0;  ///< >0: run on the farm with this many worker processes
  u32 shard_size = 0;
  u32 flush_records = 0;
  double confidence = 0.0;
  double half_width = 0.0;
  bool by_unit = false;
  std::string engine;  ///< "inj_engine" on the wire: "engine" in status
                       ///< rows names the dispatch mode, farm/sched
  u32 lanes = 0;
  bool raw = false;  ///< mask every core checker (Table 3 "Raw")
  std::string unit;  ///< only this unit's latches ("" = every unit)
  std::string type;  ///< only this latch type ("" = every type)
  u64 sticky = 0;    ///< sticky faults of this many cycles (0 = toggles)
  u64 ckpt_interval = 0;
  u64 ckpt_mem = 0;  ///< MiB
  bool footprint = false;
  u32 footprint_sample = 0;
  u64 footprint_window = 0;
  bool footprint_every_cycle = false;

  bool operator==(const CampaignSpec&) const = default;

  [[nodiscard]] StopTarget target() const {
    return {confidence, half_width, by_unit};
  }
  /// Queue price: estimated work before any simulation runs. Injections x
  /// workload instructions is proportional to replayed cycles for a fixed
  /// design, which is all fair-share needs.
  [[nodiscard]] u64 price() const {
    return static_cast<u64>(n) * instructions;
  }
};

/// The `sfi` verbs, one bit each. An option names the set of verbs that
/// read it (SpecOption::verbs, and the command line's own options); the
/// command line refuses it on any other verb. The CLI's verb table names
/// each bit's verb.
namespace verb {
inline constexpr u32 kInventory = 1u << 0, kCampaign = 1u << 1,
                     kWorker = 1u << 2, kReport = 1u << 3,
                     kExplain = 1u << 4, kMerge = 1u << 5, kBeam = 1u << 6,
                     kTrace = 1u << 7, kMix = 1u << 8, kDerate = 1u << 9,
                     kServe = 1u << 10, kSubmit = 1u << 11,
                     kStatus = 1u << 12, kWatch = 1u << 13,
                     kShutdown = 1u << 14, kTop = 1u << 15;
}  // namespace verb

/// How a value is spelled in JSON: a number (its literal), a string, or a
/// bool for a bare flag.
enum class SpecKind : u8 { Number, Text, Switch };

/// One row: an option's spellings, its default, its member's accessors and
/// its `sfi help` line.
struct SpecOption {
  std::string_view flag;  ///< command-line flag, without the leading "--"
  std::string_view key;   ///< JSON key in submit requests and manifests
  /// The verbs that read it: `submit` reads every row, and `worker` the
  /// rows an exec farm worker gets on its argv.
  u32 verbs;
  SpecKind kind;          ///< a Switch is a bare flag; the rest take a value
  std::string dflt;       ///< the default, spelled as `get` spells it
  /// The member as a flag value ("true" or "" for a switch).
  std::function<std::string(const CampaignSpec&)> get;
  /// The one validator: set the member from a flag value (a JSON number's
  /// literal, a JSON string), or throw SpecError naming `what`.
  std::function<void(CampaignSpec&, std::string_view what,
                     const std::string& text)>
      set;
  std::string_view value;  ///< placeholder for the value ("" for a switch)
  std::string_view help;   ///< one line; says what a sentinel default means

  [[nodiscard]] bool bare() const { return kind == SpecKind::Switch; }
  /// Exec farm workers get it on their argv.
  [[nodiscard]] bool exec() const { return (verbs & verb::kWorker) != 0; }
};

[[nodiscard]] const std::vector<SpecOption>& spec_options();

/// Strict parsers for every option: the whole text must be the number (an
/// unsigned integer may carry a 0x or 0 base prefix). SpecError names
/// `what`.
[[nodiscard]] u64 parse_count(std::string_view what, const std::string& text);
[[nodiscard]] double parse_real(std::string_view what,
                                const std::string& text);

/// Set the rows among parsed command-line options: `values` maps each flag
/// given a value to it, `bare` holds the bare flags given. Other names are
/// the caller's.
void apply_flags(CampaignSpec& spec,
                 const std::map<std::string, std::string>& values,
                 const std::set<std::string>& bare);

/// Read a submit request or a manifest: the rows whose keys are present,
/// over the defaults. Other keys are ignored.
[[nodiscard]] CampaignSpec spec_from_json(const Json& j);

/// Write rows as members of the object `w` has open: all of them for a
/// manifest, else only those off their default (a submit body).
void write_spec(telemetry::JsonWriter& w, const CampaignSpec& spec, bool all);

/// An exec farm worker's command: this binary, the `worker` verb, and the
/// exec rows that are off their default, as flags.
[[nodiscard]] std::vector<std::string> worker_command(
    const CampaignSpec& spec);

/// What a spec runs as: the workload, the campaign (threads included), and
/// the scheduler's shard and flush windows.
struct CampaignRun {
  avp::TestcaseConfig testcase;
  inject::CampaignConfig config;
  sched::SchedulerConfig sched;
};
[[nodiscard]] CampaignRun campaign_run(const CampaignSpec& spec);

}  // namespace sfi::serve
