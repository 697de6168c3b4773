#include "serve/spec.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>

#include "farm/process.hpp"
#include "sfi/engine.hpp"

namespace sfi::serve {

namespace {

using S = CampaignSpec;

[[noreturn]] void invalid(std::string_view what, std::string_view text,
                          const std::string& why) {
  throw SpecError("invalid value for " + std::string(what) + ": '" +
                  std::string(text) + "' (" + why + ")");
}

std::string real_text(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

/// A valued row's `sfi help`: its value's placeholder and one line.
struct Doc {
  std::string_view value, help;
};

/// An unsigned integer in [min, max] (max defaults to what fits the
/// member). With `zero_keeps_default`, 0 leaves the member as it is: for
/// threads, 0 has always meant "the runner's default".
template <class T>
SpecOption count(std::string_view flag, std::string_view key, u32 verbs,
                 Doc doc, T S::*m, T dflt, T min = 0,
                 T max = std::numeric_limits<T>::max(),
                 bool zero_keeps_default = false) {
  return {flag, key, verbs, SpecKind::Number, std::to_string(dflt),
          [m](const S& s) { return std::to_string(s.*m); },
          [=](S& s, std::string_view what, const std::string& text) {
            const u64 v = parse_count(what, text);
            if (v == 0 && zero_keeps_default) return;
            if (v < min || v > max) {
              invalid(what, text,
                      "must be in [" + std::to_string(min) + ", " +
                          std::to_string(max) + "]");
            }
            s.*m = static_cast<T>(v);
          },
          doc.value, doc.help};
}

/// A real strictly between `above` and `below`.
SpecOption real(std::string_view flag, std::string_view key, u32 verbs,
                Doc doc, double S::*m, double dflt, double above,
                double below) {
  return {flag, key, verbs, SpecKind::Number, real_text(dflt),
          [m](const S& s) { return real_text(s.*m); },
          [=](S& s, std::string_view what, const std::string& text) {
            const double v = parse_real(what, text);
            if (!(v > above && v < below)) {
              invalid(what, text,
                      "must be in (" + real_text(above) + ", " +
                          real_text(below) + ")");
            }
            s.*m = v;
          },
          doc.value, doc.help};
}

/// A bare flag: off unless given.
SpecOption flag_on(std::string_view flag, std::string_view key, u32 verbs,
                   std::string_view help, bool S::*m) {
  return {flag, key, verbs, SpecKind::Switch, "",
          [m](const S& s) { return std::string(s.*m ? "true" : ""); },
          [m](S& s, std::string_view, const std::string&) { s.*m = true; },
          "", help};
}

/// Text: the default or one of `names` (any text when there are none).
SpecOption text(std::string_view flag, std::string_view key, u32 verbs,
                Doc doc, std::string S::*m, const std::string& dflt,
                std::vector<std::string> names) {
  return {flag, key, verbs, SpecKind::Text, dflt,
          [m](const S& s) { return s.*m; },
          [=](S& s, std::string_view what, const std::string& v) {
            if (!names.empty() && v != dflt &&
                std::find(names.begin(), names.end(), v) == names.end()) {
              std::string known;
              for (const std::string& n : names) known += "|" + n;
              invalid(what, v, "expected one of " + known.substr(1));
            }
            s.*m = v;
          },
          doc.value, doc.help};
}

template <class E, std::size_t N>
std::vector<std::string> names_of(const std::array<E, N>& all) {
  std::vector<std::string> names;
  for (const E v : all) names.emplace_back(to_string(v));
  return names;
}

}  // namespace

const std::vector<SpecOption>& spec_options() {
  static const std::vector<SpecOption> rows = [] {
    const inject::CampaignConfig cc;
    const StopTarget st;
    const auto any = ~u32{0};
    using namespace verb;
    // Who reads a row besides `submit`: the plan rows define the injections
    // (an exec worker rebuilds the plan from them); beam and derate run
    // their own plans; trace and mix build only the workload.
    constexpr u32 kPlan = kCampaign | kWorker | kSubmit;
    constexpr u32 kRuns = kPlan | kBeam | kDerate;
    constexpr u32 kWorkload = kRuns | kTrace | kMix;
    constexpr u32 kDriver = kCampaign | kSubmit;
    return std::vector<SpecOption>{
        text("tenant", "tenant", kSubmit,
             {"T", "fair-share accounting bucket"}, &S::tenant, "default", {}),
        count("seed", "seed", kRuns, {"N", "experiment seed"}, &S::seed,
              cc.seed),
        count<u64>("testcase-seed", "testcase_seed", kWorkload,
                   {"N", "AVP workload seed"}, &S::testcase_seed, 2026),
        count("instructions", "instructions", kWorkload,
              {"N", "AVP testcase length"}, &S::instructions,
              avp::TestcaseConfig{}.num_instructions, 1u),
        count<u32>("n", "n", kRuns,
                   {"N", "injections (beam: events); early stop may end "
                         "sooner"},
                   &S::n, 1000, 1),
        // The daemon's stop granularity: one scheduler thread claims the
        // cycle-sorted order as an exact prefix, so a campaign stopped at k
        // records is byte-identical (after canonical merge) to `sfi
        // campaign --threads 1 --max-new k --shard-size 16 --flush 8`.
        count<u32>("threads", "threads", kDriver | kBeam | kDerate,
                   {"N", "worker threads; 0 keeps the default, where 0 "
                         "is every core"},
                   &S::threads, 1, 1, any, true),
        count<u32>("workers", "workers", kDriver,
                   {"N", "farm worker processes (0: in-process)"},
                   &S::workers, 0),
        count<u32>("shard-size", "shard_size", kDriver,
                   {"N", "injections per scheduler shard"}, &S::shard_size,
                   16, 1),
        count<u32>("flush", "flush_records", kDriver,
                   {"N", "records a worker buffers between store flushes"},
                   &S::flush_records, 8, 1),
        real("confidence", "confidence", kDriver | kBeam | kReport,
             {"C", "interval confidence, for the CI columns and early stop"},
             &S::confidence, st.confidence, 0.0, 1.0),
        real("half-width", "half_width", kSubmit,
             {"W", "stop once every stratum's Wilson half-width is <= W"},
             &S::half_width, st.half_width, 0.0,
             std::numeric_limits<double>::infinity()),
        flag_on("stratify-unit", "by_unit", kSubmit,
                "hold each unit's stratum to --half-width too", &S::by_unit),
        text("engine", "inj_engine", kPlan | kDerate,
             {"E", "injection engine, scalar or lanes (the same records)"},
             &S::engine, inject::engine_name(cc.engine),
             {inject::engine_name(inject::EngineKind::Scalar),
              inject::engine_name(inject::EngineKind::Lanes)}),
        count("lanes", "lanes", kPlan | kDerate,
              {"N", "in-flight injections per lane-engine sweep"}, &S::lanes,
              cc.lanes, 1u),
        flag_on("raw", "raw", kRuns | kTrace,
                "mask every core checker (Table 3 \"Raw\")", &S::raw),
        text("unit", "unit", kPlan | kDerate,
             {"U", "only this unit's latches (IFU..RUT, Core)"},
             &S::unit, "", names_of(netlist::kAllUnits)),
        text("type", "type", kPlan | kDerate,
             {"T", "only this latch type (FUNC/REGFILE/MODE/GPTR)"},
             &S::type, "", names_of(netlist::kAllLatchTypes)),
        count<u64>("sticky", "sticky", kPlan | kDerate | kTrace,
                   {"D", "sticky faults held D cycles (0: toggles)"},
                   &S::sticky, 0),
        count("ckpt-interval", "ckpt_interval", kRuns,
              {"N", "reference checkpoint every N cycles (0: off; 2^64-1: "
                    "auto from --ckpt-mem)"},
              &S::ckpt_interval, cc.ckpt_interval),
        count("ckpt-mem", "ckpt_mem", kRuns,
              {"MIB", "checkpoint memory budget in MiB"}, &S::ckpt_mem,
              cc.ckpt_memory_budget >> 20, u64{0}, ~u64{0} >> 20),
        flag_on("footprint", "footprint", kPlan,
                "trace the infection footprint of every non-Vanished "
                "injection",
                &S::footprint),
        count("footprint-sample", "footprint_sample", kPlan,
              {"N", "also trace every Nth Vanished injection (0: none)"},
              &S::footprint_sample, cc.footprint.vanished_sample),
        count("footprint-window", "footprint_window", kPlan,
              {"N", "cycles traced after a Vanished or Corrected flip"},
              &S::footprint_window, cc.footprint.max_trace_cycles),
        flag_on("footprint-every-cycle", "footprint_every_cycle", kPlan,
                "diff every cycle after the flip (implies --footprint)",
                &S::footprint_every_cycle),
    };
  }();
  return rows;
}

CampaignSpec::CampaignSpec() {
  for (const SpecOption& row : spec_options()) {
    if (!row.bare()) row.set(*this, row.flag, row.dflt);
  }
}

u64 parse_count(std::string_view what, const std::string& text) {
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    invalid(what, text, "expected an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (errno == ERANGE) invalid(what, text, "out of range for a 64-bit value");
  if (end != text.c_str() + text.size()) {
    invalid(what, text, "trailing characters after the number");
  }
  return v;
}

double parse_real(std::string_view what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    invalid(what, text, "expected a number");
  }
  if (errno == ERANGE) invalid(what, text, "out of range");
  return v;
}

void apply_flags(CampaignSpec& spec,
                 const std::map<std::string, std::string>& values,
                 const std::set<std::string>& bare) {
  for (const SpecOption& row : spec_options()) {
    const std::string flag(row.flag);
    if (row.bare() ? bare.count(flag) != 0 : values.count(flag) != 0) {
      row.set(spec, "--" + flag, row.bare() ? "" : values.at(flag));
    }
  }
}

CampaignSpec spec_from_json(const Json& j) {
  CampaignSpec spec;
  for (const SpecOption& row : spec_options()) {
    const std::string key(row.key);
    const Json* v = j.find(key);
    if (v == nullptr) continue;
    const Json::Type want = row.bare()                   ? Json::Type::Bool
                            : row.kind == SpecKind::Text ? Json::Type::String
                                                         : Json::Type::Number;
    if (v->type() != want) {
      invalid(key, v->str(),
              want == Json::Type::Bool     ? "expected true or false"
              : want == Json::Type::String ? "expected a string"
                                           : "expected a number");
    }
    if (!row.bare()) {
      row.set(spec, key, v->str());  // a number's literal: exact past 2^53
    } else if (v->boolean()) {
      row.set(spec, key, "");
    }
  }
  return spec;
}

void write_spec(telemetry::JsonWriter& w, const CampaignSpec& spec,
                bool all) {
  for (const SpecOption& row : spec_options()) {
    const std::string v = row.get(spec);
    if (!all && v == row.dflt) continue;
    w.key(row.key);
    if (row.kind == SpecKind::Text) {
      w.value(v);
    } else if (row.bare()) {
      w.value(!v.empty());
    } else {
      w.raw(v);  // a number, spelled exactly
    }
  }
}

std::vector<std::string> worker_command(const CampaignSpec& spec) {
  std::vector<std::string> cmd = {farm::self_exe(), "worker"};
  for (const SpecOption& row : spec_options()) {
    const std::string v = row.get(spec);
    if (!row.exec() || v == row.dflt) continue;
    cmd.push_back("--" + std::string(row.flag));
    if (!row.bare()) cmd.push_back(v);
  }
  return cmd;
}

CampaignRun campaign_run(const CampaignSpec& spec) {
  CampaignRun run;
  run.testcase.seed = spec.testcase_seed;
  run.testcase.num_instructions = spec.instructions;
  run.sched.shard_size = spec.shard_size;
  run.sched.flush_records = spec.flush_records;

  inject::CampaignConfig& c = run.config;
  c.seed = spec.seed;
  c.num_injections = spec.n;
  c.threads = spec.threads;
  c.core.checkers_enabled = !spec.raw;
  c.ckpt_interval = spec.ckpt_interval;
  c.ckpt_memory_budget = spec.ckpt_mem << 20;
  if (spec.sticky != 0) {
    c.mode = inject::FaultMode::Sticky;
    c.sticky_duration = spec.sticky;
  }
  c.footprint.enabled = spec.footprint || spec.footprint_every_cycle;
  c.footprint.vanished_sample = spec.footprint_sample;
  c.footprint.max_trace_cycles = spec.footprint_window;
  if (spec.footprint_every_cycle) {
    c.footprint.sampling = inject::FootprintSampling::EveryCycle;
  }
  c.engine = inject::parse_engine(spec.engine).value();  // a validated name
  c.lanes = spec.lanes;
  // Unit and latch type narrow the population together.
  if (!spec.unit.empty() || !spec.type.empty()) {
    c.filter = [unit = spec.unit,
                type = spec.type](const netlist::LatchMeta& m) {
      return (unit.empty() || to_string(m.unit) == unit) &&
             (type.empty() || to_string(m.type) == type);
    };
  }
  return run;
}

}  // namespace sfi::serve
