#include "store/trace_stitch.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "store/reader.hpp"
#include "telemetry/flight_recorder.hpp"

namespace sfi::store {

namespace fs = std::filesystem;

std::string store_sibling(const std::string& store_path,
                          std::string_view suffix) {
  std::string base = store_path;
  if (base.size() > 4 && base.ends_with(".sfr")) base.resize(base.size() - 4);
  return base.append(suffix);
}

StoreWriter open_trace_sidecar(const std::string& store_path,
                               const CampaignMeta& meta, bool append) {
  const std::string path = store_sibling(store_path, kTraceSidecarSuffix);
  if (append) {
    try {
      const StoreContents prior =
          read_store(path, {.tolerate_torn_tail = true});
      if (prior.meta.same_campaign(meta)) {
        fs::resize_file(path, prior.valid_bytes);
        return StoreWriter::append_to(path);
      }
    } catch (const StoreError&) {
    }
  }
  return StoreWriter::create(path, meta);
}

void drain_spans(telemetry::SpanBook& book, StoreWriter& w) {
  for (const telemetry::SpanRecord& sp : book.drain()) w.append(sp);
  w.flush();
}

std::vector<telemetry::SpanRecord> read_spans(const std::string& path) {
  std::vector<telemetry::SpanRecord> out;
  if (!fs::exists(path)) return out;
  try {
    StoreReader reader(path, {.tolerate_torn_tail = true});
    u8 kind = 0;
    std::vector<u8> payload;
    while (reader.next_frame(kind, payload)) {
      if (kind != kSpanFrame) continue;
      try {
        out.push_back(decode_span(payload));
      } catch (const StoreError&) {
        // A span a newer build wrote with fields we cannot decode: skip it,
        // keep the rest of the timeline.
      }
    }
  } catch (const StoreError&) {
    // Unreadable store (bad magic, mid-file corruption): contribute nothing
    // rather than sink the whole stitch — other shards still have spans.
  }
  return out;
}

std::vector<std::string> discover_trace_inputs(const std::string& store_path) {
  std::vector<std::string> inputs;
  std::set<std::string> seen;
  // The directory scan spells a relative store "./run.trace.sfr" where the
  // sibling rule spells it "run.trace.sfr": compare normalised paths.
  const auto add = [&](const std::string& p) {
    const std::string path = fs::path(p).lexically_normal().string();
    if (seen.insert(path).second) inputs.push_back(path);
  };

  add(store_path);
  add(store_sibling(store_path, kTraceSidecarSuffix));

  // Sibling shard stores (`<base>.w<slot>g<gen>.sfr`), `.hf` fatal-synthesis
  // stores, and postmortem dumps, discovered by prefix scan so the stitcher
  // needs no manifest of what the coordinator spawned.
  const fs::path dir = fs::path(store_path).parent_path().empty()
                           ? fs::path(".")
                           : fs::path(store_path).parent_path();
  const std::string stem =
      fs::path(store_sibling(store_path, ".")).filename().string();
  std::vector<std::string> shards;
  std::vector<std::string> postmortems;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(stem)) continue;
    if (name.ends_with(".sfr")) shards.push_back(entry.path().string());
    if (name.ends_with(".postmortem.jsonl")) {
      postmortems.push_back(entry.path().string());
    }
  }
  std::sort(shards.begin(), shards.end());
  std::sort(postmortems.begin(), postmortems.end());
  for (const std::string& s : shards) add(s);
  for (const std::string& p : postmortems) add(p);
  return inputs;
}

StitchResult stitch_trace(const std::string& store_path) {
  StitchResult result;
  std::vector<telemetry::SpanRecord> spans;
  std::vector<std::string> postmortems;
  const auto take = [&](std::vector<telemetry::SpanRecord> got) {
    if (!got.empty()) ++result.files;
    spans.insert(spans.end(), std::make_move_iterator(got.begin()),
                 std::make_move_iterator(got.end()));
  };
  // The store and its sidecar come first and count whole.
  const std::vector<std::string> inputs = discover_trace_inputs(store_path);
  take(read_spans(inputs[0]));
  take(read_spans(inputs[1]));
  std::sort(spans.begin(), spans.end());
  const auto home = static_cast<std::ptrdiff_t>(spans.size());
  for (auto input = inputs.begin() + 2; input != inputs.end(); ++input) {
    if (input->ends_with(".postmortem.jsonl")) {
      postmortems.push_back(*input);
      continue;
    }
    // A shard store, live or kept by --keep-shards, holds copies of the
    // spans its coordinator teed into the sidecar and adds only the rest.
    // A copy equals its span field for field; span ids alone do not
    // identify a span, since two books in one process number theirs from
    // the same pid.
    std::vector<telemetry::SpanRecord> got = read_spans(*input);
    std::erase_if(got, [&](const telemetry::SpanRecord& s) {
      return std::binary_search(spans.begin(), spans.begin() + home, s);
    });
    take(std::move(got));
  }

  // Postmortem lines are stamped on the dead process's telemetry steady
  // clock (no wall anchor survives a SIGKILL), so they get their own row,
  // shifted to the trace start: relative spacing is real, placement is not.
  u64 wall_min = ~0ull;
  for (const telemetry::SpanRecord& s : spans) {
    wall_min = std::min(wall_min, s.ts_us);
  }
  if (wall_min == ~0ull) wall_min = 0;
  u64 synthetic_pid = u64{1} << 31;  // above any real pid
  for (const std::string& path : postmortems) {
    std::ifstream in(path);
    if (!in) continue;
    std::string line;
    bool contributed = false;
    const u64 pid = synthetic_pid++;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      telemetry::SpanRecord s;
      s.pid = pid;
      s.ph = 'i';
      s.ts_us = wall_min + telemetry::recorded_t_us(line);
      s.process = "postmortem: " + fs::path(path).filename().string();
      s.name = telemetry::recorded_event(line);
      s.cat = "postmortem";
      spans.push_back(std::move(s));
      contributed = true;
    }
    if (contributed) ++result.files;
  }

  std::stable_sort(spans.begin(), spans.end(),
                   [](const telemetry::SpanRecord& a,
                      const telemetry::SpanRecord& b) {
                     return a.ts_us < b.ts_us;
                   });
  std::set<u64> pids;
  for (const telemetry::SpanRecord& s : spans) pids.insert(s.pid);
  result.spans = spans.size();
  result.processes = pids.size();
  result.json = telemetry::spans_to_chrome_json(spans);
  return result;
}

}  // namespace sfi::store
