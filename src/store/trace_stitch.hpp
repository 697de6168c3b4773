// Trace stitcher: reassemble one fleet timeline from the 'S' span frames
// scattered across a campaign's store files.
//
// A store campaign's spans live in its trace sidecar (`<out minus
// .sfr>.trace.sfr`), streamed there by the scheduler and the farm
// coordinator and appended to on resume; farm shard stores
// (`<out>.w<slot>g<gen>.sfr`, live or kept) hold copies of their workers'
// spans. Every span is self-describing (process label, OS pid,
// wall-anchored timestamps — telemetry/span.hpp), so stitching is a
// concatenation: read every input tolerantly, drop the shard copies, sort
// by timestamp, render one Trace Event JSON with one process row per pid.
// `sfi trace`, `--chrome-trace` on a store campaign and the daemon's
// /trace all return this document.
//
// Postmortem dumps (`*.postmortem.jsonl`, the crash flight recorder's
// output) ride along as instants on their own process row: the ring's tail
// shows what a dead process was doing, time-shifted to the trace start
// (the recorder stamps lines on the telemetry steady clock, which has no
// wall anchor — relative spacing is preserved, absolute placement is not).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "store/writer.hpp"
#include "telemetry/span.hpp"

namespace sfi::store {

/// Suffix of a campaign's trace sidecar (see store_sibling).
inline constexpr std::string_view kTraceSidecarSuffix = ".trace.sfr";

/// The one owner of campaign-derived file names: `store_path` minus a
/// trailing ".sfr", plus `suffix`. The trace sidecar (kTraceSidecarSuffix),
/// farm shard stores (".w<slot>g<gen>.sfr") and the stitcher's prefix scan
/// all derive from it.
[[nodiscard]] std::string store_sibling(const std::string& store_path,
                                        std::string_view suffix);

/// The trace sidecar of the store at `store_path`, opened as the store is:
/// fresh, or with `append` (a resumed store) appended to after dropping a
/// torn tail — unless it is missing, unreadable or of another campaign.
[[nodiscard]] StoreWriter open_trace_sidecar(const std::string& store_path,
                                             const CampaignMeta& meta,
                                             bool append);

/// Move every span `book` recorded into `w` as 'S' frames and flush: the
/// one path from a span book to a store.
void drain_spans(telemetry::SpanBook& book, StoreWriter& w);

/// All decodable 'S' frames of one store, tolerant of torn tails and
/// unknown frames. Missing file => empty (shards may be cleaned up).
[[nodiscard]] std::vector<telemetry::SpanRecord> read_spans(
    const std::string& path);

/// The files stitch_trace() would read for `store_path`: the store itself,
/// its `.trace.sfr` sidecar, sibling shard stores and `.hf` fatal-synthesis
/// stores, and any `*.postmortem.jsonl` dumps, in that order.
[[nodiscard]] std::vector<std::string> discover_trace_inputs(
    const std::string& store_path);

struct StitchResult {
  std::string json;        ///< Trace Event JSON ({"traceEvents":[...]})
  std::size_t spans = 0;   ///< spans stitched (postmortem instants included)
  std::size_t files = 0;   ///< inputs that contributed at least one span
  std::size_t processes = 0;  ///< distinct OS process rows
};

/// Stitch every discovered input for `store_path` into one trace document,
/// each span once: a shard store adds only spans the store and its sidecar
/// lack.
[[nodiscard]] StitchResult stitch_trace(const std::string& store_path);

}  // namespace sfi::store
