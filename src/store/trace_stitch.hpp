// Trace stitcher: reassemble one fleet timeline from the 'S' span frames
// scattered across a campaign's store files.
//
// A farm campaign leaves spans in several places: each worker's shard store
// (`<out>.w<slot>g<gen>.sfr`, when --keep-shards preserved them), the
// coordinator's trace sidecar (`<out minus .sfr>.trace.sfr` — the
// coordinator tees every span it records *or receives* there, so the
// stitched view survives the default shard cleanup), and the canonical
// output itself for single-process runs. Because every span is
// self-describing (process label, OS pid, wall-anchored timestamps —
// telemetry/span.hpp), stitching is a concatenation: read every input
// tolerantly, sort by timestamp, render one Trace Event JSON with one
// process row per pid.
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

/// Stitch every discovered input for `store_path` into one trace document.
[[nodiscard]] StitchResult stitch_trace(const std::string& store_path);

}  // namespace sfi::store
