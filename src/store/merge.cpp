#include "store/merge.hpp"

#include <map>

namespace sfi::store {

MergeSummary merge_stores(const std::vector<std::string>& inputs,
                          const std::string& out_path, ReadOptions opts) {
  if (inputs.empty()) throw StoreError("merge needs at least one input");

  MergeSummary summary;
  summary.inputs = inputs.size();

  std::map<u32, StoredRecord> by_index;

  bool have_meta = false;
  for (const std::string& path : inputs) {
    // Every reader applies the commit rule, so under tolerant reading the
    // records of a killed worker's unsealed flush window never arrive here.
    StoreReader reader(path, opts);
    if (!have_meta) {
      summary.meta = reader.meta();
      have_meta = true;
    } else if (!summary.meta.same_campaign(reader.meta())) {
      throw StoreError("store " + path +
                       " belongs to a different campaign than " + inputs[0] +
                       " (seed/config/workload mismatch)");
    }
    StoredRecord sr;
    while (reader.next(sr)) {
      ++summary.records_read;
      if (sr.index >= summary.meta.num_injections) {
        throw StoreError("record index " + std::to_string(sr.index) +
                         " out of campaign range in " + path);
      }
      const auto [it, inserted] = by_index.emplace(sr.index, sr);
      if (inserted) continue;
      // Comparing encoded payloads (not structs) is what makes "shards
      // agree" an exact, byte-level statement.
      if (encode_record(it->second) != encode_record(sr)) {
        throw StoreError(
            "shards disagree on injection " + std::to_string(sr.index) +
            " — not re-executions of the same campaign (" + path + ")");
      }
      ++summary.duplicates;
    }
  }

  summary.missing = summary.meta.num_injections - by_index.size();

  StoreWriter writer = StoreWriter::create(out_path, summary.meta);
  for (const auto& [index, sr] : by_index) writer.append(sr);
  writer.flush();
  summary.records_written = writer.records_written();
  return summary;
}

}  // namespace sfi::store
