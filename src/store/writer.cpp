#include "store/writer.hpp"

#include <fstream>

namespace sfi::store {

struct StoreWriter::OfstreamHolder {
  std::ofstream stream;
};

StoreWriter::StoreWriter(const std::string& path, bool truncate,
                         WriteOptions opts)
    : path_(path), out_(std::make_shared<OfstreamHolder>()), opts_(opts) {
  const auto mode = std::ios::binary | std::ios::out |
                    (truncate ? std::ios::trunc : std::ios::app);
  out_->stream.open(path, mode);
  if (!out_->stream) {
    throw StoreError("cannot open store file for writing: " + path);
  }
}

StoreWriter StoreWriter::create(const std::string& path,
                                const CampaignMeta& meta, WriteOptions opts) {
  StoreWriter w(path, /*truncate=*/true, opts);
  w.write_bytes(std::span<const u8>(kMagic.data(), kMagic.size()));
  // With commit markers on, the flush below seals the header with a marker.
  // That marker commits the (possibly empty) store, and it tells tolerant
  // readers a marker-discipline store apart from a legacy one, which keeps
  // the any-complete-frame-is-valid truncation rule.
  w.append(meta);
  w.flush();
  return w;
}

StoreWriter StoreWriter::append_to(const std::string& path,
                                   WriteOptions opts) {
  return StoreWriter(path, /*truncate=*/false, opts);
}

void StoreWriter::flush() {
  if (opts_.commit_markers && uncommitted_frames_ > 0) {
    write_bytes(make_frame(kCommitFrame, std::span<const u8>{}));
    uncommitted_frames_ = 0;
  }
  out_->stream.flush();
  if (!out_->stream) throw StoreError("store flush failed: " + path_);
}

void StoreWriter::write_bytes(std::span<const u8> bytes) {
  out_->stream.write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()));
  if (!out_->stream) throw StoreError("store write failed: " + path_);
}

}  // namespace sfi::store
