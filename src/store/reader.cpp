#include "store/reader.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/tail.hpp"

namespace sfi::store {

namespace {

/// Bytes read from the file per refill.
constexpr std::size_t kChunk = 64 * 1024;

u32 le32(const u8* p) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
  return v;
}

}  // namespace

/// The one envelope scanner and the one commit rule, over the bytes of a
/// store file that may still be growing. All offsets are file offsets.
/// Three cursors walk the file: `scanned_` past every frame whose envelope
/// (magic, length cap, CRC) validated, `sealed_` past every frame the
/// commit rule has released, and `next_` past every frame handed out.
class FrameCursor {
 public:
  explicit FrameCursor(std::string path) : path_(std::move(path)) {}
  ~FrameCursor() {
    if (fd_ >= 0) ::close(fd_);
  }
  FrameCursor(const FrameCursor&) = delete;
  FrameCursor& operator=(const FrameCursor&) = delete;

  enum class Step {
    Frame,  ///< a released frame
    Short,  ///< the bytes read so far hold no further released frame
    Bad,    ///< the envelope at scanned() is corrupt; see error()
  };

  /// The next released frame; `payload` stays valid until the next call.
  Step next(u8& kind, std::span<const u8>& payload) {
    while (next_ == sealed_) {
      const Step s = scan();
      if (s != Step::Frame) return s;
    }
    const u8* f = at(next_);
    kind = f[0];
    payload = {f + 5, le32(f + 1)};
    next_ += kFrameOverhead + payload.size();
    return Step::Frame;
  }

  /// Release the unsealed window (a strict reader at end of file).
  void release_all() { sealed_ = scanned_; }

  /// Open the file; false if it does not exist (yet).
  bool open() {
    if (fd_ < 0) fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    return fd_ >= 0;
  }

  [[nodiscard]] u64 file_size() const {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) fail_io("cannot stat");
    return static_cast<u64>(st.st_size);
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] u64 sealed() const { return sealed_; }
  [[nodiscard]] u64 scanned() const { return scanned_; }
  /// End of the bytes read so far.
  [[nodiscard]] u64 end() const { return base_ + buf_.size(); }
  /// End of the extent the corrupt frame claims.
  [[nodiscard]] u64 bad_end() const { return bad_end_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  /// Validate the envelope at scanned_ and apply the commit rule to it.
  Step scan() {
    if (scanned_ == 0) {
      if (!have(kMagic.size())) return Step::Short;
      if (!std::equal(kMagic.begin(), kMagic.end(), at(0))) {
        return bad("not a campaign store (bad magic)", kMagic.size());
      }
      next_ = sealed_ = scanned_ = kMagic.size();
    }
    if (!have(5)) return Step::Short;
    const u32 len = le32(at(scanned_) + 1);
    const u64 frame_end = scanned_ + kFrameOverhead + len;
    if (len > kMaxPayload) {
      return bad("implausible frame length " + std::to_string(len) +
                     " (corrupt store)",
                 frame_end);
    }
    if (!have(kFrameOverhead + len)) return Step::Short;
    const u8* f = at(scanned_);
    if (le32(f + 5 + len) != crc32(std::span<const u8>(f, 5 + len))) {
      return bad("frame CRC mismatch (corrupt store)", frame_end);
    }
    scanned_ = frame_end;
    if (f[0] == kCommitFrame) saw_commit_ = true;
    if (!saw_commit_ || f[0] == kCommitFrame) sealed_ = scanned_;
    return Step::Frame;
  }

  Step bad(std::string why, u64 frame_end) {
    error_ = std::move(why);
    bad_end_ = frame_end;
    return Step::Bad;
  }

  /// True once the buffer holds `n` bytes from scanned_ on, reading more
  /// of the file as needed.
  bool have(u64 n) {
    while (end() < scanned_ + n) {
      if (!fill()) return false;
    }
    return true;
  }

  /// Append the next chunk of the file to the buffer, first dropping the
  /// bytes already handed out. False when the file has no more bytes.
  bool fill() {
    if (!open()) return false;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(
                                                next_ - base_));
    base_ = next_;
    const std::size_t old = buf_.size();
    buf_.resize(old + kChunk);
    ssize_t got = 0;
    do {
      got = ::pread(fd_, buf_.data() + old, kChunk,
                    static_cast<off_t>(base_ + old));
    } while (got < 0 && errno == EINTR);
    if (got < 0) fail_io("cannot read");
    buf_.resize(old + static_cast<std::size_t>(got));
    return got > 0;
  }

  [[noreturn]] void fail_io(const char* what) const {
    throw StoreError(std::string(what) + " store file " + path_ + ": " +
                     std::strerror(errno));
  }

  const u8* at(u64 offset) const { return buf_.data() + (offset - base_); }

  std::string path_;
  int fd_ = -1;
  std::vector<u8> buf_;  ///< file bytes from offset base_ on
  u64 base_ = 0;
  u64 next_ = 0;
  u64 sealed_ = 0;
  u64 scanned_ = 0;
  bool saw_commit_ = false;
  u64 bad_end_ = 0;
  std::string error_;
};

StoreReader::StoreReader(const std::string& path, ReadOptions opts)
    : cursor_(std::make_unique<FrameCursor>(path)), opts_(opts) {
  if (!cursor_->open()) throw StoreError("cannot open store file: " + path);
  // The header frame is mandatory and must be intact even in tolerant mode:
  // without it there is no campaign identity to resume against.
  u8 kind = 0;
  std::span<const u8> payload;
  const FrameCursor::Step s = cursor_->next(kind, payload);
  if (s == FrameCursor::Step::Bad) {
    throw StoreError(cursor_->error() + ": " + path);
  }
  if (s != FrameCursor::Step::Frame || kind != kHeaderFrame) {
    throw StoreError("store has no campaign header: " + path);
  }
  meta_ = decode_meta(payload);
}

StoreReader::~StoreReader() = default;
StoreReader::StoreReader(StoreReader&&) noexcept = default;
StoreReader& StoreReader::operator=(StoreReader&&) noexcept = default;

u64 StoreReader::valid_bytes() const { return cursor_->sealed(); }

bool StoreReader::next_view(u8& kind, std::span<const u8>& payload) {
  FrameCursor& c = *cursor_;
  const bool tolerant = opts_.tolerate_torn_tail;
  while (!ended_) {
    switch (c.next(kind, payload)) {
      case FrameCursor::Step::Frame:
        // A second header frame is structural corruption (two concatenated
        // stores), never a forward-compatible extension.
        if (kind == kHeaderFrame) {
          throw StoreError("unexpected header frame mid-store: " + c.path());
        }
        return true;
      case FrameCursor::Step::Short:
        // End of file: the reader does not wait for the file to grow.
        if (!tolerant && c.sealed() < c.scanned()) {
          c.release_all();
          continue;
        }
        if (!tolerant && c.scanned() < c.end()) {
          throw StoreError("truncated frame (corrupt store): " + c.path());
        }
        torn_tail_ = c.sealed() < c.end();
        ended_ = true;
        return false;
      case FrameCursor::Step::Bad:
        // A bad frame reaching the end of the file is a torn append; one
        // with bytes behind it is corruption, even when tolerant.
        if (tolerant && c.bad_end() >= c.file_size()) {
          torn_tail_ = true;
          ended_ = true;
          return false;
        }
        throw StoreError(c.error() + ": " + c.path());
    }
  }
  return false;
}

bool StoreReader::next_frame(u8& kind, std::vector<u8>& payload) {
  std::span<const u8> view;
  if (!next_view(kind, view)) return false;
  payload.assign(view.begin(), view.end());
  return true;
}

bool StoreReader::next(StoredRecord& out) {
  u8 kind = 0;
  std::span<const u8> payload;
  while (next_view(kind, payload)) {
    if (kind != kRecordFrame) continue;  // skip unknown/forensic frames
    out = decode_record(payload);
    return true;
  }
  return false;
}

FrameTail::FrameTail(std::string path)
    : cursor_(std::make_unique<FrameCursor>(std::move(path))) {}

FrameTail::~FrameTail() = default;

std::size_t FrameTail::poll(
    const std::function<void(u8, std::span<const u8>)>& fn) {
  std::size_t delivered = 0;
  u8 kind = 0;
  std::span<const u8> payload;
  while (!corrupt_) {
    const FrameCursor::Step s = cursor_->next(kind, payload);
    if (s == FrameCursor::Step::Short) break;  // not written (sealed) yet
    if (s == FrameCursor::Step::Bad) {
      corrupt_ = true;
    } else if (!header_seen_) {
      // The first frame must be the campaign header; anything else means
      // this is not a store.
      header_seen_ = true;
      corrupt_ = kind != kHeaderFrame;
    } else if (kind != kCommitFrame) {
      fn(kind, payload);
      ++delivered;
    }
  }
  return delivered;
}

StoreContents read_store(const std::string& path, ReadOptions opts) {
  StoreReader reader(path, opts);
  StoreContents c;
  c.meta = reader.meta();
  StoredRecord sr;
  while (reader.next(sr)) c.records.push_back(sr);
  c.torn_tail = reader.torn_tail();
  c.valid_bytes = reader.valid_bytes();
  return c;
}

u64 for_each_record(const std::string& path,
                    const std::function<void(const StoredRecord&)>& fn,
                    ReadOptions opts) {
  StoreReader reader(path, opts);
  StoredRecord sr;
  u64 n = 0;
  while (reader.next(sr)) {
    fn(sr);
    ++n;
  }
  return n;
}

u64 for_each_propagation(
    const std::string& path,
    const std::function<void(const inject::PropagationRecord&)>& fn,
    ReadOptions opts) {
  StoreReader reader(path, opts);
  u8 kind = 0;
  std::vector<u8> payload;
  u64 n = 0;
  while (reader.next_frame(kind, payload)) {
    if (kind != kPropagationFrame) continue;
    fn(decode_propagation(payload));
    ++n;
  }
  return n;
}

std::pair<CampaignMeta, inject::CampaignAggregate> aggregate_store(
    const std::string& path, ReadOptions opts) {
  StoreReader reader(path, opts);
  inject::CampaignAggregate agg;
  StoredRecord sr;
  while (reader.next(sr)) agg.add(sr.rec);
  return {reader.meta(), agg};
}

}  // namespace sfi::store
