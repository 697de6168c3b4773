#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace sfi::telemetry {

FlightRecorder& FlightRecorder::global() {
  // Leaked on purpose: signal handlers may dump it at any point of process
  // teardown, so it must never be destroyed.
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::enable(std::size_t slots) {
  if (slots == 0 || enabled()) return;
  Slot* ring = new Slot[slots];  // zero-length slots: empty
  capacity_ = slots;
  slots_.store(ring, std::memory_order_release);
}

void FlightRecorder::note(std::string_view line) {
  Slot* ring = slots_.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const u64 seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring[seq % capacity_];
  const u64 mine = 2 * (seq + 1);
  u64 seen = slot.stamp.load(std::memory_order_relaxed);
  do {
    // A writer mid-copy, or a newer line already here: this line lost the
    // slot to its neighbour one capacity away and is dropped.
    if ((seen & 1) != 0 || seen >= mine) return;
  } while (!slot.stamp.compare_exchange_weak(seen, mine + 1,
                                             std::memory_order_relaxed));
  // Orders the claim before the text: a reader that sees any of these
  // stores sees the claim when it re-checks the stamp.
  std::atomic_thread_fence(std::memory_order_release);
  const auto n = static_cast<u32>(std::min(line.size(), kLineBytes));
  for (std::size_t w = 0; w * sizeof(u64) < n; ++w) {
    u64 word = 0;
    std::memcpy(&word, line.data() + w * sizeof(u64),
                std::min(sizeof(u64), n - w * sizeof(u64)));
    slot.text[w].store(word, std::memory_order_relaxed);
  }
  slot.len.store(n, std::memory_order_relaxed);
  slot.stamp.store(mine, std::memory_order_release);
}

u32 FlightRecorder::read_line(u64 seq, char* out) const {
  const Slot& slot = slots_.load(std::memory_order_acquire)[seq % capacity_];
  const u64 want = 2 * (seq + 1);
  if (slot.stamp.load(std::memory_order_acquire) != want) return 0;
  const u32 n = slot.len.load(std::memory_order_relaxed);
  if (n == 0 || n > kLineBytes) return 0;
  for (std::size_t w = 0; w * sizeof(u64) < n; ++w) {
    const u64 word = slot.text[w].load(std::memory_order_relaxed);
    std::memcpy(out + w * sizeof(u64), &word, sizeof(u64));
  }
  // Orders the copy before the re-check: a copy that saw a later writer's
  // store sees that writer's claim here.
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.stamp.load(std::memory_order_relaxed) == want ? n : 0;
}

void FlightRecorder::dump_fd(int fd) const {
  if (slots_.load(std::memory_order_acquire) == nullptr) return;
  const u64 head = head_.load(std::memory_order_relaxed);
  const u64 begin = head > capacity_ ? head - capacity_ : 0;
  char text[kLineBytes];
  for (u64 seq = begin; seq < head; ++seq) {
    const u32 n = read_line(seq, text);
    if (n == 0) continue;  // not (or no longer) this line
    ssize_t off = 0;
    while (off < static_cast<ssize_t>(n)) {
      const ssize_t w = ::write(fd, text + off, n - off);
      if (w <= 0) return;
      off += w;
    }
    if (::write(fd, "\n", 1) != 1) return;
  }
}

std::vector<std::string> FlightRecorder::snapshot() const {
  std::vector<std::string> out;
  if (slots_.load(std::memory_order_acquire) == nullptr) return out;
  const u64 head = head_.load(std::memory_order_relaxed);
  const u64 begin = head > capacity_ ? head - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(head - begin));
  char text[kLineBytes];
  for (u64 seq = begin; seq < head; ++seq) {
    const u32 n = read_line(seq, text);
    if (n != 0) out.emplace_back(text, n);
  }
  return out;
}

std::size_t FlightRecorder::dump(const std::string& path) const {
  const Slot* ring = slots_.load(std::memory_order_acquire);
  if (ring == nullptr) return 0;
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return 0;
  dump_fd(fd);
  ::close(fd);
  const u64 head = head_.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(head > capacity_ ? capacity_ : head);
}

u64 recorded_t_us(std::string_view line) {
  const auto key = line.find("\"t_us\":");
  if (key == std::string_view::npos) return 0;
  u64 v = 0;
  for (std::size_t i = key + 7; i < line.size(); ++i) {
    const char c = line[i];
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<u64>(c - '0');
  }
  return v;
}

std::string_view recorded_event(std::string_view line) {
  const auto key = line.find("\"ev\":\"");
  if (key == std::string_view::npos) return "event";
  const auto begin = key + 6;
  const auto end = line.find('"', begin);
  if (end == std::string_view::npos) return "event";
  return line.substr(begin, end - begin);
}

namespace {

// Fixed storage the signal handler can reach without allocating.
char g_postmortem_path[4096] = {0};

void fatal_signal_handler(int signo) {
  if (g_postmortem_path[0] != '\0') {
    const int fd = ::open(g_postmortem_path,
                          O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
      FlightRecorder::global().dump_fd(fd);
      ::close(fd);
    }
  }
  // Re-raise with the default disposition so the exit status (and core
  // dump, where enabled) is what the signal would have produced anyway.
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void FlightRecorder::arm_signals(const std::string& path) {
  std::strncpy(g_postmortem_path, path.c_str(),
               sizeof g_postmortem_path - 1);
  g_postmortem_path[sizeof g_postmortem_path - 1] = '\0';
  struct sigaction sa = {};
  sa.sa_handler = fatal_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  for (const int signo : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    ::sigaction(signo, &sa, nullptr);
  }
}

}  // namespace sfi::telemetry
