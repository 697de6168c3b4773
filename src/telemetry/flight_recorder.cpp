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
  const u32 n =
      static_cast<u32>(std::min(line.size(), kLineBytes));
  // Length is parked at 0 while the text is in flux so a concurrent dump
  // skips this slot instead of reading a mix of old and new bytes.
  slot.len.store(0, std::memory_order_relaxed);
  std::memcpy(slot.text, line.data(), n);
  slot.len.store(n, std::memory_order_release);
}

void FlightRecorder::dump_fd(int fd) const {
  const Slot* ring = slots_.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const u64 head = head_.load(std::memory_order_relaxed);
  const u64 begin = head > capacity_ ? head - capacity_ : 0;
  for (u64 seq = begin; seq < head; ++seq) {
    const Slot& slot = ring[seq % capacity_];
    const u32 n = slot.len.load(std::memory_order_acquire);
    if (n == 0 || n > kLineBytes) continue;  // empty or mid-overwrite
    ssize_t off = 0;
    while (off < static_cast<ssize_t>(n)) {
      const ssize_t w = ::write(fd, slot.text + off, n - off);
      if (w <= 0) return;
      off += w;
    }
    if (::write(fd, "\n", 1) != 1) return;
  }
}

std::vector<std::string> FlightRecorder::snapshot() const {
  std::vector<std::string> out;
  const Slot* ring = slots_.load(std::memory_order_acquire);
  if (ring == nullptr) return out;
  const u64 head = head_.load(std::memory_order_relaxed);
  const u64 begin = head > capacity_ ? head - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (u64 seq = begin; seq < head; ++seq) {
    const Slot& slot = ring[seq % capacity_];
    const u32 n = slot.len.load(std::memory_order_acquire);
    if (n == 0 || n > kLineBytes) continue;  // empty or mid-overwrite
    out.emplace_back(slot.text, n);
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
