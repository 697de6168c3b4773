#include "farm/process.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace sfi::farm {

namespace {

[[noreturn]] void child_failed(const char* what) {
  // Never unwind a forked child back into the parent's stack/atexit state.
  std::perror(what);
  _exit(127);
}

/// Fork with a control pipe (into the child) and a bell (out of it), both
/// close-on-exec. `in_child` gets the child's ends and never returns.
ChildProcess do_fork(
    const std::function<void(int control_fd, int bell_fd)>& in_child) {
  int control[2];
  int bell[2];
  if (pipe2(control, O_CLOEXEC) != 0) {
    throw std::runtime_error("farm: pipe failed");
  }
  if (pipe2(bell, O_CLOEXEC) != 0) {
    close(control[0]);
    close(control[1]);
    throw std::runtime_error("farm: pipe failed");
  }
  // Flush inherited stdio so buffered coordinator output is not emitted
  // twice (once by each process).
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    for (const int fd : {control[0], control[1], bell[0], bell[1]}) close(fd);
    throw std::runtime_error("farm: fork failed");
  }
  if (pid == 0) {
    close(control[1]);
    close(bell[0]);
    in_child(control[0], bell[1]);  // never returns
    _exit(127);
  }
  close(control[0]);
  close(bell[1]);
  return ChildProcess{static_cast<i64>(pid), control[1], bell[0]};
}

}  // namespace

ChildProcess spawn_call(
    const std::function<int(int control_fd, int bell_fd)>& child_main) {
  return do_fork([&](int control_fd, int bell_fd) {
    int rc = 127;
    try {
      rc = child_main(control_fd, bell_fd);
    } catch (...) {
      rc = 126;  // an escaped exception is a harness failure, not a crash
    }
    _exit(rc & 0xFF);
  });
}

ChildProcess spawn_exec(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::runtime_error("farm: empty exec argv");
  return do_fork([&](int control_fd, int bell_fd) {
    // dup2 clears close-on-exec on the copies; the originals close at exec.
    if (dup2(control_fd, STDIN_FILENO) < 0 ||
        dup2(bell_fd, STDOUT_FILENO) < 0) {
      child_failed("farm dup2");
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    execvp(cargv[0], cargv.data());
    child_failed("farm execvp");
  });
}

bool send_line(const ChildProcess& child, const std::string& line) {
  if (child.control_fd < 0) return false;
  std::string buf = line;
  buf.push_back('\n');
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        write(child.control_fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE et al.: the worker is gone
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void close_control(ChildProcess& child) {
  if (child.control_fd >= 0) {
    close(child.control_fd);
    child.control_fd = -1;
  }
}

void wait_for_bells(std::span<ChildProcess* const> children,
                    double timeout_seconds) {
  std::vector<pollfd> fds;
  std::vector<ChildProcess*> ringing;
  for (ChildProcess* child : children) {
    if (child->bell_fd < 0 || child->hung_up) continue;
    fds.push_back({child->bell_fd, POLLIN, 0});
    ringing.push_back(child);
  }
  // With no bell to watch this is a plain sleep (every worker is dead and
  // the queue waits out a backoff).
  const double ms = std::ceil(std::max(0.0, timeout_seconds) * 1000.0);
  if (poll(fds.data(), fds.size(), static_cast<int>(std::min(ms, 1e9))) <= 0) {
    return;  // timeout, or EINTR: the caller's pass runs either way
  }
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if (fds[k].revents == 0) continue;
    // One read empties a bell: a worker rings once per assignment and waits
    // for the next one. Zero bytes is EOF — every write end is closed.
    char rung[64];
    const ssize_t n = read(fds[k].fd, rung, sizeof rung);
    if (n == 0 || (n < 0 && errno != EINTR)) {
      ringing[k]->hung_up = true;
    }
  }
}

void kill_hard(const ChildProcess& child) {
  if (child.valid()) kill(static_cast<pid_t>(child.pid), SIGKILL);
}

namespace {

void decode_status(int status, bool& clean, int& detail) {
  if (WIFEXITED(status)) {
    detail = WEXITSTATUS(status);
    clean = detail == 0;
  } else if (WIFSIGNALED(status)) {
    detail = -WTERMSIG(status);
    clean = false;
  }
}

}  // namespace

void reap(ChildProcess& child, bool& clean, int& detail) {
  if (child.valid()) {
    int status = 0;
    while (waitpid(static_cast<pid_t>(child.pid), &status, 0) < 0 &&
           errno == EINTR) {
    }
    decode_status(status, clean, detail);
  }
  close_control(child);
  if (child.bell_fd >= 0) {
    close(child.bell_fd);
    child.bell_fd = -1;
  }
}

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace sfi::farm
