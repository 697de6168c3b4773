// Minimal POSIX child-process supervision for the farm coordinator.
//
// Two spawn shapes, matching the two farm deployments:
//
//   * fork-call (`--workers N`): the child runs a callable in the forked
//     address space and _exit()s. The campaign plan — golden trace,
//     population, checkpoint store — is inherited copy-on-write, so local
//     workers start instantly and share reference data physically.
//   * fork-exec (`--farm hosts.txt`): the child execs a full `sfi worker`
//     command line (optionally through ssh), rebuilding its plan from
//     (testcase, config). Slower to start, but survives across machines.
//
// Either way a worker gets two pipes. The control pipe carries newline-
// delimited assignment lines *into* the worker. The bell carries no data
// out: the worker writes one '\n' to it when an assignment's last record is
// committed, and it hangs up (EOF) when the worker exits, so the coordinator
// can sleep in poll(2) until there is something to read. What the worker
// did still travels only through its shard store's frame stream
// (store/tail.hpp). One channel out means one consistency discipline: if
// the coordinator saw it, it is on disk. Both pipes are close-on-exec, so
// no other exec'd process (another campaign's worker under `sfi serve`)
// holds a bell open past its worker's exit.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace sfi::farm {

struct ChildProcess {
  i64 pid = -1;
  int control_fd = -1;  ///< write end of the child's command pipe
  int bell_fd = -1;     ///< read end of the child's doorbell
  bool hung_up = false;  ///< the bell reached EOF: the child has exited
  [[nodiscard]] bool valid() const { return pid > 0; }
};

/// Fork-call mode: the child runs `child_main(control_fd, bell_fd)` — the
/// read end of its command pipe and the write end of its bell — and
/// _exit()s with its return value (never unwinds back into the caller's
/// stack).
ChildProcess spawn_call(
    const std::function<int(int control_fd, int bell_fd)>& child_main);

/// Fork-exec mode: the child dup2s the command pipe's read end onto stdin
/// and the bell's write end onto stdout, and execs `argv`. An exec failure
/// surfaces as immediate exit 127.
ChildProcess spawn_exec(const std::vector<std::string>& argv);

/// Write `line` + '\n' to the child's control pipe. Returns false on a
/// broken pipe (child already dead) — the caller's failure path, not an
/// exception, because a dying worker is routine for the supervisor.
bool send_line(const ChildProcess& child, const std::string& line);

/// Close our end of the control pipe (EOF is the worker's quit signal too).
void close_control(ChildProcess& child);

/// Sleep until a bell of `children` rings or hangs up, or `timeout_seconds`
/// pass. Empties every bell that rang and sets `hung_up` on each one at EOF.
/// Children whose bell already hung up are not waited on.
void wait_for_bells(std::span<ChildProcess* const> children,
                    double timeout_seconds);

/// SIGKILL. The farm never soft-kills: the reason to kill a worker is that
/// it is wedged, and a wedged worker won't run a SIGTERM handler either.
void kill_hard(const ChildProcess& child);

/// Blocking reap, then close both pipes: `clean` is a normal exit status 0,
/// `detail` the exit code, or -signal if killed. The bell stays open until
/// here, so a worker's last ring can never hit a closed pipe.
void reap(ChildProcess& child, bool& clean, int& detail);

/// Ignore SIGPIPE process-wide so writes to a dead worker's pipe fail with
/// EPIPE instead of killing the coordinator (and a worker's ring to a gone
/// coordinator fails quietly). Idempotent.
void ignore_sigpipe();

/// Absolute path of the running executable (/proc/self/exe), for spawning
/// `sfi worker` children in exec mode. Empty if unavailable.
[[nodiscard]] std::string self_exe();

}  // namespace sfi::farm
