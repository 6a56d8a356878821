// mp::Process — the Process abstraction of Python's multiprocessing
// ("Process-based 'threading' interface", §6.3): run a function in a
// forked child.
//
// The child runs `fn` and _exits with its return value; it never
// returns into the caller's code. No exec(2) follows the fork — this
// is exactly the "forking without calling exec is a special case that
// requires special treatment" situation of §5.1.
#pragma once

#include <sys/types.h>

#include <functional>
#include <optional>
#include <utility>

#include "support/result.hpp"

namespace dionea::mp {

// SIGTERM -> SIGKILL grace used where the caller did not pick one (the
// Process destructor, ChildReaper::terminate_all's default): the
// DIONEA_KILL_GRACE_MS environment override when set to a value in
// [0, 60000], else `fallback`. A test harness tightening this to a few
// ms turns every stuck-child teardown from half a second of drag into
// a blip; a debuggee that needs longer to flush gets it the same way.
int kill_grace_millis(int fallback) noexcept;

class Process {
 public:
  // Fork and run fn in the child. Returns (in the parent) a handle.
  // `fn` runs in a copy of the parent's address space; only the
  // calling thread exists in the child.
  static Result<Process> spawn(const std::function<int()>& fn);

  Process(Process&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      if (valid()) (void)terminate(kill_grace_millis(kDestructorGraceMillis));
      pid_ = std::exchange(other.pid_, -1);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  // Destroying a live handle reaps the child: SIGTERM, a short grace,
  // then SIGKILL (terminate()). A handle must never leak a zombie —
  // hand the pid to a ChildReaper via release() to keep the child
  // alive past the handle.
  ~Process();

  pid_t pid() const noexcept { return pid_; }
  bool valid() const noexcept { return pid_ > 0; }

  // Give up ownership of the child without touching it; the handle
  // becomes invalid and the caller takes over reaping.
  pid_t release() noexcept { return std::exchange(pid_, -1); }

  // Block until exit; returns exit code, or -signal for signal death.
  Result<int> wait();
  // Non-blocking: nullopt while still running.
  Result<std::optional<int>> try_wait();
  // Wait up to `timeout_millis` for exit; kTimeout if still alive.
  Result<int> wait_timeout(int timeout_millis);

  // Stop the child without leaking a zombie: reap if already dead,
  // else SIGTERM -> wait up to `grace_millis` -> SIGKILL -> wait.
  // Returns the exit code (or -signal).
  Result<int> terminate(int grace_millis = 1000);

  Status kill(int signal);
  bool running();

  // Grace the destructor gives a live child before escalating.
  static constexpr int kDestructorGraceMillis = 500;

 private:
  explicit Process(pid_t pid) : pid_(pid) {}
  // Reap the child if it exits within `timeout_millis` (0: only
  // check); nullopt while it is still running.
  Result<std::optional<int>> reap(int timeout_millis);

  pid_t pid_ = -1;
};

}  // namespace dionea::mp
