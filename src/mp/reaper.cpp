#include "mp/reaper.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>

#include "mp/process.hpp"
#include "support/timing.hpp"

namespace dionea::mp {

namespace {

// SIGCHLD self-pipe (the classic trick): the handler writes one byte,
// wait_any poll(2)s the read end. Installed once per process, lazily —
// fork children inherit the disposition and the pipe, which is fine:
// each process's reapers read their own copy.
int g_sigchld_pipe[2] = {-1, -1};
std::once_flag g_sigchld_once;

void sigchld_handler(int) {
  int saved = errno;
  char byte = 'c';
  (void)!::write(g_sigchld_pipe[1], &byte, 1);
  errno = saved;
}

void install_sigchld_pipe() {
  std::call_once(g_sigchld_once, [] {
    if (::pipe(g_sigchld_pipe) != 0) return;
    for (int fd : g_sigchld_pipe) {
      (void)::fcntl(fd, F_SETFL, O_NONBLOCK);
      (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
    struct sigaction sa = {};
    sa.sa_handler = sigchld_handler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: blocking reads elsewhere already retry on EINTR.
    sa.sa_flags = SA_NOCLDSTOP;
    (void)::sigaction(SIGCHLD, &sa, nullptr);
  });
}

void drain_sigchld_pipe() {
  if (g_sigchld_pipe[0] < 0) return;
  char buf[64];
  while (::read(g_sigchld_pipe[0], buf, sizeof(buf)) > 0) {
  }
}

}  // namespace

void ChildReaper::watch(pid_t pid) {
  if (pid <= 0) return;
  install_sigchld_pipe();
  watched_.emplace(pid, false);
}

void ChildReaper::adopt(Process&& process) {
  watch(process.release());
}

void ChildReaper::unwatch(pid_t pid) { watched_.erase(pid); }

std::vector<pid_t> ChildReaper::watched() const {
  std::vector<pid_t> out;
  out.reserve(watched_.size());
  for (const auto& [pid, unused] : watched_) out.push_back(pid);
  return out;
}

bool ChildReaper::try_reap(pid_t pid, Exit* out) {
  int status = 0;
  pid_t got = ::waitpid(pid, &status, WNOHANG);
  if (got == 0) return false;  // still running
  if (got < 0) {
    // ECHILD: someone else reaped it (or it never was ours). The exit
    // status is gone; report a clean unknown exit rather than leaking
    // the pid in the watched set forever.
    if (errno != ECHILD) return false;
    out->pid = pid;
    out->exit_code = -1;
    out->signal = 0;
    return true;
  }
  out->pid = pid;
  if (WIFSIGNALED(status)) {
    out->signal = WTERMSIG(status);
    out->exit_code = -1;
  } else {
    out->signal = 0;
    out->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return true;
}

std::vector<ChildReaper::Exit> ChildReaper::collect() {
  std::vector<Exit> exits;
  for (auto it = watched_.begin(); it != watched_.end();) {
    Exit ex;
    if (try_reap(it->first, &ex)) {
      exits.push_back(ex);
      it = watched_.erase(it);
    } else {
      ++it;
    }
  }
  return exits;
}

std::vector<ChildReaper::Exit> ChildReaper::poll() {
  std::vector<Exit> exits(backlog_.begin(), backlog_.end());
  backlog_.clear();
  for (const Exit& ex : collect()) exits.push_back(ex);
  return exits;
}

Result<ChildReaper::Exit> ChildReaper::wait_any(int timeout_millis) {
  if (watched_.empty() && backlog_.empty()) {
    return Error(ErrorCode::kInvalidArgument, "no children watched");
  }
  Stopwatch watch;
  while (true) {
    if (!backlog_.empty()) {
      Exit ex = backlog_.front();
      backlog_.pop_front();
      return ex;
    }
    std::vector<Exit> exits = collect();
    if (!exits.empty()) {
      // One sweep can reap several children; report the first and
      // keep the rest for the next wait_any/poll.
      for (size_t i = 1; i < exits.size(); ++i) backlog_.push_back(exits[i]);
      return exits.front();
    }
    double elapsed_millis = watch.elapsed_seconds() * 1000.0;
    if (elapsed_millis >= timeout_millis) {
      return Error(ErrorCode::kTimeout, "no child exited");
    }
    // Sleep on the SIGCHLD pipe, capped so a lost signal (or a child
    // reaped by somebody else) only costs one slice of latency.
    int remaining = timeout_millis - static_cast<int>(elapsed_millis);
    int slice = remaining < 20 ? remaining : 20;
    if (g_sigchld_pipe[0] >= 0) {
      pollfd pfd{g_sigchld_pipe[0], POLLIN, 0};
      (void)::poll(&pfd, 1, slice);
      drain_sigchld_pipe();
    } else {
      sleep_for_millis(slice < 5 ? slice : 5);  // sleep-ok: no SIGCHLD pipe
    }
  }
}

Result<std::vector<ChildReaper::Exit>> ChildReaper::drain(int timeout_millis) {
  std::vector<Exit> exits = poll();  // backlog + already-dead children
  Stopwatch watch;
  while (!watched_.empty()) {
    for (const Exit& ex : poll()) exits.push_back(ex);
    if (watched_.empty()) break;
    double elapsed_millis = watch.elapsed_seconds() * 1000.0;
    if (elapsed_millis >= timeout_millis) {
      if (exits.empty()) {
        return Error(ErrorCode::kTimeout, "no child exited");
      }
      break;
    }
    int remaining = timeout_millis - static_cast<int>(elapsed_millis);
    int slice = remaining < 20 ? remaining : 20;
    if (g_sigchld_pipe[0] >= 0) {
      pollfd pfd{g_sigchld_pipe[0], POLLIN, 0};
      (void)::poll(&pfd, 1, slice);
      drain_sigchld_pipe();
    } else {
      sleep_for_millis(slice < 5 ? slice : 5);  // sleep-ok: no SIGCHLD pipe
    }
  }
  return exits;
}

Result<std::vector<ChildReaper::Exit>> ChildReaper::terminate_all(
    int grace_millis) {
  if (grace_millis < 0) grace_millis = kill_grace_millis(1000);
  for (auto& [pid, termed] : watched_) {
    if (!termed) {
      (void)::kill(pid, SIGTERM);
      termed = true;
    }
  }
  auto drained = drain(grace_millis);
  if (drained.is_ok() && watched_.empty()) return drained;
  std::vector<Exit> exits =
      drained.is_ok() ? std::move(drained).value() : std::vector<Exit>{};
  // Stragglers ignored SIGTERM; they do not get to ignore SIGKILL.
  for (const auto& [pid, unused] : watched_) (void)::kill(pid, SIGKILL);
  // SIGKILL cannot be blocked — the remaining waits are short.
  DIONEA_ASSIGN_OR_RETURN(std::vector<Exit> rest, drain(5000));
  for (const Exit& ex : rest) exits.push_back(ex);
  return exits;
}

}  // namespace dionea::mp
