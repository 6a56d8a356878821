#include "replay/timetravel.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "replay/replay.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"
#include "vm/thread.hpp"
#include "vm/vm.hpp"

namespace dionea::replay::tt {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
// Spacing stops doubling here: past this the ring would thin itself
// into uselessness chasing a pathological log.
constexpr std::uint64_t kEveryCap = 1ull << 20;

std::uint64_t mix_bytes(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix_str(std::uint64_t h, const std::string& s) {
  h = mix_bytes(h, s.data(), s.size());
  return mix_bytes(h, "\x1f", 1);  // field separator: "ab"+"c" != "a"+"bc"
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (i * 8));
  return mix_bytes(h, buf, sizeof buf);
}

void put_u64(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<unsigned char>(v >> (i * 8));
}

std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (i * 8);
  return v;
}

// Full-buffer read across EINTR/short reads; 0 on EOF, -1 on error.
ssize_t read_full(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::read(fd, p + done, len - done);
    if (n == 0) return static_cast<ssize_t>(done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

bool write_full(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, p + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Read the 8-byte pid reply with a deadline (the checkpoint may have
// died between our liveness check and the request).
bool read_reply_pid(int fd, int timeout_millis, std::int64_t* pid_out) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    int rc = ::poll(&pfd, 1, timeout_millis);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    break;
  }
  unsigned char buf[8];
  if (read_full(fd, buf, sizeof buf) != static_cast<ssize_t>(sizeof buf)) {
    return false;
  }
  *pid_out = static_cast<std::int64_t>(get_u64(buf));
  return true;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

const char* role_name(Role role) noexcept {
  switch (role) {
    case Role::kRoot: return "root";
    case Role::kCheckpoint: return "checkpoint";
    case Role::kResumed: return "resumed";
  }
  return "?";
}

std::string Fingerprint::to_string() const {
  return strings::format("step=%llu frames=%016llx globals=%016llx",
                         static_cast<unsigned long long>(step),
                         static_cast<unsigned long long>(frames_hash),
                         static_cast<unsigned long long>(globals_hash));
}

Fingerprint fingerprint_of(vm::Vm& vm) {
  Fingerprint fp;
  fp.step = Engine::instance().replay_step();
  std::uint64_t h = kFnvBasis;
  for (const auto& info : vm.list_threads()) {
    h = mix_u64(h, static_cast<std::uint64_t>(info.id));
    h = mix_u64(h, static_cast<std::uint64_t>(info.state));
    for (const auto& frame : vm.thread_frames(info.id)) {
      h = mix_str(h, frame.function);
      h = mix_str(h, frame.file);
      h = mix_u64(h, static_cast<std::uint64_t>(frame.line));
    }
  }
  fp.frames_hash = h;
  h = kFnvBasis;
  for (const auto& [name, repr] : vm.globals_snapshot()) {
    h = mix_str(h, name);
    h = mix_str(h, repr);
  }
  fp.globals_hash = h;
  return fp;
}

CheckpointManager& CheckpointManager::instance() {
  static CheckpointManager* mgr = new CheckpointManager();
  return *mgr;
}

Status CheckpointManager::activate(vm::Vm& vm, const Options& opts) {
  Engine& rep = Engine::instance();
  if (!rep.replaying()) {
    return Error(ErrorCode::kInvalidArgument,
                 "time travel requires DIONEA_REPLAY (checkpoints are "
                 "snapshots of a recorded schedule)");
  }
  std::scoped_lock lock(mutex_);
  if (active_) {
    return Error(ErrorCode::kAlreadyExists, "checkpointing already active");
  }
  vm_ = &vm;
  opts_ = opts;
  if (opts_.every == 0) opts_.every = 1;
  if (opts_.max_live < 1) opts_.max_live = 1;
  next_at_ = opts_.every;
  role_ = Role::kRoot;
  my_step_ = 0;
  taken_ = 0;
  evicted_ = 0;
  deferred_ = 0;
  dead_ = 0;
  active_ = true;
  // A dead checkpoint's pipe must fail the write, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
  // Fork handler for *recorded* debuggee forks: hold mutex_ across the
  // fork (a server thread answering timetravel-info mid-fork must not
  // leave the child's copy locked forever), then reset the inherited
  // ring in the child. Checkpoint forks skip all three stages — the
  // forking thread already holds mutex_ there. The depth counter makes
  // double registration (re-activated VM; no removal API) lock once.
  vm::ForkHooks hooks;
  hooks.prepare = [this](vm::Vm&) {
    if (in_checkpoint_fork_.load(std::memory_order_relaxed)) return;
    if (fork_lock_depth_++ == 0) mutex_.lock();
  };
  hooks.parent = [this](vm::Vm&, int) {
    if (in_checkpoint_fork_.load(std::memory_order_relaxed)) return;
    if (--fork_lock_depth_ == 0) mutex_.unlock();
  };
  hooks.child = [this](vm::Vm&, int) {
    if (in_checkpoint_fork_.load(std::memory_order_relaxed)) return;
    if (--fork_lock_depth_ == 0) {
      mutex_.unlock();
      on_debuggee_fork_child();
    }
  };
  vm.add_fork_handlers(hooks);
  vm.set_boundary_hook([this](vm::Vm& v, vm::InterpThread& th) {
    on_boundary(v, th);
  });
  DLOG_INFO("timetravel") << "checkpointing active: every=" << opts_.every
                          << " max_live=" << opts_.max_live;
  return Status::ok();
}

void CheckpointManager::init_from_env(vm::Vm& vm) {
  const char* every = std::getenv("DIONEA_CKPT_EVERY");
  if (every == nullptr || *every == '\0') return;
  if (!Engine::instance().replaying()) return;
  Options opts;
  opts.every = env_u64("DIONEA_CKPT_EVERY", opts.every);
  opts.max_live = static_cast<int>(
      env_u64("DIONEA_CKPT_MAX", static_cast<std::uint64_t>(opts.max_live)));
  if (const char* dir = std::getenv("DIONEA_CKPT_PAUSE_DIR")) {
    opts.pause_dir = dir;
  }
  opts.exit_at_target = env_u64("DIONEA_CKPT_EXIT_AT_TARGET", 0) != 0;
  Status st = instance().activate(vm, opts);
  if (!st.is_ok() && st.error().code() != ErrorCode::kAlreadyExists) {
    DLOG_WARN("timetravel") << "env activation failed: " << st.to_string();
  }
}

void CheckpointManager::deactivate() {
  vm::Vm* vm = nullptr;
  {
    std::scoped_lock lock(mutex_);
    if (!active_) return;
    active_ = false;
    vm = vm_;
    for (Entry& entry : ring_) {
      kill_entry_locked(entry, /*send_quit=*/true);
    }
    ring_.clear();
    (void)reaper_.terminate_all(500);
  }
  if (vm != nullptr) vm->set_boundary_hook(nullptr);
}

bool CheckpointManager::active() const {
  std::scoped_lock lock(mutex_);
  return active_;
}

Role CheckpointManager::role() const {
  std::scoped_lock lock(mutex_);
  return role_;
}

Snapshot CheckpointManager::snapshot() const {
  std::scoped_lock lock(mutex_);
  Snapshot out;
  out.active = active_;
  out.role = role_;
  out.every = opts_.every;
  out.max_live = opts_.max_live;
  out.next_at = next_at_;
  out.taken = taken_;
  out.evicted = evicted_;
  out.deferred = deferred_;
  out.dead = dead_;
  out.ring.reserve(ring_.size());
  for (const Entry& entry : ring_) {
    out.ring.push_back(CheckpointInfo{entry.step, entry.pid, entry.alive});
  }
  return out;
}

Result<ResumeTicket> CheckpointManager::resume_to(std::uint64_t target_step) {
  std::scoped_lock lock(mutex_);
  if (!active_) {
    return Error(ErrorCode::kUnavailable, "time travel is not active");
  }
  Info info = Engine::instance().info();
  if (info.total_steps != 0 && target_step > info.total_steps) {
    target_step = info.total_steps;
  }
  reap_locked();
  for (;;) {
    // Nearest live checkpoint at or before the target.
    Entry* best = nullptr;
    for (Entry& entry : ring_) {
      if (!entry.alive || entry.step > target_step) continue;
      if (best == nullptr || entry.step > best->step) best = &entry;
    }
    if (best == nullptr) {
      return Error(
          ErrorCode::kNotFound,
          strings::format("no live checkpoint at or before step %llu",
                          static_cast<unsigned long long>(target_step)));
    }
    unsigned char req[9];
    req[0] = 'r';
    put_u64(req + 1, target_step);
    std::int64_t pid = -1;
    if (!write_full(best->cmd_w, req, sizeof req) ||
        !read_reply_pid(best->reply_r, 5000, &pid) || pid <= 0) {
      // Checkpoint died (or its fork failed): report, drop it, fall
      // back to the next-nearest. The live session is unaffected.
      DLOG_WARN("timetravel")
          << "checkpoint @" << best->step << " pid " << best->pid
          << " unresponsive; rerouting resume";
      kill_entry_locked(*best, /*send_quit=*/false);
      ++dead_;
      continue;
    }
    ResumeTicket ticket;
    ticket.pid = static_cast<int>(pid);
    ticket.checkpoint_step = best->step;
    ticket.target_step = target_step;
    DLOG_INFO("timetravel") << "resume to step " << target_step
                            << " via checkpoint @" << best->step << ": pid "
                            << ticket.pid;
    return ticket;
  }
}

std::uint64_t CheckpointManager::resolve_rstep(std::uint64_t current,
                                               std::uint64_t n) {
  return n >= current ? 0 : current - n;
}

std::int64_t CheckpointManager::resolve_rcontinue(
    const std::vector<std::uint64_t>& breaks, std::uint64_t current) {
  std::int64_t best = -1;
  for (std::uint64_t b : breaks) {
    if (b < current && static_cast<std::int64_t>(b) > best) {
      best = static_cast<std::int64_t>(b);
    }
  }
  return best;
}

std::int64_t CheckpointManager::pick_checkpoint(
    const std::vector<std::uint64_t>& steps, std::uint64_t target) {
  std::int64_t best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i] > target) continue;
    if (best < 0 || steps[i] > steps[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

void CheckpointManager::plan_insert(std::vector<std::uint64_t>& steps,
                                    std::uint64_t step, int max_live,
                                    std::uint64_t* every,
                                    std::vector<std::uint64_t>* evicted) {
  if (max_live < 1) max_live = 1;
  while (static_cast<int>(steps.size()) >= max_live) {
    if (*every < kEveryCap) *every *= 2;
    // Keep even slots, thin odd ones: the survivors sit on the doubled
    // grid, so coverage stays uniform instead of clustering.
    std::vector<std::uint64_t> kept;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (i % 2 == 1) {
        evicted->push_back(steps[i]);
      } else {
        kept.push_back(steps[i]);
      }
    }
    if (kept.size() == steps.size()) {
      // max_live == 1: nothing was odd; evict the lone occupant.
      evicted->push_back(kept.back());
      kept.pop_back();
    }
    steps.swap(kept);
  }
  steps.push_back(step);
}

void CheckpointManager::on_boundary(vm::Vm& vm, vm::InterpThread& th) {
  Engine& rep = Engine::instance();
  // A run-to-step pause is in force: Gil::yield (right after this
  // hook) parks us. Taking a checkpoint past the target would be
  // wasted work.
  if (rep.stop_gated()) return;
  if (!rep.replaying()) return;  // diverged or finished: stop snapshotting
  const std::uint64_t step = rep.replay_step();
  {
    std::scoped_lock lock(mutex_);
    if (!active_) return;
    // A resumer's one job is to reach its target and pause; spawning
    // more checkpoints on the way would fork a process storm (every
    // resume of every checkpoint re-checkpointing the same prefix).
    if (role_ == Role::kResumed) return;
    if (taken_ != 0 && step < next_at_) return;
  }
  // fork(2) captures exactly one thread: the caller. A checkpoint is
  // only coherent when that is the only live interpreter thread — the
  // recorded schedule regenerates the rest on resume. Anything else
  // (sibling parked on a VM mutex, mid-spawn) defers to a later
  // boundary.
  if (vm.live_thread_count() != 1) {
    std::scoped_lock lock(mutex_);
    ++deferred_;
    return;
  }
  take_checkpoint(vm, th, step);
}

void CheckpointManager::take_checkpoint(vm::Vm& vm, vm::InterpThread& th,
                                        std::uint64_t step) {
  int cmd[2] = {-1, -1};
  int reply[2] = {-1, -1};
  if (::pipe(cmd) != 0 || ::pipe(reply) != 0) {
    close_fd(cmd[0]);
    close_fd(cmd[1]);
    close_fd(reply[0]);
    close_fd(reply[1]);
    return;
  }
  std::unique_lock lock(mutex_);
  if (!active_) {
    lock.unlock();
    close_fd(cmd[0]);
    close_fd(cmd[1]);
    close_fd(reply[0]);
    close_fd(reply[1]);
    return;
  }
  reap_locked();
  // Plan admission before forking so parent and child agree on the
  // ring and the (possibly doubled) spacing.
  std::vector<std::uint64_t> live_steps;
  for (const Entry& entry : ring_) {
    if (entry.alive) live_steps.push_back(entry.step);
  }
  std::vector<std::uint64_t> evict_steps;
  std::uint64_t every = opts_.every;
  plan_insert(live_steps, step, opts_.max_live, &every, &evict_steps);
  if (every != opts_.every) {
    DLOG_INFO("timetravel") << "ring full: spacing doubled " << opts_.every
                            << " -> " << every;
    opts_.every = every;
  }
  for (std::uint64_t evict : evict_steps) {
    for (Entry& entry : ring_) {
      if (entry.alive && entry.step == evict) {
        kill_entry_locked(entry, /*send_quit=*/true);
        ++evicted_;
        break;
      }
    }
  }
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [](const Entry& e) { return !e.alive; }),
              ring_.end());
  next_at_ = step + opts_.every;
  // Pre-stage the child's identity: fork handler C (hub re-register)
  // runs inside fork_checkpoint, before control returns here.
  const Role saved_role = role_;
  const std::uint64_t saved_step = my_step_;
  role_ = Role::kCheckpoint;
  my_step_ = step;
  in_checkpoint_fork_.store(true, std::memory_order_relaxed);
  Result<int> forked = vm.fork_checkpoint(th);
  in_checkpoint_fork_.store(false, std::memory_order_relaxed);
  if (!forked.is_ok()) {
    role_ = saved_role;
    my_step_ = saved_step;
    lock.unlock();
    close_fd(cmd[0]);
    close_fd(cmd[1]);
    close_fd(reply[0]);
    close_fd(reply[1]);
    DLOG_WARN("timetravel") << "checkpoint fork failed: "
                            << forked.error().to_string();
    return;
  }
  if (forked.value() == 0) {
    close_fd(cmd[1]);
    close_fd(reply[0]);
    lock.unlock();
    child_park_loop(vm, th, cmd[0], reply[1], step);
    return;  // we are a resumer now; dispatch replays toward the target
  }
  role_ = saved_role;
  my_step_ = saved_step;
  close_fd(cmd[0]);
  close_fd(reply[1]);
  Entry entry;
  entry.step = step;
  entry.pid = forked.value();
  entry.cmd_w = cmd[1];
  entry.reply_r = reply[0];
  ring_.push_back(entry);
  reaper_.watch(forked.value());
  ++taken_;
  DLOG_INFO("timetravel") << "checkpoint @" << step << ": pid "
                          << forked.value() << " (live "
                          << live_steps.size() << "/" << opts_.max_live
                          << ")";
}

void CheckpointManager::child_park_loop(vm::Vm& vm, vm::InterpThread& th,
                                        int cmd_r, int reply_w,
                                        std::uint64_t my_step) {
  Engine& rep = Engine::instance();
  // The inherited watch set names the PARENT's children (sibling
  // checkpoints); waitpid on them from here would misreport them dead.
  for (pid_t pid : reaper_.watched()) reaper_.unwatch(pid);
  const std::string note = strings::format(
      "timetravel checkpoint @%llu", static_cast<unsigned long long>(my_step));
  for (;;) {
    // Park GIL-free so the debug server can inspect this frozen world.
    // The read is NOT a recorded wait, so the GIL must come back via
    // the out-of-band path — a log consume here would desync replay.
    th.state = vm::ThreadState::kIoBlocked;
    th.block_note = note;
    vm.gil().release();
    unsigned char req[9];
    ssize_t got = read_full(cmd_r, req, sizeof req);
    vm.gil().reacquire_out_of_band(th.id());
    th.state = vm::ThreadState::kRunnable;
    th.block_note.clear();
    if (got < static_cast<ssize_t>(sizeof req) || req[0] == 'q') {
      // Quit command, or every commander is gone (EOF).
      rep.flush();
      std::fflush(nullptr);
      std::_Exit(0);
    }
    if (req[0] != 'r') continue;
    const std::uint64_t target = get_u64(req + 1);
    std::unique_lock lock(mutex_);
    reap_locked();  // collect resumers that have since exited
    const Role saved_role = role_;
    role_ = Role::kResumed;
    in_checkpoint_fork_.store(true, std::memory_order_relaxed);
    Result<int> forked = vm.fork_checkpoint(th);
    in_checkpoint_fork_.store(false, std::memory_order_relaxed);
    if (!forked.is_ok()) {
      role_ = saved_role;
      lock.unlock();
      unsigned char reply[8];
      put_u64(reply, static_cast<std::uint64_t>(-1));
      write_full(reply_w, reply, sizeof reply);
      continue;
    }
    if (forked.value() == 0) {
      // The resumer: shed the checkpoint's pipe ends, arm the gate,
      // return into dispatch and replay forward to the target.
      lock.unlock();
      ::close(cmd_r);
      ::close(reply_w);
      for (pid_t pid : reaper_.watched()) reaper_.unwatch(pid);
      rep.set_stop_at_step(target == 0 ? 1 : target);
      start_pause_watcher(vm, target);
      return;
    }
    role_ = saved_role;
    reaper_.watch(forked.value());
    lock.unlock();
    unsigned char reply[8];
    put_u64(reply, static_cast<std::uint64_t>(forked.value()));
    write_full(reply_w, reply, sizeof reply);
  }
}

void CheckpointManager::start_pause_watcher(vm::Vm& vm, std::uint64_t target) {
  Options opts;
  {
    std::scoped_lock lock(mutex_);
    opts = opts_;
  }
  vm::Vm* vmp = &vm;
  std::thread([vmp, target, opts] {
    Engine& rep = Engine::instance();
    Status arrived = rep.await_step(target, 60000);
    const char* status = "ok";
    if (!arrived.is_ok()) {
      status = arrived.error().code() == ErrorCode::kTimeout ? "stalled"
                                                             : "diverged";
      DLOG_WARN("timetravel") << "resume to step " << target
                              << " did not pause cleanly: "
                              << arrived.to_string();
    }
    // Quiesce: the step counter alone is not enough — the thread that
    // reached the target may still be draining its dispatch interval.
    // Settle when the GIL is free and statements stop moving.
    std::uint64_t prev = vmp->statements_executed();
    int stable = 0;
    for (int i = 0; i < 2000 && stable < 3; ++i) {
      std::this_thread::sleep_for(  // sleep-ok: resume quiesce poll
          std::chrono::milliseconds(10));
      std::uint64_t cur = vmp->statements_executed();
      if (cur == prev && vmp->gil().owner() == 0) {
        ++stable;
      } else {
        stable = 0;
      }
      prev = cur;
    }
    Fingerprint fp = fingerprint_of(*vmp);
    DLOG_INFO("timetravel") << "paused (" << status << ") at "
                            << fp.to_string() << " (target " << target << ")";
    if (!opts.pause_dir.empty()) {
      std::string path =
          opts.pause_dir + "/pause." + std::to_string(::getpid());
      std::string tmp = path + ".tmp";
      if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
        std::fprintf(f, "status=%s\ntarget=%llu\n%s\n", status,
                     static_cast<unsigned long long>(target),
                     fp.to_string().c_str());
        std::fclose(f);
        ::rename(tmp.c_str(), path.c_str());
      }
    }
    if (opts.exit_at_target) {
      rep.flush();
      std::fflush(nullptr);
      std::_Exit(arrived.is_ok() ? 0 : 3);
    }
  }).detach();
}

void CheckpointManager::on_debuggee_fork_child() {
  if (in_checkpoint_fork_.load(std::memory_order_relaxed)) return;
  std::scoped_lock lock(mutex_);
  if (!active_) return;
  // Recorded fork: this process now replays a fresh subtree log. The
  // inherited checkpoints are the *parent's* children pinned at the
  // parent's steps — close our fd copies (no 'q': the parent still
  // owns them) and restart checkpointing from this log's step 0.
  for (Entry& entry : ring_) {
    close_fd(entry.cmd_w);
    close_fd(entry.reply_r);
  }
  ring_.clear();
  for (pid_t pid : reaper_.watched()) reaper_.unwatch(pid);
  role_ = Role::kRoot;
  my_step_ = 0;
  next_at_ = opts_.every;
  taken_ = 0;
  evicted_ = 0;
  deferred_ = 0;
  dead_ = 0;
}

void CheckpointManager::reap_locked() {
  for (const mp::ChildReaper::Exit& exit : reaper_.poll()) {
    for (Entry& entry : ring_) {
      if (entry.alive && entry.pid == exit.pid) {
        DLOG_WARN("timetravel")
            << "checkpoint @" << entry.step << " pid " << entry.pid
            << (exit.crashed()
                    ? strings::format(" killed by signal %d", exit.signal)
                    : strings::format(" exited with %d", exit.exit_code));
        close_fd(entry.cmd_w);
        close_fd(entry.reply_r);
        entry.alive = false;
        ++dead_;
      }
    }
  }
}

void CheckpointManager::kill_entry_locked(Entry& entry, bool send_quit) {
  if (send_quit && entry.cmd_w >= 0) {
    unsigned char req[9] = {'q', 0, 0, 0, 0, 0, 0, 0, 0};
    write_full(entry.cmd_w, req, sizeof req);
  }
  close_fd(entry.cmd_w);
  close_fd(entry.reply_r);
  entry.alive = false;
}

}  // namespace dionea::replay::tt
