// Fork handlers A/B/C (§5.4) — the paper's contribution.
//
// The augmented fork (Vm::fork_now, the Listing 3/4 analog) invokes
// these around fork(2). They solve the three problems of §5.3:
//
//  1. "Ensuring the new process continues running." The VM's own fork
//     handlers pin every sync object's internal lock before the fork
//     and re-initialize them in the child, clearing ownership held by
//     threads that no longer exist (Listing 1/2's role); handler A
//     below additionally pins every *debugger* lock, so neither the
//     listener thread nor a parked debuggee thread can leave one
//     locked in the child.
//  2. "Debugging on child." The child inherits the parent's debug
//     metadata (Fig. 4): per-thread debug states for threads that no
//     longer exist, a session bound to the parent's pid. Handler C
//     rebuilds it — breakpoints are deliberately KEPT (they are the
//     user's, not the session's).
//  3. "Establishing proper communication with the client." The child
//     inherits the parent's sockets (Fig. 5) and must not speak on
//     them. Handler C closes every inherited descriptor, binds a fresh
//     listener, appends {pid, port} to the temp port file (Fig. 6),
//     and recreates the listener thread; the client tails the port
//     file and opens a new session.
#include <unistd.h>

#include "analysis/analysis.hpp"
#include "analysis/forkaudit.hpp"
#include "debugger/server.hpp"
#include "replay/replay.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace_export.hpp"

namespace dionea::dbg {

using ipc::wire::Value;

// Handler A — prepare fork. "Acquire control over synchronization
// objects. Disable the tracing until the listener thread is restarted,
// to avoid a deadlock in the child process."
void DebugServer::fork_prepare() {
  trace::Span span("fork:A-prepare", "fork");
  trace_was_enabled_ = vm_.trace_enabled();
  vm_.set_trace_enabled(false);

  // Snapshot every live sync object's child-generation counter for the
  // handler-C self-check — BEFORE pinning any server lock (the snapshot
  // takes the VM scheduler lock; keep the two orders disjoint). User
  // prepare hooks run before the VM's internal prepare, so the
  // scheduler lock is still free here.
  fork_sync_gen_.clear();
  for (auto& obj : vm_.sync_objects_snapshot()) {
    const std::uint32_t generation = obj->child_generation();
    fork_sync_gen_.emplace_back(std::move(obj), generation);
  }
  fork_quicken_gen_ = vm_.quicken_generation();

  // Pin all server locks in a fixed order (state -> per-thread debug
  // states by tid -> events -> sources -> breakpoints). After this, the
  // listener thread is provably outside every critical section, so the
  // child's copies of these mutexes are all consistently "held by the
  // forking thread".
  fork_state_lock_ = std::unique_lock(state_mutex_);
  fork_td_pinned_.clear();
  fork_td_locks_.clear();
  for (auto& [tid, td] : thread_debug_) {
    fork_td_pinned_.push_back(td);
    fork_td_locks_.emplace_back(td->mutex);
  }
  fork_events_lock_ = std::unique_lock(events_mutex_);
  fork_sources_lock_ = std::unique_lock(sources_mutex_);
  fork_bp_lock_ = breakpoints_.pin_for_fork();
  analysis::forkaudit::Registry::instance().note_prepare("dbg.server_locks");
}

// Handler B — handle parent at fork. "Immediately after the fork,
// release control of synchronization objects, and re-enable tracing."
void DebugServer::fork_parent(int child_pid) {
  trace::Span span("fork:B-parent", "fork");
  metrics::add(metrics::Counter::kForks);
  fork_bp_lock_.unlock();
  fork_bp_lock_ = {};
  fork_sources_lock_.unlock();
  fork_sources_lock_ = {};
  fork_events_lock_.unlock();
  fork_events_lock_ = {};
  for (size_t i = fork_td_locks_.size(); i-- > 0;) {
    fork_td_locks_[i].unlock();
  }
  fork_td_locks_.clear();
  fork_td_pinned_.clear();
  fork_state_lock_.unlock();
  fork_state_lock_ = {};
  analysis::forkaudit::Registry::instance().note_parent("dbg.server_locks");
  fork_sync_gen_.clear();  // the self-check belongs to the child
  vm_.set_trace_enabled(trace_was_enabled_ &&
                        tracing_wanted_.load(std::memory_order_relaxed));

  if (child_pid > 0) {
    // Courtesy notification; the authoritative signal is the child's
    // port-file record (the client may see either first).
    Value event = proto::make_event(proto::Event::kForked);
    event.set("pid", static_cast<int>(::getpid()));
    event.set("child_pid", child_pid);
    send_event(std::move(event));
  }
}

// Handler C — handle child at fork. "Initialize the synchronization
// objects, close the inherited sockets, initialize the data
// structures, create a listener thread, register the thread that
// called fork as the main thread, inform the client about the creation
// of a new debuggee, and finally re-enable the tracing that was
// disabled in A." (The 'register main thread' step is done by the VM's
// own child handler, which runs before this one — pthread_atfork
// ordering, §5.2.)
void DebugServer::fork_child() {
  // Observability is per-process: zero the metric shards inherited
  // from the parent (the child's `stats` must describe the child) and
  // re-point the trace exporter at a child-owned file. Both before the
  // span below, so the first span in the child's file is this handler.
  auto& audit = analysis::forkaudit::Registry::instance();
  metrics::Registry::instance().reset();
  audit.note_child("support.metrics");
  trace::child_atfork();
  audit.note_child("trace.exporter");
  // The replay engine's analog (fresh child log / child subtree of the
  // recorded log) ran in the VM's own child handler, before this one.
  if (replay::engine_active()) {
    DLOG_INFO("fork") << "child replay log: "
                      << replay::Engine::instance().info().log_path;
  }
  trace::Span span("fork:C-child", "fork");

  // We are the only thread alive. Every pinned lock below was taken by
  // *this* thread in handler A, so plain unlocks are well-defined.
  fork_bp_lock_.unlock();
  fork_bp_lock_ = {};
  fork_sources_lock_.unlock();
  fork_sources_lock_ = {};
  fork_events_lock_.unlock();
  fork_events_lock_ = {};
  for (size_t i = fork_td_locks_.size(); i-- > 0;) {
    fork_td_locks_[i].unlock();
  }
  fork_td_locks_.clear();
  fork_td_pinned_.clear();
  fork_state_lock_.unlock();
  fork_state_lock_ = {};
  audit.note_child("dbg.server_locks");

  // (3) Close every inherited descriptor: parent's listener, the
  // parent session's control and events channels (Fig. 5 -> Fig. 6).
  // The crash-notify fd points at the parent session's events socket:
  // re-key the report path to the child pid and drop it.
  crash::refresh_after_fork();
  audit.note_child("crash.report");
  if (listener_) listener_->close();
  // A connection the parent's listener thread was still handshaking.
  if (handshake_fd_ >= 0 && handshake_fd_ != control_.raw_fd() &&
      handshake_fd_ != events_.raw_fd()) {
    ::close(handshake_fd_);
  }
  handshake_fd_ = -1;
  control_.close();
  events_.close();
  // Backlogged events belong to the parent's session; the parent will
  // flush its own copy.
  event_backlog_.clear();
  // The parent's reactor is garbage here: its wakeup pipe is shared
  // with the parent and its internals may reference the (vanished)
  // listener thread. Leak it rather than run its destructor.
  (void)reactor_.release();

  // Socket half of the self-check runs HERE, while the closes above
  // are the only thing that could have touched these sockets. Once
  // bind_and_publish below writes the port record, a fast client can
  // attach to the new listener before handler C finishes — at that
  // point a valid control_/events_ is a legitimate fresh session, not
  // a leaked parent fd, and "repairing" it would sever the client we
  // just invited in.
  fork_self_check_sockets();

  // (2) Rebuild debug metadata: keep only the surviving thread's
  // per-thread state (its InterpThread keeps the object alive through
  // debugger_slot; states of vanished threads are dropped here and
  // stay alive — unlocked and untouched — through the VM's thread
  // graveyard). Breakpoints are inherited unchanged.
  {
    std::scoped_lock lock(state_mutex_);
    std::int64_t survivor = vm_.main_thread_id();
    auto it = thread_debug_.find(survivor);
    std::shared_ptr<ThreadDebug> kept =
        it == thread_debug_.end() ? nullptr : it->second;
    thread_debug_.clear();
    if (kept) thread_debug_[survivor] = kept;
  }

  // (3 continued) Fresh listener on a fresh port, published through
  // the temp file; then recreate the listener thread.
  running_.store(false, std::memory_order_relaxed);
  // The parent's listener thread does not exist in this process;
  // abandon its handle without touching pthread state.
  (void)listener_thread_.release();
  // The watchdog thread died with the parent's address space; abandon
  // the handle now so a transition can never fire mid-rebuild, restart
  // it once the session is whole again (below).
  if (watchdog_) watchdog_->abandon_after_fork();

  Status status = bind_and_publish();
  if (!status.is_ok()) {
    DLOG_ERROR("dbg") << "child could not re-bind debug server: "
                      << status.to_string();
    vm_.set_trace_enabled(false);
    fork_self_check();
    return;
  }
  start_listener_thread();

  // Hub invariant (§5.3 extended one hop): a child that rebuilt its
  // listener also re-announces itself to the hub, getting a fresh
  // session id with parent_pid linking the fork tree. hub_port_ was
  // fixed in the parent's start() and inherited across the fork.
  if (hub_port_ != 0) {
    hub_session_id_.store(0, std::memory_order_relaxed);
    Status hub_status = register_with_hub(static_cast<int>(::getppid()));
    if (!hub_status.is_ok()) {
      DLOG_WARN("dbg") << "child hub re-registration failed: "
                       << hub_status.to_string();
    }
    audit.note_child("dbg.hub_registration");
  }

  // Disturb mode (§6.4): the freshly forked process counts as a new
  // UE — stop it at its first traced line. stop_forked_children is the
  // narrower variant (processes only, not threads).
  if (disturb() || options_.stop_forked_children) {
    auto td = thread_state(vm_.main_thread_id());
    std::scoped_lock lock(td->mutex);
    td->pause_requested = true;
    td->refresh_attention();
  }

  // Re-enable the tracing that A disabled (unless the client detached
  // while the fork was in flight).
  vm_.set_trace_enabled(trace_was_enabled_ &&
                        tracing_wanted_.load(std::memory_order_relaxed));

  // The replay engine re-pointed its log at a child-owned file in the
  // VM's child handler; follow it so a crash report embeds the right
  // tail.
  if (postmortem_enabled_ && replay::engine_active()) {
    crash::set_aux_log(replay::Engine::instance().info().log_path.c_str());
  }
  if (watchdog_enabled_ && watchdog_) watchdog_->start();

  fork_self_check();
}

// Socket invariant: the parent session's sockets must be closed in
// the child — a child speaking on them interleaves bytes mid-frame
// (Fig. 5). Must run before the child's listener accepts its first
// connection (see the call site in fork_child); repairs found here are
// folded into the report fork_self_check writes at the end.
void DebugServer::fork_self_check_sockets() {
  fork_socket_repairs_ = 0;
  {
    std::scoped_lock lock(state_mutex_);
    if (control_.valid()) {
      DLOG_WARN("fork") << "self-check: parent control socket survived the "
                           "fork; closing";
      control_.close();
      ++fork_socket_repairs_;
    }
  }
  {
    std::scoped_lock lock(events_mutex_);
    if (events_.valid()) {
      DLOG_WARN("fork") << "self-check: parent events socket survived the "
                           "fork; closing";
      events_.close();
      ++fork_socket_repairs_;
    }
  }
}

// Self-check: the child invariants the handler chain just promised.
// Trust, but verify — the §5.3 failure modes (a sync object whose
// owner no longer exists, a socket shared with the parent) are exactly
// the ones that surface as unexplained hangs hours later, so a missed
// repair is worth a report the moment it happens.
void DebugServer::fork_self_check() {
  int repairs = fork_socket_repairs_;
  fork_socket_repairs_ = 0;
  const std::int64_t survivor = vm_.main_thread_id();

  // 1. Every sync object alive at prepare time must have had
  //    reinit_in_child run (generation bumped). Repair: run it now —
  //    idempotent in the single-threaded child.
  for (auto& [obj, generation] : fork_sync_gen_) {
    if (obj->child_generation() != generation) continue;  // bumped: ok
    DLOG_WARN("fork") << "self-check: " << obj->kind_name()
                      << " missed reinit_in_child; repairing";
    obj->reinit_in_child(survivor);
    ++repairs;
  }
  fork_sync_gen_.clear();

  // 2. Socket invariant: checked earlier, pre-listener, by
  //    fork_self_check_sockets (a fresh client may already be attached
  //    by now — its sockets are NOT leaked parent fds). Its repair
  //    count was folded in above.

  // 3. Code-cache invariants — the VM half of handler C, i.e. the
  //    box64 001/004 failure modes. The quicken generation must have
  //    moved past the prepare-time snapshot (004: a stale generation
  //    lets quickened trace sites keep running on gate snapshots and
  //    ICs half-written by parent-only threads), and every cache's
  //    pin count must be accounted for by the surviving frames (001:
  //    inherited pins keep dead caches unpurgeable forever). Both
  //    repairs are idempotent in the single-threaded child.
  if (vm_.quicken_generation() == fork_quicken_gen_) {
    DLOG_WARN("fork") << "self-check: quicken generation not bumped in "
                         "child; repairing";
    vm_.bump_quicken_generation();
    ++repairs;
  }
  const std::size_t stale_pins = vm_.repair_cache_pins();
  if (stale_pins > 0) {
    DLOG_WARN("fork") << "self-check: " << stale_pins
                      << " code cache(s) pinned by parent-only threads; "
                         "repaired";
    repairs += static_cast<int>(stale_pins);
  }

  // 4. The listener must be rebound (fresh port, record published).
  //    Not repairable here — bind_and_publish already failed and said
  //    so — but it must not pass silently.
  if (listener_ == nullptr || port_ == 0 ||
      !running_.load(std::memory_order_relaxed)) {
    DLOG_ERROR("fork") << "self-check: listener not rebound in child";
  }

  // 5. ForkLint atfork audit, strict: every registered primitive has
  //    its declared A/B/C coverage, the declared prepare order is
  //    acyclic, and the handler counters balance (prepare == parent +
  //    child) — i.e. no registered handler silently stopped firing.
  //    The child is single-threaded here, so no fork is in flight and
  //    the counter cross-check cannot race.
  analysis::Report audit_report = analysis::forkaudit::audit(/*strict=*/true);
  for (const analysis::Finding& finding : audit_report.findings) {
    DLOG_WARN("fork") << "self-check audit: " << finding.to_string();
    analysis::Engine::instance().add_forklint_finding(finding);
    ++repairs;
  }

  if (repairs > 0) {
    metrics::add(metrics::Counter::kForkSelfcheckRepairs,
                 static_cast<std::uint64_t>(repairs));
    // Leave a corpse describing the repaired state: if an invariant
    // broke once, the surrounding state is suspect.
    if (crash::installed()) crash::capture_now("fork-selfcheck");
  }
}

}  // namespace dionea::dbg
