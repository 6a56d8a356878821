// The Dionea debug server (§4): an in-process shim that controls the
// debuggee through the interpreter's trace facility, serves one client
// over TCP through a dedicated listener thread (Reactor pattern), and
// — the paper's contribution — stays attached across fork(2) via fork
// handlers A/B/C (§5.4):
//
//   A prepare: disable tracing, pin the server's own locks (so no
//     listener operation straddles the fork), flush pending events.
//   B parent: unpin, re-enable tracing.
//   C child: drop the inherited listener thread's sockets/reactor,
//     reset per-thread debug state, bind a fresh listener, publish the
//     new port through the temp port file, recreate the listener
//     thread, notify the (parent-session) client, re-enable tracing.
//
// Low-intrusiveness (§1 fn.1): a stop suspends exactly one interpreter
// thread — the suspended thread parks inside its trace callback with
// the GIL released, so every other thread and process runs untouched.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "debugger/breakpoint.hpp"
#include "debugger/protocol.hpp"
#include "ipc/frame.hpp"
#include "ipc/port_file.hpp"
#include "ipc/reactor.hpp"
#include "ipc/socket.hpp"
#include "support/crash_report.hpp"
#include "support/watchdog.hpp"
#include "vm/vm.hpp"

namespace dionea::dbg {

class DebugServer {
 public:
  struct Options {
    std::uint16_t port = 0;     // 0 = ephemeral
    std::string port_file;      // handoff file; required to debug forks
    bool disturb_mode = false;  // §6.4: stop every new UE at birth
    // Stop only forked child processes at their first traced line (a
    // narrower disturb: lets the client adopt a child before it runs).
    bool stop_forked_children = false;
    bool capture_output = false;  // mirror debuggee stdout to the client
    // Park the main thread at its first traced line until a client
    // attaches and resumes it (how `dioneas program.ml` behaves, §6.1).
    bool stop_at_entry = false;
    // Liveness beacon period on the events channel (0 disables). The
    // value is advertised to the client in the ping/info response so
    // it can derive its dead-peer timeout.
    int heartbeat_interval_millis = 2000;
    // How long a control frame may stall mid-read before the client is
    // presumed dead and the session dropped (half-open connections
    // must not wedge the listener thread).
    int control_recv_timeout_millis = 5000;
    // Run the full per-line bookkeeping (thread-state lock, mode
    // dispatch, breakpoint-table probe) on EVERY line event instead of
    // the two-atomic-loads fast exit. This models Dionea's actual
    // design — its per-line handler is interpreted Python — and is the
    // arm the §7 overhead benches compare against the paper.
    bool thorough_line_handling = false;
    // Post-mortem capture: install async-signal-safe crash handlers at
    // start() so a SIGSEGV/SIGABRT (or a fatal deadlock with no client)
    // leaves a DIONEA-CRASH report and — when an events channel is
    // attached — a last-gasp `process-crashed` frame on the wire.
    // DIONEA_POSTMORTEM=0 overrides to off.
    bool postmortem = true;
    std::string crash_dir;  // empty: $DIONEA_CRASH_DIR / $TMPDIR / /tmp
    // Session watchdog: sample stall deadlines (command-in-flight,
    // GIL-held, no-trace-progress) on a dedicated thread and escalate
    // healthy -> hung -> degraded -> detached instead of hanging with a
    // wedged debuggee. Off by default — the watchdog-off configuration
    // is the one the §7 overhead gate measures. DIONEA_WATCHDOG=1
    // overrides to on.
    bool watchdog = false;
    Watchdog::Options watchdog_options;
    // Debug hub (proto 1.5): when nonzero, announce this server to the
    // hub listening on 127.0.0.1:<hub_port> at start(), and again from
    // fork handler C in every child — the §5.3 "child rebinds its
    // listener" invariant extended one hop. 0 = no hub; the
    // DIONEA_HUB_PORT environment variable fills it in when unset.
    // Registration failure is logged, never fatal: a debuggee must run
    // with or without its debugger's infrastructure.
    std::uint16_t hub_port = 0;
  };

  DebugServer(vm::Vm& vm, Options options);
  ~DebugServer();
  DebugServer(const DebugServer&) = delete;
  DebugServer& operator=(const DebugServer&) = delete;

  // Bind, publish the port record, start the listener thread, install
  // the trace function / fork handlers / deadlock hook.
  Status start();
  // Detach: stop tracing, resume all parked threads, stop the listener.
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  bool client_connected() const;

  // Sources for run_string programs (the "source sync" data, §4).
  void register_source(const std::string& file, std::string text);

  BreakpointTable& breakpoints() noexcept { return breakpoints_; }

  void set_disturb(bool on) noexcept {
    disturb_.store(on, std::memory_order_relaxed);
  }
  bool disturb() const noexcept {
    return disturb_.load(std::memory_order_relaxed);
  }

  // Number of events pushed to the client (tests/benches).
  std::uint64_t events_sent() const noexcept {
    return events_sent_.load(std::memory_order_relaxed);
  }
  // Heartbeat frames pushed (kept out of events_sent_).
  std::uint64_t heartbeats_sent() const noexcept {
    return heartbeats_sent_.load(std::memory_order_relaxed);
  }

  // The session watchdog, when enabled (tests drive tick_for_test()).
  Watchdog* watchdog() noexcept { return watchdog_.get(); }

  // Session id the hub assigned (0 = not registered with a hub). A
  // forked child gets its own id when handler C re-registers.
  std::int64_t hub_session_id() const noexcept {
    return hub_session_id_.load(std::memory_order_relaxed);
  }

 private:
  // Per-debuggee-thread control state. `mode` is what the thread
  // should do when it reaches the next traced line.
  struct ThreadDebug {
    enum class Mode { kRun, kStepInto, kStepOver, kStepOut };
    std::mutex mutex;
    std::condition_variable cv;
    Mode mode = Mode::kRun;
    int step_base_depth = 0;
    bool pause_requested = false;  // park at next line event
    bool parked = false;
    bool resume = false;
    // Mirrors (pause_requested || mode != kRun); lets the per-line hot
    // path skip the mutex entirely when nothing is pending. Update via
    // refresh_attention() whenever either field changes (under mutex).
    std::atomic<bool> attention{false};

    void refresh_attention() {
      attention.store(pause_requested || mode != Mode::kRun,
                      std::memory_order_relaxed);
    }
  };

  std::shared_ptr<ThreadDebug> thread_state(std::int64_t tid);
  void drop_thread_state(std::int64_t tid);
  std::vector<std::shared_ptr<ThreadDebug>> debug_states_snapshot();

  // Trace callback pieces (run on debuggee threads, GIL held).
  void on_trace(vm::InterpThread& th, const vm::TraceEvent& event);
  void park_thread(vm::InterpThread& th, const vm::TraceEvent& event,
                   const std::string& reason, int breakpoint_id);

  // Listener thread.
  void listener_main();
  void handle_new_connection();
  void handle_control_frame();
  // `after_send` (if set) runs after the response frame is on the
  // wire. Resume-type commands wake the debuggee there — otherwise a
  // resumed process can exit (closing its sockets) before the client
  // has read the acknowledgement.
  ipc::wire::Value execute_command(const ipc::wire::Value& request,
                                   std::function<void()>* after_send);

  // Command registry: every protocol command is a typed handler keyed
  // by its struct's kName. execute_command strips the {cmd, seq}
  // envelope, finds the handler, and lets it decode its own request.
  using CommandHandler = std::function<ipc::wire::Value(
      const ipc::wire::Value& request, std::int64_t seq,
      std::function<void()>* after_send)>;
  void register_commands();
  // Wrap a typed handler: decodes Req::from_wire, maps a decode
  // failure to a kErrBadRequest response, passes the struct through.
  template <typename Req, typename Fn>
  void register_command(Fn handler);

  // Event push (any thread).
  void send_event(ipc::wire::Value event);
  void send_terminated_once();

  // Periodic liveness beacon (loop thread); a failed beacon write is
  // the dead-peer signal — both channels are dropped.
  void heartbeat_tick();

  // Validates and stages a resume; the returned closure (stored into
  // *wake) performs the actual wake-up.
  Status resume_thread(std::int64_t tid, ThreadDebug::Mode mode,
                       std::function<void()>* wake);

  // Fork handlers (fork_handlers.cpp).
  void fork_prepare();            // A
  void fork_parent(int child_pid);  // B
  void fork_child();              // C
  // Handler C epilogue: verify the child invariants the handler chain
  // promises (sync objects re-initialized, parent session sockets
  // closed, listener rebound) — repair what it can, count and report
  // what it repaired. The socket half must run before the child's new
  // listener accepts (a fresh session's fds look exactly like leaked
  // parent fds); its repair count carries into fork_self_check via
  // fork_socket_repairs_.
  void fork_self_check_sockets();
  void fork_self_check();
  Status bind_and_publish();
  void start_listener_thread();

  // Announce this server (pid, port, capabilities) to the hub and
  // record the assigned session id. One-shot synchronous exchange on
  // the kChannelHubRegister channel.
  Status register_with_hub(int parent_pid);

  // Robustness layer (post-mortem capture + session watchdog).
  void install_postmortem();
  void start_watchdog();
  // Pre-encode a `process-crashed` frame and point the crash handler's
  // last-gasp write at the events socket. events_mutex_ held.
  void arm_crash_notify_locked();
  Watchdog::Stall watchdog_probe();
  void watchdog_transition(Watchdog::State from, Watchdog::State to,
                           const Watchdog::Stall& stall);

  bool deadlock_hook(const std::vector<vm::DeadlockInfo>& infos);

  vm::Vm& vm_;
  Options options_;
  std::atomic<bool> disturb_{false};
  // Populated once in the constructor; read-only afterwards, so the
  // listener thread dispatches without a lock.
  std::unordered_map<std::string, CommandHandler> commands_;

  std::uint16_t port_ = 0;
  std::unique_ptr<ipc::TcpListener> listener_;
  std::unique_ptr<ipc::Reactor> reactor_;
  // unique_ptr so the child can abandon the parent's thread handle
  // without touching pthread state for a thread that does not exist
  // in this process.
  std::unique_ptr<std::thread> listener_thread_;
  std::atomic<bool> running_{false};
  std::int64_t port_seq_ = 0;
  bool hooks_installed_ = false;  // start() after stop() must not
                                  // double-register fork handlers
  // Effective hub port (Options.hub_port or DIONEA_HUB_PORT), fixed at
  // start(); inherited by forked children so handler C re-registers.
  std::uint16_t hub_port_ = 0;
  std::atomic<std::int64_t> hub_session_id_{0};
  std::atomic<std::uint64_t> heartbeats_sent_{0};
  // terminated must reach the client exactly once whether the program
  // calls exit() (at-exit hook) or runs off the end (stop()).
  std::atomic<bool> terminated_sent_{false};

  // Guards control/eventx streams and the thread-state map. Pinned
  // across fork by handler A.
  mutable std::mutex state_mutex_;
  ipc::TcpStream control_;
  std::map<std::int64_t, std::shared_ptr<ThreadDebug>> thread_debug_;
  // A connection accepted but not yet past its hello lives only on the
  // listener thread's stack. Its fd is recorded here, accepted and
  // forgotten under state_mutex_, so handler C can close it in a child
  // forked mid-handshake — otherwise the child keeps the client's
  // connection open after this process is gone (Fig. 5).
  int handshake_fd_ = -1;

  // Event channel has its own lock so debuggee threads never contend
  // with long-running control commands. Also pinned across fork.
  mutable std::mutex events_mutex_;
  ipc::TcpStream events_;
  // Events raised before a client attaches (e.g. the stop-at-entry
  // park) are buffered and flushed when the events channel arrives.
  std::deque<ipc::wire::Value> event_backlog_;
  static constexpr size_t kMaxEventBacklog = 1024;
  std::atomic<std::uint64_t> events_sent_{0};

  std::mutex sources_mutex_;
  std::map<std::string, std::string> sources_;

  BreakpointTable breakpoints_;

  bool trace_was_enabled_ = false;  // handler A -> B/C handoff
  // Sticky intent: false once the client detached (or the server
  // stopped). Handlers B/C restore tracing only if still wanted —
  // otherwise a detach racing an in-flight fork would be undone by the
  // stale snapshot taken in handler A.
  std::atomic<bool> tracing_wanted_{false};
  // Handler A pins every server lock in a fixed order so no listener
  // operation straddles the fork; B unpins, C unlocks-in-child.
  std::unique_lock<std::mutex> fork_state_lock_;
  std::vector<std::shared_ptr<ThreadDebug>> fork_td_pinned_;
  std::vector<std::unique_lock<std::mutex>> fork_td_locks_;
  std::unique_lock<std::mutex> fork_events_lock_;
  std::unique_lock<std::mutex> fork_sources_lock_;
  std::unique_lock<std::mutex> fork_bp_lock_;
  // Handler A -> C: per-object generation counters at prepare time;
  // the child self-check verifies each was bumped by reinit_in_child.
  // Holding the shared_ptr keeps every snapshotted object registered
  // (and thus visited by the VM's child handler) across the fork.
  std::vector<std::pair<std::shared_ptr<vm::SyncObject>, std::uint32_t>>
      fork_sync_gen_;
  // Handler A -> C: quicken generation at prepare time; the child
  // self-check verifies the VM's child handler bumped it (a stale
  // generation means quickened trace sites would keep trusting gate
  // snapshots and IC state inherited from parent-only threads).
  std::uint64_t fork_quicken_gen_ = 0;
  int fork_socket_repairs_ = 0;  // fork_self_check_sockets -> fork_self_check
  bool first_line_seen_ = false;

  // Robustness layer. *_enabled_ are the options resolved against the
  // environment overrides, fixed at start().
  bool postmortem_enabled_ = false;
  bool watchdog_enabled_ = false;
  int crash_section_ = -1;  // slot id of our VM report section
  std::unique_ptr<Watchdog> watchdog_;
  // Stamped on command entry, zeroed on exit: the watchdog's
  // command-in-flight deadline.
  std::atomic<std::int64_t> command_started_nanos_{0};
  // Trace-progress tracking; watchdog thread only.
  std::uint64_t wd_last_line_events_ = 0;
  std::int64_t wd_last_line_change_nanos_ = 0;
};

}  // namespace dionea::dbg
