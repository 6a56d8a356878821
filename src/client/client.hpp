// The multi-process client (Fig. 1): one client holding a session per
// debuggee process — "1 client : N servers; 1 server : 1 client"
// (§4.1) — plus the debug-view multiplexing of §4.2 (exactly one active
// view (process, thread) at a time).
//
// Behind a hub the client holds ONE connection and addresses sessions
// by hub-assigned id; pids are advisory. Client serves the three
// transports through one handle-centric surface:
//
//  - discover(port_file): the classic §5.3 mode. New processes are
//    found by tailing the port file fork handler C appends to (the
//    client half of §5.3 problem 3); one Session per debuggee, handles
//    are pids (stable across reconnects — the hub property holds
//    trivially). Waits for a new record block on a watch of the file.
//  - connect(port): single endpoint. If the peer advertises the `hub`
//    capability, handles are hub session ids and every request rides
//    the shared connection with a session_id envelope stamp. If not,
//    the client downgrades to plain 1.4 single-session behavior over
//    the same code path (handle = the one pid).
//
// Handles survive reconnect() in every mode: they name the session,
// not the socket.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "debugger/protocol.hpp"
#include "ipc/port_file.hpp"
#include "support/result.hpp"

namespace dionea::client {

// Capped exponential backoff with jitter for reconnect(): the first
// attempt is immediate; attempt n sleeps
//   delay_n * uniform(1 - jitter, 1 + jitter),
// delay_{n+1} = min(delay_n * multiplier, max_delay_millis).
// `seed` (xor'd with the handle id) makes the jitter deterministic in
// tests.
struct ReconnectPolicy {
  int max_attempts = 8;
  int initial_delay_millis = 20;
  int max_delay_millis = 1000;
  double multiplier = 2.0;
  double jitter = 0.25;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

// Opaque, stable address of one debuggee session. In discover() mode
// the id happens to equal the pid; against a hub it is the hub's
// session id. Code should not rely on either beyond display.
struct SessionHandle {
  std::int64_t id = 0;
  bool valid() const noexcept { return id != 0; }
  bool operator==(const SessionHandle&) const = default;
  bool operator<(const SessionHandle& other) const noexcept {
    return id < other.id;
  }
};

class Client {
 public:
  // Port-file discovery mode (direct sessions, one per debuggee).
  static std::unique_ptr<Client> discover(std::string port_file_path);

  // Single-endpoint mode: hub when the peer advertises kCapHub,
  // single-session downgrade otherwise.
  static Result<std::unique_ptr<Client>> connect(std::uint16_t port,
                                                 int timeout_millis);

  bool hub_mode() const noexcept { return mode_ == Mode::kHub; }

  // Adopt sessions that appeared since the last call (new port-file
  // records / new hub registrations). Returns how many are new. A port
  // record gets one connect: servers listen before they publish, so a
  // refused record belongs to a process that is gone and is skipped
  // (records outlive their processes). `timeout_millis` is unused; no
  // mode waits for anything to appear here.
  Result<int> refresh(int timeout_millis);

  // Known live sessions, in handle order.
  std::vector<SessionHandle> sessions() const;
  size_t session_count() const;
  SessionHandle handle_for_pid(int pid) const;
  int pid_of(SessionHandle handle) const;

  // Attach to the session debugging `pid`, waiting for it to appear
  // (a fork handler may still be publishing it). Claims the session.
  Result<SessionHandle> attach(int pid, int timeout_millis);
  // Attach to the next session nobody has claimed yet (fork-storm
  // adoption: each call hands out a different child).
  Result<SessionHandle> attach_any(int timeout_millis);
  void claim(SessionHandle handle);

  // The Session to speak through for `handle`. In hub mode this is the
  // shared hub connection with its route set to the handle — use it
  // and re-fetch rather than caching across handles. Null when the
  // handle is unknown.
  Session* session(SessionHandle handle);

  void drop(SessionHandle handle);

  // Re-establish transport for `handle` with capped exponential
  // backoff. The handle keeps working afterwards — in hub mode the ids
  // live in the hub, in discover mode the pid re-binds to the new
  // port record (breakpoints re-applied).
  Result<Session*> reconnect(SessionHandle handle,
                             const ReconnectPolicy& policy = {});

  // Out-of-band child-exit observation (mp::ChildReaper), direct modes
  // only; the hub synthesizes these itself. Queues a process-exited /
  // process-crashed event (`term_signal` != 0: killed by that signal)
  // and mutes the session.
  void note_child_exit(int pid, int exit_code, int term_signal);
  // Post-mortem report path from the debuggee's last-gasp
  // process-crashed event; empty when no crash was seen.
  std::string crash_report_path(SessionHandle handle) const;

  // ---- debug views (§4.2) ----
  struct View {
    SessionHandle session;
    std::int64_t tid = 0;
    bool valid() const noexcept { return session.valid(); }
  };
  Status activate(SessionHandle handle, std::int64_t tid);
  View active_view() const;
  Result<std::string> active_source();
  Result<std::vector<RemoteFrame>> active_frames();

  // ---- events ----
  struct SessionEvent {
    SessionHandle session;
    DebugEvent event;
  };
  // Drain pending events across every session (in discover mode
  // `timeout_millis` is per session). A session whose transport died
  // yields one synthesized event — process-exited if the debuggee
  // announced a clean `terminated` first, process-crashed otherwise —
  // and is then muted until reconnect() revives it.
  Result<std::vector<SessionEvent>> poll_events(int timeout_millis);

  // ---- hub-specific (kUnavailable in other modes) ----
  Result<std::vector<dbg::proto::HubSessionEntry>> hub_sessions();
  // Subscribe the events channel to every session, present and future.
  // connect() does this automatically in hub mode.
  Status hub_attach_all();

 private:
  enum class Mode { kDiscover, kHub, kSingle };

  Client() = default;
  Status hub_handshake(std::uint16_t port, int timeout_millis);
  Result<int> discover_refresh();
  Result<int> hub_refresh(int timeout_millis);
  // Block until refresh() may find something new; kTimeout (with
  // `what`) once the mono_seconds() `deadline` has passed.
  Status await_change(double deadline, const std::string& what);
  bool live(std::int64_t id) const;
  Session* routed(std::int64_t session_id);
  // One reconnect attempt per mode; reconnect() owns the backoff.
  Result<Session*> redial_direct(int pid);
  Result<Session*> redial_link(SessionHandle handle);
  Status poll_direct(int timeout_millis, std::vector<SessionEvent>* out);
  Status poll_link(int timeout_millis, std::vector<SessionEvent>* out);
  // Bookkeeping for an event about to be handed out: a process-exited
  // or -crashed one (the server's last gasp) mutes the session and
  // keeps its crash-report path.
  void note_event(SessionHandle handle, const DebugEvent& event);
  void announce_gone(SessionHandle handle, bool clean_exit,
                     std::vector<SessionEvent>* out);

  Mode mode_ = Mode::kDiscover;

  // kDiscover: one direct Session per debuggee, keyed by pid.
  std::optional<ipc::PortFile> port_file_;
  size_t records_seen_ = 0;
  std::map<std::int64_t, std::unique_ptr<Session>> direct_;

  // kHub / kSingle: the one connection.
  std::unique_ptr<Session> link_;
  std::uint16_t endpoint_port_ = 0;
  std::string token_;
  std::map<std::int64_t, dbg::proto::HubSessionEntry> known_;  // kHub

  // Every mode, keyed by handle id.
  std::deque<std::int64_t> unclaimed_;  // adopted, not yet handed out
  std::set<std::int64_t> claimed_;
  // Sessions whose death was already reported; they are skipped, not
  // erased (state like breakpoints_set survives for reconnect).
  std::set<std::int64_t> reported_dead_;
  std::map<std::int64_t, std::string> crash_reports_;
  std::deque<SessionEvent> pending_events_;  // note_child_exit
  View active_{};
};

}  // namespace dionea::client
