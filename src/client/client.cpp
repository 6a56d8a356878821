#include "client/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>

#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"

namespace dionea::client {

namespace proto = dbg::proto;

namespace {

std::string fresh_token() {
  static std::atomic<std::uint64_t> counter{0};
  return "cli-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

DebugEvent make_gone_event(int pid, bool clean_exit) {
  DebugEvent event;
  event.kind = clean_exit ? proto::Event::kProcessExited
                          : proto::Event::kProcessCrashed;
  event.name = proto::event_name(event.kind);
  event.payload = proto::make_event(event.kind);
  if (pid != 0) event.payload.set("pid", pid);
  return event;
}

}  // namespace

std::unique_ptr<Client> Client::discover(std::string port_file_path) {
  auto client = std::unique_ptr<Client>(new Client());
  client->mode_ = Mode::kDiscover;
  client->port_file_.emplace(std::move(port_file_path));
  return client;
}

Result<std::unique_ptr<Client>> Client::connect(std::uint16_t port,
                                                int timeout_millis) {
  auto client = std::unique_ptr<Client>(new Client());
  DIONEA_RETURN_IF_ERROR(client->hub_handshake(port, timeout_millis));
  return client;
}

Status Client::hub_handshake(std::uint16_t port, int timeout_millis) {
  token_ = fresh_token();
  DIONEA_ASSIGN_OR_RETURN(link_, Session::attach(port, timeout_millis, token_));
  endpoint_port_ = port;
  if (link_->supports(proto::kCapHub)) {
    mode_ = Mode::kHub;
    DIONEA_RETURN_IF_ERROR(hub_attach_all());
    DIONEA_RETURN_IF_ERROR(hub_refresh(timeout_millis).status());
  } else {
    // Pre-1.5 peer (or a direct per-process server): same surface, one
    // session, handle = the debuggee pid.
    mode_ = Mode::kSingle;
  }
  return Status::ok();
}

Result<int> Client::refresh(int timeout_millis) {
  switch (mode_) {
    case Mode::kDiscover:
      return discover_refresh();
    case Mode::kHub:
      return hub_refresh(timeout_millis);
    case Mode::kSingle:
      return 0;  // one endpoint, nothing new can appear
  }
  return 0;
}

Result<int> Client::discover_refresh() {
  DIONEA_ASSIGN_OR_RETURN(std::vector<ipc::PortRecord> records,
                          port_file_->read_new(records_seen_));
  int adopted = 0;
  for (const ipc::PortRecord& record : records) {
    ++records_seen_;
    // Re-published port (double fork re-binds): replace the session.
    direct_.erase(record.pid);
    // One connect, no retry: the server listened before it published,
    // so a refused connection means the process has exited.
    auto session = Session::attach(record.port, /*timeout_millis=*/0);
    if (!session.is_ok()) {
      DLOG_DEBUG("client") << "could not attach pid " << record.pid << ": "
                           << session.error().to_string();
      continue;
    }
    direct_[record.pid] = std::move(session).value();
    reported_dead_.erase(record.pid);
    crash_reports_.erase(record.pid);
    unclaimed_.push_back(record.pid);
    ++adopted;
  }
  return adopted;
}

Result<int> Client::hub_refresh(int) {
  DIONEA_ASSIGN_OR_RETURN(std::vector<proto::HubSessionEntry> entries,
                          hub_sessions());
  int fresh = 0;
  for (proto::HubSessionEntry& entry : entries) {
    auto it = known_.find(entry.session_id);
    bool is_new = it == known_.end();
    known_[entry.session_id] = entry;
    if (is_new && entry.alive && !entry.synthetic) {
      unclaimed_.push_back(entry.session_id);
      ++fresh;
    }
  }
  return fresh;
}

Status Client::await_change(double deadline, const std::string& what) {
  double left_millis = (deadline - mono_seconds()) * 1000.0;
  if (left_millis < 0) return Status(ErrorCode::kTimeout, what);
  if (mode_ == Mode::kDiscover) {
    port_file_->wait_change(static_cast<int>(std::ceil(left_millis)));
  } else {
    // Hub registrations are polled: a push would change the protocol.
    sleep_for_millis(10);  // sleep-ok: hub-mode attach polls hub-sessions
  }
  return Status::ok();
}

std::vector<SessionHandle> Client::sessions() const {
  std::vector<SessionHandle> out;
  switch (mode_) {
    case Mode::kDiscover:
      for (const auto& [pid, unused] : direct_) out.push_back({pid});
      break;
    case Mode::kHub:
      for (const auto& [id, entry] : known_) {
        if (entry.alive && !entry.synthetic) out.push_back({id});
      }
      break;
    case Mode::kSingle:
      if (link_ != nullptr) out.push_back({link_->pid()});
      break;
  }
  return out;
}

size_t Client::session_count() const { return sessions().size(); }

SessionHandle Client::handle_for_pid(int pid) const {
  switch (mode_) {
    case Mode::kDiscover:
      return direct_.count(pid) > 0 ? SessionHandle{pid} : SessionHandle{};
    case Mode::kHub: {
      // Newest matching registration wins: after a double fork the
      // same pid re-registers under a fresh (higher) session id.
      SessionHandle found{};
      for (const auto& [id, entry] : known_) {
        if (entry.pid == pid && entry.alive) found = SessionHandle{id};
      }
      return found;
    }
    case Mode::kSingle:
      return (link_ != nullptr && link_->pid() == pid) ? SessionHandle{pid}
                                                       : SessionHandle{};
  }
  return {};
}

int Client::pid_of(SessionHandle handle) const {
  switch (mode_) {
    case Mode::kDiscover:
    case Mode::kSingle:
      return static_cast<int>(handle.id);
    case Mode::kHub: {
      auto it = known_.find(handle.id);
      return it == known_.end() ? 0 : it->second.pid;
    }
  }
  return 0;
}

bool Client::live(std::int64_t id) const {
  if (mode_ == Mode::kDiscover) return direct_.count(id) > 0;
  auto it = known_.find(id);
  return it != known_.end() && it->second.alive;
}

Result<SessionHandle> Client::attach(int pid, int timeout_millis) {
  if (mode_ == Mode::kSingle) {
    if (link_ != nullptr && link_->pid() == pid) return SessionHandle{pid};
    return Error(ErrorCode::kNotFound,
                 "single-session endpoint is not pid " + std::to_string(pid));
  }
  const double deadline = mono_seconds() + timeout_millis / 1000.0;
  while (true) {
    DIONEA_RETURN_IF_ERROR(refresh(timeout_millis).status());
    SessionHandle handle = handle_for_pid(pid);
    if (handle.valid()) {
      claim(handle);
      return handle;
    }
    DIONEA_RETURN_IF_ERROR(
        await_change(deadline, "no session for pid " + std::to_string(pid)));
  }
}

Result<SessionHandle> Client::attach_any(int timeout_millis) {
  if (mode_ == Mode::kSingle) {
    if (link_ == nullptr) return Error(ErrorCode::kClosed, "no endpoint");
    SessionHandle handle{link_->pid()};
    if (claimed_.count(handle.id) > 0) {
      return Error(ErrorCode::kTimeout, "no new process appeared");
    }
    claimed_.insert(handle.id);
    return handle;
  }
  const double deadline = mono_seconds() + timeout_millis / 1000.0;
  while (true) {
    // Hand out sessions adopted by earlier refreshes first: one refresh
    // may adopt several children at once.
    while (!unclaimed_.empty()) {
      std::int64_t id = unclaimed_.front();
      unclaimed_.pop_front();
      if (!live(id)) continue;
      claimed_.insert(id);
      return SessionHandle{id};
    }
    DIONEA_RETURN_IF_ERROR(refresh(timeout_millis).status());
    if (unclaimed_.empty()) {
      DIONEA_RETURN_IF_ERROR(await_change(deadline, "no new session appeared"));
    }
  }
}

void Client::claim(SessionHandle handle) {
  claimed_.insert(handle.id);
  unclaimed_.erase(std::remove(unclaimed_.begin(), unclaimed_.end(), handle.id),
                   unclaimed_.end());
}

Session* Client::session(SessionHandle handle) {
  switch (mode_) {
    case Mode::kDiscover: {
      auto it = direct_.find(handle.id);
      return it == direct_.end() ? nullptr : it->second.get();
    }
    case Mode::kHub:
      return known_.count(handle.id) > 0 ? routed(handle.id) : nullptr;
    case Mode::kSingle:
      return (link_ != nullptr && link_->pid() == handle.id) ? link_.get()
                                                             : nullptr;
  }
  return nullptr;
}

Session* Client::routed(std::int64_t session_id) {
  link_->set_route(session_id);
  return link_.get();
}

void Client::drop(SessionHandle handle) {
  if (mode_ == Mode::kSingle) {
    if (link_ != nullptr && link_->pid() == handle.id) link_->hard_close();
  } else {
    direct_.erase(handle.id);
    known_.erase(handle.id);
    claimed_.erase(handle.id);
    reported_dead_.erase(handle.id);
    unclaimed_.erase(
        std::remove(unclaimed_.begin(), unclaimed_.end(), handle.id),
        unclaimed_.end());
  }
  if (active_.session == handle) active_ = View{};
}

Result<Session*> Client::reconnect(SessionHandle handle,
                                   const ReconnectPolicy& policy) {
  // Breakpoints belong to the user, not the connection: carry them
  // over from the dead session (if any survives to consult).
  std::vector<BreakpointSpec> carry;
  if (mode_ == Mode::kDiscover) {
    if (Session* old = session(handle)) carry = old->breakpoints_set();
  } else if (link_ != nullptr) {
    carry = link_->breakpoints_set();
  }
  Rng rng(policy.seed ^ static_cast<std::uint64_t>(handle.id));
  double delay = static_cast<double>(policy.initial_delay_millis);
  Error last(ErrorCode::kUnavailable, "no reconnect attempt made");
  for (int attempt = 0; attempt < std::max(1, policy.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      double factor =
          1.0 - policy.jitter + 2.0 * policy.jitter * rng.next_double();
      int pause = static_cast<int>(delay * factor);
      sleep_for_millis(pause);  // sleep-ok: reconnect backoff
      delay = std::min(delay * policy.multiplier,
                       static_cast<double>(policy.max_delay_millis));
    }
    Result<Session*> revived = mode_ == Mode::kDiscover
                                   ? redial_direct(static_cast<int>(handle.id))
                                   : redial_link(handle);
    if (!revived.is_ok()) {
      last = revived.error();
      // A hub that forgot the session will not remember it next time.
      if (mode_ == Mode::kHub && last.code() == ErrorCode::kNotFound) {
        return last;
      }
      continue;
    }
    for (const BreakpointSpec& bp : carry) {
      // Best effort — the restarted debuggee may not know the file
      // (yet); a failed re-apply must not fail the reconnect.
      auto re_set =
          revived.value()->set_breakpoint(bp.file, bp.line, bp.tid, bp.ignore);
      if (!re_set.is_ok()) {
        DLOG_DEBUG("client") << "reconnect " << handle.id << ": breakpoint "
                             << bp.file << ":" << bp.line
                             << " not re-applied: "
                             << re_set.error().to_string();
      }
    }
    return revived;
  }
  return Error(last.code(), "reconnect to " + std::to_string(handle.id) +
                                " failed after " +
                                std::to_string(policy.max_attempts) +
                                " attempts: " + last.message());
}

Result<Session*> Client::redial_direct(int pid) {
  // Re-tail the whole port file: the restarted server re-published,
  // and its newest record for this pid is the live one.
  DIONEA_ASSIGN_OR_RETURN(std::vector<ipc::PortRecord> records,
                          port_file_->read_all());
  const ipc::PortRecord* newest = nullptr;
  for (const ipc::PortRecord& record : records) {
    if (record.pid == pid) newest = &record;
  }
  if (newest == nullptr) {
    return Error(ErrorCode::kNotFound,
                 "no port record for pid " + std::to_string(pid));
  }
  DIONEA_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      Session::attach(newest->port, /*timeout_millis=*/500));
  Session* raw = session.get();
  direct_[pid] = std::move(session);
  // The re-published record is now adopted; don't let the next
  // refresh() re-attach it and clobber this session.
  records_seen_ = records.size();
  reported_dead_.erase(pid);
  crash_reports_.erase(pid);  // the corpse belonged to the predecessor
  return raw;
}

Result<Session*> Client::redial_link(SessionHandle handle) {
  // Re-dial the one endpoint with the same token. Handles are
  // server-side state (hub session ids / the debuggee pid), so they
  // survive untouched.
  DIONEA_ASSIGN_OR_RETURN(
      link_, Session::attach(endpoint_port_, /*timeout_millis=*/500, token_));
  if (mode_ == Mode::kHub) {
    if (Status sub = hub_attach_all(); !sub.is_ok()) {
      DLOG_DEBUG("client") << "reconnect: hub re-subscribe failed: "
                           << sub.to_string();
    }
    (void)hub_refresh(500);
    reported_dead_.erase(handle.id);
    if (known_.count(handle.id) == 0) {
      return Error(ErrorCode::kNotFound,
                   "session " + std::to_string(handle.id) +
                       " no longer known to the hub");
    }
  } else {
    reported_dead_.clear();
  }
  Session* raw = session(handle);
  if (raw == nullptr) {
    return Error(ErrorCode::kNotFound, "handle vanished across reconnect");
  }
  return raw;
}

void Client::note_child_exit(int pid, int exit_code, int term_signal) {
  if (mode_ == Mode::kHub) return;  // the hub synthesizes these itself
  if (!reported_dead_.insert(pid).second) return;
  DebugEvent event = make_gone_event(pid, term_signal == 0);
  if (exit_code >= 0) event.payload.set("exit_code", exit_code);
  if (term_signal != 0) event.payload.set("signal", term_signal);
  pending_events_.push_back({SessionHandle{pid}, std::move(event)});
}

std::string Client::crash_report_path(SessionHandle handle) const {
  auto it = crash_reports_.find(handle.id);
  return it == crash_reports_.end() ? std::string() : it->second;
}

Status Client::activate(SessionHandle handle, std::int64_t tid) {
  Session* target = session(handle);
  if (target == nullptr) {
    return Status(ErrorCode::kNotFound,
                  "no session " + std::to_string(handle.id));
  }
  // Validate the thread exists in that process (the §4.2 sequence:
  // clicking thread 2 of process B triggers a call into the server).
  DIONEA_ASSIGN_OR_RETURN(std::vector<RemoteThread> threads,
                          target->threads());
  for (const RemoteThread& t : threads) {
    if (t.tid == tid) {
      active_ = View{handle, tid};
      return Status::ok();
    }
  }
  return Status(ErrorCode::kNotFound,
                "session " + std::to_string(handle.id) + " has no thread " +
                    std::to_string(tid));
}

Client::View Client::active_view() const { return active_; }

Result<std::string> Client::active_source() {
  if (!active_.valid()) {
    return Error(ErrorCode::kInvalidArgument, "no active view");
  }
  Session* target = session(active_.session);
  if (target == nullptr) {
    return Error(ErrorCode::kNotFound, "active session is gone");
  }
  DIONEA_ASSIGN_OR_RETURN(std::vector<RemoteFrame> frames,
                          target->frames(active_.tid));
  if (frames.empty()) {
    return Error(ErrorCode::kNotFound, "active thread has no frames");
  }
  return target->source(frames.front().file);
}

Result<std::vector<RemoteFrame>> Client::active_frames() {
  if (!active_.valid()) {
    return Error(ErrorCode::kInvalidArgument, "no active view");
  }
  Session* target = session(active_.session);
  if (target == nullptr) {
    return Error(ErrorCode::kNotFound, "active session is gone");
  }
  return target->frames(active_.tid);
}

Result<std::vector<Client::SessionEvent>> Client::poll_events(
    int timeout_millis) {
  // Out-of-band observations (note_child_exit) go first: they arrived
  // earlier than anything still sitting in a socket buffer.
  std::vector<SessionEvent> out(
      std::make_move_iterator(pending_events_.begin()),
      std::make_move_iterator(pending_events_.end()));
  pending_events_.clear();
  DIONEA_RETURN_IF_ERROR(mode_ == Mode::kDiscover
                             ? poll_direct(timeout_millis, &out)
                             : poll_link(timeout_millis, &out));
  return out;
}

Status Client::poll_direct(int timeout_millis, std::vector<SessionEvent>* out) {
  for (auto& [pid, session] : direct_) {
    if (reported_dead_.count(pid) > 0) continue;  // already announced
    SessionHandle handle{pid};
    if (!session->connected()) {
      announce_gone(handle, session->terminated_seen(), out);
      continue;
    }
    auto event = session->poll_event(timeout_millis);
    if (!event.is_ok()) {
      if (event.error().code() != ErrorCode::kClosed) return event.error();
      // The transport died under us: surface the loss as a first-class
      // event instead of silently skipping the pid.
      announce_gone(handle, session->terminated_seen(), out);
      continue;
    }
    if (event.value().has_value()) {
      note_event(handle, *event.value());
      out->push_back({handle, std::move(*event.value())});
    }
  }
  return Status::ok();
}

Status Client::poll_link(int timeout_millis, std::vector<SessionEvent>* out) {
  // The one transport serves every session: once it is gone, each live
  // session is announced exactly once.
  auto announce_all = [this, out] {
    bool clean = link_ != nullptr && link_->terminated_seen();
    for (SessionHandle handle : sessions()) {
      if (reported_dead_.count(handle.id) == 0) {
        announce_gone(handle, clean, out);
      }
    }
  };
  if (link_ == nullptr || !link_->connected()) {
    announce_all();
    return Status::ok();
  }
  int wait = timeout_millis;
  while (true) {
    auto event = link_->poll_event(wait);
    if (!event.is_ok()) {
      if (event.error().code() != ErrorCode::kClosed) return event.error();
      announce_all();
      return Status::ok();
    }
    if (!event.value().has_value()) return Status::ok();
    DebugEvent ev = std::move(*event.value());
    // The hub stamps every routed event with its session id; a direct
    // 1.4 server doesn't, so fall back to the link's own session.
    std::int64_t sid = ev.payload.get_int(proto::kSessionIdKey);
    SessionHandle handle =
        sid != 0 ? SessionHandle{sid}
                 : (mode_ == Mode::kSingle ? SessionHandle{link_->pid()}
                                           : SessionHandle{});
    note_event(handle, ev);
    out->push_back({handle, std::move(ev)});
    wait = 0;  // drain whatever else is buffered without blocking again
  }
}

void Client::note_event(SessionHandle handle, const DebugEvent& event) {
  if (event.kind != proto::Event::kProcessCrashed &&
      event.kind != proto::Event::kProcessExited) {
    return;
  }
  // The debuggee's last gasp: remember where the corpse is and mark the
  // session announced, so the transport collapse that follows is not
  // reported a second time.
  std::string path = event.payload.get_string("report_path");
  if (!path.empty()) crash_reports_[handle.id] = path;
  reported_dead_.insert(handle.id);
  if (auto it = known_.find(handle.id); it != known_.end()) {
    it->second.alive = false;
  }
}

void Client::announce_gone(SessionHandle handle, bool clean_exit,
                           std::vector<SessionEvent>* out) {
  reported_dead_.insert(handle.id);
  out->push_back({handle, make_gone_event(pid_of(handle), clean_exit)});
}

Result<std::vector<proto::HubSessionEntry>> Client::hub_sessions() {
  if (mode_ != Mode::kHub) {
    return Error(ErrorCode::kUnavailable, "not connected to a hub");
  }
  DIONEA_ASSIGN_OR_RETURN(
      ipc::wire::Value reply,
      link_->request(proto::HubSessionsRequest::kName));
  DIONEA_ASSIGN_OR_RETURN(proto::HubSessionsResponse response,
                          proto::HubSessionsResponse::from_wire(reply));
  return std::move(response.sessions);
}

Status Client::hub_attach_all() {
  if (mode_ != Mode::kHub) {
    return Status(ErrorCode::kUnavailable, "not connected to a hub");
  }
  proto::HubAttachRequest request;
  request.session_id = 0;  // 0 = everything, present and future
  return link_->request(proto::HubAttachRequest::kName, request.to_wire())
      .status();
}

}  // namespace dionea::client
