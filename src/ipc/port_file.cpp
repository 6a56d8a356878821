#include "ipc/port_file.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "support/fault.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {

namespace {

// Re-read cadence when no inotify watch can be armed.
constexpr int kFallbackSliceMillis = 5;

// Race widener: tests hold a waiter at `site` with an injected delay.
void injected_delay(const char* site) {
  if (fault::Decision f = fault::probe(site); f.kind == fault::Kind::kDelay) {
    sleep_for_millis(f.delay_millis);  // sleep-ok: fault-injected delay
  }
}

// Directory and entry name of `path`; the watch is on the directory so
// that creating or renaming the file over is seen like an append.
std::pair<std::string, std::string> split_path(const std::string& path) {
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) return {".", path};
  return {slash == 0 ? "/" : path.substr(0, slash), path.substr(slash + 1)};
}

}  // namespace

Status PortFile::publish(const PortRecord& record) const {
  // O_RDWR (not O_WRONLY): we pread the current tail byte to self-heal
  // after a writer that crashed mid-append.
  int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return errno_error("open " + path_, errno);
  std::string line = strings::format("%d %d %u %lld\n", record.pid,
                                     record.parent_pid,
                                     static_cast<unsigned>(record.port),
                                     static_cast<long long>(record.seq));

  // Torn-append injection: a previous writer died after writing only a
  // prefix of its record (no trailing newline). The recovery below and
  // the reader's line tolerance must both absorb this.
  if (fault::Decision f = fault::probe("port_file.append");
      f.kind == fault::Kind::kTorn) {
    (void)::write(fd, line.data(), line.size() / 2);
  }

  // If the file does not end in '\n', a writer died mid-record: start
  // on a fresh line so our record is not glued to the torn fragment.
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\0';
    if (::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      line.insert(line.begin(), '\n');
    }
  }

  // Single write(2) of the full line: O_APPEND makes it atomic with
  // respect to concurrent publishers. A short count means the record
  // is torn on disk — report it; readers skip the fragment.
  Status status = Status::ok();
  ssize_t n;
  do {
    n = ::write(fd, line.data(), line.size());
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    status = errno_error("append " + path_, errno);
  } else if (n != static_cast<ssize_t>(line.size())) {
    status = Status(ErrorCode::kOsError,
                    "torn append to " + path_ + " (" + std::to_string(n) +
                        " of " + std::to_string(line.size()) + " bytes)");
  }
  // The record hands a port to another process: it must survive the
  // publisher crashing right after this call returns.
  if (status.is_ok() && ::fsync(fd) != 0) {
    status = errno_error("fsync " + path_, errno);
  }
  ::close(fd);
  return status;
}

Result<std::vector<PortRecord>> PortFile::read_all() const {
  std::vector<PortRecord> out;
  auto contents = read_file(path_);
  if (!contents.is_ok()) {
    if (contents.error().code() == ErrorCode::kNotFound) return out;
    return contents.error();
  }
  for (const std::string& line : strings::split(contents.value(), '\n')) {
    auto fields = strings::split_whitespace(line);
    if (fields.size() != 4) continue;  // blank or torn line
    PortRecord rec;
    std::int64_t pid = 0, ppid = 0, port = 0, seq = 0;
    if (!strings::parse_int(fields[0], &pid) ||
        !strings::parse_int(fields[1], &ppid) ||
        !strings::parse_int(fields[2], &port) ||
        !strings::parse_int(fields[3], &seq)) {
      continue;
    }
    if (port <= 0 || port > 65535) continue;
    rec.pid = static_cast<int>(pid);
    rec.parent_pid = static_cast<int>(ppid);
    rec.port = static_cast<std::uint16_t>(port);
    rec.seq = seq;
    out.push_back(rec);
  }
  return out;
}

Result<PortRecord> PortFile::await_pid(int pid, int timeout_millis) const {
  Stopwatch watch;
  while (true) {
    DIONEA_ASSIGN_OR_RETURN(std::vector<PortRecord> records, read_all());
    // Latest record wins: a pid may republish after a second fork.
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->pid == pid) return *it;
    }
    double left_millis = timeout_millis - watch.elapsed_seconds() * 1000.0;
    if (left_millis < 0) {
      return Error(ErrorCode::kTimeout,
                   "no port record for pid " + std::to_string(pid));
    }
    wait_change(static_cast<int>(std::ceil(left_millis)));
  }
}

Result<std::vector<PortRecord>> PortFile::read_new(size_t already_seen) const {
  DIONEA_ASSIGN_OR_RETURN(std::vector<PortRecord> records, read_all());
  if (records.size() <= already_seen) return std::vector<PortRecord>{};
  return std::vector<PortRecord>(records.begin() + already_seen,
                                 records.end());
}

void PortFile::arm_watch() const {
  watch_ = Watch::kUnavailable;
  Fd fd(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC));
  if (!fd.valid()) return;
  if (::inotify_add_watch(fd.get(), split_path(path_).first.c_str(),
                          IN_MODIFY | IN_CREATE | IN_MOVED_TO) < 0) {
    return;  // no watch held: closing this fd is cheap
  }
  inotify_ = std::move(fd);
  watch_ = Watch::kArmed;
}

void PortFile::wait_change(int timeout_millis) const {
  if (watch_ == Watch::kUnarmed) {
    injected_delay("port_file.watch.arm");
    arm_watch();
    injected_delay("port_file.watch.reread");
    if (watch_ == Watch::kArmed) return;  // the caller re-reads first
  }
  if (watch_ == Watch::kUnavailable) {
    int slice = std::min(timeout_millis, kFallbackSliceMillis);
    sleep_for_millis(slice);  // sleep-ok: fallback without inotify
    return;
  }
  const std::string name = split_path(path_).second;
  const double deadline = mono_seconds() + timeout_millis / 1000.0;
  while (true) {
    int remaining = std::max(
        0, static_cast<int>(std::ceil((deadline - mono_seconds()) * 1000.0)));
    pollfd pfd{inotify_.get(), POLLIN, 0};
    int rc = ::poll(&pfd, 1, remaining);
    if (rc == 0) return;  // timed out
    if (rc < 0) {
      if (errno == EINTR) continue;
      watch_ = Watch::kUnavailable;
      return;
    }
    // Drain every queued event before the caller re-reads: an append
    // after this drain queues a fresh event, so none is lost.
    bool changed = false;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(inotify_.get(), buf, sizeof(buf))) > 0) {
      const auto got = static_cast<size_t>(n);
      for (size_t off = 0; off + sizeof(inotify_event) <= got;) {
        inotify_event event{};
        std::memcpy(&event, buf + off, sizeof(event));
        // The entry name follows the header, NUL-padded to event.len.
        const char* entry = buf + off + sizeof(event);
        if ((event.mask & IN_IGNORED) != 0) {
          watch_ = Watch::kUnavailable;  // the directory went away
        }
        if ((event.mask & (IN_Q_OVERFLOW | IN_IGNORED)) != 0 ||
            name == std::string_view(entry, ::strnlen(entry, event.len))) {
          changed = true;
        }
        off += sizeof(event) + event.len;
      }
    }
    if (changed || remaining == 0) return;
  }
}

}  // namespace dionea::ipc
