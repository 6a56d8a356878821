// Port-handoff file (§5.3 problem 3).
//
// "Dionea's fork handlers use a temporary file, where the port number
// of the most recently created process is saved." After fork, the
// child's debug server binds a fresh listener and appends a record
// {pid, parent_pid, port, seq} to this file; the client tails the file
// and opens a new session to each previously unseen pid.
//
// The file is append-only with line-oriented records and O_APPEND
// writes (atomic for short writes), so parent and any number of
// children can publish concurrently without a lock shared across the
// fork boundary — exactly the constraint fork handler C operates under.
//
// Readers that wait for a record block on an inotify watch of the
// file's directory (IN_MODIFY | IN_CREATE | IN_MOVED_TO, so a file that
// does not exist yet or is replaced by rename is covered too) instead
// of re-reading on a sleep cadence; see wait_change().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ipc/fd.hpp"
#include "support/result.hpp"

namespace dionea::ipc {

struct PortRecord {
  int pid = 0;
  int parent_pid = 0;
  std::uint16_t port = 0;
  std::int64_t seq = 0;  // publisher-local ordering

  bool operator==(const PortRecord&) const = default;
};

class PortFile {
 public:
  explicit PortFile(std::string path) : path_(std::move(path)) {}

  const std::string& path() const noexcept { return path_; }

  // Append one record: a single O_APPEND write of the full line,
  // fsync'd so the record survives the publisher crashing immediately
  // after. If the file's tail is a torn record (a writer died
  // mid-append), the new record starts on a fresh line so it stays
  // parseable.
  Status publish(const PortRecord& record) const;

  // All records currently in the file, in append order. Torn or
  // garbage lines (a writer mid-write or crashed mid-append) are
  // skipped, not errors.
  Result<std::vector<PortRecord>> read_all() const;

  // Block until a record for `pid` appears or timeout elapses.
  Result<PortRecord> await_pid(int pid, int timeout_millis) const;

  // Records appended after the first `already_seen` ones.
  Result<std::vector<PortRecord>> read_new(size_t already_seen) const;

  // Block until the file may have changed since the caller last read
  // it, or `timeout_millis` passes; the caller then re-reads. The first
  // call only arms the watch and returns at once, so a waiter's loop
  // runs read, miss, arm, re-read, block: an append that lands before
  // the watch exists is seen by the re-read, one that lands after it
  // wakes the block. Nothing is armed until a reader first misses, and
  // the watch then lives as long as this PortFile — closing an inotify
  // descriptor that holds a watch can block for ~16 ms on current
  // kernels, far more than one wait. Without inotify (ENOSYS, EMFILE,
  // a missing directory) each call sleeps one bounded slice instead.
  // Not safe for concurrent waiters on one PortFile.
  void wait_change(int timeout_millis) const;

 private:
  enum class Watch { kUnarmed, kArmed, kUnavailable };

  void arm_watch() const;

  std::string path_;
  mutable Watch watch_ = Watch::kUnarmed;
  mutable Fd inotify_;
};

}  // namespace dionea::ipc
