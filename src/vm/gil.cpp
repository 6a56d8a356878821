#include "vm/gil.hpp"

#include <chrono>
#include <thread>

#include "replay/replay.hpp"
#include "support/metrics.hpp"
#include "support/result.hpp"
#include "support/timing.hpp"

namespace dionea::vm {

// FIFO ticketing: without it, a thread that releases the GIL at a
// switch point re-acquires it before any waiter can wake (the lock
// convoy CPython's old GIL was notorious for), and cooperative
// yielding never actually yields. Each acquire takes a ticket; the
// lock is granted in ticket order.

Gil::Gil() : state_(std::make_unique<State>()) {}

Gil::~Gil() = default;

void Gil::acquire(std::int64_t tid) {
  replay::Engine& rep = replay::Engine::instance();
  if (tid > 0 && rep.replaying()) {
    // The log, not the ticket line, decides the grant order: a thread
    // that would acquire out of turn parks until it is the designated
    // next holder. Short slices re-check because the engine's cursor
    // advances under its own (leaf) lock and cannot signal this cv.
    std::unique_lock lock(state_->mutex);
    DIONEA_CHECK(!(state_->held && state_->owner == tid),
                 "recursive GIL acquire");
    ++state_->waiters;
    while (state_->held ||
           !rep.try_consume(replay::EventKind::kGilAcquire, tid)) {
      state_->cv.wait_for(lock, std::chrono::milliseconds(2));
    }
    --state_->waiters;
    state_->held = true;
    state_->owner = tid;
    state_->acquired_nanos = 0;
    note_granted(tid);
    return;
  }
  const bool record = metrics::Registry::instance().enabled();
  std::unique_lock lock(state_->mutex);
  DIONEA_CHECK(!(state_->held && state_->owner == tid),
               "recursive GIL acquire");
  std::uint64_t ticket = state_->next_ticket++;
  // Contended = someone holds the lock or earlier tickets are queued.
  // The clock is read only on that path (and once on grant when
  // metrics are on): the uncontended acquire stays probe-free.
  const bool contended = state_->held || ticket != state_->serving;
  const std::int64_t wait_start = (record && contended) ? mono_nanos() : 0;
  ++state_->waiters;
  state_->cv.wait(lock, [this, ticket] {
    return !state_->held && ticket == state_->serving;
  });
  --state_->waiters;
  ++state_->serving;
  state_->held = true;
  state_->owner = tid;
  if (record) {
    metrics::add(metrics::Counter::kGilAcquires);
    const std::int64_t now = mono_nanos();
    if (contended) {
      metrics::add(metrics::Counter::kGilContended);
      metrics::observe(metrics::Histogram::kGilWaitNanos,
                       static_cast<std::uint64_t>(now - wait_start));
    }
    state_->acquired_nanos = now;
  } else {
    state_->acquired_nanos = 0;
  }
  note_granted(tid);
  // Log the grant (not the request): the sequence of grants IS the
  // interleaving a replay must force. External (tid < 0) users are
  // debugger machinery, never bytecode — the engine skips them.
  rep.record(replay::EventKind::kGilAcquire, tid);
}

void Gil::release() {
  {
    std::scoped_lock lock(state_->mutex);
    DIONEA_CHECK(state_->held, "releasing unheld GIL");
    state_->held = false;
    note_released();
    // The releasing thread is the owner, so the shard write below is
    // still single-writer.
    if (state_->acquired_nanos != 0) {
      metrics::observe(
          metrics::Histogram::kGilHoldNanos,
          static_cast<std::uint64_t>(mono_nanos() - state_->acquired_nanos));
      state_->acquired_nanos = 0;
    }
  }
  state_->cv.notify_all();
}

void Gil::yield(std::int64_t tid) {
  replay::Engine& rep = replay::Engine::instance();
  if (tid > 0 && rep.replaying()) {
    if (rep.stop_gated()) {
      // A run-to-step pause is in force: hand the GIL back and park
      // here, so the VM freezes with the GIL free for inspection.
      // This pause is not a recorded event — on un-gating we must take
      // the lock back directly (we were the recorded holder), not
      // consume a kGilAcquire the log never contained.
      release();
      for (;;) {
        if (!rep.stop_gated()) {
          reacquire_out_of_band(tid);
          if (!rep.stop_gated()) return;
          release();  // re-armed while we took it: park again
        }
        std::this_thread::sleep_for(  // sleep-ok: replay stop-gate park
            std::chrono::milliseconds(2));
      }
    }
    // Hand off exactly where the recording did. The probe asks "is a
    // yield by this thread the next recorded event?" — a mismatch just
    // means the recording kept running here.
    if (!rep.try_consume(replay::EventKind::kGilYield, tid, 0, nullptr,
                         /*probe=*/true)) {
      return;
    }
    release();
    acquire(tid);
    return;
  }
  {
    std::scoped_lock lock(state_->mutex);
    // Nobody queued behind us: keep running.
    if (state_->serving == state_->next_ticket) return;
  }
  rep.record(replay::EventKind::kGilYield, tid);
  release();
  // Our new ticket queues behind every thread that was already
  // waiting: a real handoff.
  acquire(tid);
}

void Gil::reacquire_out_of_band(std::int64_t tid) {
  std::unique_lock lock(state_->mutex);
  ++state_->waiters;
  while (state_->held) {
    // Short slices: an inspector's release notifies this cv, but an
    // engine-side un-gate cannot.
    state_->cv.wait_for(lock, std::chrono::milliseconds(2));
  }
  --state_->waiters;
  state_->held = true;
  state_->owner = tid;
  state_->acquired_nanos = 0;
  note_granted(tid);
}

std::int64_t Gil::owner() const {
  std::scoped_lock lock(state_->mutex);
  return state_->held ? state_->owner : 0;
}

bool Gil::held_by(std::int64_t tid) const {
  std::scoped_lock lock(state_->mutex);
  return state_->held && state_->owner == tid;
}

void Gil::prepare_fork() {
  fork_lock_ = std::unique_lock(state_->mutex);
}

void Gil::parent_atfork() {
  DIONEA_CHECK(fork_lock_.owns_lock(), "parent_atfork without prepare_fork");
  fork_lock_.unlock();
  fork_lock_ = {};
}

void Gil::child_atfork(std::int64_t surviving_tid) {
  // Drop (leak) the old state: its mutex is still flagged as locked by
  // prepare_fork's lock, its cv wait-queue and ticket line referenced
  // threads that do not exist in this process. See header comment.
  fork_lock_.release();
  (void)state_.release();
  state_ = std::make_unique<State>();
  state_->held = true;
  state_->owner = surviving_tid;
  note_granted(surviving_tid);
}

void Gil::note_granted(std::int64_t tid) noexcept {
  owner_mirror_.store(tid, std::memory_order_relaxed);
  held_since_.store(
      hold_watch_.load(std::memory_order_relaxed) ? mono_nanos() : 0,
      std::memory_order_relaxed);
}

void Gil::note_released() noexcept {
  owner_mirror_.store(0, std::memory_order_relaxed);
  held_since_.store(0, std::memory_order_relaxed);
}

}  // namespace dionea::vm
