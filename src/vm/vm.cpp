#include "vm/vm.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "analysis/analysis.hpp"
#include "analysis/forkaudit.hpp"
#include "analysis/forklint.hpp"
#include "replay/replay.hpp"
#include "support/crash_report.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/timing.hpp"
#include "vm/builtins.hpp"
#include "vm/compiler.hpp"
#include "vm/verifier.hpp"

namespace dionea::vm {

namespace {
constexpr size_t kMaxFrames = 256;  // "stack level too deep"
}  // namespace

const char* trace_kind_name(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kCall: return "call";
    case TraceKind::kLine: return "line";
    case TraceKind::kReturn: return "return";
    case TraceKind::kThreadStart: return "thread_start";
    case TraceKind::kThreadEnd: return "thread_end";
  }
  return "?";
}

namespace {

// ForkLint audit contract for the primitives whose fork pinning the VM
// drives (DESIGN.md fork-handler contract table). The replay engine
// and fault injector are registered here, on their pinning driver's
// side, so dionea_replay/dionea_support never link against
// dionea_analysis. Once per process; re-tracking is idempotent.
void register_vm_fork_contract() {
  static const bool once = [] {
    using analysis::forkaudit::Registry;
    using analysis::forkaudit::Spec;
    Registry& registry = Registry::instance();
    registry.track(Spec{.name = "vm.scheduler",
                        .subsystem = "vm",
                        .has_prepare = true,
                        .has_parent = true,
                        .has_child = true,
                        .pinned_before = {"vm.sync_objects"}});
    registry.track(Spec{.name = "vm.sync_objects",
                        .subsystem = "vm",
                        .has_prepare = true,
                        .has_parent = true,
                        .has_child = true,
                        .pinned_before = {"vm.gil"}});
    registry.track(Spec{.name = "vm.gil",
                        .subsystem = "vm",
                        .has_prepare = true,
                        .has_parent = true,
                        .has_child = true,
                        .pinned_before = {"analysis.engine"}});
    // Caches are not pinned across the fork; the contract is child-side
    // repair only (the box64 001/004 fixes).
    registry.track(Spec{.name = "vm.code_cache",
                        .subsystem = "vm",
                        .needs_prepare = false,
                        .needs_parent = false,
                        .has_child = true});
    registry.track(Spec{.name = "replay.engine",
                        .subsystem = "replay",
                        .has_prepare = true,
                        .has_parent = true,
                        .has_child = true,
                        .pinned_before = {"support.fault"}});
    // fault::Injector pins itself via pthread_atfork (a leaf lock, so
    // it sits at the end of the declared order).
    registry.track(Spec{.name = "support.fault",
                        .subsystem = "support",
                        .has_prepare = true,
                        .has_parent = true,
                        .has_child = true});
    return true;
  }();
  (void)once;
}

}  // namespace

Vm::Vm() {
  // Before any sync object exists, so creation-order replay ids line
  // up between a recording process and a replaying one.
  replay::Engine::init_from_env();
  analysis::Engine::init_from_env();
  register_vm_fork_contract();
  // Build-time default backend (CMake -DDIONEA_DISPATCH=...), runtime
  // override via env for A/B runs without a rebuild.
#if defined(DIONEA_DISPATCH_DEFAULT_GOTO) && DIONEA_DISPATCH_DEFAULT_GOTO
  set_dispatch_mode(DispatchMode::kGoto);
#endif
  if (const char* env = std::getenv("DIONEA_DISPATCH")) {
    if (std::string_view(env) == "goto") {
      set_dispatch_mode(DispatchMode::kGoto);
    } else if (std::string_view(env) == "switch") {
      set_dispatch_mode(DispatchMode::kSwitch);
    }
  }
  if (const char* env = std::getenv("DIONEA_QUICKEN")) {
    quicken_enabled_ = !(env[0] == '0' && env[1] == '\0');
  }
  output_ = [](std::string_view text) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
  };
  install_core_builtins(*this);
}

Vm::~Vm() = default;

void Vm::install_builtins() { install_core_builtins(*this); }

// --------------------------------------------------------------- globals

GlobalSlot* Vm::find_global_slot(std::string_view name) noexcept {
  auto it = global_index_.find(name);
  return it == global_index_.end() ? nullptr : &global_slots_[it->second];
}

const GlobalSlot* Vm::find_global_slot(std::string_view name) const noexcept {
  auto it = global_index_.find(name);
  return it == global_index_.end() ? nullptr : &global_slots_[it->second];
}

GlobalSlot& Vm::intern_global_slot(std::string_view name) {
  auto it = global_index_.find(name);
  if (it != global_index_.end()) return global_slots_[it->second];
  const auto index = static_cast<std::uint32_t>(global_slots_.size());
  GlobalSlot& slot = global_slots_.emplace_back();
  slot.name.assign(name);
  // Key views into the slot's own name string: the deque never moves
  // elements and the name is never mutated, so the view stays valid.
  global_index_.emplace(std::string_view(slot.name), index);
  return slot;
}

void Vm::define_native(
    const std::string& name, int min_arity, int max_arity,
    std::function<NativeResult(Vm&, InterpThread&, std::vector<Value>&)> fn) {
  auto native = std::make_shared<NativeFn>();
  native->name = name;
  native->min_arity = min_arity;
  native->max_arity = max_arity;
  native->fn = std::move(fn);
  intern_global_slot(name).value = Value(std::move(native));
}

void Vm::set_global(const std::string& name, Value value) {
  intern_global_slot(name).value = std::move(value);
}

Value Vm::get_global(const std::string& name) const {
  const GlobalSlot* slot = find_global_slot(name);
  return slot == nullptr ? Value() : slot->value;
}

void Vm::set_trace_fn(TraceFn fn) {
  // Publish the callback before flipping the gate bit so an armed
  // reader always finds a non-null fn.
  trace_fn_.store(std::make_shared<const TraceFn>(std::move(fn)),
                  std::memory_order_release);
  line_gate_.fetch_or(kGateFnBit, std::memory_order_release);
}

void Vm::clear_trace_fn() {
  // Drop the gate bits first; a racing thread that already saw "armed"
  // holds the callback alive through its shared_ptr load.
  line_gate_.fetch_and(~(kGateFnBit | kGateEnabledBit),
                       std::memory_order_relaxed);
  trace_fn_.store(nullptr, std::memory_order_release);
}

void Vm::set_output(std::function<void(std::string_view)> sink) {
  output_ = std::move(sink);
}

void Vm::write_output(std::string_view text) {
  if (output_) output_(text);
}

void Vm::set_deadlock_hook(DeadlockHook hook) {
  std::scoped_lock lock(sched_mutex_);
  deadlock_hook_ = std::move(hook);
}

void Vm::set_at_exit_hook(std::function<void(Vm&)> hook) {
  at_exit_hook_ = std::move(hook);
}

void Vm::run_at_exit_hook() {
  if (at_exit_hook_) at_exit_hook_(*this);
}

void Vm::register_sync_object(std::shared_ptr<SyncObject> object) {
  std::scoped_lock lock(sched_mutex_);
  sync_objects_.push_back(object);
}

std::vector<std::shared_ptr<SyncObject>> Vm::sync_objects_snapshot() {
  std::scoped_lock lock(sched_mutex_);
  std::vector<std::shared_ptr<SyncObject>> out;
  for (auto& weak : sync_objects_) {
    if (auto obj = weak.lock()) out.push_back(std::move(obj));
  }
  return out;
}

void Vm::crash_dump(crash::Writer& w) noexcept {
  w.str("gil-owner: ");
  w.dec(gil_.owner_relaxed());
  w.nl();
  w.str("fork-depth: ");
  w.dec(fork_depth_);
  w.nl();
  // threads_ and each frames vector are read WITHOUT sched_mutex_ or
  // the GIL: the crashing thread may hold either. Hard caps bound the
  // walk; anything torn mid-mutation at worst faults into the
  // handler's re-entry guard.
  size_t listed = 0;
  for (const auto& [id, th] : threads_) {
    if (th == nullptr) continue;
    if (++listed > 128) {
      w.str("... more threads (truncated)\n");
      break;
    }
    w.str("thread ");
    w.dec(id);
    w.str(" name=");
    w.str(th->name().c_str());
    w.str(" state=");
    w.str(thread_state_name(th->state));
    if (!th->block_note.empty()) {
      w.str(" block=");
      w.str(th->block_note.c_str());
    }
    w.nl();
    size_t depth = th->frames.size();
    if (depth > kMaxFrames) depth = kMaxFrames;
    for (size_t i = depth; i-- > 0;) {
      const InterpThread::Frame& fr = th->frames[i];
      w.str("  #");
      w.udec(depth - 1 - i);  // innermost frame is #0
      w.str(" ");
      const Closure* closure = fr.closure.get();
      const FunctionProto* proto =
          closure != nullptr ? closure->proto.get() : nullptr;
      if (proto != nullptr) {
        w.str(proto->name.empty() ? "<lambda>" : proto->name.c_str());
        w.str(" ");
        w.str(proto->file.c_str());
        w.str(":");
        w.dec(fr.line);
      } else {
        w.str("<unknown>");
      }
      w.nl();
    }
  }
  size_t objects = 0;
  for (const auto& weak : sync_objects_) {
    auto obj = weak.lock();  // lock-free refcount bump, AS-safe enough
    if (obj == nullptr) continue;
    if (++objects > 256) {
      w.str("... more sync objects (truncated)\n");
      break;
    }
    obj->crash_describe(w);
  }
}

void Vm::request_exit(int code) {
  exit_code_.store(code, std::memory_order_relaxed);
  exit_pending_.store(true, std::memory_order_relaxed);
  std::scoped_lock lock(sched_mutex_);
  for (auto& [id, th] : threads_) {
    th->interrupt.store(InterruptReason::kKill, std::memory_order_relaxed);
  }
}

std::uint64_t Vm::statements_executed() {
  std::scoped_lock lock(sched_mutex_);
  std::uint64_t total = retired_statements_;
  for (const auto& [id, th] : threads_) total += th->stmt_count;
  return total;
}

// ---------------------------------------------------------------- errors

VmError Vm::runtime_error(InterpThread& th, std::string message,
                          VmErrorKind kind) {
  VmError err;
  err.kind = kind;
  err.message = std::move(message);
  for (size_t i = th.frames.size(); i-- > 0;) {
    const InterpThread::Frame& fr = th.frames[i];
    const FunctionProto& proto = *fr.closure->proto;
    std::string fn_name = proto.name.empty() ? "<lambda>" : proto.name;
    err.traceback.push_back(TracebackEntry{fn_name, proto.file, fr.line});
  }
  return err;
}

// ------------------------------------------------------------ BlockScope

Vm::BlockScope::BlockScope(Vm& vm, InterpThread& th, ThreadState state,
                           std::string note)
    : vm_(vm), th_(th) {
  // Release the GIL first so that the deadlock hook (and any other
  // thread) may take it while we are parked.
  vm_.gil_.release();
  vm_.set_thread_state(th_, state, std::move(note));
}

Vm::BlockScope::~BlockScope() {
  vm_.set_thread_state(th_, ThreadState::kRunnable, {});
  vm_.gil_.acquire(th_.id());
}

void Vm::set_thread_state(InterpThread& th, ThreadState state,
                          std::string note) {
  std::unique_lock lock(sched_mutex_);
  th.state = state;
  ++th.block_epoch;
  th.block_note = std::move(note);
  if (!th.frames.empty()) {
    const InterpThread::Frame& fr = th.frames.back();
    th.block_file = fr.closure->proto->file;
    th.block_line = fr.line;
  }
  if (state == ThreadState::kBlockedForever) {
    check_deadlock_locked(lock);
  } else if (deadlock_candidate_active_.load(std::memory_order_relaxed)) {
    // A thread progressed: whatever candidate existed is stale.
    deadlock_candidate_.clear();
    deadlock_candidate_active_.store(false, std::memory_order_relaxed);
  }
}

std::vector<std::pair<std::int64_t, std::uint64_t>>
Vm::blocked_snapshot_locked(bool* all_blocked_forever) const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> snapshot;
  int alive = 0;
  int forever = 0;
  bool parked_or_waking = false;
  for (const auto& [id, th] : threads_) {
    switch (th->state) {
      case ThreadState::kDead:
        break;
      case ThreadState::kDebugParked:
        // A suspended thread can be resumed by the client; nothing is
        // provably stuck while one exists.
        parked_or_waking = true;
        ++alive;
        break;
      case ThreadState::kBlockedForever:
        // A thread parked at a replay gate is waiting for its recorded
        // turn, not for the program — the replay engine's own stall
        // timeout covers it. Without this, forcing an interleaving
        // would trip the deadlock detector on schedules that are
        // merely *paused*, not stuck. Genuinely deadlocked threads are
        // not gated (their wait predicate fails before it consults the
        // engine), so real detection is unaffected.
        if (replay::Engine::instance().gated(th->id())) {
          parked_or_waking = true;
          ++alive;
          break;
        }
        ++alive;
        ++forever;
        snapshot.emplace_back(th->id(), th->block_epoch);
        break;
      case ThreadState::kBlockedTimed:
      case ThreadState::kIoBlocked:
        parked_or_waking = true;
        ++alive;
        break;
      case ThreadState::kRunnable:
        ++alive;
        break;
    }
  }
  *all_blocked_forever = alive > 0 && !parked_or_waking && forever == alive;
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

void Vm::check_deadlock_locked(std::unique_lock<std::mutex>& /*sched_lock*/) {
  if (deadlock_reported_) return;
  bool all_blocked = false;
  auto snapshot = blocked_snapshot_locked(&all_blocked);
  if (!all_blocked) {
    deadlock_candidate_.clear();
    deadlock_candidate_active_.store(false, std::memory_order_relaxed);
    return;
  }
  if (snapshot != deadlock_candidate_) {
    // New (or changed) candidate: arm the grace timer; the blocked
    // threads' wait ticks will confirm it via deadlock_tick().
    deadlock_candidate_ = std::move(snapshot);
    deadlock_candidate_since_ = mono_seconds();
    deadlock_candidate_active_.store(true, std::memory_order_relaxed);
  }
}

void Vm::deadlock_tick() {
  std::unique_lock lock(sched_mutex_);
  if (deadlock_reported_ || deadlock_candidate_.empty()) return;
  bool all_blocked = false;
  auto snapshot = blocked_snapshot_locked(&all_blocked);
  if (!all_blocked || snapshot != deadlock_candidate_) {
    // Something moved since the candidate was formed — either the
    // system made progress (drop it) or it re-froze in a new shape
    // (restart the grace period on the new snapshot).
    if (all_blocked) {
      deadlock_candidate_ = std::move(snapshot);
      deadlock_candidate_since_ = mono_seconds();
    } else {
      deadlock_candidate_.clear();
      deadlock_candidate_active_.store(false, std::memory_order_relaxed);
    }
    return;
  }
  if ((mono_seconds() - deadlock_candidate_since_) * 1000.0 <
      kDeadlockGraceMillis) {
    return;  // not confirmed yet
  }
  fire_deadlock_locked(lock);
}

void Vm::fire_deadlock_locked(std::unique_lock<std::mutex>& sched_lock) {
  // Every live thread has been blocked on a VM object, with no timeout
  // and no external waker, for the whole grace period: the Ruby
  // `deadlock detected (fatal)` condition.
  deadlock_reported_ = true;
  deadlock_candidate_.clear();
  deadlock_candidate_active_.store(false, std::memory_order_relaxed);
  std::vector<DeadlockInfo> infos;
  infos.reserve(threads_.size());
  for (const auto& [id, th] : threads_) {
    if (th->state != ThreadState::kBlockedForever) continue;
    infos.push_back(DeadlockInfo{th->id(), th->name(), th->block_file,
                                 th->block_line, th->block_note});
  }
  DeadlockHook hook = deadlock_hook_;
  if (hook) {
    // CP.22: never call unknown code while holding a lock.
    sched_lock.unlock();
    bool handled = hook(*this, infos);
    sched_lock.lock();
    if (handled) return;  // debugger owns it; threads stay suspended
  }
  DLOG_INFO("vm") << "deadlock detected across " << infos.size()
                  << " thread(s)";
  for (auto& [id, th] : threads_) {
    if (th->state == ThreadState::kDead) continue;
    th->interrupt.store(InterruptReason::kDeadlock,
                        std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------- frames

CodeCache* Vm::ensure_code_cache(std::shared_ptr<const FunctionProto> proto,
                                 std::string* error) {
  auto it = code_caches_.find(proto.get());
  if (it != code_caches_.end()) return it->second.get();
  Status verified = verify_chunk(*proto);
  if (!verified.is_ok()) {
    *error = verified.error().message();
    return nullptr;
  }
  auto cache = std::make_unique<CodeCache>();
  build_code_cache(*proto, quicken_enabled_, *cache);
  // Snapshot with the enabled bit masked off: if tracing is armed
  // right now, the first quickened trace-line site mismatches and
  // takes the slow (firing) path immediately.
  cache->gate_snapshot =
      line_gate_.load(std::memory_order_relaxed) & ~kGateEnabledBit;
  const FunctionProto* key = proto.get();
  cache->proto = std::move(proto);
  CodeCache* raw = cache.get();
  code_caches_.emplace(key, std::move(cache));
  return raw;
}

std::optional<VmError> Vm::push_frame(InterpThread& th,
                                      std::shared_ptr<Closure> closure,
                                      int argc) {
  const FunctionProto& proto = *closure->proto;
  if (argc != proto.arity) {
    return runtime_error(
        th, strings::format("wrong number of arguments for %s (given %d, "
                            "expected %d)",
                            proto.name.empty() ? "<lambda>" : proto.name.c_str(),
                            argc, proto.arity));
  }
  if (th.frames.size() >= kMaxFrames) {
    return runtime_error(th, "stack level too deep");
  }
  std::string cache_error;
  CodeCache* cache = ensure_code_cache(closure->proto, &cache_error);
  if (cache == nullptr) {
    return runtime_error(th, std::move(cache_error));
  }
  InterpThread::Frame frame;
  frame.closure = std::move(closure);
  frame.cache = cache;
  frame.ip = 0;
  frame.base = th.stack.size() - static_cast<size_t>(argc);
  frame.line = proto.line;
  th.stack.resize(frame.base + proto.local_names.size());
  th.frames.push_back(std::move(frame));
  ++cache->in_use;
  if (trace_armed(th)) fire_trace(th, TraceKind::kCall, proto.line);
  return std::nullopt;
}

void Vm::pop_frame(InterpThread& th) noexcept {
  InterpThread::Frame& frame = th.frames.back();
  if (frame.cache != nullptr && frame.cache->in_use > 0) {
    --frame.cache->in_use;
  }
  const size_t base = frame.base;
  th.frames.pop_back();
  th.stack.resize(base > 0 ? base - 1 : 0);
}

void Vm::fire_trace(InterpThread& th, TraceKind kind, int line) {
  // The shared_ptr load (not a raw member read) is what makes a
  // concurrent clear_trace_fn safe: either we see null and bail, or we
  // hold the callback alive for the duration of the call.
  std::shared_ptr<const TraceFn> fn =
      trace_fn_.load(std::memory_order_acquire);
  if (fn == nullptr || !*fn) return;
  switch (kind) {
    case TraceKind::kLine:
      metrics::add(metrics::Counter::kTraceLineEvents);
      break;
    case TraceKind::kCall:
      metrics::add(metrics::Counter::kTraceCallEvents);
      break;
    case TraceKind::kReturn:
      metrics::add(metrics::Counter::kTraceReturnEvents);
      break;
    case TraceKind::kThreadStart:
    case TraceKind::kThreadEnd:
      metrics::add(metrics::Counter::kTraceThreadEvents);
      break;
  }
  // Dispatch latency is sampled 1-in-64: two clock reads per line
  // event would dwarf the dispatch being measured; at this rate the
  // histogram stays honest and the probe stays off the §7 overhead.
  thread_local unsigned sample_tick = 0;
  const bool sampled = metrics::Registry::instance().enabled() &&
                       (++sample_tick & 63u) == 0;
  const std::int64_t start = sampled ? mono_nanos() : 0;

  TraceEvent event;
  event.kind = kind;
  event.thread_id = th.id();
  event.line = line;
  event.frame_depth = static_cast<int>(th.frames.size());
  if (!th.frames.empty()) {
    const FunctionProto& proto = *th.frames.back().closure->proto;
    event.file = proto.file;
    event.function = proto.name.empty() ? std::string_view("<lambda>")
                                        : std::string_view(proto.name);
    // The proto outlives the run (pinned by the program/closures), so
    // its file string is a stable pointer for the crash report.
    crash::note_trace(proto.file.c_str(), line, th.id());
  }
  (*fn)(*this, th, event);

  if (sampled) {
    metrics::observe(metrics::Histogram::kTraceHookNanos,
                     static_cast<std::uint64_t>(mono_nanos() - start));
  }
}

// --------------------------------------------------------------- interpret
//
// The loop itself lives in dispatch.inc, compiled twice in
// dispatch.cpp (switch and computed-goto backends). This file keeps
// only the backend selector and the cold helpers the loop calls out
// to.

bool Vm::computed_goto_available() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return true;
#else
  return false;
#endif
}

void Vm::set_dispatch_mode(DispatchMode mode) noexcept {
  if (mode == DispatchMode::kGoto && !computed_goto_available()) {
    mode = DispatchMode::kSwitch;
  }
  dispatch_mode_ = mode;
}

std::variant<Value, VmError> Vm::interpret(InterpThread& th,
                                           size_t stop_depth) {
  if (dispatch_mode_ == DispatchMode::kGoto) {
    return interpret_goto(th, stop_depth);
  }
  return interpret_switch(th, stop_depth);
}

bool Vm::line_gate_sync(CodeCache& cache) noexcept {
  const std::uint64_t gate = line_gate_.load(std::memory_order_relaxed);
  cache.gate_snapshot = gate & ~kGateEnabledBit;
  return (gate & kGateArmedMask) == kGateArmedMask;
}

__attribute__((noinline)) VmError Vm::undefined_name_error(
    InterpThread& th, std::string_view name) {
  return runtime_error(th, "undefined name '" + std::string(name) + "'");
}

// ----------------------------------------------------------- code caches

std::size_t Vm::purge_code_caches() {
  std::size_t purged = 0;
  for (auto it = code_caches_.begin(); it != code_caches_.end();) {
    if (it->second->in_use == 0) {
      it = code_caches_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  return purged;
}

CodeCacheStats Vm::code_cache_stats() const {
  CodeCacheStats stats;
  for (const auto& [proto, cache] : code_caches_) {
    ++stats.caches;
    if (cache->quickened) ++stats.quickened;
    stats.ic_sites += cache->ics.size();
    for (const GlobalIc& ic : cache->ics) {
      if (ic.slot != nullptr) ++stats.trained_ics;
    }
    stats.total_in_use += cache->in_use;
  }
  return stats;
}

const CodeCache* Vm::find_code_cache(const FunctionProto* proto) const {
  auto it = code_caches_.find(proto);
  return it == code_caches_.end() ? nullptr : it->second.get();
}

std::size_t Vm::repair_cache_pins() {
  std::vector<std::pair<CodeCache*, std::uint32_t>> before;
  before.reserve(code_caches_.size());
  for (auto& [proto, cache] : code_caches_) {
    before.emplace_back(cache.get(), cache->in_use);
    cache->in_use = 0;
  }
  for (auto& [id, th] : threads_) {
    for (const InterpThread::Frame& frame : th->frames) {
      if (frame.cache != nullptr) ++frame.cache->in_use;
    }
  }
  std::size_t wrong = 0;
  for (const auto& [cache, old_count] : before) {
    if (cache->in_use != old_count) ++wrong;
  }
  return wrong;
}

// ---------------------------------------------------------------- calling

std::variant<Value, VmError> Vm::call_value(InterpThread& th, Value callee,
                                            std::vector<Value> args) {
  if (callee.is_native()) {
    const NativeFn& native = *callee.as_native();
    int argc = static_cast<int>(args.size());
    if (argc < native.min_arity ||
        (native.max_arity >= 0 && argc > native.max_arity)) {
      return runtime_error(
          th, strings::format("wrong number of arguments for %s",
                              native.name.c_str()));
    }
    NativeResult result = native.fn(*this, th, args);
    if (std::holds_alternative<VmError>(result)) {
      return std::get<VmError>(std::move(result));
    }
    return std::get<Value>(std::move(result));
  }
  if (!callee.is_closure()) {
    return runtime_error(
        th, strings::format("%s is not callable", callee.type_name()));
  }
  size_t stop_depth = th.frames.size() + 1;
  th.stack.push_back(callee);
  for (Value& arg : args) th.stack.push_back(std::move(arg));
  auto err = push_frame(th, callee.as_closure(),
                        static_cast<int>(args.size()));
  if (err) {
    th.stack.resize(th.stack.size() - args.size() - 1);
    return std::move(*err);
  }
  return interpret(th, stop_depth);
}

// ---------------------------------------------------------------- threads

std::variant<Value, VmError> Vm::spawn_thread(InterpThread& parent,
                                              Value callee,
                                              std::vector<Value> args) {
  if (!callee.is_closure()) {
    return runtime_error(parent, "spawn expects a fn");
  }
  if (static_cast<int>(args.size()) != callee.as_closure()->proto->arity) {
    return runtime_error(parent, "spawn: argument count mismatch");
  }
  std::shared_ptr<InterpThread> th;
  {
    std::scoped_lock lock(sched_mutex_);
    std::int64_t id = ++next_thread_id_;
    th = std::make_shared<InterpThread>(
        id, strings::format("thread-%lld", static_cast<long long>(id)));
    threads_[id] = th;
  }
  auto handle = std::make_shared<ThreadHandle>();
  handle->thread_id = th->id();
  handle->thread = th;
  if (analysis::engine_enabled()) {
    // start edge: the child thread inherits the parent's history.
    analysis::Engine::instance().on_thread_start(parent.id(), th->id());
  }

  std::shared_ptr<Closure> closure = callee.as_closure();
  std::thread os_thread(
      [this, th, closure, args = std::move(args)]() mutable {
        thread_entry(th, closure, std::move(args));
      });
  os_thread.detach();
  return Value(std::move(handle));
}

void Vm::thread_entry(std::shared_ptr<InterpThread> th,
                      std::shared_ptr<Closure> closure,
                      std::vector<Value> args) {
  gil_.acquire(th->id());
  if (trace_armed(*th)) {
    fire_trace(*th, TraceKind::kThreadStart, closure->proto->line);
  }
  th->stack.push_back(Value(closure));
  for (Value& arg : args) th->stack.push_back(std::move(arg));
  auto push_err = push_frame(*th, closure, static_cast<int>(args.size()));

  std::variant<Value, VmError> outcome;
  if (push_err) {
    outcome = std::move(*push_err);
  } else {
    outcome = interpret(*th, 1);
  }
  if (trace_armed(*th)) {
    fire_trace(*th, TraceKind::kThreadEnd, 0);
  }
  gil_.release();

  // From here on the thread touches only `th` (shared): once mark_done
  // publishes, the joiner may finish the program and destroy this Vm
  // while this (detached) thread is still unwinding.
  unregister_thread(*th);
  if (std::holds_alternative<Value>(outcome)) {
    th->mark_done(std::get<Value>(std::move(outcome)));
  } else {
    VmError err = std::get<VmError>(std::move(outcome));
    if (err.kind == VmErrorKind::kRuntime) {
      DLOG_DEBUG("vm") << "thread " << th->id()
                       << " died with: " << err.message;
    }
    th->mark_failed(std::move(err));
  }
}

void Vm::unregister_thread(InterpThread& th) {
  std::unique_lock lock(sched_mutex_);
  retired_statements_ += th.stmt_count;
  th.state = ThreadState::kDead;
  threads_.erase(th.id());
  // A thread's death can complete a deadlock (its peers may all be
  // blocked waiting on something only it could have provided).
  check_deadlock_locked(lock);
}

std::shared_ptr<InterpThread> Vm::find_thread(std::int64_t tid) {
  std::scoped_lock lock(sched_mutex_);
  auto it = threads_.find(tid);
  return it == threads_.end() ? nullptr : it->second;
}

int Vm::live_thread_count() {
  std::scoped_lock lock(sched_mutex_);
  int count = 0;
  for (const auto& [id, th] : threads_) {
    if (th->state != ThreadState::kDead) ++count;
  }
  return count;
}

// ------------------------------------------------------------- inspection

std::vector<ThreadInfo> Vm::list_threads() {
  GilHold gil(gil_);
  std::scoped_lock lock(sched_mutex_);
  std::vector<ThreadInfo> out;
  out.reserve(threads_.size());
  for (const auto& [id, th] : threads_) {
    ThreadInfo info;
    info.id = th->id();
    info.name = th->name();
    info.state = th->state;
    info.block_note = th->block_note;
    info.frame_depth = static_cast<int>(th->frames.size());
    if (!th->frames.empty()) {
      const InterpThread::Frame& fr = th->frames.back();
      info.file = fr.closure->proto->file;
      info.line = fr.line;
    }
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadInfo& a, const ThreadInfo& b) { return a.id < b.id; });
  return out;
}

std::vector<FrameInfo> Vm::thread_frames(std::int64_t tid) {
  GilHold gil(gil_);
  std::shared_ptr<InterpThread> th;
  {
    std::scoped_lock lock(sched_mutex_);
    auto it = threads_.find(tid);
    if (it == threads_.end()) return {};
    th = it->second;
  }
  std::vector<FrameInfo> out;
  for (size_t i = th->frames.size(); i-- > 0;) {
    const InterpThread::Frame& fr = th->frames[i];
    const FunctionProto& proto = *fr.closure->proto;
    out.push_back(FrameInfo{
        proto.name.empty() ? "<lambda>" : proto.name, proto.file, fr.line});
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Vm::frame_locals(
    std::int64_t tid, int depth) {
  GilHold gil(gil_);
  std::shared_ptr<InterpThread> th;
  {
    std::scoped_lock lock(sched_mutex_);
    auto it = threads_.find(tid);
    if (it == threads_.end()) return {};
    th = it->second;
  }
  if (depth < 0 || static_cast<size_t>(depth) >= th->frames.size()) return {};
  const InterpThread::Frame& fr =
      th->frames[th->frames.size() - 1 - static_cast<size_t>(depth)];
  const FunctionProto& proto = *fr.closure->proto;
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = 0; i < proto.local_names.size(); ++i) {
    const std::string& name = proto.local_names[i];
    if (!name.empty() && name[0] == '$') continue;  // hidden iterator slots
    if (fr.base + i >= th->stack.size()) break;
    out.emplace_back(name, th->stack[fr.base + i].repr());
  }
  // Captured variables are part of the visible scope too.
  for (size_t i = 0; i < proto.capture_names.size(); ++i) {
    out.emplace_back(proto.capture_names[i], fr.closure->captures[i].repr());
  }
  return out;
}

Result<std::string> Vm::eval_in_frame(std::int64_t tid, int depth,
                                      const std::string& expression) {
  if (expression.find('\n') != std::string::npos) {
    return Error(ErrorCode::kInvalidArgument,
                 "eval takes a single expression");
  }
  GilHold gil(gil_);  // target thread cannot be mid-statement under us

  std::shared_ptr<InterpThread> target;
  {
    std::scoped_lock lock(sched_mutex_);
    auto it = threads_.find(tid);
    if (it == threads_.end()) {
      return Error(ErrorCode::kNotFound,
                   "no such thread: " + std::to_string(tid));
    }
    target = it->second;
  }
  if (depth < 0 || static_cast<size_t>(depth) >= target->frames.size()) {
    return Error(ErrorCode::kInvalidArgument, "no such frame");
  }
  const InterpThread::Frame& fr =
      target->frames[target->frames.size() - 1 - static_cast<size_t>(depth)];
  const FunctionProto& proto = *fr.closure->proto;

  // Compile `fn __eval(<frame names>) return (<expr>) end`; the frame's
  // locals and captures become parameters (by value — heap objects
  // still alias), anything else resolves as a global at run time.
  std::vector<std::string> names;
  std::vector<Value> values;
  for (size_t i = 0; i < proto.local_names.size(); ++i) {
    const std::string& name = proto.local_names[i];
    if (name.empty() || name[0] == '$') continue;  // hidden iterator slots
    if (fr.base + i >= target->stack.size()) break;
    names.push_back(name);
    values.push_back(target->stack[fr.base + i]);
  }
  for (size_t i = 0; i < proto.capture_names.size(); ++i) {
    names.push_back(proto.capture_names[i]);
    values.push_back(fr.closure->captures[i]);
  }
  std::string source = "fn __eval(" + strings::join(names, ", ") +
                       ")\n  return (" + expression + ")\nend";
  auto compiled = compile_source(source, "<eval>");
  if (!compiled.is_ok()) return compiled.error();

  // Debugger evals run from inside the trace callback, where fork()
  // would re-enter the handler stack mid-trace. ForkLint flags (but
  // does not block) expressions that can reach fork — §5.4's "no fork
  // in a hook" rule, checked statically before the expression runs.
  {
    std::shared_ptr<const FunctionProto> program = current_program();
    analysis::Report eval_report =
        analysis::forklint_eval(*compiled.value(), program.get());
    for (analysis::Finding& finding : eval_report.findings) {
      analysis::Engine::instance().add_forklint_finding(std::move(finding));
    }
  }

  std::shared_ptr<Closure> eval_closure;
  for (const Value& constant : compiled.value()->chunk.constants()) {
    if (constant.is_closure()) {
      eval_closure = std::make_shared<Closure>(*constant.as_closure());
    }
  }
  DIONEA_CHECK(eval_closure != nullptr, "eval closure missing");

  // Run it on an ephemeral interpreter thread. It executes under the
  // GIL we already hold; any blocking it performs releases/reacquires
  // that hold in a balanced way.
  std::shared_ptr<InterpThread> eval_th;
  {
    std::scoped_lock lock(sched_mutex_);
    std::int64_t id = ++next_thread_id_;
    eval_th = std::make_shared<InterpThread>(
        id, strings::format("eval-%lld", static_cast<long long>(id)));
    eval_th->suppress_trace = true;
    threads_[id] = eval_th;
  }
  eval_th->stack.push_back(Value(eval_closure));
  for (Value& value : values) eval_th->stack.push_back(value);
  auto push_err =
      push_frame(*eval_th, eval_closure, static_cast<int>(values.size()));
  std::variant<Value, VmError> outcome;
  if (push_err) {
    outcome = std::move(*push_err);
  } else {
    outcome = interpret(*eval_th, 1);
  }
  {
    std::scoped_lock lock(sched_mutex_);
    retired_statements_ += eval_th->stmt_count;
    eval_th->state = ThreadState::kDead;
    threads_.erase(eval_th->id());
  }
  // The eval proto is ephemeral; drop its cache entry (under the GIL we
  // still hold) so repeated evals don't accumulate dead caches.
  code_caches_.erase(eval_closure->proto.get());
  if (std::holds_alternative<VmError>(outcome)) {
    const VmError& err = std::get<VmError>(outcome);
    return Error(ErrorCode::kInvalidArgument, err.message);
  }
  return std::get<Value>(outcome).repr();
}

std::vector<std::pair<std::string, std::string>> Vm::globals_snapshot() {
  GilHold gil(gil_);
  std::vector<std::pair<std::string, std::string>> out;
  for (const GlobalSlot& slot : global_slots_) {
    if (slot.value.is_native()) continue;  // builtins would drown the view
    out.emplace_back(slot.name, slot.value.repr());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------------ fork

int Vm::add_fork_handlers(ForkHooks hooks) {
  fork_hooks_.push_back(std::move(hooks));
  return static_cast<int>(fork_hooks_.size() - 1);
}

void Vm::internal_fork_prepare(InterpThread& th) {
  auto& audit = analysis::forkaudit::Registry::instance();
  fork_sched_lock_ = std::unique_lock(sched_mutex_);
  fork_done_lock_ = std::unique_lock(th.done_mutex);
  fork_park_lock_ = std::unique_lock(th.park_mutex);
  audit.note_prepare("vm.scheduler");
  // Pin every live sync object, in registration order (a total order,
  // so this cannot deadlock against another fork — forks are serialized
  // by the GIL anyway).
  fork_pinned_.clear();
  std::vector<std::weak_ptr<SyncObject>> still_alive;
  for (auto& weak : sync_objects_) {
    if (auto obj = weak.lock()) {
      fork_pinned_.push_back(obj);
      still_alive.push_back(weak);
    }
  }
  sync_objects_ = std::move(still_alive);  // drop expired entries
  for (auto& obj : fork_pinned_) obj->lock_for_fork();
  audit.note_prepare("vm.sync_objects");
  gil_.prepare_fork();
  audit.note_prepare("vm.gil");
  // Pinned last / released first: both engine mutexes are leaves.
  analysis::Engine::instance().prepare_fork();
  replay::Engine::instance().prepare_fork();
  audit.note_prepare("replay.engine");
}

void Vm::internal_fork_parent() {
  auto& audit = analysis::forkaudit::Registry::instance();
  replay::Engine::instance().parent_atfork();
  audit.note_parent("replay.engine");
  analysis::Engine::instance().parent_atfork();
  gil_.parent_atfork();
  audit.note_parent("vm.gil");
  for (size_t i = fork_pinned_.size(); i-- > 0;) {
    fork_pinned_[i]->unlock_after_fork();
  }
  fork_pinned_.clear();
  audit.note_parent("vm.sync_objects");
  fork_park_lock_.unlock();
  fork_park_lock_ = {};
  fork_done_lock_.unlock();
  fork_done_lock_ = {};
  fork_sched_lock_.unlock();
  fork_sched_lock_ = {};
  audit.note_parent("vm.scheduler");
}

void Vm::internal_fork_child(InterpThread& th) {
  forked_child_ = true;
  ++fork_depth_;
  auto& audit = analysis::forkaudit::Registry::instance();
  // The replay engine's child handler ran in fork_now/fork_checkpoint,
  // immediately before this one.
  audit.note_child("replay.engine");
  analysis::Engine::instance().child_atfork();
  gil_.child_atfork(th.id());
  audit.note_child("vm.gil");
  for (auto& obj : fork_pinned_) obj->reinit_in_child(th.id());
  fork_pinned_.clear();
  audit.note_child("vm.sync_objects");

  // Listing 1/2 analog: only the forking thread survives. The other
  // InterpThread objects are parked in a graveyard instead of being
  // destroyed — their mutexes/cvs may hold state from threads that
  // existed only in the parent, and destroying such primitives is UB.
  auto self = threads_.at(th.id());
  for (auto& [id, dead] : threads_) {
    if (dead.get() == &th) continue;
    dead->state = ThreadState::kDead;
    fork_graveyard_.push_back(dead);
  }
  threads_.clear();
  threads_[th.id()] = self;
  main_thread_id_.store(th.id(), std::memory_order_relaxed);
  th.state = ThreadState::kRunnable;
  th.interrupt.store(InterruptReason::kNone, std::memory_order_relaxed);
  deadlock_reported_ = false;

  // Code-cache repair (the box64 001/004 failure modes): sibling
  // threads may have been mid-execution at the fork instant, so the
  // inherited cache state cannot be trusted.
  //
  //   004 — drop every trained IC target and bump the quicken
  //   generation; each quickened trace-line site resyncs its gate
  //   snapshot on its next statement instead of running on state
  //   half-written by a thread that no longer exists here.
  //
  //   001 — recompute every in_use counter from the surviving
  //   thread's real frames instead of trusting counts contributed by
  //   parent-only threads, which would pin dead caches forever.
  bump_quicken_generation();
  for (auto& [proto, cache] : code_caches_) cache->reset_ics();
  (void)repair_cache_pins();
  audit.note_child("vm.code_cache");

  // We locked these ourselves in prepare; same thread, so plain
  // unlocks are well-defined in the child.
  fork_park_lock_.unlock();
  fork_park_lock_ = {};
  fork_done_lock_.unlock();
  fork_done_lock_ = {};
  fork_sched_lock_.unlock();
  fork_sched_lock_ = {};
  audit.note_child("vm.scheduler");
}

Result<int> Vm::fork_now(InterpThread& th) {
  DIONEA_CHECK(gil_.held_by(th.id()), "fork_now requires the GIL");
  // Logged (or matched against the log) while the GIL still serializes
  // us — the child id is what names the child's own replay log.
  replay::Engine& rep = replay::Engine::instance();
  const std::uint64_t logical = rep.on_fork(th.id());
  // Flush stdio so the child doesn't inherit (and later re-emit)
  // buffered output written before the fork.
  std::fflush(nullptr);
  // pthread_atfork ordering: prepare handlers run newest-first, the
  // VM's own (implicitly oldest) last; parent/child run oldest-first.
  for (size_t i = fork_hooks_.size(); i-- > 0;) {
    if (fork_hooks_[i].prepare) fork_hooks_[i].prepare(*this);
  }
  internal_fork_prepare(th);

  pid_t pid = ::fork();
  if (pid < 0) {
    int saved = errno;
    internal_fork_parent();
    for (auto& hooks : fork_hooks_) {
      if (hooks.parent) hooks.parent(*this, -1);
    }
    return errno_error("fork", saved);
  }
  if (pid == 0) {
    rep.child_atfork(logical);
    internal_fork_child(th);
    for (auto& hooks : fork_hooks_) {
      if (hooks.child) hooks.child(*this, 0);
    }
    return 0;
  }
  internal_fork_parent();
  rep.record_fork_pid(th.id(), static_cast<int>(pid));
  for (auto& hooks : fork_hooks_) {
    if (hooks.parent) hooks.parent(*this, static_cast<int>(pid));
  }
  return static_cast<int>(pid);
}

Result<int> Vm::fork_checkpoint(InterpThread& th) {
  DIONEA_CHECK(gil_.held_by(th.id()), "fork_checkpoint requires the GIL");
  replay::Engine& rep = replay::Engine::instance();
  std::fflush(nullptr);
  for (size_t i = fork_hooks_.size(); i-- > 0;) {
    if (fork_hooks_[i].prepare) fork_hooks_[i].prepare(*this);
  }
  internal_fork_prepare(th);

  pid_t pid = ::fork();
  if (pid < 0) {
    int saved = errno;
    internal_fork_parent();
    for (auto& hooks : fork_hooks_) {
      if (hooks.parent) hooks.parent(*this, -1);
    }
    return errno_error("fork", saved);
  }
  if (pid == 0) {
    // Snapshot child: same replay log, same cursor — NOT a member of
    // the recorded fork tree (no kFork event was consumed or logged).
    rep.checkpoint_child_atfork();
    internal_fork_child(th);
    for (auto& hooks : fork_hooks_) {
      if (hooks.child) hooks.child(*this, 0);
    }
    return 0;
  }
  internal_fork_parent();
  for (auto& hooks : fork_hooks_) {
    if (hooks.parent) hooks.parent(*this, static_cast<int>(pid));
  }
  return static_cast<int>(pid);
}

// --------------------------------------------------- boundary hook (tt)

void Vm::set_boundary_hook(std::function<void(Vm&, InterpThread&)> hook) {
  std::scoped_lock lock(boundary_mutex_);
  boundary_hook_ = std::move(hook);
  boundary_armed_.store(static_cast<bool>(boundary_hook_),
                        std::memory_order_release);
}

void Vm::run_boundary_hook(InterpThread& th) {
  std::function<void(Vm&, InterpThread&)> hook;
  {
    std::scoped_lock lock(boundary_mutex_);
    hook = boundary_hook_;
  }
  // Invoked without boundary_mutex_: the hook may fork (taking every
  // fork-pinned lock) or park this thread indefinitely.
  if (hook) hook(*this, th);
}

// ------------------------------------------------------------------- run

RunResult Vm::run_source(std::string_view source, const std::string& file) {
  auto proto = compile_source(source, file);
  if (!proto.is_ok()) {
    RunResult result;
    result.ok = false;
    result.error.kind = VmErrorKind::kRuntime;
    result.error.message = proto.error().message();
    return result;
  }
  return run_main(std::move(proto).value());
}

RunResult Vm::run_main(std::shared_ptr<const FunctionProto> proto) {
  {
    // Published for the debug server's `analysis-report` command (the
    // console `lint` verb re-lints the running program on demand).
    std::scoped_lock lock(program_mutex_);
    current_program_ = proto;
  }
  // Post-compile, pre-exec static lint (DIONEA_LINT=1): report and
  // continue — the lint predicts hazards, it does not block the run.
  const char* lint_env = std::getenv("DIONEA_LINT");
  if (lint_env != nullptr && lint_env[0] != '\0' &&
      std::string_view(lint_env) != "0") {
    analysis::Report lint = analysis::lint_program(*proto);
    for (const analysis::Finding& finding : lint.findings) {
      std::string text = "dionea-lint: " + finding.to_string() + "\n";
      std::fwrite(text.data(), 1, text.size(), stderr);
    }
    analysis::Engine::instance().set_lint_report(std::move(lint));
  }
  // ForkLint (DIONEA_FORKLINT=1): the fork-safety dataflow over the
  // compiled program plus the native atfork coverage audit. Like the
  // lint, report-and-continue.
  const char* forklint_env = std::getenv("DIONEA_FORKLINT");
  if (forklint_env != nullptr && forklint_env[0] != '\0' &&
      std::string_view(forklint_env) != "0") {
    analysis::Report forklint = analysis::forklint_program(*proto);
    analysis::Report audit_report = analysis::forkaudit::audit(false);
    for (analysis::Finding& finding : audit_report.findings) {
      forklint.findings.push_back(std::move(finding));
    }
    forklint.dedupe();
    for (const analysis::Finding& finding : forklint.findings) {
      std::string text = "dionea-forklint: " + finding.to_string() + "\n";
      std::fwrite(text.data(), 1, text.size(), stderr);
    }
    analysis::Engine::instance().set_forklint_report(std::move(forklint));
  }
  auto main_th = std::make_shared<InterpThread>(1, "main");
  {
    std::scoped_lock lock(sched_mutex_);
    DIONEA_CHECK(threads_.empty(), "run_main on a VM that is already running");
    threads_[1] = main_th;
    if (next_thread_id_ < 1) next_thread_id_ = 1;
  }
  auto closure = std::make_shared<Closure>(Closure{proto, {}});

  gil_.acquire(1);
  if (trace_armed(*main_th)) {
    fire_trace(*main_th, TraceKind::kThreadStart, 0);
  }
  main_th->stack.push_back(Value(closure));
  auto push_err = push_frame(*main_th, closure, 0);
  std::variant<Value, VmError> outcome;
  if (push_err) {
    outcome = std::move(*push_err);
  } else {
    outcome = interpret(*main_th, 1);
  }
  if (trace_armed(*main_th)) {
    fire_trace(*main_th, TraceKind::kThreadEnd, 0);
  }
  gil_.release();

  unregister_thread(*main_th);
  shutdown_threads();

  RunResult result;
  if (std::holds_alternative<Value>(outcome)) {
    result.ok = true;
    result.value = std::get<Value>(std::move(outcome));
    main_th->mark_done(result.value);
    if (exit_pending_.load(std::memory_order_relaxed)) {
      result.exited = true;
      result.exit_code = exit_code_.load(std::memory_order_relaxed);
    }
    return result;
  }
  VmError err = std::get<VmError>(std::move(outcome));
  main_th->mark_failed(err);
  if (err.kind == VmErrorKind::kExit ||
      (err.kind == VmErrorKind::kThreadKill &&
       exit_pending_.load(std::memory_order_relaxed))) {
    result.ok = true;
    result.exited = true;
    result.exit_code = err.kind == VmErrorKind::kExit
                           ? err.exit_code
                           : exit_code_.load(std::memory_order_relaxed);
    return result;
  }
  result.ok = false;
  result.error = std::move(err);
  return result;
}

void Vm::shutdown_threads() {
  // Ruby semantics: when the main thread exits, remaining threads are
  // killed at their next safepoint / interruptible wait.
  Stopwatch watch;
  bool warned = false;
  while (true) {
    {
      std::scoped_lock lock(sched_mutex_);
      bool any = false;
      for (auto& [id, th] : threads_) {
        if (th->state == ThreadState::kDead) continue;
        any = true;
        th->interrupt.store(InterruptReason::kKill,
                            std::memory_order_relaxed);
        th->park_cv.notify_all();
      }
      if (!any) return;
    }
    if (watch.elapsed_seconds() > 30.0 && !warned) {
      warned = true;
      DLOG_ERROR("vm") << "threads did not exit within 30s of shutdown";
    }
    sleep_for_millis(5);  // sleep-ok: shutdown polls for thread exits
  }
}

}  // namespace dionea::vm
