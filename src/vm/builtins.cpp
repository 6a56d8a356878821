#include "vm/builtins.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "analysis/analysis.hpp"
#include "replay/replay.hpp"
#include "support/child_wait.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"
#include "support/timing.hpp"
#include "support/trace_export.hpp"
#include "vm/sync.hpp"
#include "vm/vm.hpp"

namespace dionea::vm {
namespace {

VmError type_error(Vm& vm, InterpThread& th, const char* fn,
                   const char* expected, const Value& got) {
  return vm.runtime_error(
      th, strings::format("%s: expected %s, got %s", fn, expected,
                          got.type_name()));
}

VmError err_from_interrupt(Vm& vm, InterpThread& th) {
  if (th.interrupt.load(std::memory_order_relaxed) ==
      InterruptReason::kDeadlock) {
    return vm.runtime_error(th, "deadlock detected (fatal)",
                            VmErrorKind::kFatalDeadlock);
  }
  return vm.runtime_error(th, "killed", VmErrorKind::kThreadKill);
}

VmError outcome_error(Vm& vm, InterpThread& th, const char* what,
                      WaitOutcome outcome) {
  switch (outcome) {
    case WaitOutcome::kInterrupted:
      return err_from_interrupt(vm, th);
    case WaitOutcome::kNotOwner:
      return vm.runtime_error(
          th, strings::format("%s: mutex not owned by current thread", what));
    case WaitOutcome::kRecursive:
      return vm.runtime_error(
          th, strings::format("%s: deadlock; recursive locking", what));
    case WaitOutcome::kOk:
      break;
  }
  return vm.runtime_error(th, "internal: outcome_error on kOk");
}

// ------------------------------------------------------------- IO / misc

void install_io(Vm& vm) {
  vm.define_native("puts", 0, -1,
                   [](Vm& v, InterpThread&, std::vector<Value>& args)
                       -> NativeResult {
                     if (args.empty()) {
                       v.write_output("\n");
                       return Value();
                     }
                     std::string out;
                     for (const Value& arg : args) {
                       out += arg.to_display();
                       out += '\n';
                     }
                     v.write_output(out);
                     return Value();
                   });

  vm.define_native("print", 0, -1,
                   [](Vm& v, InterpThread&, std::vector<Value>& args)
                       -> NativeResult {
                     std::string out;
                     for (const Value& arg : args) out += arg.to_display();
                     v.write_output(out);
                     return Value();
                   });

  // clock() and rand() are the two nondeterministic *values* (as
  // opposed to schedules) MiniLang exposes; both round-trip through
  // the replay log so a replayed run computes with the recorded
  // values, not fresh ones.
  vm.define_native(
      "clock", 0, 0,
      [](Vm&, InterpThread& th, std::vector<Value>&) -> NativeResult {
        replay::Engine& rep = replay::Engine::instance();
        if (rep.replaying()) {
          std::uint64_t bits = 0;
          if (rep.await_turn(replay::EventKind::kClock, th.id(), 0, &bits)) {
            double seconds;
            static_assert(sizeof(seconds) == sizeof(bits));
            std::memcpy(&seconds, &bits, sizeof(seconds));
            return Value(seconds);
          }
        }
        double seconds = mono_seconds();
        std::uint64_t bits;
        std::memcpy(&bits, &seconds, sizeof(bits));
        rep.record(replay::EventKind::kClock, th.id(), 0, bits);
        return Value(seconds);
      });

  // rand() -> double in [0, 1); rand(n) -> int in [0, n).
  vm.define_native(
      "rand", 0, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args.empty() && (!args[0].is_int() || args[0].as_int() <= 0)) {
          return type_error(v, th, "rand", "positive int", args[0]);
        }
        replay::Engine& rep = replay::Engine::instance();
        std::uint64_t raw = 0;
        bool have_raw = false;
        if (rep.replaying()) {
          have_raw = rep.await_turn(replay::EventKind::kRand, th.id(), 0, &raw);
        }
        if (!have_raw) {
          static thread_local Rng rng(static_cast<std::uint64_t>(
              mono_nanos() ^ (static_cast<std::uint64_t>(th.id()) << 32)));
          raw = rng.next_u64();
          rep.record(replay::EventKind::kRand, th.id(), 0, raw);
        }
        if (args.empty()) {
          return Value(static_cast<double>(raw >> 11) * 0x1.0p-53);
        }
        return Value(static_cast<std::int64_t>(
            raw % static_cast<std::uint64_t>(args[0].as_int())));
      });

  vm.define_native(
      "assert", 1, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].truthy()) return Value(true);
        std::string msg = args.size() > 1 ? args[1].to_display()
                                          : "assertion failed";
        return v.runtime_error(th, "AssertionError: " + msg);
      });

  vm.define_native(
      "sleep", 0, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        bool forever = args.empty() || args[0].is_nil();
        double seconds = 0.0;
        if (!forever) {
          if (!args[0].is_number()) {
            return type_error(v, th, "sleep", "number", args[0]);
          }
          seconds = args[0].number();
        }
        double deadline = mono_seconds() + seconds;
        Vm::BlockScope scope(v, th,
                             forever ? ThreadState::kBlockedForever
                                     : ThreadState::kBlockedTimed,
                             "sleep");
        bool ok = v.wait_interruptible(
            th, th.park_mutex, th.park_cv,
            [&] { return !forever && mono_seconds() >= deadline; });
        if (!ok) return err_from_interrupt(v, th);
        return Value(static_cast<std::int64_t>(seconds));
      });

  vm.define_native("exit", 0, 1,
                   [](Vm& v, InterpThread& th, std::vector<Value>& args)
                       -> NativeResult {
                     int code = args.empty()
                                    ? 0
                                    : static_cast<int>(
                                          args[0].is_int() ? args[0].as_int()
                                                           : 0);
                     v.request_exit(code);
                     VmError err = v.runtime_error(th, "exit",
                                                   VmErrorKind::kExit);
                     err.exit_code = code;
                     return err;
                   });

  vm.define_native("getpid", 0, 0,
                   [](Vm&, InterpThread&, std::vector<Value>&)
                       -> NativeResult {
                     return Value(static_cast<std::int64_t>(::getpid()));
                   });
}

// ------------------------------------------------------------ conversion

void install_conversion(Vm& vm) {
  vm.define_native("to_s", 1, 1,
                   [](Vm&, InterpThread&, std::vector<Value>& args)
                       -> NativeResult {
                     return Value::str(args[0].to_display());
                   });

  vm.define_native("repr", 1, 1,
                   [](Vm&, InterpThread&, std::vector<Value>& args)
                       -> NativeResult { return Value::str(args[0].repr()); });

  vm.define_native("type", 1, 1,
                   [](Vm&, InterpThread&, std::vector<Value>& args)
                       -> NativeResult {
                     return Value::str(args[0].type_name());
                   });

  vm.define_native(
      "to_i", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        const Value& x = args[0];
        if (x.is_int()) return x;
        if (x.is_float()) {
          return Value(static_cast<std::int64_t>(x.as_float()));
        }
        if (x.is_bool()) return Value(std::int64_t{x.as_bool() ? 1 : 0});
        if (x.is_str()) {
          std::int64_t out = 0;
          if (!strings::parse_int(strings::trim(x.as_str()), &out)) {
            return v.runtime_error(th, "to_i: cannot parse \"" +
                                           strings::escape(x.as_str()) + "\"");
          }
          return Value(out);
        }
        return type_error(v, th, "to_i", "number or string", x);
      });

  vm.define_native(
      "to_f", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        const Value& x = args[0];
        if (x.is_float()) return x;
        if (x.is_int()) return Value(static_cast<double>(x.as_int()));
        if (x.is_str()) {
          double out = 0;
          if (!strings::parse_double(strings::trim(x.as_str()), &out)) {
            return v.runtime_error(th, "to_f: cannot parse string");
          }
          return Value(out);
        }
        return type_error(v, th, "to_f", "number or string", x);
      });
}

// ------------------------------------------------------------ collections

void install_collections(Vm& vm) {
  vm.define_native(
      "len", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        const Value& x = args[0];
        if (x.is_str()) return Value(static_cast<std::int64_t>(x.as_str().size()));
        if (x.is_list()) {
          return Value(static_cast<std::int64_t>(x.as_list()->items.size()));
        }
        if (x.is_map()) {
          return Value(static_cast<std::int64_t>(x.as_map()->items.size()));
        }
        if (x.kind() == ValueKind::kQueue) {
          return Value(static_cast<std::int64_t>(x.as_queue()->size()));
        }
        return type_error(v, th, "len", "str, list, map or queue", x);
      });

  vm.define_native(
      "push", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        Value& target = args[0];
        if (target.is_list()) {
          target.as_list()->items.push_back(args[1]);
          return target;
        }
        if (target.kind() == ValueKind::kQueue) {
          auto queue = target.as_queue();
          if (queue->closed()) {
            if (analysis::engine_enabled() && !th.frames.empty()) {
              analysis::Finding finding;
              finding.kind = analysis::FindingKind::kClosedQueue;
              finding.message = "push on a closed queue";
              finding.file = th.frames.back().closure->proto->file;
              finding.line = th.frames.back().line;
              finding.object =
                  strings::format("queue#%llu", static_cast<unsigned long long>(
                                                    queue->replay_id()));
              analysis::Engine::instance().add_finding(std::move(finding));
            }
            return v.runtime_error(th, "push on closed queue");
          }
          if (analysis::engine_enabled()) {
            // push->pop is a happens-before edge (channel semantics).
            // Publish the producer's clock BEFORE the element becomes
            // visible: a blocked consumer's wait predicate pops inside
            // the queue's notify, with the GIL released, so a
            // publish-after-push loses the edge on some schedules.
            analysis::Engine::instance().on_queue_push(th.id(),
                                                       queue->replay_id());
          }
          queue->push(args[1]);
          return target;
        }
        return type_error(v, th, "push", "list or queue", target);
      });

  vm.define_native(
      "pop", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        Value& target = args[0];
        if (target.is_list()) {
          auto& items = target.as_list()->items;
          if (items.empty()) {
            return v.runtime_error(th, "pop from empty list");
          }
          Value out = std::move(items.back());
          items.pop_back();
          return out;
        }
        if (target.kind() == ValueKind::kQueue) {
          Value out;
          WaitOutcome outcome = target.as_queue()->pop(v, th, &out);
          if (outcome != WaitOutcome::kOk) {
            return outcome_error(v, th, "Queue#pop", outcome);
          }
          return out;
        }
        return type_error(v, th, "pop", "list or queue", target);
      });

  vm.define_native(
      "try_pop", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kQueue) {
          return type_error(v, th, "try_pop", "queue", args[0]);
        }
        auto queue = args[0].as_queue();
        replay::Engine& rep = replay::Engine::instance();
        if (rep.replaying()) {
          // Whether the try saw an item is itself a race outcome; the
          // recorded verdict (payload) overrides what the live queue
          // happens to hold right now.
          std::uint64_t took = 0;
          if (rep.await_turn(replay::EventKind::kQueueTryPop, th.id(),
                             queue->replay_id(), &took)) {
            Value out;
            if (took == 0 || !queue->try_pop(&out)) return Value();
            return out;
          }
        }
        Value out;
        bool took = queue->try_pop(&out);
        rep.record(replay::EventKind::kQueueTryPop, th.id(),
                   queue->replay_id(), took ? 1 : 0);
        if (!took) return Value();
        return out;
      });

  vm.define_native(
      "range", 1, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_int() || (args.size() > 1 && !args[1].is_int())) {
          return type_error(v, th, "range", "int", args[0]);
        }
        std::int64_t lo = args.size() > 1 ? args[0].as_int() : 0;
        std::int64_t hi = args.size() > 1 ? args[1].as_int() : args[0].as_int();
        auto list = std::make_shared<List>();
        for (std::int64_t i = lo; i < hi; ++i) list->items.push_back(Value(i));
        return Value(std::move(list));
      });

  vm.define_native(
      "sort", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_list()) return type_error(v, th, "sort", "list", args[0]);
        auto out = std::make_shared<List>();
        out->items = args[0].as_list()->items;
        bool type_ok = true;
        std::stable_sort(out->items.begin(), out->items.end(),
                         [&](const Value& a, const Value& b) {
                           if (a.is_number() && b.is_number()) {
                             return a.number() < b.number();
                           }
                           if (a.is_str() && b.is_str()) {
                             return a.as_str() < b.as_str();
                           }
                           type_ok = false;
                           return false;
                         });
        if (!type_ok) {
          return v.runtime_error(th, "sort: elements must be all numbers or "
                                     "all strings");
        }
        return Value(std::move(out));
      });

  vm.define_native(
      "contains", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        const Value& coll = args[0];
        if (coll.is_list()) {
          for (const Value& item : coll.as_list()->items) {
            if (item.equals(args[1])) return Value(true);
          }
          return Value(false);
        }
        if (coll.is_map()) {
          if (!args[1].is_str()) return Value(false);
          return Value(coll.as_map()->items.count(args[1].as_str()) > 0);
        }
        if (coll.is_str() && args[1].is_str()) {
          return Value(coll.as_str().find(args[1].as_str()) !=
                       std::string::npos);
        }
        return type_error(v, th, "contains", "list, map or str", coll);
      });

  vm.define_native(
      "keys", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_map()) return type_error(v, th, "keys", "map", args[0]);
        auto out = std::make_shared<List>();
        for (const auto& [key, unused] : args[0].as_map()->items) {
          out->items.push_back(Value::str(key));
        }
        return Value(std::move(out));
      });

  vm.define_native(
      "get", 2, 3,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_map() || !args[1].is_str()) {
          return type_error(v, th, "get", "map and string key", args[0]);
        }
        const auto& items = args[0].as_map()->items;
        auto it = items.find(args[1].as_str());
        if (it != items.end()) return it->second;
        return args.size() > 2 ? args[2] : Value();
      });

  vm.define_native(
      "delete", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_map() || !args[1].is_str()) {
          return type_error(v, th, "delete", "map and string key", args[0]);
        }
        auto& items = args[0].as_map()->items;
        auto it = items.find(args[1].as_str());
        if (it == items.end()) return Value();
        Value out = std::move(it->second);
        items.erase(it);
        return out;
      });

  vm.define_native(
      "min", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_number() || !args[1].is_number()) {
          return type_error(v, th, "min", "numbers", args[0]);
        }
        return args[0].number() <= args[1].number() ? args[0] : args[1];
      });
  vm.define_native(
      "max", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_number() || !args[1].is_number()) {
          return type_error(v, th, "max", "numbers", args[0]);
        }
        return args[0].number() >= args[1].number() ? args[0] : args[1];
      });
  vm.define_native(
      "abs", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].is_int()) {
          std::int64_t x = args[0].as_int();
          return Value(x < 0 ? -x : x);
        }
        if (args[0].is_float()) {
          double x = args[0].as_float();
          return Value(x < 0 ? -x : x);
        }
        return type_error(v, th, "abs", "number", args[0]);
      });
}

// ---------------------------------------------------------------- strings

void install_strings(Vm& vm) {
  vm.define_native(
      "split", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str() || !args[1].is_str() || args[1].as_str().empty()) {
          return type_error(v, th, "split", "string and non-empty separator",
                            args[0]);
        }
        auto out = std::make_shared<List>();
        const std::string& s = args[0].as_str();
        const std::string& sep = args[1].as_str();
        size_t start = 0;
        while (true) {
          size_t pos = s.find(sep, start);
          if (pos == std::string::npos) {
            out->items.push_back(Value::str(s.substr(start)));
            break;
          }
          out->items.push_back(Value::str(s.substr(start, pos - start)));
          start = pos + sep.size();
        }
        return Value(std::move(out));
      });

  vm.define_native(
      "words", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str()) return type_error(v, th, "words", "str", args[0]);
        auto out = std::make_shared<List>();
        for (std::string& word : strings::split_whitespace(args[0].as_str())) {
          out->items.push_back(Value::str(std::move(word)));
        }
        return Value(std::move(out));
      });

  vm.define_native(
      "lower", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str()) return type_error(v, th, "lower", "str", args[0]);
        return Value::str(strings::to_lower(args[0].as_str()));
      });

  vm.define_native(
      "upper", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str()) return type_error(v, th, "upper", "str", args[0]);
        std::string out(args[0].as_str());
        for (char& c : out) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        return Value::str(std::move(out));
      });

  vm.define_native(
      "is_alpha", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str()) {
          return type_error(v, th, "is_alpha", "str", args[0]);
        }
        return Value(strings::is_alpha_word(args[0].as_str()));
      });

  vm.define_native(
      "slice", 2, 3,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[1].is_int() || (args.size() > 2 && !args[2].is_int())) {
          return type_error(v, th, "slice", "int bounds", args[1]);
        }
        std::int64_t start = args[1].as_int();
        if (args[0].is_str()) {
          const std::string& s = args[0].as_str();
          std::int64_t n = static_cast<std::int64_t>(s.size());
          std::int64_t end = args.size() > 2 ? args[2].as_int() : n;
          if (start < 0) start += n;
          if (end < 0) end += n;
          start = std::clamp<std::int64_t>(start, 0, n);
          end = std::clamp<std::int64_t>(end, start, n);
          return Value::str(s.substr(static_cast<size_t>(start),
                                     static_cast<size_t>(end - start)));
        }
        if (args[0].is_list()) {
          const auto& items = args[0].as_list()->items;
          std::int64_t n = static_cast<std::int64_t>(items.size());
          std::int64_t end = args.size() > 2 ? args[2].as_int() : n;
          if (start < 0) start += n;
          if (end < 0) end += n;
          start = std::clamp<std::int64_t>(start, 0, n);
          end = std::clamp<std::int64_t>(end, start, n);
          auto out = std::make_shared<List>();
          out->items.assign(items.begin() + start, items.begin() + end);
          return Value(std::move(out));
        }
        return type_error(v, th, "slice", "str or list", args[0]);
      });
}

// ------------------------------------------------------------ threads/sync

void install_threads(Vm& vm) {
  vm.define_native(
      "spawn", 1, -1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        Value callee = args[0];
        std::vector<Value> call_args(args.begin() + 1, args.end());
        auto outcome = v.spawn_thread(th, std::move(callee),
                                      std::move(call_args));
        if (std::holds_alternative<VmError>(outcome)) {
          return std::get<VmError>(std::move(outcome));
        }
        return std::get<Value>(std::move(outcome));
      });

  vm.define_native(
      "join", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kThread) {
          return type_error(v, th, "join", "thread", args[0]);
        }
        auto target = args[0].as_thread()->thread;
        if (!target) return Value();  // handle crossed a pickle boundary
        if (target->id() == th.id()) {
          return v.runtime_error(th, "join: target thread must not be "
                                     "current thread");
        }
        // Whether the target is already dead here is a race against its
        // GIL-free exit epilogue — the one scheduling decision the GIL
        // grant order does not pin down, so it is recorded explicitly.
        replay::Engine& rep = replay::Engine::instance();
        bool was_done = target->is_done();
        if (rep.replaying()) {
          std::uint64_t done = 0;
          if (rep.await_turn(replay::EventKind::kThreadDone, th.id(),
                             static_cast<std::uint64_t>(target->id()),
                             &done)) {
            if (done != 0 && !was_done) {
              // Recorded as already-dead: the target consumed its last
              // recorded event (its events precede this one in the
              // log), so its epilogue finishes without the GIL — wait
              // for the flag to catch up instead of blocking.
              std::unique_lock lk(target->done_mutex);
              target->done_cv.wait(lk, [&] { return target->done; });
            }
            was_done = done != 0;
          }
        } else {
          rep.record(replay::EventKind::kThreadDone, th.id(),
                     static_cast<std::uint64_t>(target->id()),
                     was_done ? 1 : 0);
        }
        if (!was_done) {
          Vm::BlockScope scope(v, th, ThreadState::kBlockedForever,
                               "Thread#join");
          bool ok = v.wait_interruptible(
              th, target->done_mutex, target->done_cv,
              [&] { return target->done; });
          if (!ok) return err_from_interrupt(v, th);
        }
        if (analysis::engine_enabled()) {
          // join edge: everything the target did happens-before the
          // joiner's continuation.
          analysis::Engine::instance().on_thread_join(th.id(), target->id());
        }
        std::scoped_lock lock(target->done_mutex);
        if (target->has_error &&
            target->error.kind == VmErrorKind::kRuntime) {
          // Ruby: join re-raises the thread's exception in the joiner.
          return target->error;
        }
        return target->result;
      });

  vm.define_native("current_thread_id", 0, 0,
                   [](Vm&, InterpThread& th, std::vector<Value>&)
                       -> NativeResult { return Value(th.id()); });

  vm.define_native(
      "thread_id", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kThread) {
          return type_error(v, th, "thread_id", "thread", args[0]);
        }
        return Value(args[0].as_thread()->thread_id);
      });

  vm.define_native("mutex", 0, 0,
                   [](Vm& v, InterpThread&, std::vector<Value>&)
                       -> NativeResult {
                     auto m = std::make_shared<VmMutex>();
                     v.register_sync_object(m);
                     return Value(std::move(m));
                   });

  vm.define_native("queue", 0, 0,
                   [](Vm& v, InterpThread&, std::vector<Value>&)
                       -> NativeResult {
                     auto q = std::make_shared<VmQueue>();
                     v.register_sync_object(q);
                     return Value(std::move(q));
                   });

  vm.define_native("cond", 0, 0,
                   [](Vm& v, InterpThread&, std::vector<Value>&)
                       -> NativeResult {
                     auto c = std::make_shared<VmCond>();
                     v.register_sync_object(c);
                     return Value(std::move(c));
                   });

  vm.define_native(
      "lock", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kMutex) {
          return type_error(v, th, "lock", "mutex", args[0]);
        }
        WaitOutcome outcome = args[0].as_mutex()->lock(v, th);
        if (outcome != WaitOutcome::kOk) {
          return outcome_error(v, th, "Mutex#lock", outcome);
        }
        return args[0];
      });

  vm.define_native(
      "try_lock", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kMutex) {
          return type_error(v, th, "try_lock", "mutex", args[0]);
        }
        auto mutex = args[0].as_mutex();
        replay::Engine& rep = replay::Engine::instance();
        if (rep.replaying()) {
          std::uint64_t took = 0;
          if (rep.await_turn(replay::EventKind::kMutexTryLock, th.id(),
                             mutex->replay_id(), &took)) {
            return Value(took != 0 && mutex->try_lock(th.id()));
          }
        }
        bool took = mutex->try_lock(th.id());
        rep.record(replay::EventKind::kMutexTryLock, th.id(),
                   mutex->replay_id(), took ? 1 : 0);
        return Value(took);
      });

  vm.define_native(
      "unlock", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kMutex) {
          return type_error(v, th, "unlock", "mutex", args[0]);
        }
        WaitOutcome outcome = args[0].as_mutex()->unlock(th.id());
        if (outcome != WaitOutcome::kOk) {
          return outcome_error(v, th, "Mutex#unlock", outcome);
        }
        return args[0];
      });

  vm.define_native(
      "locked", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kMutex) {
          return type_error(v, th, "locked", "mutex", args[0]);
        }
        return Value(args[0].as_mutex()->locked());
      });

  vm.define_native(
      "synchronize", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kMutex) {
          return type_error(v, th, "synchronize", "mutex", args[0]);
        }
        auto& mutex = *args[0].as_mutex();
        WaitOutcome outcome = mutex.lock(v, th);
        if (outcome != WaitOutcome::kOk) {
          return outcome_error(v, th, "Mutex#synchronize", outcome);
        }
        auto result = v.call_value(th, args[1], {});
        (void)mutex.unlock(th.id());
        if (std::holds_alternative<VmError>(result)) {
          return std::get<VmError>(std::move(result));
        }
        return std::get<Value>(std::move(result));
      });

  vm.define_native(
      "num_waiting", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kQueue) {
          return type_error(v, th, "num_waiting", "queue", args[0]);
        }
        return Value(
            static_cast<std::int64_t>(args[0].as_queue()->num_waiting()));
      });

  vm.define_native(
      "wait", 2, 3,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kCond ||
            args[1].kind() != ValueKind::kMutex) {
          return type_error(v, th, "wait", "cond and mutex", args[0]);
        }
        if (args.size() == 3) {
          // wait(c, m, secs): true if signalled, false on timeout.
          if (!args[2].is_number()) {
            return type_error(v, th, "wait", "number of seconds", args[2]);
          }
          bool timed_out = false;
          WaitOutcome outcome = args[0].as_cond()->wait_for(
              v, th, *args[1].as_mutex(), args[2].number(), &timed_out);
          if (outcome != WaitOutcome::kOk) {
            return outcome_error(v, th, "Cond#wait", outcome);
          }
          return Value(!timed_out);
        }
        WaitOutcome outcome =
            args[0].as_cond()->wait(v, th, *args[1].as_mutex());
        if (outcome != WaitOutcome::kOk) {
          return outcome_error(v, th, "Cond#wait", outcome);
        }
        return Value();
      });

  vm.define_native(
      "signal", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kCond) {
          return type_error(v, th, "signal", "cond", args[0]);
        }
        if (analysis::engine_enabled()) {
          analysis::Engine::instance().on_cond_signal(
              th.id(), args[0].as_cond()->replay_id());
        }
        args[0].as_cond()->signal();
        return Value();
      });

  vm.define_native(
      "broadcast", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kCond) {
          return type_error(v, th, "broadcast", "cond", args[0]);
        }
        if (analysis::engine_enabled()) {
          analysis::Engine::instance().on_cond_signal(
              th.id(), args[0].as_cond()->replay_id());
        }
        args[0].as_cond()->broadcast();
        return Value();
      });

  vm.define_native(
      "close", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (args[0].kind() != ValueKind::kQueue) {
          return type_error(v, th, "close", "queue", args[0]);
        }
        args[0].as_queue()->close();
        return args[0];
      });
}

// ---------------------------------------------------------------- process

void install_process(Vm& vm) {
  // fork(): plain fork, returns pid (0 in child).
  // fork(f): Ruby's fork-with-block (Listing 3) — the child runs f,
  // then the at-exit hook (the debugger's at_finalize_proc), then
  // _exits; the parent gets the child pid.
  vm.define_native(
      "fork", 0, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args.empty() && !args[0].is_callable()) {
          return type_error(v, th, "fork", "fn block", args[0]);
        }
        auto pid = v.fork_now(th);
        if (!pid.is_ok()) {
          return v.runtime_error(th, pid.error().to_string());
        }
        if (args.empty()) return Value(std::int64_t{pid.value()});
        if (pid.value() != 0) return Value(std::int64_t{pid.value()});
        // Child: run the block, report, and _exit like Listing 3.
        auto outcome = v.call_value(th, args[0], {});
        int exit_code = 0;
        if (std::holds_alternative<VmError>(outcome)) {
          const VmError& err = std::get<VmError>(outcome);
          if (err.kind == VmErrorKind::kExit) {
            exit_code = err.exit_code;
          } else {
            std::fprintf(stderr, "%s\n", err.to_string().c_str());
            exit_code = 1;
          }
        }
        v.run_at_exit_hook();
        // _exit skips atexit handlers; flush the child's trace buffer
        // (repointed to its own file by handler C) and its replay log
        // (repointed by Engine::child_atfork) explicitly.
        trace::flush();
        replay::Engine::instance().flush();
        std::fflush(nullptr);
        ::_exit(exit_code);
      });

  vm.define_native(
      "waitpid", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_int()) {
          return type_error(v, th, "waitpid", "pid", args[0]);
        }
        pid_t pid = static_cast<pid_t>(args[0].as_int());
        // The wait verdict is a nondeterministic *value* like clock():
        // record it, substitute it on replay. The real drain below
        // still runs so a re-executed child's side effects land before
        // we return — but a checkpoint resumer whose snapshot predates
        // this child's parent gets ECHILD there, and the recorded code
        // is what lets it replay through the wait instead of erroring.
        // The log event is consumed *after* the BlockScope, mirroring
        // where record mode emits it (the scope's GIL reacquire logs a
        // kGilAcquire in between; consuming earlier would mismatch it).
        replay::Engine& rep = replay::Engine::instance();
        std::int64_t code = 0;
        bool real_verdict = false;
        std::string wait_error;
        {
          Vm::BlockScope scope(v, th, ThreadState::kIoBlocked, "waitpid");
          // One wait slice per pass: the child's exit wakes the wait at
          // once, the slice only bounds how late an interrupt is seen.
          while (true) {
            auto waited = wait_child_exit(pid, Vm::kWaitSliceMillis);
            if (!waited.is_ok()) {
              wait_error = waited.error().message();
              if (rep.replaying()) break;  // fall back to the logged verdict
              return v.runtime_error(th, wait_error);
            }
            if (waited.value().has_value()) {
              code = exit_code_of(*waited.value());
              real_verdict = true;
              break;
            }
            if (th.interrupt.load(std::memory_order_relaxed) !=
                InterruptReason::kNone) {
              return err_from_interrupt(v, th);
            }
          }
        }
        if (rep.replaying()) {
          std::uint64_t recorded_bits = 0;
          if (rep.await_turn(replay::EventKind::kWaitResult, th.id(), 0,
                             &recorded_bits)) {
            return Value(static_cast<std::int64_t>(recorded_bits));
          }
          // Diverged: free-run on whatever the real wait produced.
          if (!real_verdict) return v.runtime_error(th, wait_error);
          return Value(code);
        }
        rep.record(replay::EventKind::kWaitResult, th.id(), 0,
                   static_cast<std::uint64_t>(code));
        return Value(code);
      });
}

// ------------------------------------------------------------------ files

void install_files(Vm& vm) {
  vm.define_native(
      "read_file", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str()) {
          return type_error(v, th, "read_file", "path string", args[0]);
        }
        auto contents = read_file(args[0].as_str());
        if (!contents.is_ok()) {
          return v.runtime_error(th, contents.error().to_string());
        }
        return Value::str(std::move(contents).value());
      });

  vm.define_native(
      "write_file", 2, 2,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str() || !args[1].is_str()) {
          return type_error(v, th, "write_file", "path and contents", args[0]);
        }
        Status status = write_file(args[0].as_str(), args[1].as_str());
        if (!status.is_ok()) {
          return v.runtime_error(th, status.to_string());
        }
        return Value(true);
      });

  // Recursively collect regular-file paths under a root, sorted — the
  // word-count workload walks a source tree with this.
  vm.define_native(
      "walk_files", 1, 1,
      [](Vm& v, InterpThread& th, std::vector<Value>& args) -> NativeResult {
        if (!args[0].is_str()) {
          return type_error(v, th, "walk_files", "path string", args[0]);
        }
        std::vector<std::string> out;
        std::vector<std::string> pending{args[0].as_str()};
        while (!pending.empty()) {
          std::string dir = std::move(pending.back());
          pending.pop_back();
          DIR* handle = ::opendir(dir.c_str());
          if (handle == nullptr) {
            return v.runtime_error(
                th, strings::format("walk_files: cannot open %s: %s",
                                    dir.c_str(), std::strerror(errno)));
          }
          while (dirent* entry = ::readdir(handle)) {
            const char* name = entry->d_name;
            if (std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) {
              continue;
            }
            std::string child = dir + "/" + name;
            struct stat st{};
            if (::stat(child.c_str(), &st) != 0) continue;
            if (S_ISDIR(st.st_mode)) {
              pending.push_back(std::move(child));
            } else if (S_ISREG(st.st_mode)) {
              out.push_back(std::move(child));
            }
          }
          ::closedir(handle);
        }
        std::sort(out.begin(), out.end());
        auto list = std::make_shared<List>();
        for (std::string& path : out) {
          list->items.push_back(Value::str(std::move(path)));
        }
        return Value(std::move(list));
      });
}

}  // namespace

void install_core_builtins(Vm& vm) {
  install_io(vm);
  install_conversion(vm);
  install_collections(vm);
  install_strings(vm);
  install_threads(vm);
  install_process(vm);
  install_files(vm);
}

}  // namespace dionea::vm
