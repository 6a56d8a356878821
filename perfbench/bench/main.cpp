// perfbench: one scenario of the benchmark, in one process. run.py
// runs it once per scenario and merges the records.
//
//   perfbench --scenario <name> --seed <n> --seconds <budget>
//             --focus <0|1> --trace <0|1> --work-dir <dir> [--rev <text>]
//
// The budget sizes the planned work; a focus scenario (the named
// workload) also sets itself up several times for setup_s. Prints
// exactly one result record, as the last line:
//   PERFBENCH-RECORD {...}
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "scenarios.hpp"
#include "support/host_spec.hpp"
#include "support/temp_file.hpp"
#include "vm/vm.hpp"

namespace {

using namespace perfbench;

struct Scenario {
  const char* name;
  void (*run)(Context&);
};

constexpr Scenario kScenarios[] = {
    {"wordcount", run_wordcount},
    {"stop-go", run_stop_go},
    {"fork-wait", run_fork_wait},
    {"hub-fanout", run_hub_fanout},
};

constexpr int kSetupReps = 21;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --scenario <wordcount|stop-go|fork-wait|"
               "hub-fanout> --seed <n> --seconds <budget> --focus <0|1> "
               "--trace <0|1> --work-dir <dir> [--rev <text>]\n");
  return 64;
}

std::string fingerprint(const std::string& rev, int workers) {
  dionea::HostSpec host = dionea::HostSpec::detect();
  dionea::vm::Vm probe;
  const char* dispatch =
      probe.dispatch_mode() == dionea::vm::Vm::DispatchMode::kGoto ? "goto"
                                                                   : "switch";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu_model\":\"%s\",\"logical_cores\":%d,\"memory_mb\":%ld,"
                "\"os_release\":\"%s\",\"runtime\":\"%s\",\"nproc\":%ld,"
                "\"workers\":%d,\"build_type\":\"%s\",\"dispatch_default\":\"%s\","
                "\"dispatch\":\"%s\",\"rev\":\"%s\"}",
                json_escape(host.cpu_model).c_str(), host.logical_cores,
                host.memory_mb, json_escape(host.os_release).c_str(),
                json_escape(host.runtime).c_str(),
                ::sysconf(_SC_NPROCESSORS_ONLN), workers, PERFBENCH_BUILD_TYPE,
                PERFBENCH_DISPATCH, dispatch, json_escape(rev).c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return usage();
  const Scenario* scenario = nullptr;
  for (const Scenario& sc : kScenarios) {
    if (args["scenario"] == sc.name) scenario = &sc;
  }
  if (scenario == nullptr || args["work-dir"].empty()) return usage();
  const pid_t self = ::getpid();

  Report report;
  std::vector<double> server_start_ms;
  Context ctx;
  ctx.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  ctx.seconds = std::max(0.2, std::atof(args["seconds"].c_str()));
  // Past this a scenario stops early rather than overrun the run.
  ctx.deadline = now_s() + 2 * ctx.seconds + 10;
  ctx.focus = args["focus"] == "1";
  ctx.setup_reps = ctx.focus ? kSetupReps : 1;
  ctx.work_dir = args["work-dir"];
  ctx.workers = static_cast<int>(std::min(4L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  ctx.report = &report;
  ctx.server_start_ms = &server_start_ms;
  const bool trace = args["trace"] == "1";
  if (const char* out = std::getenv("DIONEA_TRACE_OUT"); trace && out != nullptr) {
    ctx.trace_out = out;
  }
  (void)dionea::make_dir(ctx.work_dir);

  scenario->run(ctx);
  // Only the process that started the run may write its record.
  if (::getpid() != self) ::_exit(0);
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }

  if (!server_start_ms.empty()) {
    report.add("debugger.server_start_ms", "ms",
               percentile(server_start_ms, 50), server_start_ms.size());
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  report.add("peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0);

  std::string out = "PERFBENCH-RECORD {\"scenario\":\"" +
                    std::string(scenario->name) + "\",\"seed\":" + args["seed"] +
                    ",\"focus\":" + (ctx.focus ? "1" : "0") +
                    ",\"trace\":" + (trace ? "1" : "0") +
                    ",\"attempted\":" + std::to_string(report.attempted()) +
                    ",\"failed\":" + std::to_string(report.failed()) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures().size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(report.failures()[i]) + "\"";
  }
  out += "],\"fingerprint\":" + fingerprint(args["rev"], ctx.workers) +
         ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\",\"samples\":%zu",
                  first ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    out += buf;
    if (m.tail_level > 0) {
      std::snprintf(buf, sizeof(buf), ",\"percentile\":%g", m.tail_level);
      out += buf;
    }
    out += "}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  return 0;
}
