// wordcount: the paper's §7 MapReduce over a generated corpus, run with
// forked workers, alternately plain and with a debugger attached but no
// breakpoints. VM dispatch, the trace gate and the mp queues do the
// work; the debugger's command path and the hub sit idle.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>

#include "client/session.hpp"
#include "debugger/server.hpp"
#include "mapreduce/corpus.hpp"
#include "mapreduce/wordcount.hpp"
#include "mp/vm_bindings.hpp"
#include "scenarios.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"

namespace perfbench {
namespace {

using namespace dionea;

// The paper's small tree (Fig. 9), at the scale bench_fig9_small uses;
// the seed replaces the preset's, so it changes the text, never the
// size or the vocabulary size.
mapreduce::CorpusSpec corpus_spec(std::uint64_t seed) {
  mapreduce::CorpusSpec spec =
      mapreduce::scaled_spec(mapreduce::dionea_trunk_spec(), 3.0);
  spec.seed = seed;
  return spec;
}

// Generate the corpus under `root`; returns its file count and the
// line the program must print for it.
Result<std::pair<std::size_t, std::string>> generate(std::uint64_t seed,
                                                     const std::string& root) {
  (void)remove_tree(root);
  DIONEA_ASSIGN_OR_RETURN(mapreduce::Corpus corpus,
                          mapreduce::Corpus::generate(corpus_spec(seed), root));
  DIONEA_ASSIGN_OR_RETURN(mapreduce::WordCounts counts,
                          mapreduce::count_corpus(corpus));
  mapreduce::CountsDigest d = mapreduce::digest(counts);
  return std::make_pair(corpus.files().size(),
                        strings::format("unique=%lld total=%lld\n",
                                        static_cast<long long>(d.unique),
                                        static_cast<long long>(d.total)));
}

// Nominal length of one plain + attached pair; sizes the planned pairs.
constexpr double kPairSeconds = 0.15;

struct RunOutcome {
  double run_s = 0;         // Interp construction to checked result
  double run_string_s = 0;  // the run_string call alone
  double server_start_ms = 0;
  Snapshot parent;          // registry delta of this process
  bool ok = false;
  std::string why;
};

RunOutcome run_once(const std::string& root, int workers,
                    bool attached, const std::string& expected,
                    const std::string& child_stats_dir) {
  RunOutcome out;
  Snapshot before = registry_now();
  double start = now_s();
  vm::Interp interp;
  mp::install_vm_bindings(interp.vm());
  std::string output;
  interp.vm().set_output([&output](std::string_view text) { output.append(text); });

  std::unique_ptr<TempDir> tmp;
  std::unique_ptr<dbg::DebugServer> server;
  std::unique_ptr<client::Session> session;
  if (attached) {
    auto created = TempDir::create("perfbench-wc");
    if (!created.is_ok()) {
      out.why = "tempdir: " + created.error().to_string();
      return out;
    }
    tmp = std::make_unique<TempDir>(std::move(created).value());
    dbg::DebugServer::Options options;
    options.port_file = tmp->file("ports");
    server = std::make_unique<dbg::DebugServer>(interp.vm(), options);
    double t0 = now_s();
    Status started = [&] {
      trace::Span span("debugger.server_start", kSpanCategory);
      return server->start();
    }();
    out.server_start_ms = (now_s() - t0) * 1e3;
    if (!started.is_ok()) {
      out.why = "server start: " + started.to_string();
      return out;
    }
    auto att = client::Session::attach(server->port(), 5000);
    if (!att.is_ok()) {
      out.why = "attach: " + att.error().to_string();
      return out;
    }
    session = std::move(att).value();
  }

  std::string program = mapreduce::wordcount_program(root, workers);
  std::fflush(nullptr);  // children must not inherit unwritten output
  double t0 = now_s();
  vm::RunResult result;
  {
    trace::Span span("vm.run_string", kSpanCategory);
    result = interp.run_string(program, "wordcount.ml");
  }
  out.run_string_s = now_s() - t0;
  leave_if_forked_child(interp, result, attached ? child_stats_dir : "");

  if (server) server->stop();
  out.run_s = now_s() - start;
  out.parent = delta(registry_now(), before);
  if (!result.ok) {
    out.why = "wordcount failed: " + result.error.to_string();
  } else if (output != expected) {
    out.why = "wordcount printed '" + output + "', expected '" + expected + "'";
  } else if (count(out.parent, Counter::kStops) != 0) {
    out.why = "a run with no breakpoints stopped";
  } else {
    out.ok = true;
  }
  return out;
}

}  // namespace

void run_wordcount(Context& ctx) {
  Report& report = *ctx.report;
  const std::string root = ctx.work_dir + "/corpus";
  const std::string child_dir = ctx.work_dir + "/wc-children";
  (void)make_dir(child_dir);

  // ---- set-up: generate the corpus and its reference count ----
  std::vector<double> setups;
  std::size_t files = 0;
  std::string expected;
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    double t0 = now_s();
    auto generated = [&] {
      trace::Span span("mapreduce.corpus_generate", kSpanCategory);
      return generate(ctx.seed, root);
    }();
    setups.push_back(now_s() - t0);
    if (!generated.is_ok()) {
      report.fail("corpus: " + generated.error().to_string());
      return;
    }
    std::tie(files, expected) = generated.value();
  }
  report_setup(ctx, setups);

  // ---- measure: interleaved plain/attached pairs, order alternating ----
  std::vector<double> attached_s, ratios, run_string_s;
  Snapshot parent_total;
  Snapshot children_total;
  std::int64_t children_cpu_ns = 0;
  int children = 0;
  const int planned = std::max(3, static_cast<int>(ctx.seconds / kPairSeconds));
  for (int pair = 0; pair < planned && now_s() < ctx.deadline; ++pair) {
    double pair_s[2] = {0, 0};
    bool pair_ok = true;
    for (int k = 0; k < 2; ++k) {
      bool attached = (pair + k) % 2 == 1;  // ABBA order cancels drift
      RunOutcome run = run_once(root, ctx.workers, attached, expected,
                                child_dir);
      report.attempt();
      if (!run.ok) {
        report.fail(run.why);
        pair_ok = false;
        continue;
      }
      pair_s[attached ? 1 : 0] = run.run_s;
      if (attached) {
        attached_s.push_back(run.run_s);
        run_string_s.push_back(run.run_string_s);
        ctx.server_start_ms->push_back(run.server_start_ms);
        merge(&parent_total, run.parent);
        children += collect_child_stats(child_dir, &children_total,
                                        &children_cpu_ns);
      }
    }
    if (pair_ok) ratios.push_back(pair_s[1] / pair_s[0]);
  }
  if (attached_s.empty() || ratios.empty()) return;

  // The mean, not the median: each run lands in the host's fast or slow
  // phase, and the median of the runs would pick one phase.
  double run_s = mean(attached_s);
  report.add("run_s", "s", run_s, attached_s.size());
  report.add("attach_slowdown", "ratio", percentile(ratios, 50), ratios.size());

  // Per-layer. The workers do nearly all the counting, so the VM and mp
  // figures fold in the registry snapshots the worker children saved.
  Snapshot all = parent_total;
  merge(&all, children_total);
  const double runs = static_cast<double>(attached_s.size());
  report.add("mapreduce.corpus_gen_s", "s", percentile(setups, 50), setups.size());
  report.add("mapreduce.files_per_s", "1/s", static_cast<double>(files) / run_s,
             attached_s.size());
  report.add("vm.run_string_s", "s", percentile(run_string_s, 50),
             run_string_s.size());
  report.add("vm.trace_line_events", "count",
             static_cast<double>(count(all, Counter::kTraceLineEvents)) / runs,
             attached_s.size());
  // CPU time the workers spent per traced line.
  std::uint64_t child_lines = count(children_total, Counter::kTraceLineEvents);
  report.add("vm.ns_per_line", "ns",
             child_lines == 0 ? 0
                              : static_cast<double>(children_cpu_ns) /
                                    static_cast<double>(child_lines),
             static_cast<std::size_t>(children));
  report.add("vm.trace_hook_ns_p50", "ns",
             hist_percentile_ns(all, Histogram::kTraceHookNanos, 50),
             hist_count(all, Histogram::kTraceHookNanos));
  report.add("mp.pushes", "count",
             static_cast<double>(count(all, Counter::kMpPushes)) / runs,
             attached_s.size());
  report.add("mp.bytes_pushed", "bytes",
             static_cast<double>(count(all, Counter::kMpBytesPushed)) / runs,
             attached_s.size());
  report.add("mp.pop_wait_ns_p50", "ns",
             hist_percentile_ns(all, Histogram::kMpPopWaitNanos, 50),
             hist_count(all, Histogram::kMpPopWaitNanos));
}

}  // namespace perfbench
