// The four scenarios. Each sets itself up (ctx.setup_reps times when it
// is the focus), measures for ctx.seconds, checks the program's
// outputs, and adds its end-to-end and per-layer metrics to
// ctx.report. The metric each one adds is listed in README.md.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_wordcount(Context& ctx);
void run_stop_go(Context& ctx);
void run_fork_wait(Context& ctx);
void run_hub_fanout(Context& ctx);

}  // namespace perfbench
