#!/usr/bin/env python3
"""The benchmark of record for dionea-cpp (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds the benchmark binary (with
the program libraries from src/) into .bench_build/, runs the named
workload plus a shorter probe of every other scenario, each in chunks
spread over the run and each chunk in its own process, checks their
outputs, and prints as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0), or every
per_layer metric (--trace 1). The line before it is the full record:
every metric with its sample count, the failures, and the host and
configuration fingerprint.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"

SCENARIOS = ["wordcount", "stop-go", "fork-wait", "hub-fanout"]
# The metric each workload's tracing overhead is read from.
FOCUS_METRIC = {
    "wordcount": "run_s",
    "stop-go": "stop_cycle_p50_ms",
    "fork-wait": "fork_cycle_p50_ms",
    "hub-fanout": "route_p50_ms",
}
FOCUS_SHARE = 0.4  # of --seconds; the other scenarios split the rest
ROUNDS = 2  # chunks each scenario is measured in (--trace 0)
RECORD = "PERFBENCH-RECORD "


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no program sources under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def revision():
    """Git revision when the tree is a checkout, plus a digest of the
    sources, so records from different code are never compared silently."""
    rev = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            rev = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"{rev} src:{digest.hexdigest()[:16]}"


def stop_group(pgid):
    """Kill whatever the scenario process left in its process group (a
    debuggee child parked by a failed run) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if all(state == "Z" for state in group_states(pgid)):
            return  # only exited children left, for init to reap
        time.sleep(0.01)


def group_states(pgid):
    states = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and int(fields[2]) == pgid:
            states.append(fields[0])
    return states


def run_scenario(name, args, budget, focus, trace, work, rev):
    """Run one scenario process; returns its record, or None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIONEA_")}
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["DIONEA_CRASH_DIR"] = str(tmp)
    if trace:
        env["DIONEA_TRACE_OUT"] = str(work / f"trace.{name}.json")
    cmd = [str(BINARY), "--scenario", name, "--seed", str(args.seed),
           "--seconds", f"{budget:.3f}", "--focus", "1" if focus else "0",
           "--trace", "1" if trace else "0", "--work-dir", str(work),
           "--rev", rev]
    log(f"{'workload' if focus else 'probe'} {name} "
        f"({'traced, ' if trace else ''}budget {budget:.1f}s)")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=2 * budget + 30)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"{name}: timed out")
        return None
    stop_group(proc.pid)
    records = [line[len(RECORD):] for line in out.splitlines()
               if line.startswith(RECORD)]
    if proc.returncode != 0 or len(records) != 1:
        log(f"{name}: exit {proc.returncode}, {len(records)} result records "
            "(expected exactly one)")
        return None
    return json.loads(records[0])


def keep_traces(work, dest):
    """Keep a traced run's span files, per scenario (Chrome trace_event
    JSON; the benchmark's own spans have category "bench")."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True, exist_ok=True)
    for path in work.glob("trace.*.json"):
        shutil.copy(path, dest / path.name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=SCENARIOS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not build():
        return 1
    rev = revision()

    work = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    focus_budget = args.seconds * FOCUS_SHARE
    probe_budget = args.seconds * (1 - FOCUS_SHARE) / (len(SCENARIOS) - 1)
    probes = [s for s in SCENARIOS if s != args.workload]
    plan = []  # (scenario, budget, focus, traced)
    if args.trace:
        # The same focus run untraced and traced: the gap is the cost
        # of tracing. Per-layer figures come from the traced runs.
        plan.append((args.workload, focus_budget / 2, True, False))
        plan.append((args.workload, focus_budget / 2, True, True))
        plan += [(s, probe_budget, False, True) for s in probes]
    else:
        # Every scenario in ROUNDS chunks spread over the run, each
        # reading the mean of its chunks: the host's speed drifts over
        # tens of seconds, and chunks apart in time partly cancel it.
        # setup_s too: every focus chunk sets up repeatedly.
        for _ in range(ROUNDS):
            plan.append((args.workload, focus_budget / ROUNDS, True, False))
            plan += [(s, probe_budget / ROUNDS, False, False) for s in probes]

    records = []
    try:
        for name, budget, focus, traced in plan:
            record = run_scenario(name, args, budget, focus, traced, work, rev)
            if record is None:
                return 1
            records.append(record)
    finally:
        if args.trace:
            keep_traces(work, BUILD / "traces" / f"{args.workload}-{args.seed}")
        shutil.rmtree(work, ignore_errors=True)

    # Merge: a metric comes from the first scenario that reports it, the
    # named workload first, as the mean over that scenario's chunks.
    merged = {}
    reported = records[1:] if args.trace else records
    for name in [args.workload] + probes:
        chunks = [r["metrics"] for r in reported if r["scenario"] == name]
        for key in dict.fromkeys(k for m in chunks for k in m):
            if key in merged:
                continue
            got = [m[key] for m in chunks if key in m]
            merged[key] = dict(got[0],
                               value=statistics.fmean(g["value"] for g in got),
                               samples=sum(g["samples"] for g in got))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    merged["fail_ratio"] = {"value": failed / max(1, attempted),
                                  "unit": "ratio", "samples": attempted}
    if args.trace:
        key = FOCUS_METRIC[args.workload]
        plain = records[0]["metrics"].get(key, {}).get("value")
        traced = records[1]["metrics"].get(key, {}).get("value")
        if plain and traced:
            merged["bench.trace_overhead_pct"] = {
                "value": (traced / plain - 1) * 100, "unit": "%",
                "samples": 2}

    failures = [f for r in records for f in r["failures"]]
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "fingerprint": records[0]["fingerprint"],
            "attempted": attempted, "failed": failed, "failures": failures,
            "metrics": merged}
    print("perfbench record: " + json.dumps(full, sort_keys=True))

    metrics = {}
    for m in wanted:
        got = merged.get(m["name"])
        if got is None:
            log(f"metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for f in failures:
        log(f"failure: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
