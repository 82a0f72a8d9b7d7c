"""The okamoto benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sample|cover|exact --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
`src/`.  Each pass of the workload runs in its own fresh process as a closed
loop: one caller issues the workload's commands one after another (see
workloads.py).  Passes repeat until the next one would end after --seconds,
with at least MIN_PASSES of them.  Set-up time is also sampled by
SETUP_PROBES extra processes that only import the program.

Times are taken as the fastest of the run's samples: set-up time as the
fastest process, and each command's time as its fastest pass, so the time of
the whole command list is the sum of those.  On a shared machine,
interference from other tenants only ever adds time, and it comes in
episodes of seconds to minutes that slow pure-Python code by up to a half; a
median over one run inherits whatever share of the run was disturbed, the
fastest sample does not.  Peak memory is the median over passes.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced passes (each
time the fastest over those passes), the untraced time of each command group, and
the tracing overhead: the command-list time of the traced passes minus that
of the untraced ones.  Spans of the last traced pass are written under
.perfbench/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it show each pass and the
machine.  The exit code is 0 when a result is printed, 2 when there is no
program under src/ to measure, and 1 when a pass could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 7
PASS_TIMEOUT_S = 150
# no pass starts once the run could no longer end within the 180 s limit
RUN_LIMIT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread per process: the load stays single-threaded on a small box
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, env: dict) -> tuple:
    """(set-up seconds, report) of one worker process."""
    start_ns = time.monotonic_ns()
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return (report["ready_ns"] - start_ns) / 1e9, report


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        for index, level in (("index2", "l2"), ("index3", "l3")):
            with open(f"/sys/devices/system/cpu/cpu0/cache/{index}/size") as fh:
                facts[f"{level}_per_instance"] = fh.read().strip()
        with open("/proc/meminfo") as fh:
            facts["mem_total"] = fh.readline().split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass  # facts are informational; a platform without these files reports fewer
    return facts


def fastest_commands(reports: list) -> list:
    """[(metric name or None, fastest seconds over the passes)] per command."""
    per_command = zip(*(r["commands"] for r in reports))
    return [(runs[0]["metric"], min(c["seconds"] for c in runs)) for runs in per_command]


def group_times(fastest: list, names) -> dict:
    return {name: sum(t for metric, t in fastest if metric == name) for name in names}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = child_env()
    spawn(["--setup-only"], env)  # fills the bytecode and file caches; not timed
    setups = [spawn(["--setup-only"], env)[0] for _ in range(SETUP_PROBES)]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    untraced, traced = [], []
    durations = []
    started = time.monotonic()
    while True:
        if durations:
            next_end = time.monotonic() - started + statistics.fmean(durations)
            enough = len(durations) >= (2 * MIN_TRACED_PAIRS if trace else MIN_PASSES)
            if next_end > RUN_LIMIT_S or (enough and next_end > seconds):
                break
        tracing_this = trace and len(untraced) > len(traced)
        args = ["--workload", workload, "--seed", str(seed)]
        if tracing_this:
            args += ["--trace", "--spans", spans_path]
        t0 = time.monotonic()
        setup, report = spawn(args, env)
        durations.append(time.monotonic() - t0)
        setups.append(setup)
        (traced if tracing_this else untraced).append(report)
        print(json.dumps({"pass": len(durations), "traced": tracing_this, "setup_s": round(setup, 4),
                          "wall_s": round(report["wall_s"], 4), "failures": report["failures"],
                          "command_s": [round(c["seconds"], 4) for c in report["commands"]]}), flush=True)

    every = untraced + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(len(r["failures"]) for r in every)
    fastest = fastest_commands(untraced)
    groups = group_times(fastest, workloads.COMMAND_METRICS[workload])
    print(json.dumps({"machine": machine_facts(), "workload": workload, "seed": seed,
                      "passes": len(durations), "command_group_s": groups}), flush=True)
    for r in every:
        for failure in r["failures"]:
            print(f"FAILED {failure}", flush=True)

    if trace:
        metrics = {}
        for name, unit, _ in tracing.LAYER_METRICS:
            values = [r["layers"][name] for r in traced]
            # counts repeat exactly from pass to pass; times take the fastest pass
            metrics[name] = {"value": min(values) if unit in ("s", "ns") else values[-1], "unit": unit}
        for name, value in group_times(fastest, workloads.ALL_COMMAND_METRICS).items():
            metrics[name] = {"value": value, "unit": "s"}
        overhead = sum(t for _, t in fastest_commands(traced)) - sum(t for _, t in fastest)
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "setup_s": min(setups),
            "wall_s": sum(t for _, t in fastest),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "okamoto", "cli.py")):
        print(f"no program to measure: {SRC}/okamoto/cli.py is missing", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
