"""One pass of a workload in a fresh process; prints one JSON line.

    python perfbench/worker.py --workload sample --seed 1 [--trace] [--spans FILE]
    python perfbench/worker.py --setup-only

The process imports `okamoto.cli` and builds its parser, then notes the
CLOCK_MONOTONIC time as `ready_ns`: the parent, which read the same clock
before starting this process, takes the difference as set-up time.  The
benchmark's own modules are imported after that point, so set-up covers the
program alone.  A pass then runs the workload's commands one after another
through `okamoto.cli.run`, each into a string buffer, records each command's
time and the peak resident memory, and only then checks the outputs.  With
--trace, the module layers are wrapped first and the spans are written to
--spans when the pass ends.
"""

import argparse
import io
import json
import resource
import sys
import time
import traceback


def run_pass(cli, workload: str, seed: int, trace: bool, spans_path) -> dict:
    import tracing
    import workloads

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    for index, (metric, cmd) in enumerate(workloads.commands(workload, seed)):
        if tracer is not None:
            tracer.command = index
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = cli.run(cmd.split(), stdout=buf)
        except Exception:  # an uncaught program error fails this command, not the pass
            rc, text = -1, traceback.format_exc()
        else:
            text = buf.getvalue()
        results.append({"metric": metric, "cmd": cmd, "seconds": time.perf_counter() - t0, "rc": rc, "text": text})
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = []
    for r in results:
        try:
            workloads.check(r["cmd"], r["rc"], r["text"])
        except Exception as exc:  # a malformed output fails its check like a wrong one
            failures.append(f"{r['cmd']}: {type(exc).__name__}: {exc}")
    report = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failures": failures,
        "commands": [{k: r[k] for k in ("metric", "cmd", "seconds", "rc")} for r in results],
    }
    if tracer is not None:
        output_bytes = sum(len(r["text"].encode()) for r in results)
        cli_errors = sum(r["rc"] != 0 for r in results)
        report["layers"] = tracing.layer_metrics(tracer.summary(), output_bytes, cli_errors)
        if spans_path:
            tracer.write(spans_path)
    return report


def main() -> None:
    from okamoto import cli

    cli.build_parser()
    ready_ns = time.monotonic_ns()

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced pass's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    report = {} if args.setup_only else run_pass(cli, args.workload, args.seed, args.trace, args.spans)
    report["ready_ns"] = ready_ns
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
