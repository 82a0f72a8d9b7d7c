"""The benchmark's workloads: command lists, per-command seeds and output checks.

Each workload is a list of `okamoto` CLI commands that one caller issues one
after another.  A command may carry a metric name; commands sharing a name
are timed together.  Every command has a check that reads the rendered
output only, so the checks hold for any correct program, including one that
draws a different random stream or expands words with another kernel.
Seeded stochastic output is checked by statistical bounds, never by hash.

This module uses the standard library only: the checks do not share code
with the program they check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_EXACT = os.path.join(HERE, "expected_exact.json")

LOG3 = math.log(3.0)


class CheckFailed(Exception):
    """A command's output does not meet its check."""


def _seeded(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def commands(workload: str, seed: int) -> list:
    """[(metric name or None, command line)] for one pass of the workload."""
    if workload == "sample":
        s = _seeded(workload, seed, 4)
        return [
            ("measure_s", f"measure --a 0.75 --samples 500000 --depth 60 --seed {s[0]}"),
            ("measure_s", f"measure --a 0.75 --samples 50000 --depth 40 --format csv --seed {s[1]}"),
            ("fourier_s", f"fourier --a 0.75 --samples 125000 --seed {s[2]}"),
            ("convolution_s",
             f"subsystem --a 0.75 --m 2 --k 3 --check convolution --samples 250000 --seed {s[3]}"),
        ]
    if workload == "cover":
        s = _seeded(workload, seed, 4)
        return [
            ("boxdim_s", "boxdim --a 0.6 --mode grid --min-depth 7 --max-depth 9"),
            ("levelset_scan_s", f"levelset-scan --a 0.75 --samples 250 --depth 14 --seed {s[0]}"),
            ("levelset_scan_wide_s",
             f"levelset-scan --a 0.9 --samples 40 --depth 12 --format csv --seed {s[1]}"),
            ("graph_s", "graph --a 0.75 --depth 7"),
            ("slices_s", f"subsystem --a 0.75 --m 8 --check slices --samples 100 --depth 14 --seed {s[2]}"),
            (None, f"bundle --a 0.75 --seed {s[3]}"),
        ]
    if workload == "exact":
        # no random input: the seed is recorded by the caller and not used
        return list(EXACT_COMMANDS)
    raise ValueError(f"unknown workload {workload!r}")


EXACT_COMMANDS = (
    ("separation_s", "separation --b 2/5 --max-depth 11"),
    ("separation_s", "separation --b 7/11 --max-depth 11"),
    ("levelset_s", "levelset --a 3/4 --y 1/3 --depth 14"),
    ("levelset_s", "levelset --a 2/3 --y 38/81 --depth 15"),
    ("gamma_s", "subsystem --a 3/4 --m 6 --k 3 --check gamma"),
    (None, "dims --a 3/4 --q 1.5,2,4,8"),
    (None, "boxdim --a 3/4 --mode column --min-depth 6 --max-depth 20"),
)

WORKLOADS = ("sample", "cover", "exact")

# every metric name a workload's commands carry, in command order
COMMAND_METRICS = {
    w: tuple(dict.fromkeys(m for m, _ in commands(w, 0) if m)) for w in WORKLOADS
}
ALL_COMMAND_METRICS = tuple(m for w in WORKLOADS for m in COMMAND_METRICS[w])


# --- output checks ----------------------------------------------------------------


def _options(argv: list) -> dict:
    opts = {}
    for key, value in zip(argv[1::2], argv[2::2]):
        opts[key.lstrip("-")] = value
    return opts


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _s0_minus_1(a: float) -> float:
    """Closed form log(4a-1)/log 3 for Okamoto's family."""
    return math.log(4.0 * a - 1.0) / LOG3


def column_count(a: Fraction, n: int) -> int:
    """Closed-form column box count: words grouped by their number of 2s."""
    b = 2 * a - 1
    total = 0
    for j in range(n + 1):
        osc = a ** (n - j) * b**j * 3**n
        total += math.comb(n, j) * 2 ** (n - j) * max(1, math.ceil(osc))
    return total


def _finite_unit(value, what: str) -> None:
    _require(isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0,
             f"{what} = {value!r} is not a finite number in [0, 1]")


def _check_measure_json(opts, out):
    n = int(opts["samples"])
    _require(out["count"] == n and out["depth"] == int(opts["depth"]), "count or depth echo differs")
    # the projected natural measure has mean sum p_i t_i / (1 - sum p_i r_i) = 1/2
    allowed = 5.0 * out["std"] / math.sqrt(n)
    _require(out["std"] > 0 and abs(out["mean"] - 0.5) <= allowed,
             f"|mean - 1/2| = {abs(out['mean'] - 0.5):.3g} exceeds 5 std/sqrt(N) = {allowed:.3g}")


def _check_measure_csv(opts, rows):
    _require(rows[0] == ["value"], f"header {rows[0]!r}")
    values = [float(r[0]) for r in rows[1:]]
    _require(len(values) == int(opts["samples"]), f"{len(values)} values, expected {opts['samples']}")
    _require(all(0.0 <= v <= 1.0 for v in values), "a value lies outside [0, 1]")


def _check_fourier(opts, out):
    mags = out["magnitude"]
    _require(len(mags) == len(out["t"]) == 30, "expected 30 frequencies")
    for m in mags:
        _finite_unit(m, "magnitude")
    # acceptance criterion 10: decay with at least two points above the noise floor
    _require(out["points_used"] >= 2 and out["decay_slope"] < 0.0,
             f"decay slope {out['decay_slope']} over {out['points_used']} points")


def _check_convolution(opts, out):
    # acceptance criterion 8b
    _require(out["count"] == int(opts["samples"]) and out["ks"] < 0.01, f"KS {out['ks']} >= 0.01")


def _check_grid_boxdim(opts, out):
    a = Fraction(opts["a"])
    depths = list(range(int(opts["min-depth"]), int(opts["max-depth"]) + 1))
    _require([r["n"] for r in out["rows"]] == depths, "depth rows differ")
    for r in out["rows"]:
        limit = column_count(a, r["n"])
        _require(1 <= r["count"] <= limit, f"grid count {r['count']} at n={r['n']} exceeds column count {limit}")


def _check_scan(opts, out):
    a = float(opts["a"])
    _require(out["sample_count"] == int(opts["samples"]), "sample count differs")
    _require(abs(out["s0_minus_1"] - _s0_minus_1(a)) < 1e-12, "s0 - 1 differs from log(4a-1)/log 3")
    # acceptance criterion 6, the median part
    gap = abs(out["quantiles"]["q50"] - _s0_minus_1(a))
    _require(gap < 0.08, f"median estimate is {gap:.4f} from s0 - 1 (tolerance 0.08)")


def _check_scan_csv(opts, rows):
    _require(rows[0] == ["y", "estimate"], f"header {rows[0]!r}")
    _require(len(rows) - 1 == int(opts["samples"]), "level count differs")
    for y, est in rows[1:]:
        _finite_unit(float(y), "level")
        _finite_unit(float(est), "estimate")


def _check_graph(opts, rows):
    n = int(opts["depth"])
    _require(rows[0] == ["x", "y"], f"header {rows[0]!r}")
    pts = [(float(x), float(y)) for x, y in rows[1:]]
    size = 3**n
    _require(len(pts) == size + 1, f"{len(pts)} rows, expected {size + 1}")
    _require(all(x == k / size for k, (x, _) in enumerate(pts)), "x grid is not k/3^n")
    _require(pts[0][1] == 0.0 and pts[-1][1] == 1.0, "T(0) = 0 and T(1) = 1 fail")
    # acceptance criterion 9: symmetry T(x) + T(1-x) = 1
    worst = max(abs(pts[k][1] + pts[size - k][1] - 1.0) for k in range(size + 1))
    _require(worst <= 2e-9, f"symmetry defect {worst:.3g} > 2e-9")


def _check_slices(opts, out):
    _require(out["sample_count"] == int(opts["samples"]) and out["excluded"] >= 0, "sample count differs")
    for name, value in out["quantiles"].items():
        _finite_unit(value, name)
    _finite_unit(out["median_estimate"], "median estimate")


def _check_bundle(opts, out):
    a = float(opts["a"])
    s0 = 1.0 + _s0_minus_1(a)
    _require(abs(out["dims"]["s0"] - s0) < 1e-12 and abs(out["dims"]["fenghu_dim"] - s0) < 1e-10,
             "s0 or the Feng-Hu dimension differs from 1 + log(4a-1)/log 3")
    exact_a = Fraction(opts["a"])
    for r in out["box"]["rows"]:
        _require(r["count"] == column_count(exact_a, r["n"]), f"column count at n={r['n']} differs")
    _require(out["levelset_scan"]["sample_count"] == 100, "scan sample count differs")
    for value in out["levelset_scan"]["quantiles"].values():
        _finite_unit(value, "scan quantile")


def digest(payload: dict) -> dict:
    """Stored form of an exact JSON output: long lists by length and hash."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, list) and len(value) > 64:
            text = json.dumps(value, sort_keys=True)
            out[key] = {"len": len(value), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        else:
            out[key] = value
    return out


def _same(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(actual, (int, float)) and isinstance(expected, (int, float))
                and math.isclose(expected, actual, rel_tol=1e-9, abs_tol=0.0))
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() <= actual.keys()
                and all(_same(v, actual[k]) for k, v in expected.items()))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(expected) == len(actual)
                and all(_same(e, v) for e, v in zip(expected, actual)))
    return expected == actual


def _check_exact(cmd: str, out: dict) -> None:
    with open(EXPECTED_EXACT) as fh:
        expected = json.load(fh)[cmd]
    actual = digest(out)
    for key, value in expected.items():
        _require(key in actual and _same(value, actual[key]), f"field {key!r} differs from the stored value")


_JSON_CHECKS = {
    "measure": _check_measure_json,
    "fourier": _check_fourier,
    "levelset-scan": _check_scan,
    "bundle": _check_bundle,
}
_CSV_CHECKS = {
    "measure": _check_measure_csv,
    "levelset-scan": _check_scan_csv,
    "graph": _check_graph,
}


def check(cmd: str, rc: int, text: str) -> None:
    """Raise CheckFailed unless `text` is a correct output of command `cmd`."""
    argv = cmd.split()
    opts = _options(argv)
    _require(rc == 0, f"exit code {rc}: {text.strip()[:300]}")
    if opts.get("format") == "csv" or argv[0] == "graph":  # graph renders CSV only
        rows = list(csv.reader(io.StringIO(text)))
        _CSV_CHECKS[argv[0]](opts, rows)
        return
    out = json.loads(text)
    _require("error" not in out, f"error output: {out.get('error')}")
    if cmd in (c for _, c in EXACT_COMMANDS):
        _check_exact(cmd, out)
    elif argv[0] == "boxdim":
        _check_grid_boxdim(opts, out)
    elif argv[0] == "subsystem":
        {"convolution": _check_convolution, "slices": _check_slices}[opts["check"]](opts, out)
    else:
        _JSON_CHECKS[argv[0]](opts, out)
