"""Command-line front end.

The parser parses each number once: "p/q" is an exact rational for the exact
paths, a decimal a float.  A float-only path converts a at one gate,
words.float_a; `dims --q` is JSON only.  This module is the only place
the artifact format is defined: every JSON artifact is strict JSON (never NaN
or Infinity) with schema_version "1", report dataclasses render by their
fields and rationals as "p/q"; every CSV has a header row, and the csv
module writes each value, a float as its repr.  Runs are deterministic for
a fixed config and seed (no timestamps, sorted keys).  The parser is built
once per process, on the first build_parser call, and every run call shares
it.  A stdout closed by its reader ends main with exit code 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import dimensions, estimators, separation, subsystem, systems
from .errors import DepthCapError, OkamotoError, ParameterError
from .words import float_a

SCHEMA_VERSION = "1"
_TCOUNT_CAP = 1000  # frequencies of one fourier grid
_ROW_CHUNK = 1 << 16  # CSV rows turned into Python values together


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit; surface as JSON instead
        raise UsageError(message)


def parse_number(text: str):
    """'p/q' -> exact Fraction, decimal -> float."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            p, q = int(num), int(den)
        except ValueError as exc:
            raise UsageError(f"bad rational {text!r}; expected integers p/q") from exc
        if q <= 0:
            raise UsageError(f"bad rational {text!r}; denominator must be positive")
        return Fraction(p, q)
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"bad number {text!r}") from exc


def _q_list(text: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad q list {text!r}; expected comma-separated numbers") from exc
    if not values:
        raise UsageError(f"empty q list {text!r}")
    return values


def _seed(text: str) -> int:
    if not text.strip().isdecimal():  # argparse's usage error names the option
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="okamoto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, formats=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        if formats:  # only commands that render both JSON and CSV take --format
            p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("dims", help="closed-form dimension report")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--q", default=None, type=_q_list, help="comma-separated q values for tau/L^q rows (JSON only)")

    p = add("graph", help="CSV of the graph points (k/3^depth, T(k/3^depth))", formats=False)
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--depth", type=int, default=6)

    p = add("boxdim", help="box-count series and slope fit")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--min-depth", type=int, default=6)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--mode", choices=("column", "grid"), default="column")

    p = add("levelset", help="cover of one level set")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--y", required=True, type=parse_number)
    p.add_argument("--depth", type=int, default=10)

    p = add("levelset-scan", help="level-set dimension statistics over random levels")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=_seed, required=True)

    p = add("separation", help="exact minimal-gap separation certificate")
    p.add_argument("--b", required=True, type=parse_number, help="rational p/q (exact arithmetic)")
    p.add_argument("--max-depth", type=int, default=8)

    p = add("lq", help="tau(q) and L^q dimension")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--q", required=True, type=_q_list, help="comma-separated q values")

    p = add("measure", help="sample the projected natural measure")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--seed", type=_seed, required=True)

    p = add("fourier", help="Fourier transform magnitudes of the projected measure")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--tmin", type=float, default=10.0)
    p.add_argument("--tmax", type=float, default=1e4)
    p.add_argument("--tcount", type=int, default=30)

    p = add("subsystem", help="homogeneous-subsystem checks", formats=False)
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--check", choices=("ratio", "gamma", "convolution", "entropy", "slices"), required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=_seed, default=None)

    p = add("bundle", help="composite desk-scale report for one parameter", formats=False)
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--seed", type=_seed, required=True)

    return parser


# --- handlers: each returns ("json", payload) or ("csv", header, rows) ----------


def _lq_rows(a, qs: list) -> list:
    return [{"q": q, "tau": dimensions.tau_q(a, q), "dim": dimensions.lq_dimension(a, q)} for q in qs]


def _box_json(series) -> dict:
    return {**vars(series), "rows": [{"n": n, "delta": d, "count": c} for n, d, c in series.rows]}


def _scan_json(scan) -> dict:
    """The scan summary: the drawn levels and their estimates stay out of the artifact."""
    fields = {k: v for k, v in vars(scan).items() if k not in ("ys", "estimates")}
    return {**fields, "sample_count": len(scan.ys)}


def _gamma_json(report) -> dict:
    # string keys sort as strings in the artifact: "10" before "9"
    return {**vars(report), "candidates": {str(e): ok for e, ok in report.candidates.items()}}


def _cmd_dims(cfg):
    if cfg.q and cfg.format == "csv":
        raise UsageError("dims --q is JSON only; lq --q --format csv writes the q rows as CSV")
    report = dimensions.dim_report(cfg.a)
    if cfg.format == "csv":
        header = ["a", "b", "s0", "p1", "p2", "p3", "entropy", "chi1", "chi2", "fenghu_dim", "level_set_bound"]
        return "csv", header, [(report.a, report.b, report.s0, *report.weights, report.entropy,
                                report.chi1, report.chi2, report.fenghu_dim, report.level_set_bound)]
    payload = {**vars(report), "assouad_bound": dimensions.assouad_bound(report.a, report.level_set_bound)}
    if cfg.q:
        payload["lq"] = _lq_rows(cfg.a, cfg.q)
    return "json", payload


def _array_rows(*columns):
    """CSV rows of equal-length arrays, leaving as Python values one chunk at a time."""
    for lo in range(0, len(columns[0]), _ROW_CHUNK):
        yield from zip(*(c[lo : lo + _ROW_CHUNK].tolist() for c in columns))


def _cmd_graph(cfg):
    n = cfg.depth
    if not 0 <= n <= estimators.GRID_DEPTH_CAP:
        raise DepthCapError(f"graph depth must lie in [0, {estimators.GRID_DEPTH_CAP}], got {n}")
    parts = systems.projection_parts(float_a(cfg.a))
    # the depth-n anchors are T(k/3^n) for k < 3^n; the endpoint T(1) = 1 closes the graph
    ys = np.append(systems.expand_level(*parts, n).t, 1.0)
    xs = np.arange(3**n + 1) / 3**n
    return "csv", ["x", "y"], _array_rows(xs, ys)


def _cmd_boxdim(cfg):
    if cfg.min_depth > cfg.max_depth:
        raise UsageError("min-depth must not exceed max-depth")
    series = estimators.box_count_series(cfg.a, range(cfg.min_depth, cfg.max_depth + 1), cfg.mode)
    if cfg.format == "csv":
        return "csv", ["n", "delta", "count"], series.rows
    return "json", _box_json(series)


def _word_text(symbols: np.ndarray) -> np.ndarray:
    """The rows of a uint8 symbol matrix as a str array: symbols 1-3 plus ord("0") are ASCII digits."""
    return (symbols + ord("0")).view(f"S{symbols.shape[1]}").ravel().astype(str)


def _cmd_levelset(cfg):
    cover = estimators.level_set_cover(cfg.a, cfg.y, cfg.depth)
    words = _word_text(cover.level.symbols())
    if cfg.format == "csv":
        return "csv", ["word"], _array_rows(words)
    return "json", {
        "a": float(cfg.a),
        "y": float(cfg.y),
        "depth": cover.depth,
        "count": cover.count,
        "dim_estimate": cover.dim_estimate,
        "words": words.tolist(),
    }


def _cmd_levelset_scan(cfg):
    scan = estimators.level_set_scan(cfg.a, cfg.samples, cfg.depth, seed=cfg.seed)
    if cfg.format == "csv":
        return "csv", ["y", "estimate"], _array_rows(scan.ys, scan.estimates)
    return "json", _scan_json(scan)


def _cmd_separation(cfg):
    report = separation.verify_sesc(cfg.b, n_max=cfg.max_depth)
    if cfg.format == "csv":
        rows = ((r["n"], float(r["gap"]), r["gap_root"], r["floor"]) for r in report.rows())
        return "csv", ["n", "gap", "gap_root", "floor"], rows
    return "json", {
        "b": report.b,
        "depths": report.depths,
        "gaps": report.gaps,
        "gap_floats": [float(g) for g in report.gaps],
        "epsilon": report.epsilon,
        "pass": report.passed,
        "floors": report.floors,
        "witness": None if report.witness is None else _word_text(report.witness).tolist(),
    }


def _cmd_lq(cfg):
    values = _lq_rows(cfg.a, cfg.q)
    if cfg.format == "csv":
        return "csv", ["q", "tau", "dim"], map(dict.values, values)
    return "json", {"a": float(cfg.a), "values": values}


def _cmd_measure(cfg):
    sample = estimators.sample_measure(cfg.a, cfg.samples, cfg.depth, cfg.seed)
    if cfg.format == "json":
        pts = sample.points
        return "json", {
            "a": sample.parameter,
            "count": sample.count,
            "depth": sample.depth,
            "seed": sample.seed,
            "mean": float(pts.mean()),
            "std": float(pts.std()),
        }
    return "csv", ["value"], _array_rows(sample.points)


def _cmd_fourier(cfg):
    if not (0 < cfg.tmin < math.inf and 0 < cfg.tmax < math.inf):
        raise ParameterError(f"--tmin and --tmax must be finite and positive, got {cfg.tmin} and {cfg.tmax}")
    if not 1 <= cfg.tcount <= _TCOUNT_CAP:
        raise ParameterError(f"--tcount must lie in [1, {_TCOUNT_CAP}], got {cfg.tcount}")
    sample = estimators.sample_measure(cfg.a, cfg.samples, 50, cfg.seed)
    ts = np.geomspace(cfg.tmin, cfg.tmax, cfg.tcount)
    mags = estimators.fourier_estimate(sample, ts)
    if cfg.format == "csv":
        return "csv", ["t", "magnitude"], _array_rows(ts, mags)
    slope, intercept, used = estimators.fourier_decay_fit(sample, ts)
    return "json", {
        "a": sample.parameter,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "t": ts.tolist(),
        "magnitude": mags.tolist(),
        "decay_slope": slope,
        "decay_intercept": intercept,
        "points_used": used,
    }


def _cmd_subsystem(cfg):
    check = cfg.check
    if check in ("convolution", "slices") and cfg.seed is None:
        raise UsageError(f"--seed is required for check {check!r}")
    if check == "ratio":
        sub = subsystem.build_subsystem(cfg.a, cfg.m)
        payload = {
            "a": float(cfg.a),
            "m": cfg.m,
            "alphabet_size": len(sub.alphabet),
            "ratio": float(sub.ratio),
            "exact_ratio_check": isinstance(cfg.a, (Fraction, int)),
        }
    elif check == "gamma":
        _, _, report = subsystem.gamma_conjugate(cfg.a, cfg.m, cfg.k)
        payload = _gamma_json(report)
    elif check == "convolution":
        payload = vars(subsystem.convolution_check(cfg.a, cfg.m, cfg.k, cfg.samples, cfg.seed))
    elif check == "entropy":
        payload = vars(subsystem.entropy_ratio(cfg.a, cfg.m, cfg.k))
    else:
        payload = vars(subsystem.slice_lower_bound_report(cfg.a, cfg.m, cfg.samples, cfg.depth, cfg.seed))
    return "json", {**payload, "check": check}


def _cmd_bundle(cfg):
    af = float_a(cfg.a)
    dims_report = dimensions.dim_report(af)
    box = estimators.box_count_series(af, range(6, 13), "column")
    scan = estimators.level_set_scan(af, 100, 12, seed=cfg.seed)
    entropy = subsystem.entropy_ratio(af, 200, 200)
    payload = {
        "a": af,
        "dims": dims_report,
        "box": _box_json(box),
        "levelset_scan": _scan_json(scan),
        "assouad": {
            "theoretical_slice_bound": dims_report.level_set_bound,
            "bound": dimensions.assouad_bound(af, dims_report.level_set_bound),
            "empirical_slice_sup": float(scan.estimates.max()),
            "bound_from_scan": dimensions.assouad_bound(af, float(scan.estimates.max())),
        },
        "subsystem_entropy": entropy,
    }
    return "json", payload


_HANDLERS = {
    "dims": _cmd_dims,
    "graph": _cmd_graph,
    "boxdim": _cmd_boxdim,
    "levelset": _cmd_levelset,
    "levelset-scan": _cmd_levelset_scan,
    "separation": _cmd_separation,
    "lq": _cmd_lq,
    "measure": _cmd_measure,
    "fourier": _cmd_fourier,
    "subsystem": _cmd_subsystem,
    "bundle": _cmd_bundle,
}


def _encode(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not part of the artifact format")


def _render(result, indent=2) -> str:
    """The one JSON encoder: ("json", payload) gains schema_version and must be strict JSON."""
    payload = {"schema_version": SCHEMA_VERSION, **result[1]}
    return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False, default=_encode) + "\n"


def _writer(result):
    """A function writing the artifact to a stream.

    JSON is encoded here, so an encoding error is reported like any other;
    CSV rows go to the stream as they are formed, never held as one text.
    """
    if result[0] == "json":
        text = _render(result)
        return lambda stream: stream.write(text)
    _, header, rows = result

    def write_csv(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    return write_csv


def _emit_error(kind: str, message: str) -> str:
    return _render(("json", {"error": {"type": kind, "message": message}}), indent=None)


def run(argv, stdout=None) -> int:
    out_stream = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
        write = _writer(_HANDLERS[cfg.command](cfg))
        if cfg.out:
            with open(cfg.out, "w") as fh:
                write(fh)
    except UsageError as exc:
        out_stream.write(_emit_error("usage", str(exc)))
        return 2
    except (OkamotoError, ValueError, OSError) as exc:
        out_stream.write(_emit_error(type(exc).__name__, str(exc)))
        return 1
    if cfg.out:
        out_stream.write(_render(("json", {"written": cfg.out}), indent=None))
    else:
        write(out_stream)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
