"""Command-line front end.

Numbers given as "p/q" are parsed into exact rationals and routed to the
exact-arithmetic paths; decimals stay floats.  This module is the only place
the artifact format is defined: every JSON artifact is strict JSON (never NaN
or Infinity) with schema_version "1", report dataclasses render by their
fields and rationals as "p/q"; every CSV has a header row.  Runs are
deterministic for a fixed config and seed (no timestamps, sorted keys).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import dimensions, estimators, separation, subsystem, systems
from .errors import DepthCapError, OkamotoError, ParameterError
from .words import word_to_str

SCHEMA_VERSION = "1"
_TCOUNT_CAP = 1000  # frequencies of one fourier grid


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
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad q list {text!r}; expected comma-separated numbers") from exc


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
    p.add_argument("--a", required=True)
    p.add_argument("--q", default=None, help="comma-separated q values for tau/L^q columns")

    p = add("graph", help="CSV of the graph points (k/3^depth, T(k/3^depth))", formats=False)
    p.add_argument("--a", required=True)
    p.add_argument("--depth", type=int, default=6)

    p = add("boxdim", help="box-count series and slope fit")
    p.add_argument("--a", required=True)
    p.add_argument("--min-depth", type=int, default=6)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--mode", choices=("column", "grid"), default="column")

    p = add("levelset", help="cover of one level set")
    p.add_argument("--a", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--depth", type=int, default=10)

    p = add("levelset-scan", help="level-set dimension statistics over random levels")
    p.add_argument("--a", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=int, required=True)

    p = add("separation", help="exact minimal-gap separation certificate")
    p.add_argument("--b", required=True, help="rational p/q (exact arithmetic)")
    p.add_argument("--max-depth", type=int, default=8)

    p = add("lq", help="tau(q) and L^q dimension")
    p.add_argument("--a", required=True)
    p.add_argument("--q", required=True, help="comma-separated q values")

    p = add("measure", help="sample the projected natural measure")
    p.add_argument("--a", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--seed", type=int, required=True)

    p = add("fourier", help="Fourier transform magnitudes of the projected measure")
    p.add_argument("--a", required=True)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmin", type=float, default=10.0)
    p.add_argument("--tmax", type=float, default=1e4)
    p.add_argument("--tcount", type=int, default=30)

    p = add("subsystem", help="homogeneous-subsystem checks", formats=False)
    p.add_argument("--a", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--check", choices=("ratio", "gamma", "convolution", "entropy", "slices"), required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=int, default=None)

    p = add("bundle", help="composite desk-scale report for one parameter", formats=False)
    p.add_argument("--a", required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


# --- handlers: each returns ("json", payload) or ("csv", header, rows) ----------


def _lq_rows(a, text: str) -> list:
    return [
        {"q": q, "tau": dimensions.tau_q(a, q), "dim": dimensions.lq_dimension(a, q)}
        for q in _q_list(text)
    ]


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
    a = parse_number(cfg.a)
    report = dimensions.dim_report(a)
    payload = {**vars(report), "assouad_bound": dimensions.assouad_bound(float(a), report.level_set_bound)}
    if cfg.q:
        payload["lq"] = _lq_rows(a, cfg.q)
    if cfg.format == "csv":
        header = ["a", "b", "s0", "p1", "p2", "p3", "entropy", "chi1", "chi2", "fenghu_dim", "level_set_bound"]
        row = [report.a, report.b, report.s0, *report.weights, report.entropy,
               report.chi1, report.chi2, report.fenghu_dim, report.level_set_bound]
        return "csv", header, [row]
    return "json", payload


def _cmd_graph(cfg):
    n = cfg.depth
    if not 0 <= n <= estimators.GRID_DEPTH_CAP:
        raise DepthCapError(f"graph depth must lie in [0, {estimators.GRID_DEPTH_CAP}], got {n}")
    system = systems.build_system("projection", float(parse_number(cfg.a)))
    # the depth-n anchors are T(k/3^n) for k < 3^n; the endpoint T(1) = 1 closes the graph
    ys = np.append(systems.expand_level(*system.parts(), n).t, 1.0)
    xs = np.arange(3**n + 1) / 3**n
    return "csv", ["x", "y"], np.column_stack([xs, ys]).tolist()


def _cmd_boxdim(cfg):
    a = parse_number(cfg.a)
    if cfg.min_depth > cfg.max_depth:
        raise UsageError("min-depth must not exceed max-depth")
    series = estimators.box_count_series(a, range(cfg.min_depth, cfg.max_depth + 1), cfg.mode)
    if cfg.format == "csv":
        return "csv", ["n", "delta", "count"], [[n, d, c] for n, d, c in series.rows]
    return "json", _box_json(series)


def _cmd_levelset(cfg):
    a = parse_number(cfg.a)
    y = parse_number(cfg.y)
    cover = estimators.level_set_cover(a, y, cfg.depth)
    if cfg.format == "csv":
        return "csv", ["word"], [[word_to_str(w)] for w in cover.words]
    return "json", {
        "a": float(a),
        "y": float(y),
        "depth": cover.depth,
        "count": cover.count,
        "dim_estimate": cover.dim_estimate,
        "words": [word_to_str(w) for w in cover.words],
    }


def _cmd_levelset_scan(cfg):
    a = parse_number(cfg.a)
    scan = estimators.level_set_scan(float(a), cfg.samples, cfg.depth, seed=cfg.seed)
    if cfg.format == "csv":
        return "csv", ["y", "estimate"], [[y, e] for y, e in zip(scan.ys, scan.estimates)]
    return "json", _scan_json(scan)


def _cmd_separation(cfg):
    b = parse_number(cfg.b)
    if not isinstance(b, Fraction):
        raise UsageError("separation needs an exact rational --b, e.g. 1/2")
    report = separation.verify_sesc(b, n_max=cfg.max_depth)
    if cfg.format == "csv":
        rows = [[r["n"], float(r["gap"]), r["gap_root"], r["floor"]] for r in report.rows()]
        return "csv", ["n", "gap", "gap_root", "floor"], rows
    return "json", {
        "b": report.b,
        "depths": report.depths,
        "gaps": report.gaps,
        "gap_floats": [float(g) for g in report.gaps],
        "epsilon": report.epsilon,
        "pass": report.passed,
        "floors": report.floors,
        "witness": None if report.witness is None else [word_to_str(w) for w in report.witness],
    }


def _cmd_lq(cfg):
    a = parse_number(cfg.a)
    values = _lq_rows(a, cfg.q)
    if cfg.format == "csv":
        return "csv", ["q", "tau", "dim"], [[v["q"], v["tau"], v["dim"]] for v in values]
    return "json", {"a": float(a), "values": values}


def _cmd_measure(cfg):
    a = parse_number(cfg.a)
    sample = estimators.natural_measure_sample(float(a), cfg.samples, cfg.depth, cfg.seed)
    if cfg.format == "json":
        pts = sample.points
        return "json", {
            "a": float(a),
            "count": sample.count,
            "depth": sample.depth,
            "seed": sample.seed,
            "mean": float(pts.mean()),
            "std": float(pts.std()),
        }
    return "csv", ["value"], [[float(v)] for v in sample.points]


def _cmd_fourier(cfg):
    a = parse_number(cfg.a)
    if not (0 < cfg.tmin < math.inf and 0 < cfg.tmax < math.inf):
        raise ParameterError(f"--tmin and --tmax must be finite and positive, got {cfg.tmin} and {cfg.tmax}")
    if not 1 <= cfg.tcount <= _TCOUNT_CAP:
        raise ParameterError(f"--tcount must lie in [1, {_TCOUNT_CAP}], got {cfg.tcount}")
    sample = estimators.natural_measure_sample(float(a), cfg.samples, 50, cfg.seed)
    ts = np.geomspace(cfg.tmin, cfg.tmax, cfg.tcount)
    mags = estimators.fourier_estimate(sample, ts)
    if cfg.format == "csv":
        return "csv", ["t", "magnitude"], [[float(t), float(m)] for t, m in zip(ts, mags)]
    slope, intercept, used = estimators.fourier_decay_fit(sample, ts)
    return "json", {
        "a": float(a),
        "samples": cfg.samples,
        "seed": cfg.seed,
        "t": [float(t) for t in ts],
        "magnitude": [float(m) for m in mags],
        "decay_slope": slope,
        "decay_intercept": intercept,
        "points_used": used,
    }


def _cmd_subsystem(cfg):
    a = parse_number(cfg.a)
    check = cfg.check
    if check in ("convolution", "slices") and cfg.seed is None:
        raise UsageError(f"--seed is required for check {check!r}")
    if check == "ratio":
        sub = subsystem.build_subsystem(a, cfg.m)
        payload = {
            "a": float(a),
            "m": cfg.m,
            "alphabet_size": len(sub.alphabet),
            "ratio": float(sub.ratio),
            "exact_ratio_check": isinstance(a, (Fraction, int)),
        }
    elif check == "gamma":
        _, _, report = subsystem.gamma_conjugate(a, cfg.m, cfg.k)
        payload = _gamma_json(report)
    elif check == "convolution":
        payload = vars(subsystem.convolution_check(float(a), cfg.m, cfg.k, cfg.samples, cfg.seed))
    elif check == "entropy":
        payload = vars(subsystem.entropy_ratio(float(a), cfg.m, cfg.k))
    else:
        payload = vars(subsystem.slice_lower_bound_report(float(a), cfg.m, cfg.samples, cfg.depth, cfg.seed))
    return "json", {**payload, "check": check}


def _cmd_bundle(cfg):
    a = parse_number(cfg.a)
    af = float(a)
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
            "empirical_slice_sup": max(scan.estimates),
            "bound_from_scan": dimensions.assouad_bound(af, max(scan.estimates)),
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
    if result[0] == "json":
        payload = {"schema_version": SCHEMA_VERSION, **result[1]}
        return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False, default=_encode) + "\n"
    _, header, rows = result
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _emit_error(kind: str, message: str) -> str:
    return _render(("json", {"error": {"type": kind, "message": message}}), indent=None)


def run(argv, stdout=None) -> int:
    out_stream = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
        result = _HANDLERS[cfg.command](cfg)
        text = _render(result)
    except UsageError as exc:
        out_stream.write(_emit_error("usage", str(exc)))
        return 2
    except OkamotoError as exc:
        out_stream.write(_emit_error(type(exc).__name__, str(exc)))
        return 1
    except (ValueError, OSError) as exc:
        out_stream.write(_emit_error(type(exc).__name__, str(exc)))
        return 1
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        out_stream.write(_render(("json", {"written": cfg.out}), indent=None))
    else:
        out_stream.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
