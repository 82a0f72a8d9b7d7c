"""Command-line front end.

The parser parses each number once: "p/q" is an exact rational for the exact
paths, a decimal a float.  A float-only path converts a at one gate,
words.float_a; `dims --q` is JSON only.  This module is the only place
the artifact format is defined: every JSON artifact is strict JSON (never NaN
or Infinity) with schema_version "1", report dataclasses render by their
fields and rationals as "p/q"; every CSV is a header line and then lines of
values, each value written as its str, the bytes the csv module would write.
A long column leaves its array at most _ROW_CHUNK rows at a time.  A cover's
words leave their symbol matrix as lines of one byte buffer, and their JSON
is the rendered scalars with those lines spliced into the list's place.  Every
artifact goes to stdout or --out as these text pieces through one writelines,
never held as one text.  Runs are deterministic for a fixed config and seed
(no timestamps, sorted keys).  The parser is built once per process, on the
first build_parser call, and every run call shares it; each subcommand names
its handler there.  A stdout closed by its reader ends main with exit code 1
and no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
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
_ROW_CHUNK = 1 << 13  # rows of a long column rendered as text together


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

    def add(name, handler, help, formats=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        if formats:  # only commands that render both JSON and CSV take --format
            p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("dims", _cmd_dims, help="closed-form dimension report")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--q", default=None, type=_q_list, help="comma-separated q values for tau/L^q rows (JSON only)")

    p = add("graph", _cmd_graph, help="CSV of the graph points (k/3^depth, T(k/3^depth))", formats=False)
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--depth", type=int, default=6)

    p = add("boxdim", _cmd_boxdim, help="box-count series and slope fit")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--min-depth", type=int, default=6)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--mode", choices=("column", "grid"), default="column")

    p = add("levelset", _cmd_levelset, help="cover of one level set")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--y", required=True, type=parse_number)
    p.add_argument("--depth", type=int, default=10)

    p = add("levelset-scan", _cmd_levelset_scan, help="level-set dimension statistics over random levels")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=_seed, required=True)

    p = add("separation", _cmd_separation, help="exact minimal-gap separation certificate")
    p.add_argument("--b", required=True, type=parse_number, help="rational p/q (exact arithmetic)")
    p.add_argument("--max-depth", type=int, default=8)

    p = add("lq", _cmd_lq, help="tau(q) and L^q dimension")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--q", required=True, type=_q_list, help="comma-separated q values")

    p = add("measure", _cmd_measure, help="sample the projected natural measure")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--seed", type=_seed, required=True)

    p = add("fourier", _cmd_fourier, help="Fourier transform magnitudes of the projected measure")
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--tmin", type=float, default=10.0)
    p.add_argument("--tmax", type=float, default=1e4)
    p.add_argument("--tcount", type=int, default=30)

    p = add("subsystem", _cmd_subsystem, help="homogeneous-subsystem checks", formats=False)
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--check", choices=("ratio", "gamma", "convolution", "entropy", "slices"), required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=_seed, default=None)

    p = add("bundle", _cmd_bundle, help="composite desk-scale report for one parameter", formats=False)
    p.add_argument("--a", required=True, type=parse_number)
    p.add_argument("--seed", type=_seed, required=True)

    return parser


# --- handlers: each returns a JSON payload dict or a CSV (header, line chunks) pair ---


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
        row = (report.a, report.b, report.s0, *report.weights, report.entropy,
               report.chi1, report.chi2, report.fenghu_dim, report.level_set_bound)
        return header, [_csv_lines(*zip(row))]
    payload = {**vars(report), "assouad_bound": dimensions.assouad_bound(report.a, report.level_set_bound)}
    if cfg.q:
        payload["lq"] = _lq_rows(cfg.a, cfg.q)
    return payload


def _csv_lines(*columns) -> str:
    """CSV lines of equal-length, non-empty columns of values, each value written as its str.

    str is what the csv module writes: the repr of a Python int or float, the
    shortest round-trip digits of a numpy float64.  No value needs quoting.
    """
    return "\n".join(map(",".join, zip(*(map(str, c) for c in columns)))) + "\n"


def _column_lines(*columns):
    """CSV lines of equal-length arrays, one chunk of rows at a time."""
    for lo in range(0, len(columns[0]), _ROW_CHUNK):
        yield _csv_lines(*(c[lo : lo + _ROW_CHUNK].tolist() for c in columns))


def _cmd_graph(cfg):
    n = cfg.depth
    if not 0 <= n <= estimators.GRID_DEPTH_CAP:
        raise DepthCapError(f"graph depth must lie in [0, {estimators.GRID_DEPTH_CAP}], got {n}")
    parts = systems.projection_parts(float_a(cfg.a))
    # the depth-n anchors are T(k/3^n) for k < 3^n; the endpoint T(1) = 1 closes the graph
    ys = np.append(systems.expand_level(*parts, n).t, 1.0)
    xs = np.arange(3**n + 1) / 3**n
    return ["x", "y"], _column_lines(xs, ys)


def _cmd_boxdim(cfg):
    if cfg.min_depth > cfg.max_depth:
        raise UsageError("min-depth must not exceed max-depth")
    series = estimators.box_count_series(cfg.a, range(cfg.min_depth, cfg.max_depth + 1), cfg.mode)
    if cfg.format == "csv":
        return ["n", "delta", "count"], [_csv_lines(*zip(*series.rows))]
    return _box_json(series)


def _word_lines(symbols: np.ndarray, head=b"", tail=b"\n", trim=0):
    """The rows of a uint8 symbol matrix as text, one line per word, one chunk of rows at a time.

    A line is head, the word's digits (symbols 1-3 plus ord("0")) and tail,
    written into one reused byte buffer whose fixed bytes hold head and tail;
    each chunk is decoded once.  The last line loses its final trim bytes.
    """
    rows, width = symbols.shape
    buf = np.empty((min(rows, _ROW_CHUNK), len(head) + width + len(tail)), np.uint8)
    buf[:, : len(head)] = np.frombuffer(head, np.uint8)
    buf[:, len(head) + width :] = np.frombuffer(tail, np.uint8)
    for lo in range(0, rows, _ROW_CHUNK):
        part = symbols[lo : lo + _ROW_CHUNK]
        np.add(part, ord("0"), out=buf[: len(part), len(head) : len(head) + width])
        size = buf[: len(part)].size - (trim if lo + len(part) == rows else 0)
        yield str(buf.reshape(-1)[:size].data, "ascii")


def _cmd_levelset(cfg):
    cover = estimators.level_set_cover(cfg.a, cfg.y, cfg.depth)
    symbols = cover.level.symbols()
    if cfg.format == "csv":
        return ["word"], _word_lines(symbols)
    return {
        "a": float(cfg.a),
        "y": float(cfg.y),
        "depth": cover.depth,
        "count": cover.count,
        "dim_estimate": cover.dim_estimate,
        "words": symbols,  # spliced in by _pieces as indented JSON string lines
    }


def _cmd_levelset_scan(cfg):
    scan = estimators.level_set_scan(cfg.a, cfg.samples, cfg.depth, seed=cfg.seed)
    if cfg.format == "csv":
        return ["y", "estimate"], _column_lines(scan.ys, scan.estimates)
    return _scan_json(scan)


def _cmd_separation(cfg):
    report = separation.verify_sesc(cfg.b, n_max=cfg.max_depth)
    if cfg.format == "csv":
        lines = _csv_lines(report.depths, map(float, report.gaps), report.roots, report.floors)
        return ["n", "gap", "gap_root", "floor"], [lines]
    return {
        "b": report.b,
        "depths": report.depths,
        "gaps": report.gaps,
        "gap_floats": [float(g) for g in report.gaps],
        "epsilon": report.epsilon,
        "pass": report.passed,
        "floors": report.floors,
        "witness": None if report.witness is None else "".join(_word_lines(report.witness)).split(),
    }


def _cmd_lq(cfg):
    values = _lq_rows(cfg.a, cfg.q)
    if cfg.format == "csv":
        return ["q", "tau", "dim"], [_csv_lines(*zip(*map(dict.values, values)))]
    return {"a": float(cfg.a), "values": values}


def _cmd_measure(cfg):
    sample = estimators.sample_measure(cfg.a, cfg.samples, cfg.depth, cfg.seed)
    if cfg.format == "json":
        pts = sample.points
        return {
            "a": sample.parameter,
            "count": sample.count,
            "depth": sample.depth,
            "seed": sample.seed,
            "mean": float(pts.mean()),
            "std": float(pts.std()),
        }
    return ["value"], _column_lines(sample.points)


def _cmd_fourier(cfg):
    if not (0 < cfg.tmin < math.inf and 0 < cfg.tmax < math.inf):
        raise ParameterError(f"--tmin and --tmax must be finite and positive, got {cfg.tmin} and {cfg.tmax}")
    if not 1 <= cfg.tcount <= _TCOUNT_CAP:
        raise ParameterError(f"--tcount must lie in [1, {_TCOUNT_CAP}], got {cfg.tcount}")
    sample = estimators.sample_measure(cfg.a, cfg.samples, 50, cfg.seed)
    ts = np.geomspace(cfg.tmin, cfg.tmax, cfg.tcount)
    mags = estimators.fourier_estimate(sample, ts)
    if cfg.format == "csv":
        return ["t", "magnitude"], _column_lines(ts, mags)
    slope, intercept, used = estimators.fourier_decay_fit(sample, ts)
    return {
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
    return {**payload, "check": check}


def _cmd_bundle(cfg):
    af = float_a(cfg.a)
    dims_report = dimensions.dim_report(af)
    box = estimators.box_count_series(af, range(6, 13), "column")
    scan = estimators.level_set_scan(af, 100, 12, seed=cfg.seed)
    entropy = subsystem.entropy_ratio(af, 200, 200)
    return {
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


def _encode(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not part of the artifact format")


def _render(payload, indent=2) -> str:
    """The one JSON encoder: the payload gains schema_version and must be strict JSON."""
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False, default=_encode) + "\n"


def _pieces(result):
    """The artifact as text pieces, in order, never joined into one text.

    A CSV is its header line, then the handler's line chunks as they are
    formed.  JSON is encoded here, so an encoding error is reported like any
    other; a cover's symbol matrix under "words" (never empty) goes out as
    the lines of _word_lines between the texts _render gives before and
    after an empty list.
    """
    if isinstance(result, tuple):
        header, lines = result
        return itertools.chain([",".join(header) + "\n"], lines)
    words = result.get("words")
    if not isinstance(words, np.ndarray):
        return [_render(result)]
    head, _, tail = _render({**result, "words": []}).partition('"words": []')
    lines = _word_lines(words, b'    "', b'",\n', trim=2)
    return itertools.chain([head + '"words": [\n'], lines, ["\n  ]" + tail])


def _emit_error(kind: str, message: str) -> str:
    return _render({"error": {"type": kind, "message": message}}, indent=None)


def run(argv, stdout=None) -> int:
    out_stream = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
        pieces = _pieces(cfg.handler(cfg))
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.writelines(pieces)
    except UsageError as exc:
        out_stream.write(_emit_error("usage", str(exc)))
        return 2
    except (OkamotoError, ValueError, OSError) as exc:
        out_stream.write(_emit_error(type(exc).__name__, str(exc)))
        return 1
    if cfg.out:
        out_stream.write(_render({"written": cfg.out}, indent=None))
    else:
        out_stream.writelines(pieces)
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
