import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graph_oracle import evaluate_T
import okamoto
from okamoto import dimensions, estimators, separation, systems
from okamoto.cli import _ROW_CHUNK, _column_lines, _csv_lines, _pieces, build_parser, parse_number, run
from okamoto.dimensions import okamoto_s0
from okamoto.estimators import LEVEL_COUNT_CAP, level_set_cover
from word_oracle import word_tuples


def _run(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def _cli_process(argv, **kwargs):
    """The CLI in a new interpreter on this checkout's package, as a Popen."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(okamoto.__file__))}
    return subprocess.Popen([sys.executable, "-m", "okamoto.cli", *argv], env=env, **kwargs)


def test_one_parser_serves_every_run():
    assert build_parser() is build_parser()
    # a usage error part-way through a subcommand's options leaves nothing behind:
    # the next run takes --depth's default, twice, as a fresh process does
    code, out = _run(["levelset", "--a", "3/4", "--depth", "5", "--y", "x/2"])
    assert code == 2 and json.loads(out)["error"]["type"] == "usage"
    argv = ["levelset", "--a", "3/4", "--y", "1/3", "--format", "csv"]
    with _cli_process(argv, stdout=subprocess.PIPE) as proc:
        fresh = proc.communicate(timeout=120)[0]
    assert proc.returncode == 0
    for _ in range(2):
        code, out = _run(argv)
        assert code == 0 and out.encode() == fresh


def _close_after_first_line(argv, first):
    with _cli_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def test_closed_stdout_ends_with_exit_code_1_and_no_traceback():
    # two MB of CSV: the writer is still writing when the reader closes the pipe
    _close_after_first_line(["measure", "--a", "0.75", "--samples", "100000", "--seed", "1", "--format", "csv"],
                            b"value\n")


def test_closed_stdout_ends_streamed_json_with_exit_code_1_and_no_traceback():
    # 2.4 MB of JSON whose 141 547 words go out chunk by chunk after the rendered head
    _close_after_first_line(["levelset", "--a", "0.9", "--y", "0.5", "--depth", "11"], b"{\n")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_fourier_output_is_the_same_on_one_cpu():
    # the child pins itself to one CPU before the package loads; the trig sums must not depend on the CPUs
    argv = ["fourier", "--a", "0.75", "--samples", "20000", "--seed", "3"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(okamoto.__file__))}
    pin = ("import os, runpy, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "sys.argv[0] = 'okamoto'; runpy.run_module('okamoto.cli', run_name='__main__')")
    one = subprocess.run([sys.executable, "-c", pin, *argv], env=env, capture_output=True, timeout=120)
    with _cli_process(argv, stdout=subprocess.PIPE) as proc:
        every = proc.communicate(timeout=120)[0]
    assert one.returncode == proc.returncode == 0 and one.stderr == b""
    assert one.stdout == every


def _codes_and_import(commands, module):
    """(exit codes, whether module was imported) of commands run through cli.run in one new interpreter."""
    script = ("import io, json, sys; from okamoto.cli import run; "
              "print(json.dumps([[run(argv, stdout=io.StringIO()) for argv in json.loads(sys.argv[1])], "
              "sys.argv[2] in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(okamoto.__file__))}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands), module], env=env,
                          capture_output=True, timeout=120)
    assert done.stderr == b""
    codes, imported = json.loads(done.stdout)
    return codes, imported


def test_level_summaries_import_no_numpy_ma():
    # np.quantile finds its indices through np.unique, whose first call imports numpy.ma, about 20 ms
    # of a fresh process; every command that summarises levels takes the same quantiles from one sort
    commands = [
        ["levelset-scan", "--a", "0.75", "--samples", "50", "--depth", "14", "--seed", "1"],
        ["levelset-scan", "--a", "0.9", "--samples", "40", "--depth", "12", "--seed", "1", "--format", "csv"],
        ["subsystem", "--a", "0.75", "--m", "8", "--check", "slices", "--samples", "20", "--depth", "12",
         "--seed", "1"],
        ["bundle", "--a", "0.75", "--seed", "1"],
    ]
    assert _codes_and_import(commands, "numpy.ma") == ([0, 0, 0, 0], False)


def test_csv_commands_import_no_csv_module():
    # every CSV, few rows or array columns, is formatted by one str rule and written by one writelines
    commands = [
        ["dims", "--a", "0.75", "--format", "csv"],
        ["lq", "--a", "0.75", "--q", "1.5,2", "--format", "csv"],
        ["boxdim", "--a", "3/4", "--format", "csv"],
        ["boxdim", "--a", "0.75", "--mode", "grid", "--min-depth", "4", "--max-depth", "8", "--format", "csv"],
        ["separation", "--b", "2/5", "--format", "csv"],
        ["graph", "--a", "0.75", "--depth", "4"],
        ["measure", "--a", "0.75", "--samples", "100", "--seed", "1", "--format", "csv"],
        ["fourier", "--a", "0.75", "--samples", "100", "--seed", "1", "--tcount", "3", "--format", "csv"],
        ["levelset", "--a", "3/4", "--y", "1/3", "--depth", "8", "--format", "csv"],
        ["levelset-scan", "--a", "0.75", "--samples", "5", "--depth", "8", "--seed", "1", "--format", "csv"],
    ]
    assert _codes_and_import(commands, "csv") == ([0] * len(commands), False)


def test_parse_number_routes():
    assert parse_number("3/4") == Fraction(3, 4)
    assert isinstance(parse_number("0.75"), float)
    from okamoto.cli import UsageError

    with pytest.raises(UsageError):
        parse_number("3/0")
    with pytest.raises(UsageError):
        parse_number("abc")


def test_dims_json():
    code, out = _run(["dims", "--a", "0.75"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert abs(payload["s0"] - (1 + math.log(2) / math.log(3))) < 1e-12
    assert abs(payload["fenghu_dim"] - payload["s0"]) < 1e-10


def test_dims_with_q_and_csv():
    code, out = _run(["dims", "--a", "0.75", "--q", "1.5,2"])
    payload = json.loads(out)
    assert all(v["dim"] == 1.0 for v in payload["lq"])
    code, out = _run(["dims", "--a", "0.75", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("a,b,s0")


def test_dims_q_rows_are_json_only(monkeypatch):
    from okamoto import dimensions

    monkeypatch.setattr(dimensions, "dim_report", lambda a: pytest.fail("dims ran before its options were checked"))
    code, out = _run(["dims", "--a", "0.75", "--q", "2", "--format", "csv"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "lq" in error["message"]


def test_dims_domain_error_exit_code():
    code, out = _run(["dims", "--a", "0.4"])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "ParameterError"
    assert "1/2" in payload["error"]["message"]


def test_usage_error_is_machine_readable():
    code, out = _run(["dims"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"


def test_graph_csv_fixed_points_and_symmetry():
    code, out = _run(["graph", "--a", "0.75", "--depth", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows[0] == (0.0, 0.0) and rows[-1] == (1.0, 1.0)
    ys = [y for _, y in rows]
    for y1, y2 in zip(ys, reversed(ys)):
        assert abs(y1 + y2 - 1.0) < 1e-9


def _graph_rows(a, n):
    code, out = _run(["graph", "--a", a, "--depth", str(n)])
    assert code == 0
    return [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]


def test_graph_depth_is_bounded_before_any_work():
    for depth in ("-1", "15", "1000000"):
        code, out = _run(["graph", "--a", "0.75", "--depth", depth])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DepthCapError"
    assert _graph_rows("0.75", 0) == [(0.0, 0.0), (1.0, 1.0)]


def test_graph_near_one_needs_no_digit_budget():
    rows = _graph_rows("0.99", 4)
    assert len(rows) == 82
    assert rows[0] == (0.0, 0.0) and rows[-1] == (1.0, 1.0)
    for (_, y1), (_, y2) in zip(rows, reversed(rows)):
        assert abs(y1 + y2 - 1.0) <= 2e-9


@pytest.mark.parametrize("a", ["0.55", "0.75", "0.9", "2/3"])
def test_graph_rows_equal_evaluate_T(a):
    af = float(parse_number(a))
    for n in range(7):
        expected = [(float(x), evaluate_T(af, x)[0]) for x in (Fraction(k, 3**n) for k in range(3**n + 1))]
        assert _graph_rows(a, n) == expected


def test_separation_json_and_csv():
    code, out = _run(["separation", "--b", "2/5", "--max-depth", "6"])
    payload = json.loads(out)
    assert payload["pass"] is True and payload["epsilon"] > 0
    code, out = _run(["separation", "--b", "2/5", "--max-depth", "4", "--format", "csv"])
    assert out.splitlines()[0] == "n,gap,gap_root,floor"
    assert len(out.splitlines()) == 5
    n, gap = out.splitlines()[1].split(",")[:2]
    assert int(n) == 1 and float(gap) == 1  # the depth-1 gap of 2/5 is exactly 1
    # the witness rows render through the same byte view as levelset words
    code, out = _run(["separation", "--b", "1/2", "--max-depth", "4"])
    assert json.loads(out)["witness"] == ["132", "221"]


def test_separation_roots_of_gaps_below_the_float_range_are_positive():
    # the depth-12 gap of b = 1/10^30 is 10^-330: its float is 0.0, its 12th root 10^-27.5
    argv = ["separation", "--b", f"1/{10**30}", "--max-depth", "12"]
    payload = json.loads(_run(argv)[1])
    assert payload["pass"] is True and payload["gap_floats"][-1] == 0.0
    assert payload["epsilon"] == pytest.approx(10**-27.5, rel=1e-12)
    roots = [float(row.split(",")[2]) for row in _cli_csv(argv).splitlines()[1:]]
    assert len(roots) == 12 and min(roots) == payload["epsilon"] > 0


def test_separation_rejects_decimal_b():
    code, out = _run(["separation", "--b", "0.5"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParameterError"
    assert "rational" in error["message"]


def test_levelset_json():
    code, out = _run(["levelset", "--a", "3/4", "--y", "0", "--depth", "6"])
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["words"] == ["111111"]


@pytest.mark.parametrize("a, y", [("3/4", "1/3"), ("2/3", "38/81"), ("0.75", "0.3"), ("0.9", "0.5")])
def test_levelset_words_render_the_cover_words(a, y):
    # the words are rendered from the symbol matrix; they are the cover's word tuples as text, in order
    cover = level_set_cover(parse_number(a), parse_number(y), 9)
    expected = ["".join(map(str, w)) for w in word_tuples(cover.level.symbols())]
    assert len(expected) > 1
    code, out = _run(["levelset", "--a", a, "--y", y, "--depth", "9"])
    assert code == 0 and json.loads(out)["words"] == expected
    code, out = _run(["levelset", "--a", a, "--y", y, "--depth", "9", "--format", "csv"])
    assert code == 0 and out.split() == ["word", *expected]


def test_levelset_scan_requires_seed_and_reproduces():
    code, out = _run(["levelset-scan", "--a", "0.75", "--samples", "20", "--depth", "8"])
    assert code == 2
    code1, out1 = _run(["levelset-scan", "--a", "0.75", "--samples", "20", "--depth", "8", "--seed", "4"])
    code2, out2 = _run(["levelset-scan", "--a", "0.75", "--samples", "20", "--depth", "8", "--seed", "4"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_boxdim_csv_and_json():
    code, out = _run(["boxdim", "--a", "0.75", "--min-depth", "4", "--max-depth", "8", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "n,delta,count"
    assert len(lines) == 6
    code, out = _run(["boxdim", "--a", "0.75", "--min-depth", "6", "--max-depth", "10"])
    payload = json.loads(out)
    assert abs(payload["fitted_slope"] - okamoto_s0(0.75)) < 0.05


def test_measure_csv_deterministic():
    args = ["measure", "--a", "0.75", "--samples", "50", "--depth", "30", "--seed", "11", "--format", "csv"]
    _, out1 = _run(args)
    _, out2 = _run(args)
    assert out1 == out2
    assert out1.splitlines()[0] == "value"
    assert len(out1.splitlines()) == 51


def test_csv_values_print_as_the_python_float_repr():
    row = (5e-324, -0.0, 1e16, 1 / 3, np.float64(0.1), 2**64 + 1)
    line = _csv_lines(*zip(row))
    assert line == "5e-324,-0.0,1e+16,0.3333333333333333,0.1,18446744073709551617\n"
    assert "".join(_pieces((list("abcdef"), [line]))) == _csv_text(list("abcdef"), [row])


def _csv_text(header, rows):
    """What the csv module writes for a header and rows of Python values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("count", [0, 1, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1])
def test_array_columns_print_as_the_csv_module_writes_them(count):
    values = np.array([5e-324, -0.0, 1e16, 1 / 3, 0.1, -2.5e-308, 1e22, 123456789.0])
    x = np.resize(values, count) * np.random.default_rng(count).choice([1.0, -1.0, 0.5], count)
    y = np.arange(count) / 3**7
    n = np.arange(count, dtype=np.int64) - 5
    expected = _csv_text(["x", "y", "n"], zip(x.tolist(), y.tolist(), n.tolist()))
    assert "".join(_pieces((["x", "y", "n"], _column_lines(x, y, n)))) == expected
    assert "".join(_pieces((["value"], _column_lines(x)))) == _csv_text(["value"], zip(map(np.float64, x)))


def _cli_csv(argv):
    code, out = _run([*argv, "--format", "csv"])
    assert code == 0
    return out


@pytest.mark.parametrize("a", ["0.75", "3/4", "0.6", "2/3"])
def test_dims_csv_is_what_the_csv_module_writes(a):
    r = dimensions.dim_report(parse_number(a))
    row = (r.a, r.b, r.s0, *r.weights, r.entropy, r.chi1, r.chi2, r.fenghu_dim, r.level_set_bound)
    header = ["a", "b", "s0", "p1", "p2", "p3", "entropy", "chi1", "chi2", "fenghu_dim", "level_set_bound"]
    assert _cli_csv(["dims", "--a", a]) == _csv_text(header, [row])


@pytest.mark.parametrize("a, mode, lo, hi", [
    ("0.75", "column", 0, 12), ("3/4", "column", 4, 8), ("999/1000", "column", 18, 20),  # 20: above 2^63
    ("0.75", "grid", 0, 8), ("0.6", "grid", 6, 9),
])
def test_boxdim_csv_is_what_the_csv_module_writes(a, mode, lo, hi):
    series = estimators.box_count_series(parse_number(a), range(lo, hi + 1), mode)
    out = _cli_csv(["boxdim", "--a", a, "--mode", mode, "--min-depth", str(lo), "--max-depth", str(hi)])
    assert out == _csv_text(["n", "delta", "count"], series.rows)
    if a == "999/1000":
        assert series.rows[-1][2] == 11837534970754725699 > 2**63


@pytest.mark.parametrize("b", ["2/5", "1/2", "7/11"])
def test_separation_csv_is_what_the_csv_module_writes(b):
    r = separation.verify_sesc(parse_number(b), 9)
    rows = [(n, float(g), float(g) ** (1.0 / n) if g > 0 else 0.0, f) for n, g, f in zip(r.depths, r.gaps, r.floors)]
    assert _cli_csv(["separation", "--b", b, "--max-depth", "9"]) == _csv_text(["n", "gap", "gap_root", "floor"], rows)


def test_lq_csv_is_what_the_csv_module_writes():
    qs = [1.5, 2.0, 4.0, 8.0, 1e3]
    rows = [(q, dimensions.tau_q(0.75, q), dimensions.lq_dimension(0.75, q)) for q in qs]
    assert _cli_csv(["lq", "--a", "0.75", "--q", "1.5,2,4,8,1e3"]) == _csv_text(["q", "tau", "dim"], rows)


def _levelset_json_dumps(a, y, depth):
    """The levelset artifact as one json.dumps of a payload holding every word as a str."""
    cover = level_set_cover(parse_number(a), parse_number(y), depth)
    words = ["".join(map(str, w)) for w in word_tuples(cover.level.symbols())]
    payload = {"schema_version": "1", "a": float(parse_number(a)), "y": float(parse_number(y)), "depth": depth,
               "count": cover.count, "dim_estimate": cover.dim_estimate, "words": words}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", words


@pytest.mark.parametrize("a, y, depth", [
    ("3/4", "1/3", 1), ("0.75", "0.3", 1), ("3/4", "1/3", 14), ("2/3", "38/81", 15), ("0.75", "0.3", 14),
    ("0.9", "0.5", 11),  # 141 547 words, across chunk boundaries
])
def test_levelset_words_equal_one_json_dumps_of_every_word(a, y, depth):
    text, words = _levelset_json_dumps(a, y, depth)
    code, out = _run(["levelset", "--a", a, "--y", y, "--depth", str(depth)])
    assert code == 0 and out == text
    code, out = _run(["levelset", "--a", a, "--y", y, "--depth", str(depth), "--format", "csv"])
    assert code == 0 and out == "".join(f"{w}\n" for w in ["word", *words])


@pytest.mark.parametrize("rows", [1, 2, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 2 * _ROW_CHUNK])
def test_word_matrices_render_as_json_dumps_at_every_chunk_edge(rows):
    symbols = np.random.default_rng(rows).integers(1, 4, (rows, 5), dtype=np.uint8)
    words = ["".join(map(str, w)) for w in symbols.tolist()]
    payload = {"count": rows, "dim_estimate": 0.5, "y": 0.25}
    expected = json.dumps({"schema_version": "1", **payload, "words": words}, sort_keys=True, indent=2) + "\n"
    assert "".join(_pieces({**payload, "words": symbols})) == expected


@pytest.mark.parametrize("argv", [
    ["levelset", "--a", "0.9", "--y", "0.5", "--depth", "11"],
    ["levelset", "--a", "3/4", "--y", "1/3", "--depth", "14", "--format", "csv"],
    ["measure", "--a", "0.75", "--samples", "70000", "--depth", "30", "--seed", "2", "--format", "csv"],
    ["graph", "--a", "0.75", "--depth", "5"],
    ["separation", "--b", "1/2", "--max-depth", "4"],
])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, argv):
    code, out = _run(argv)
    target = tmp_path / "artifact"
    code_out, msg = _run([*argv, "--out", str(target)])
    assert code == code_out == 0 and json.loads(msg)["written"] == str(target)
    assert target.read_bytes() == out.encode()


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_levelset_csv_streams_its_words():
    """141 547 words: with one Python list per word the traced peak was 21.5 MiB, with chunked rows 11.5 MiB."""
    tracemalloc.start()
    try:
        code = run(["levelset", "--a", "0.9", "--y", "0.5", "--depth", "11", "--format", "csv"], stdout=_Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20


def test_levelset_json_streams_its_words():
    """The same 141 547 words as JSON: with one str per word and the whole text the traced peak was 22.3 MiB,
    with the word lines spliced between the rendered scalars 7.7 MiB."""
    tracemalloc.start()
    try:
        code = run(["levelset", "--a", "0.9", "--y", "0.5", "--depth", "11"], stdout=_Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2**20


def test_fourier_json():
    code, out = _run(["fourier", "--a", "0.75", "--samples", "20000", "--seed", "5", "--tcount", "12"])
    payload = json.loads(out)
    assert len(payload["magnitude"]) == 12
    assert payload["decay_slope"] < 0


def test_fourier_csv_of_one_frequency_prints_the_magnitudes():
    # the JSON's decay fit refuses a grid of one distinct t; the CSV has no fit
    code, out = _run(["fourier", "--a", "0.75", "--samples", "20000", "--seed", "1", "--tmin", "10", "--tmax", "10",
                      "--format", "csv"])
    rows = out.splitlines()
    assert code == 0
    assert rows[0] == "t,magnitude" and len(rows) == 31
    assert {row.split(",")[0] for row in rows[1:]} == {"10.0"}


def test_subsystem_checks():
    code, out = _run(["subsystem", "--a", "3/4", "--m", "2", "--k", "2", "--check", "gamma"])
    payload = json.loads(out)
    assert payload["exact"] is True
    code, out = _run(["subsystem", "--a", "3/4", "--m", "1", "--k", "10", "--check", "gamma"])
    assert out.index('"10":') < out.index('"9":')  # exponent keys sort as strings
    code, out = _run(["subsystem", "--a", "0.75", "--m", "2", "--k", "2", "--check", "entropy"])
    assert json.loads(out)["limit_exceeds_one"] is True
    code, out = _run(["subsystem", "--a", "0.75", "--m", "1", "--k", "2", "--check", "convolution"])
    assert code == 2  # seed required
    code, out = _run(
        ["subsystem", "--a", "0.75", "--m", "1", "--k", "2", "--check", "convolution",
         "--samples", "20000", "--seed", "7"]
    )
    assert json.loads(out)["ks"] < 0.05
    code, out = _run(["subsystem", "--a", "0.75", "--m", "2", "--check", "ratio"])
    assert json.loads(out)["alphabet_size"] == 4


def test_bundle_schema_and_determinism(tmp_path):
    out_path = tmp_path / "bundle.json"
    code, msg = _run(["bundle", "--a", "0.75", "--seed", "1", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema_version"] == "1"
    assert set(payload) == {"schema_version", "a", "dims", "box", "levelset_scan", "assouad", "subsystem_entropy"}
    assert abs(payload["box"]["fitted_slope"] - payload["dims"]["s0"]) < 0.05
    first = out_path.read_text()
    _run(["bundle", "--a", "0.75", "--seed", "1", "--out", str(out_path)])
    assert out_path.read_text() == first  # byte-identical rerun


def test_bundle_completes_across_parameters(tmp_path):
    import time

    for a in ("0.6", "0.9"):
        t0 = time.monotonic()
        code, out = _run(["bundle", "--a", a, "--seed", "2", "--out", str(tmp_path / f"b{a}.json")])
        assert code == 0
        assert time.monotonic() - t0 < 30.0
        payload = json.loads((tmp_path / f"b{a}.json").read_text())
        assert payload["subsystem_entropy"]["limit_exceeds_one"] is True


def test_out_file_writing(tmp_path):
    target = tmp_path / "dims.json"
    code, msg = _run(["dims", "--a", "0.75", "--out", str(target)])
    assert code == 0
    assert json.loads(msg)["written"] == str(target)
    assert json.loads(target.read_text())["schema_version"] == "1"


def test_unwritable_out_path_is_a_json_error(tmp_path):
    target = tmp_path / "missing_dir" / "dims.json"
    code, out = _run(["dims", "--a", "0.75", "--out", str(target)])
    assert code == 1
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "FileNotFoundError" and str(target) in error["message"]
    assert not target.exists()


def test_empty_level_lists_are_json_errors():
    for argv in (
        ["levelset-scan", "--a", "0.75", "--samples", "0", "--depth", "8", "--seed", "1"],
        ["subsystem", "--a", "0.75", "--m", "4", "--check", "slices", "--samples", "0", "--depth", "8", "--seed", "1"],
    ):
        code, out = _run(argv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParameterError"


def test_empty_q_lists_are_usage_errors():
    for argv in (["lq", "--a", "0.75", "--q", ","], ["dims", "--a", "0.75", "--q", " , "]):
        code, out = _run(argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "usage"


def test_tau_brackets_past_the_float_range_are_json_errors():
    # (1/3)^((s0-1)q) underflows at these q, so the bracket of tau(q) climbs to where
    # b^(q - tau) would overflow a float: a ParameterError, not an OverflowError traceback
    for argv in (["lq", "--a", "0.6", "--q", "1e4"], ["lq", "--a", "0.75", "--q", "3000"],
                 ["dims", "--a", "0.6", "--q", "1e4"]):
        code, out = _run(argv)
        assert code == 1 and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ParameterError" and "overflows a float" in error["message"]


def test_slices_with_every_level_excluded_are_a_json_error(monkeypatch):
    from okamoto import subsystem

    monkeypatch.setattr(subsystem, "sample_subsystem_measure", lambda *args: np.array([0.0, 1.0, 0.0]))
    code, out = _run(["subsystem", "--a", "0.75", "--m", "4", "--check", "slices", "--samples", "3", "--seed", "1"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParameterError"


@pytest.mark.parametrize("argv", [
    ["graph", "--a", "0.75", "--depth", "2"],
    ["subsystem", "--a", "0.75", "--m", "2", "--check", "ratio"],
    ["bundle", "--a", "0.75", "--seed", "1"],
])
def test_json_or_csv_only_commands_reject_format(argv):
    for fmt in ("json", "csv"):
        code, out = _run(argv + ["--format", fmt])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "usage"


@pytest.mark.parametrize("argv", [
    ["fourier", "--a", "0.75", "--samples", "0", "--seed", "1"],
    ["measure", "--a", "0.75", "--samples", "0", "--seed", "1"],
    ["measure", "--a", "0.75", "--samples", "10", "--depth", "-1", "--seed", "1"],
    # fewer than two magnitudes clear the noise floor: no decay fit
    ["fourier", "--a", "0.75", "--samples", "10", "--seed", "1", "--tcount", "3"],
    ["subsystem", "--a", "0.75", "--m", "2", "--check", "convolution", "--samples", "0", "--seed", "1"],
    ["subsystem", "--a", "0.75", "--m", "2", "--check", "convolution", "--samples", "-2", "--seed", "1"],
    ["subsystem", "--a", "0.75", "--m", "2", "--check", "slices", "--samples", "-1", "--seed", "1"],
    ["levelset-scan", "--a", "0.75", "--samples", "-3", "--seed", "1"],
    ["boxdim", "--a", "0.75", "--min-depth", "-2"],
    # the frequency grid must be finite, positive and of 1 to 1000 points
    ["fourier", "--a", "0.75", "--samples", "100", "--seed", "1", "--tmin", "-1", "--format", "csv"],
    ["fourier", "--a", "0.75", "--samples", "100", "--seed", "1", "--tmin", "0"],
    ["fourier", "--a", "0.75", "--samples", "100", "--seed", "1", "--tmax", "inf", "--format", "csv"],
    ["fourier", "--a", "0.75", "--samples", "100", "--seed", "1", "--tcount", "0", "--format", "csv"],
    # the gamma and convolution work grows with the block split k, which must lie in [2, 16]
    ["subsystem", "--a", "3/4", "--m", "2", "--k", "17", "--check", "gamma"],
    ["subsystem", "--a", "0.75", "--m", "2", "--k", "1000", "--check", "convolution", "--seed", "1"],
    # every magnitude clears the noise floor, but all at the one frequency t = 10: no line to fit
    ["fourier", "--a", "0.75", "--samples", "20000", "--seed", "1", "--tmin", "10", "--tmax", "10"],
])
def test_empty_or_negative_draws_are_json_errors(argv):
    code, out = _run(argv)
    assert code == 1
    expected = "DepthCapError" if argv[0] == "boxdim" else "ParameterError"
    assert json.loads(out)["error"]["type"] == expected


@pytest.mark.parametrize("check", ["convolution", "slices"])
def test_subsystem_draw_count_above_cap_is_a_budget_error(check):
    from okamoto.estimators import SAMPLE_COUNT_CAP

    argv = ["subsystem", "--a", "0.75", "--m", "2", "--check", check,
            "--samples", str(SAMPLE_COUNT_CAP + 1), "--seed", "1"]
    code, out = _run(argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetError"


@pytest.mark.parametrize("argv", [
    ["levelset-scan", "--a", "0.75", "--samples", "1000000000000", "--depth", "4", "--seed", "1"],
    ["levelset-scan", "--a", "0.75", "--samples", str(LEVEL_COUNT_CAP + 1), "--depth", "1", "--seed", "1"],
    ["subsystem", "--a", "0.75", "--m", "2", "--check", "slices",
     "--samples", str(LEVEL_COUNT_CAP + 1), "--depth", "1", "--seed", "1"],
])
def test_level_count_above_cap_is_a_budget_error(argv):
    # both level statistics commands cover each level on its own; the count is bounded before any draw
    code, out = _run(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetError"
    assert f"exceeds cap {LEVEL_COUNT_CAP}" in error["message"]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("argv", [
    ["dims", "--a", "0.75", "--q", "2"],
    ["boxdim", "--a", "3/4", "--min-depth", "2", "--max-depth", "5"],
    ["levelset", "--a", "3/4", "--y", "1/3", "--depth", "6"],
    ["levelset-scan", "--a", "0.75", "--samples", "5", "--depth", "6", "--seed", "1"],
    ["separation", "--b", "2/5", "--max-depth", "4"],
    ["lq", "--a", "0.75", "--q", "2"],
    ["measure", "--a", "0.75", "--samples", "100", "--seed", "1"],
    ["fourier", "--a", "0.75", "--samples", "20000", "--seed", "5", "--tcount", "12"],
    ["fourier", "--a", "0.75", "--samples", "10", "--seed", "1", "--tcount", "3"],
    ["subsystem", "--a", "3/4", "--m", "1", "--k", "10", "--check", "gamma"],
    ["bundle", "--a", "0.75", "--seed", "1"],
])
def test_json_artifacts_are_strict(argv):
    _, out = _run(argv)
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["schema_version"] == "1"


# --- every integer option is bounded before any work ----------------------------------

# valid values of each command's other required options
_WALK_BASE = {
    "dims": ["--a", "0.75"],
    "graph": ["--a", "0.75"],
    "boxdim": ["--a", "0.75"],
    "levelset": ["--a", "0.75", "--y", "0.3"],
    "levelset-scan": ["--a", "0.75", "--seed", "1"],
    "separation": ["--b", "1/2"],
    "lq": ["--a", "0.75", "--q", "2"],
    "measure": ["--a", "0.75", "--seed", "1"],
    "fourier": ["--a", "0.75", "--seed", "1"],
    "subsystem": ["--a", "3/4", "--m", "2", "--seed", "1"],
    "bundle": ["--a", "0.75", "--seed", "1"],
}
_WALK_VALUES = (10**12, -1)
_UNREAD = "not read by this check, so any value is accepted"
# (command, choice, option) -> (values, reason) left out of the walk
_WALK_EXEMPT = {
    ("subsystem", "ratio", "--k"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "ratio", "--samples"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "ratio", "--depth"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "gamma", "--samples"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "gamma", "--depth"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "convolution", "--depth"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "slices", "--k"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "entropy", "--samples"): (_WALK_VALUES, _UNREAD),
    ("subsystem", "entropy", "--depth"): (_WALK_VALUES, _UNREAD),
    # --m and --k enter the entropy check only through closed forms of O(1) cost (lgamma and logs)
    ("subsystem", "entropy", "--m"): ((10**12,), "closed form of O(1) cost"),
    ("subsystem", "entropy", "--k"): ((10**12,), "closed form of O(1) cost"),
}


_COMMANDS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _is_integer_option(action) -> bool:
    return action.type is int


def _is_number_option(action) -> bool:
    """--a, --y, --b, --q, --tmin and --tmax: every option that is not an integer, a choice, --seed, --out or --help."""
    return action.type is not int and not action.choices and action.dest not in ("help", "out", "seed")


def _walk_cases(walked=_is_integer_option):
    """(argv, option, key) per command, per value of its choice option (--mode, --check) and per walked option."""
    assert set(_COMMANDS) == set(_WALK_BASE)
    for name, sub in _COMMANDS.items():
        choice = next((a for a in sub._actions if a.choices and a.dest != "format"), None)
        for value in choice.choices if choice else (None,):
            fixed = _WALK_BASE[name] + ([choice.option_strings[0], value] if choice else [])
            for action in sub._actions:
                if walked(action):
                    option = action.option_strings[0]
                    yield [name, *fixed], option, (name, value, option)


_WALK_CASES = list(_walk_cases())


def test_walk_exemptions_name_walked_options():
    assert set(_WALK_EXEMPT) <= {key for _, _, key in _WALK_CASES}


@pytest.fixture
def no_kernel(monkeypatch):
    """expand_level and fold_rows raise in every okamoto namespace: no level kernel, fold or sampler draw runs."""
    for attr in ("expand_level", "fold_rows"):
        original = getattr(systems, attr)

        def refuse(*args, _attr=attr, **kwargs):
            raise AssertionError(f"{_attr} ran before the input was checked")

        for name, module in list(sys.modules.items()):
            if (name == "okamoto" or name.startswith("okamoto.")) and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize("argv", [
    pytest.param(argv + [option, str(value)], id=":".join(v for v in key if v) + f"={value}")
    for argv, option, key in _WALK_CASES
    for value in _WALK_VALUES
    if value not in _WALK_EXEMPT.get(key, ((),))[0]
])
def test_every_integer_option_is_bounded_before_any_work(no_kernel, argv):
    code, out = _run(argv)
    assert code in (1, 2)
    assert set(json.loads(out)) == {"error", "schema_version"}


@pytest.mark.parametrize("option", ["--m", "--k"])
@pytest.mark.parametrize("value", [pytest.param(2**53 + 1, id="2^53+1"), pytest.param(10**400, id="10^400")])
def test_entropy_refuses_m_and_k_above_2_to_the_53(option, value):
    # float64 holds every integer up to 2^53 exactly; past it the closed form's float arithmetic overflows or rounds
    argv = ["subsystem", "--a", "0.75", "--m", "2", "--k", "2", "--check", "entropy"]
    argv[argv.index(option) + 1] = str(value)
    code, out = _run(argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParameterError"
    argv[argv.index(option) + 1] = str(2**53)
    code, out = _run(argv)
    assert code == 0 and json.loads(out, parse_constant=_reject_constant)["limit_exceeds_one"] is True


# --- a rational a whose float leaves (1/2, 1): float paths reject it, exact paths run it ---

_ROUNDING_A = {"half": f"{10**400}/{2 * 10**400 - 1}", "one": f"{10**400 - 1}/{10**400}"}
_EXACT_ROUTES = {("boxdim", "column"), ("subsystem", "ratio"), ("subsystem", "gamma")}


def _float_route_params():
    """Each command with --a, per --check and --mode, that runs on floats; levelset at its float --y."""
    for argv, _, (name, choice, _) in _walk_cases(lambda action: action.dest == "a"):
        if (name, choice) not in _EXACT_ROUTES:
            for rounds_to, a in _ROUNDING_A.items():
                yield pytest.param(argv + ["--a", a], a, id=":".join(v for v in (name, choice, rounds_to) if v))


@pytest.mark.parametrize("argv, a", list(_float_route_params()))
def test_float_paths_reject_a_rational_whose_float_leaves_the_domain(no_kernel, argv, a):
    code, out = _run(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParameterError" and a in error["message"]


@pytest.mark.parametrize("rounds_to", sorted(_ROUNDING_A))
@pytest.mark.parametrize("argv", [
    ["levelset", "--y", "1/3", "--depth", "4"],
    ["boxdim", "--mode", "column", "--min-depth", "1", "--max-depth", "6"],
    ["subsystem", "--m", "4", "--check", "ratio"],
    ["subsystem", "--m", "4", "--k", "2", "--check", "gamma"],
])
def test_exact_paths_run_a_rational_whose_float_leaves_the_domain(argv, rounds_to):
    code, out = _run(argv + ["--a", _ROUNDING_A[rounds_to]])
    assert code == 0
    assert "error" not in json.loads(out)


# --- every number option rejects nan and inf before any work ------------------------


def _number_walk_params():
    """Each number option at nan and inf, per --check and --mode, in each --format the command takes."""
    for argv, option, (name, choice, _) in _walk_cases(_is_number_option):
        formats = next((a.choices for a in _COMMANDS[name]._actions if a.dest == "format"), (None,))
        for form in formats:
            for value in ("nan", "inf"):
                fixed = argv + (["--format", form] if form else [])
                key = ":".join(v for v in (name, choice, form, option) if v)
                yield pytest.param(fixed + [option, value], id=f"{key}={value}")


def test_number_walk_covers_the_number_options():
    walked = {option for _, option, _ in _walk_cases(_is_number_option)}
    assert walked == {"--a", "--y", "--b", "--q", "--tmin", "--tmax"}


@pytest.mark.parametrize("argv", list(_number_walk_params()))
def test_every_number_option_rejects_nan_and_inf_before_any_work(no_kernel, argv):
    code, out = _run(argv)
    assert code in (1, 2)
    assert set(json.loads(out)) == {"error", "schema_version"}


# --- checks made before any work ------------------------------------------------------


_NEGATIVE_SEED_CASES = [
    ["levelset-scan", "--a", "0.75"],
    ["measure", "--a", "0.75"],
    ["fourier", "--a", "0.75"],
    ["subsystem", "--a", "0.75", "--m", "15", "--check", "convolution"],
    ["subsystem", "--a", "0.75", "--m", "15", "--check", "slices"],
    ["bundle", "--a", "0.75"],
]


def test_negative_seed_cases_cover_every_seeded_command():
    seeded = {name for name, sub in _COMMANDS.items() if any(a.dest == "seed" for a in sub._actions)}
    assert {argv[0] for argv in _NEGATIVE_SEED_CASES} == seeded


@pytest.mark.parametrize("argv", _NEGATIVE_SEED_CASES, ids=lambda argv: f"{argv[0]}:{argv[-1]}")
def test_negative_seed_is_a_usage_error_before_any_work(no_kernel, monkeypatch, argv):
    from okamoto import subsystem

    monkeypatch.setattr(subsystem, "build_subsystem", lambda *args: pytest.fail("the alphabet was built"))
    code, out = _run(argv + ["--seed", "-1"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "--seed" in error["message"]


@pytest.mark.parametrize("argv", [
    ["--a", "0.99999", "--m", "2", "--check", "convolution"],  # depth 1 577 146
    ["--a", "0.9999999", "--m", "2", "--check", "convolution"],
    ["--a", "0.9999999999999999", "--m", "1", "--check", "convolution"],
    ["--a", "0.9999999999999999", "--m", "1", "--check", "slices"],
    ["--a", "0.999", "--m", "2", "--check", "convolution"],  # depth 13 464
], ids=lambda argv: f"a={argv[1]}:m={argv[3]}:{argv[-1]}")
def test_subsystem_sampling_deeper_than_the_cap_fails_before_the_build(no_kernel, monkeypatch, argv):
    from okamoto import subsystem

    monkeypatch.setattr(subsystem, "build_subsystem", lambda *args: pytest.fail("the alphabet was built"))
    code, out = _run(["subsystem", *argv, "--samples", "10", "--seed", "1"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetError"
    assert f"exceeds cap {subsystem.SAMPLING_DEPTH_CAP}" in error["message"]


class _Built(Exception):
    """Raised by a build_subsystem stand-in: every check before the build passed."""


def test_subsystem_draws_are_capped_at_the_sample_measure_draws_before_the_build(no_kernel, monkeypatch):
    # a = 0.75, m = 1, k = 2: lambda = 0.75 and the sampling depth rounds up to whole superblocks; the
    # check draws count words of the depth directly and again through k copies of eta, so twice the symbols
    from okamoto import subsystem

    def build(*args):
        raise _Built

    monkeypatch.setattr(subsystem, "build_subsystem", build)
    depth = subsystem._sampling_depth(0.75)
    depth += (-depth) % 2
    most = estimators.SAMPLE_COUNT_CAP * estimators.SAMPLE_DEPTH_CAP // (2 * depth)
    argv = ["subsystem", "--a", "0.75", "--m", "1", "--k", "2", "--check", "convolution", "--seed", "1", "--samples"]
    with pytest.raises(_Built):
        _run(argv + [str(most)])
    code, out = _run(argv + [str(most + 1)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetError" and f"{most + 1} draws of depth {depth}" in error["message"]
    with pytest.raises(_Built):  # lambda = 0.9801 samples to depth 1226, under the depth cap
        _run(["subsystem", "--a", "0.99", "--m", "2", "--check", "convolution", "--samples", "10", "--seed", "1"])


@pytest.mark.parametrize("argv", [
    ["--m", "15", "--check", "ratio"],
    ["--m", "16", "--check", "ratio"],
    ["--m", "16", "--check", "convolution", "--samples", "10", "--seed", "1"],
    ["--m", "16", "--check", "slices", "--samples", "10", "--seed", "1"],
], ids=lambda argv: f"m={argv[1]}:{argv[3]}")
def test_subsystem_alphabet_past_the_word_cap_fails_before_any_word(no_kernel, monkeypatch, argv):
    # 1 863 680 words at m = 15 and 7 454 720 at m = 16 for a = 0.75, against the cap of 2^20
    from okamoto import words

    monkeypatch.setattr(words, "digit_rows", lambda *args: pytest.fail("a word was built"))
    code, out = _run(["subsystem", "--a", "0.75", *argv])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetError"
    assert f"exceeds cap {words.ALPHABET_WORD_CAP}" in error["message"]


def test_boxdim_needs_three_depths_before_any_count(no_kernel):
    code, out = _run(["boxdim", "--a", "0.75", "--mode", "grid", "--min-depth", "13", "--max-depth", "14"])
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ParameterError", "message": "dimension fit needs >= 3 rows, got 2"}


@pytest.mark.parametrize("argv", [
    ["subsystem", "--a", f"{10**400 - 1}/{10**400}", "--m", "4", "--k", "3", "--check", "gamma"],
    ["subsystem", "--a", f"{10**30 - 1}/{10**30}", "--m", "16", "--k", "16", "--check", "gamma"],
    ["separation", "--b", f"1/{10**1000}", "--max-depth", "6"],
], ids=["gamma-m4-k3", "gamma-m16-k16", "separation"])
def test_exact_results_too_long_to_print_fail_before_any_work(no_kernel, argv):
    code, out = _run(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetError"
    assert f"{sys.get_int_max_str_digits()} digits" in error["message"]
