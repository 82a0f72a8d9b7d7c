import argparse
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
from okamoto import systems
from okamoto.cli import _writer, build_parser, parse_number, run
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


def test_closed_stdout_ends_with_exit_code_1_and_no_traceback():
    # two MB of CSV: the writer is still writing when the reader closes the pipe
    argv = ["measure", "--a", "0.75", "--samples", "100000", "--seed", "1", "--format", "csv"]
    with _cli_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


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
    # the witness rows render through the same byte view as levelset words
    code, out = _run(["separation", "--b", "1/2", "--max-depth", "4"])
    assert json.loads(out)["witness"] == ["132", "221"]


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
    rows = [(5e-324, -0.0, 1e16, 1 / 3, np.float64(0.1))]
    buf = io.StringIO()
    _writer(("csv", ["a", "b", "c", "d", "e"], rows))(buf)
    assert buf.getvalue() == "a,b,c,d,e\n5e-324,-0.0,1e+16,0.3333333333333333,0.1\n"


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


def test_fourier_json():
    code, out = _run(["fourier", "--a", "0.75", "--samples", "20000", "--seed", "5", "--tcount", "12"])
    payload = json.loads(out)
    assert len(payload["magnitude"]) == 12
    assert payload["decay_slope"] < 0


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
