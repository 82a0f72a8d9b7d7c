import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from graph_oracle import evaluate_T
from okamoto.cli import parse_number, run
from okamoto.dimensions import okamoto_s0


def _run(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


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


def test_separation_rejects_decimal_b():
    code, out = _run(["separation", "--b", "0.5"])
    assert code == 2
    assert "rational" in json.loads(out)["error"]["message"]


def test_levelset_json():
    code, out = _run(["levelset", "--a", "3/4", "--y", "0", "--depth", "6"])
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["words"] == ["111111"]


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


def test_empty_level_lists_are_json_errors():
    for argv in (
        ["levelset-scan", "--a", "0.75", "--samples", "0", "--depth", "8", "--seed", "1"],
        ["subsystem", "--a", "0.75", "--m", "4", "--check", "slices", "--samples", "0", "--depth", "8", "--seed", "1"],
    ):
        code, out = _run(argv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParameterError"


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
