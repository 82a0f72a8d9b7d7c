"""Tests of the benchmark itself.

    python -m pytest perfbench -q

They run real worker passes (a few seconds each) against the program in
src/, so they also guard the claims the benchmark's design rests on.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracing
import workloads

TIME_UNITS = ("s", "ns")


def traced_pass(workload: str, seed: int, spans=None) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--trace"]
    if spans:
        args += ["--spans", str(spans)]
    _, report = run.spawn(args, run.child_env())
    assert report["failures"] == []
    return report


@pytest.fixture(scope="module")
def passes():
    """Two traced passes per workload with one seed, and one with another seed."""
    return {w: (traced_pass(w, 5), traced_pass(w, 5), traced_pass(w, 6)) for w in workloads.WORKLOADS}


def counts(report: dict) -> dict:
    return {name: report["layers"][name] for name, unit, _ in tracing.LAYER_METRICS if unit not in TIME_UNITS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_exactly_for_one_seed(passes, workload):
    first, second, _ = passes[workload]
    assert counts(first) == counts(second)


def test_seed_changes_the_random_inputs(passes):
    for workload in ("sample", "cover"):
        first, _, other = passes[workload]
        assert [c["cmd"] for c in first["commands"]] != [c["cmd"] for c in other["commands"]]
    first, _, other = passes["exact"]
    assert counts(first) == counts(other)


def test_layer_self_times_add_up_to_the_cli_run_span(passes):
    for first, _, _ in passes.values():
        layers = first["layers"]
        total = sum(layers[f"{m}.self_s"] for m in tracing.MODULES)
        assert total == pytest.approx(layers["cli.run.s"], rel=1e-9, abs=1e-6)
        assert 0 < layers["cli.run.s"] <= first["wall_s"]


def test_predicted_counts_at_this_commit(passes):
    sample = passes["sample"][0]["layers"]
    assert sample["estimators.fourier_estimate.distinct_ratio"] == 0.5
    assert sample["estimators.sample_measure.draws"] == 500000 * 60 + 50000 * 40 + 125000 * 50
    assert sample["estimators.fourier_estimate.trig_evals"] == 2 * 2 * 30 * 125000
    for workload in ("cover", "exact"):
        assert passes[workload][0]["layers"]["estimators.sample_measure.draws"] == 0
    exact = passes["exact"][0]["layers"]
    assert exact["separation.delta_n_detail.projections"] == 2 * sum(3**n for n in range(1, 12))
    assert exact["estimators.level_set_cover.words"] == 22869 + 4777


def test_spans_nest_inside_their_parents(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    traced_pass("exact", 1, spans_file)
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] < 0]
    assert {s["name"] for s in roots} == {"cli.run"}
    assert len(roots) == len(workloads.commands("exact", 1))
    for s in spans:
        assert s["start_ns"] <= s["end_ns"]
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"]
            assert parent["command"] == s["command"]


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expected = list(tracing.LAYER_METRICS)
    expected += [(name, "s", "lower") for name in workloads.ALL_COMMAND_METRICS]
    expected += [("trace_overhead_s", "s", "lower")]
    assert per_layer == expected


def test_stored_exact_column_counts_match_the_closed_form():
    with open(workloads.EXPECTED_EXACT) as fh:
        stored = json.load(fh)
    rows = stored["boxdim --a 3/4 --mode column --min-depth 6 --max-depth 20"]["rows"]
    assert [r["count"] for r in rows] == [workloads.column_count(Fraction(3, 4), n) for n in range(6, 21)]
    assert stored["levelset --a 3/4 --y 1/3 --depth 14"]["count"] == 22869


@pytest.mark.parametrize("cmd, text, message", [
    ("measure --a 0.75 --samples 100 --depth 40 --seed 1",
     json.dumps({"count": 100, "depth": 40, "mean": 0.6, "std": 0.1}), "mean"),
    ("measure --a 0.75 --samples 2 --depth 40 --format csv --seed 1", "value\n0.5\n1.5\n", "outside"),
    ("fourier --a 0.75 --samples 100 --seed 1",
     json.dumps({"t": [1.0] * 30, "magnitude": [0.5] * 30, "points_used": 30, "decay_slope": 0.1}), "slope"),
    ("graph --a 0.75 --depth 1", "x,y\n0.0,0.0\n0.3333333333333333,0.75\n0.6666666666666666,0.25\n1.0,0.9\n",
     r"T\(1\)"),
    ("boxdim --a 0.6 --mode grid --min-depth 1 --max-depth 1",
     json.dumps({"rows": [{"n": 1, "count": 10**6}]}), "exceeds"),
    ("separation --b 2/5 --max-depth 11", json.dumps({"error": {"type": "usage", "message": "x"}}), "error"),
    ("levelset --a 3/4 --y 1/3 --depth 14", json.dumps({"count": 22870}), "stored value"),
])
def test_checks_reject_wrong_outputs(cmd, text, message):
    with pytest.raises(workloads.CheckFailed, match=message):
        workloads.check(cmd, 0, text)


def test_check_rejects_a_nonzero_exit():
    with pytest.raises(workloads.CheckFailed, match="exit code"):
        workloads.check("dims --a 3/4", 2, "")


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
