"""Outside-in layer tracing for the benchmark's traced passes.

The layers are the modules of the `okamoto` package.  `Tracer.install`
wraps every public module-level function of those modules and rebinds the
wrapper in every `okamoto.*` namespace that holds the same function object,
because modules import each other's functions by name.  A wrapper only
passes the call through and records a span: name, start, end, parent span
and the command it belongs to.  Spans stay in memory until the pass ends.
Work counts are read from call arguments and return values.

The program itself is not changed; tracing inside the program is separate.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "dimensions", "estimators", "separation", "subsystem", "systems", "words")

# (metric, unit, better) reported by a traced run, one group per layer
LAYER_METRICS = (
    ("cli.run.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.errors", "count", "lower"),
    ("estimators.self_s", "s", "lower"),
    ("estimators.errors", "count", "lower"),
    ("estimators.sample_measure.s", "s", "lower"),
    ("estimators.sample_measure.draws", "count", "lower"),
    ("estimators.sample_measure.ns_per_draw", "ns", "lower"),
    ("estimators.fourier_estimate.s", "s", "lower"),
    ("estimators.fourier_estimate.calls", "count", "lower"),
    ("estimators.fourier_estimate.trig_evals", "count", "lower"),
    ("estimators.fourier_estimate.distinct_ratio", "ratio", "higher"),
    ("estimators.box_count_graph.s", "s", "lower"),
    ("estimators.box_count_graph.boxes", "count", "lower"),
    ("estimators.level_set_count.s", "s", "lower"),
    ("estimators.level_set_count.calls", "count", "lower"),
    ("estimators.level_set_count.cover_words", "count", "lower"),
    ("estimators.level_set_cover.s", "s", "lower"),
    ("estimators.level_set_cover.words", "count", "lower"),
    ("estimators.ks_statistic.s", "s", "lower"),
    ("separation.self_s", "s", "lower"),
    ("separation.errors", "count", "lower"),
    ("separation.delta_n_detail.s", "s", "lower"),
    ("separation.delta_n_detail.projections", "count", "lower"),
    ("systems.self_s", "s", "lower"),
    ("systems.errors", "count", "lower"),
    ("systems.evaluate_T.s", "s", "lower"),
    ("systems.evaluate_T.calls", "count", "lower"),
    ("systems.ternary_digits.s", "s", "lower"),
    ("systems.compose_word.s", "s", "lower"),
    ("systems.compose_word.calls", "count", "lower"),
    ("subsystem.self_s", "s", "lower"),
    ("subsystem.errors", "count", "lower"),
    ("subsystem.convolution_check.self_s", "s", "lower"),
    ("subsystem.gamma_conjugate.self_s", "s", "lower"),
    ("subsystem.build_subsystem.s", "s", "lower"),
    ("subsystem.slice_lower_bound_report.self_s", "s", "lower"),
    ("words.self_s", "s", "lower"),
    ("words.errors", "count", "lower"),
    ("words.subsystem_alphabet.s", "s", "lower"),
    ("words.subsystem_alphabet.words", "count", "lower"),
    ("dimensions.self_s", "s", "lower"),
    ("dimensions.errors", "count", "lower"),
    ("dimensions.dim_report.s", "s", "lower"),
    ("dimensions.tau_q.s", "s", "lower"),
)


def _sample_key(sample) -> tuple:
    return (sample.system_kind, sample.parameter, sample.weights, sample.seed, sample.depth, sample.count)


# name -> (arguments, result) -> {count name: increment}
_COUNTERS = {
    "estimators.sample_measure": lambda a, r: {"draws": a["count"] * a["depth"]},
    "estimators.fourier_estimate": lambda a, r: {
        "trig_evals": 2 * len(a["t_values"]) * a["sample"].count},
    "estimators.box_count_graph": lambda a, r: {"boxes": r},
    "estimators.level_set_count": lambda a, r: {"cover_words": r},
    "estimators.level_set_cover": lambda a, r: {"words": r.count},
    "separation.delta_n_detail": lambda a, r: {"projections": 3 ** a["n"]},
    "words.subsystem_alphabet": lambda a, r: {"words": len(r)},
}


class Tracer:
    """Span recorder for one process; install once, before the traced commands run."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, command index, raised]
        self.counts = {}  # "<function>.<count>" -> total
        self.requests = set()  # distinct fourier_estimate requests, per command
        self.command = -1
        self._stack = []

    def install(self) -> None:
        targets = {}
        for short in MODULES:
            module = importlib.import_module(f"okamoto.{short}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets[obj] = self._wrap(f"{short}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "okamoto" and not name.startswith("okamoto."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(module, attr, targets[obj])

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.command, False]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(name, counter(bound.arguments, result))
                if name == "estimators.fourier_estimate":
                    key = (_sample_key(bound.arguments["sample"]), tuple(map(float, bound.arguments["t_values"])))
                    self.requests.add((self.command, key))
            return result

        return wrapper

    def _count(self, name: str, increments: dict) -> None:
        for count_name, value in increments.items():
            key = f"{name}.{count_name}"
            self.counts[key] = self.counts.get(key, 0) + value

    def write(self, path: str) -> None:
        """All spans as JSON lines, with parents given by span index."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, command, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "command": command, "raised": raised}) + "\n")

    def summary(self) -> dict:
        """Inclusive, self and call totals per function and per module, plus counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        inclusive, self_ns, calls, errors = {}, {}, {}, {}
        for i, (name, start, end, parent, _, raised) in enumerate(spans):
            module = name.split(".", 1)[0]
            own = end - start - child_ns[i]
            self_ns[name] = self_ns.get(name, 0) + own
            self_ns[module] = self_ns.get(module, 0) + own
            calls[name] = calls.get(name, 0) + 1
            errors[module] = errors.get(module, 0) + raised
            if not self._nested_in_same(i):
                inclusive[name] = inclusive.get(name, 0) + end - start
        return {"inclusive_ns": inclusive, "self_ns": self_ns, "calls": calls, "errors": errors,
                "counts": self.counts, "distinct_requests": len(self.requests)}

    def _nested_in_same(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def layer_metrics(summary: dict, output_bytes: int, cli_errors: int) -> dict:
    """Values of LAYER_METRICS from one traced pass; layers never called read 0."""
    inc, own = summary["inclusive_ns"], summary["self_ns"]
    calls, counts = summary["calls"], summary["counts"]
    values = {}
    for metric, _, _ in LAYER_METRICS:
        if metric == "cli.output_bytes":
            value = output_bytes
        elif metric == "cli.errors":
            value = cli_errors  # a raising cli.run also ends its command with a nonzero code
        elif metric.endswith(".errors"):
            value = summary["errors"].get(metric.rsplit(".", 1)[0], 0)
        elif metric.endswith(".self_s"):
            value = own.get(metric[: -len(".self_s")], 0) / 1e9
        elif metric.endswith(".s"):
            value = inc.get(metric[: -len(".s")], 0) / 1e9
        elif metric.endswith(".calls"):
            value = calls.get(metric[: -len(".calls")], 0)
        elif metric == "estimators.sample_measure.ns_per_draw":
            draws = counts.get("estimators.sample_measure.draws", 0)
            value = inc.get("estimators.sample_measure", 0) / draws if draws else 0.0
        elif metric == "estimators.fourier_estimate.distinct_ratio":
            n = calls.get("estimators.fourier_estimate", 0)
            value = summary["distinct_requests"] / n if n else 0.0
        else:
            value = counts.get(metric, 0)
        values[metric] = value
    return values
