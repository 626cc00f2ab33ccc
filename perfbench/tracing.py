"""Spans around calls into wavecrit's public functions, recorded from outside.

``Tracer.install`` replaces every module binding of every public function of
the layer modules with a wrapper, not only the defining one: the modules
import each other's functions by name (``wavecrit.solver.mu_eval``,
``wavecrit.cli.march``, ...), and a call through any binding must be seen.
Each span records its name, layer, start, end, parent span and pass, and
all spans stay in memory until the run ends.  Hot leaves get counters
instead of spans: ``strauss_exponent`` and the data callbacks of every
``RadialData`` that ``default_bump``/``velocity_bump`` hand out.

``pass_metrics`` turns one traced pass into the per-layer metrics; the
names and units are listed in ``PER_LAYER``, which BENCHMARK.json mirrors.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import inspect
import math
import statistics
from collections import Counter
from time import perf_counter_ns

LAYERS = ("exponents", "modulus", "kernels", "blowup", "solver", "weights", "cli")
COUNTED = ("exponents.strauss_exponent",)
DATA_FACTORIES = ("solver.default_bump", "solver.velocity_bump")
MODULUS_CHECKS = ("axioms_check", "convexity_check", "classify_strauss_threshold",
                  "loglog_bound_check", "jensen_margin")

NAME, LAYER, START, END, PARENT, PASS, EXTRA = range(7)


def _march_extra(args, kwargs, run):
    return (run.field.shape[0], run.grid.r_nodes, run.field.nbytes, run.status)


def _mu_extra(args, kwargs, result):
    import numpy as np

    return int(np.size(kwargs["tau"] if "tau" in kwargs else args[1]))


def _kernel_extra(args, kwargs, result):
    import numpy as np

    cfg = kwargs.get("cfg", args[0])
    r = kwargs["r"] if "r" in kwargs else args[-1]
    return cfg.quad_points * int(np.size(r))


_EXTRAS = {
    "solver.march": _march_extra,
    "modulus.mu_eval": _mu_extra,
    "kernels.source_kernel": _kernel_extra,
    "kernels.data_kernel": _kernel_extra,
}


class Tracer:
    def __init__(self, package):
        self._modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self.spans = []
        self.counts = []  # one Counter per pass
        self.pass_index = -1
        self._stack = []
        self._saved = []  # (module, attribute, original)

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.counts.append(Counter())

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self._modules[0], layer)
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            tracer.counts[-1][name] += 1
            return fn(*args, **kwargs)

        return counter

    def _wrap(self, name, layer, fn):
        if name in COUNTED:
            return self._counted(name, fn)
        tracer, spans, stack = self, self.spans, self._stack
        extra = _EXTRAS.get(name)
        counts_data = name in DATA_FACTORIES

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, tracer.pass_index, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, result)
            if counts_data:
                result = tracer._count_data(result)
            return result

        return span

    def _count_data(self, data):
        counts = self.counts

        def counted(fn):
            if fn is None:
                return None

            def callback(r):  # one argument, the radius: keeps the counter cheap
                counts[-1]["solver.data_calls"] += 1
                return fn(r)

            return callback

        return dataclasses.replace(data, u0=counted(data.u0), u1=counted(data.u1),
                                   u0_prime=counted(data.u0_prime))


# --------------------------------------------------------------------------
# per-layer metrics

def _busy(name):
    return (f"{name}.busy_s", "s")


PER_LAYER = [
    ("solver.march.calls", "count"), _busy("solver.march"), ("solver.march.self_s", "s"),
    ("solver.march.nodes", "count"), ("solver.march.ns_per_node", "ns"),
    ("solver.march.levels_exponent", "ratio"), ("solver.march.field_mb", "MB"),
    ("solver.march.blew_up", "count"), ("solver.march.completed", "count"),
    ("solver.data_calls", "count"), ("solver.data_calls_per_node", "ratio"),
    ("solver.linear_field.calls", "count"), _busy("solver.linear_field"),
    ("modulus.mu_eval.calls", "count"), ("modulus.mu_eval.elements", "count"),
    _busy("modulus.mu_eval"), ("modulus.mu_eval.ns_per_element", "ns"),
    ("modulus.checks.self_s", "s"), _busy("modulus.make_spec"),
    ("kernels.source_kernel.calls", "count"), _busy("kernels.source_kernel"),
    ("kernels.data_kernel.calls", "count"), _busy("kernels.data_kernel"),
    ("kernels.kernel_bounds_check.self_s", "s"), _busy("kernels.free_wave_ball_integral"),
    ("kernels.eigen_evals", "count"),
    _busy("blowup.integral_identity_residual"), ("blowup.integral_identity_residual.self_s", "s"),
    _busy("blowup.divergence_onset"), _busy("blowup.build_ledger"),
    _busy("weights.weighted_sup_norm"), _busy("weights.decay_profile_check"),
    _busy("weights.data_norms"), _busy("weights.linear_decay_check"),
    _busy("weights.key_integral"), _busy("weights.zone_bound_check"),
    ("exponents.strauss_exponent.calls", "count"), _busy("exponents"),
    ("cli.main.calls", "count"), _busy("cli.main"),
    ("cli.bytes_written", "bytes"), ("cli.files_written", "count"),
    ("cli.nonzero_exits", "count"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.overhead_ratio", "ratio"),
]


def _child_time(spans) -> Counter:
    """Summed duration of each span's direct children, keyed by parent index."""
    child = Counter()
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return child


def pass_metrics(tracer: Tracer, index: int, cli_outputs: dict) -> dict:
    """Per-layer figures of traced pass ``index``.

    ``cli_outputs`` carries what the harness measured around the pass:
    bytes and files written and the count of nonzero CLI exits.
    """
    spans = tracer.spans
    lo = next(i for i, s in enumerate(spans) if s[PASS] == index)
    hi = next((i for i in range(lo, len(spans)) if spans[i][PASS] != index), len(spans))
    child = _child_time(spans[lo:hi])

    calls, busy, own = Counter(), Counter(), Counter()
    layer_busy, layer_self = Counter(), Counter()
    nodes = elements = eigen = field_bytes = 0
    outcomes = Counter()
    for i in range(lo, hi):
        s = spans[i]
        name, layer, dur = s[NAME], s[LAYER], s[END] - s[START]
        calls[name] += 1
        busy[name] += dur
        own[name] += dur - child[i]
        layer_self[layer] += dur - child[i]
        if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer:
            layer_busy[layer] += dur
        extra = s[EXTRA]
        if name == "solver.march":
            levels, r_nodes, nbytes, status = extra
            nodes += levels * r_nodes
            field_bytes = max(field_bytes, nbytes)
            outcomes[status] += 1
        elif name == "modulus.mu_eval":
            elements += extra
        elif name in ("kernels.source_kernel", "kernels.data_kernel"):
            eigen += extra

    counts = tracer.counts[index]
    sec = 1e-9
    m = {
        "solver.march.calls": calls["solver.march"],
        "solver.march.busy_s": busy["solver.march"] * sec,
        "solver.march.self_s": own["solver.march"] * sec,
        "solver.march.nodes": nodes,
        "solver.march.ns_per_node": busy["solver.march"] / nodes if nodes else 0.0,
        "solver.march.field_mb": field_bytes / 2 ** 20,
        "solver.march.blew_up": outcomes["blew_up"],
        "solver.march.completed": outcomes["completed"],
        "solver.data_calls": counts["solver.data_calls"],
        "solver.data_calls_per_node": counts["solver.data_calls"] / nodes if nodes else 0.0,
        "modulus.mu_eval.elements": elements,
        "modulus.mu_eval.ns_per_element": busy["modulus.mu_eval"] / elements if elements else 0.0,
        "modulus.checks.self_s": sum(own[f"modulus.{c}"] for c in MODULUS_CHECKS) * sec,
        "kernels.eigen_evals": eigen,
        "exponents.strauss_exponent.calls": counts["exponents.strauss_exponent"],
        "exponents.busy_s": layer_busy["exponents"] * sec,
        "cli.bytes_written": cli_outputs["bytes"],
        "cli.files_written": cli_outputs["files"],
        "cli.nonzero_exits": cli_outputs["nonzero_exits"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * sec
    for metric, _ in PER_LAYER:
        if metric in m:
            continue
        base, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            m[metric] = calls[base]
        elif quantity == "busy_s":
            m[metric] = busy[base] * sec
        elif quantity == "self_s":
            m[metric] = own[base] * sec
    return m


def levels_exponent(tracer: Tracer) -> float:
    """Least-squares slope of log march self time against log stored levels.

    Fitted over every traced ``march`` call of the run; 0.0 when fewer than
    two distinct level counts were marched.
    """
    spans = tracer.spans
    child = _child_time(spans)
    points = [(math.log(s[EXTRA][0]), math.log(s[END] - s[START] - child[i]))
              for i, s in enumerate(spans) if s[NAME] == "solver.march"]
    if len({x for x, _ in points}) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*points)).slope


def write_spans(tracer: Tracer, path) -> None:
    """Dump every span of the run, one CSV row each, parents by row index."""
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("index", "name", "layer", "start_ns", "end_ns", "parent", "pass"))
        for i, s in enumerate(tracer.spans):
            out.writerow((i, s[NAME], s[LAYER], s[START], s[END], s[PARENT], s[PASS]))
