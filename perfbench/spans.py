"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: ``instrument`` swaps
each traced mefcon function for a timing wrapper in every mefcon module
namespace that holds it (the defining module and each ``from ... import``
site), and restores the originals on exit.  Nothing inside the package
is edited.

A span is ``[name, start, end, parent, folded]``.  ``parent`` is the
index of the enclosing span (-1 at the root).  ``folded`` holds the time
of hot leaf calls that are counted instead of recorded one by one:
``DisturbanceRealization.at`` runs five times per RK4 step of
``simulate_mef`` (four stages plus the recorded grid point), and a span
per call would hold millions of records in one run.  A span's self
time is its duration minus the time its child spans cover, minus its
folded leaf time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

NAME, START, END, PARENT, FOLDED = range(5)

# (defining module, function) -> span name
TRACED = {
    ("mefcon.config", "load_config"): "config.load",
    ("mefcon.config", "build_scenario"): "config.build",
    ("mefcon.graphs", "make_graph"): "graphs.build",
    ("mefcon.graphs", "is_strongly_connected"): "graphs.connectivity",
    ("mefcon.graphs", "left_null_vector"): "graphs.left_null_vector",
    ("mefcon.filtering", "uniform_params"): "filtering.params",
    ("mefcon.disturbances", "sample_disturbances"): "disturbances.sample",
    ("mefcon.simulate", "simulate_mef"): "simulate.mef",
    ("mefcon.simulate", "simulate_classical"): "simulate.classical",
    ("mefcon.analysis", "assemble_global"): "analysis.assemble",
    ("mefcon.analysis", "spectral_report"): "analysis.spectral",
    ("mefcon.analysis", "exp_bound_constants"): "analysis.exp_bound",
    ("mefcon.analysis", "predict_equilibrium"): "analysis.equilibrium",
    ("mefcon.analysis", "analytical_coherence"): "analysis.coherence",
    ("mefcon.analysis", "phi_max"): "analysis.envelope",
    ("mefcon.analysis", "disagreement_norms"): "analysis.envelope",
    ("mefcon.analysis", "iss_envelope"): "analysis.envelope",
    ("mefcon.analysis", "run_comparison"): "analysis.comparison",
}
FOLDED_AT = "disturbances.at"
CLI_VERBS = ("simulate", "analyze", "compare", "envelope")


def _file_bytes(tracer, args, kwargs, result):
    tracer.counts["config.file_bytes"] += os.path.getsize(
        args[0] if args else kwargs["path"])


def _steps(tracer, args, kwargs, result):
    tracer.counts["simulate.steps"] += len(result.t) - 1


def _materialized(tracer, args, kwargs, result):
    # every array the realization holds, so a change to how noise is
    # stored shows up here rather than in a formula
    tracer.counts["disturbances.bytes_materialized"] += sum(
        getattr(value, "nbytes", 0) for value in vars(result).values())


def _grid_fallback(tracer, args, kwargs, result):
    # the Schur/expm fallback returns a reduced rate: a != -abscissa
    report = args[1] if len(args) > 1 else kwargs.get("report")
    if report is not None and result[0] != -report.spectral_abscissa_nonzero:
        tracer.counts["analysis.grid_fallbacks"] += 1


# span name -> fn(tracer, args, kwargs, result), called after the traced
# call returns, so counts are taken at the same boundary as the span
HOOKS = {
    "config.load": _file_bytes,
    "simulate.mef": _steps,
    "simulate.classical": _steps,
    "disturbances.sample": _materialized,
    "analysis.exp_bound": _grid_fallback,
}


class Tracer:
    """Spans and counters of one traced job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def fold(self, name: str, seconds: float) -> None:
        """Charge one hot leaf call to the open span and to ``name``'s totals."""
        if self._stack:
            self.spans[self._stack[-1]][FOLDED] += seconds
        self.counts[name + ".calls"] += 1
        self.counts[name + ".s"] += seconds


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus child coverage and folded time."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered(children[i]) - s[FOLDED]
            for i, s in enumerate(spans)]


def _mefcon_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mefcon" or name.startswith("mefcon."))]


@contextmanager
def instrument(tracer: Tracer):
    """Trace every function in ``TRACED`` at every mefcon import site."""
    patches = []
    modules = _mefcon_modules()
    for (modname, attr), name in TRACED.items():
        original = getattr(sys.modules[modname], attr)
        wrapper = _wrap(tracer, name, original, HOOKS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    realization = sys.modules["mefcon.disturbances"].DisturbanceRealization
    original_at = realization.at

    def at(self, t, step):
        start = time.perf_counter()
        try:
            return original_at(self, t, step)
        finally:
            tracer.fold(FOLDED_AT, time.perf_counter() - start)

    realization.at = at
    try:
        yield tracer
    finally:
        realization.at = original_at
        for mod, key, original in reversed(patches):
            setattr(mod, key, original)


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return traced


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    ``<layer>.<part>_s`` is the inclusive time of that span name;
    ``*self*`` metrics subtract child spans and folded leaf calls.
    """
    total, own, calls = Counter(), Counter(), Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[span[NAME]] += span[END] - span[START]
        own[span[NAME]] += self_s
        calls[span[NAME]] += 1
    counts = tracer.counts
    steps = counts["simulate.steps"]
    sim_self = own["simulate.mef"] + own["simulate.classical"]
    metrics = {f"{name}_s": total[name] for name in sorted(set(TRACED.values()))
               if name != "analysis.comparison"}
    metrics.update({f"cli.{verb}_s": total[f"cli.{verb}"] for verb in CLI_VERBS})
    metrics.update({
        "config.file_bytes": counts["config.file_bytes"],
        "disturbances.sample_calls": calls["disturbances.sample"],
        "disturbances.at_s": counts[FOLDED_AT + ".s"],
        "disturbances.at_calls": counts[FOLDED_AT + ".calls"],
        "disturbances.bytes_materialized": counts["disturbances.bytes_materialized"],
        "simulate.steps": steps,
        "simulate.self_us_per_step": 1e6 * sim_self / steps if steps else 0.0,
        "analysis.grid_fallbacks": counts["analysis.grid_fallbacks"],
        "analysis.comparison_self_s": own["analysis.comparison"],
        "cli.self_s": sum(own[f"cli.{verb}"] for verb in CLI_VERBS),
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
    })
    return metrics
