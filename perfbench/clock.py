"""Operation timing scaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds (other tenants share the cores); raw job times measured
this way spread by about 25% between runs.  A fixed calibration
computation, independent of mefcon, is therefore timed between
operations, and each operation's wall time is scaled by ``CAL_REF_S``
over the mean of the calibrations just before and after it, raised to
the workload's sensitivity (below).  The calibration is shaped like one
simulation step of the workload (a gather, a weighted bincount over its
edge count and a few node-vector operations), because interpreter-bound
and array-bound code slow down differently when the host is busy.

A workload's operations need not slow down in proportion to the
calibration, so each workload has a sensitivity ``s`` and the factor is
``(CAL_REF_S / calibration) ** s``.  ``s`` was chosen on the host this
was tuned on as the value under which runs made in different host
states agree best: 1 for the sweep and the pipeline, 0.6 for compare,
whose operations slow down less than the calibration when the host is
busy.  On a host that runs the calibration in ``CAL_REF_S`` the scaled
time equals the wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

CAL_REF_S = 0.02


def calibrate(nodes: int, edges: int) -> float:
    """Seconds taken by the calibration computation for a step shape.

    The round count makes it last about ``CAL_REF_S`` on the host it was
    tuned on (a 2.1 GHz Xeon VM: 11 us a round plus 3.5 ns an edge).
    """
    idx = np.arange(edges) % nodes
    w = np.linspace(0.5, 2.0, edges)
    x = np.ones(nodes)
    half = nodes // 2
    start = time.perf_counter()
    for _ in range(round(1800 / (1 + edges / 3000))):
        y = np.bincount(idx, weights=w * x[idx], minlength=nodes)
        x = np.concatenate([x[:half], x[half:]]) + 1e-3 * (y - x.mean())
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float,
           sensitivity: float) -> float:
    """``seconds`` at reference speed, given calibrations around it."""
    return seconds * (CAL_REF_S / ((before + after) / 2)) ** sensitivity


class Clock:
    """Raw and scaled wall time of the operations of one job.

    ``shape`` is the (nodes, edges) of the workload's simulation step and
    ``sensitivity`` its exponent of the calibration.  ``span(name)``
    wraps each operation inside the timed region (the tracer's span in
    traced runs); calibrations run outside it.
    """

    def __init__(self, shape: tuple[int, int], sensitivity: float,
                 span=None) -> None:
        self.shape = shape
        self.sensitivity = sensitivity
        self.raw = 0.0
        self.adjusted = 0.0
        self._span = span or (lambda name: nullcontext())
        self._last: float | None = None

    @contextmanager
    def op(self, name: str):
        before = self._last if self._last is not None else calibrate(*self.shape)
        start = time.perf_counter()
        with self._span(name):
            yield
        wall = time.perf_counter() - start
        self._last = calibrate(*self.shape)
        self.raw += wall
        self.adjusted += scaled(wall, before, self._last, self.sensitivity)
