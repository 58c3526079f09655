"""Disturbance signal synthesis for simulation runs.

Three kinds:

``zero``
    All signals identically zero.
``sinusoid``
    Bounded continuous signals ``amp * sin(2 pi f t + phase)`` with one
    deterministic phase per signal drawn from the seed.  Satisfies the
    bounded-and-continuous hypothesis of the ISS envelope.
``white``
    Piecewise-constant Gaussian draws per integration step with standard
    deviation ``sigma / sqrt(h)`` (so the discrete process approximates
    unit-intensity continuous white noise at sigma = 1).  Values are
    frozen across the stages of one RK4 step.

Three independent streams are spawned from the run's seed, the one root
of every draw of a run: one for the input disturbances delta, one for
the self-measurement errors, one for the neighbor-measurement errors.
A run builds only the streams it reads, stacked in that order, and
sharing a seed between two runs shares the delta realization even if one
run never reads the measurement streams.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_KINDS = ("zero", "sinusoid", "white")
# Noise entries per chunk, which bounds one noise temporary (white draws;
# the input terms of ``simulate._input_terms`` and the u readout of
# ``simulate._readout``).  Smaller chunks pay more per-call overhead,
# larger ones more memory.
CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DisturbanceProfile:
    """Declarative description of the disturbance signals of one run.

    Fields
    ------
    kind : str
        ``zero``, ``sinusoid`` or ``white``.
    delta_max, eps_max : float
        Amplitude bounds of the sinusoid signals (input and measurement).
    sigma : float
        White-noise intensity; per-step std is sigma / sqrt(h).
    frequency : float
        Sinusoid frequency in cycles per time unit.

    The draws come from the run's seed (``sample_disturbances``).
    """

    kind: str = "zero"
    delta_max: float = 0.0
    eps_max: float = 0.0
    sigma: float = 1.0
    frequency: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"disturbance kind {self.kind!r} not in {_KINDS}")
        for name in ("delta_max", "eps_max"):
            if getattr(self, name) < 0:
                raise ConfigError(f"field 'disturbance.{name}' must be nonnegative, "
                                  f"got {getattr(self, name)}")
        if self.kind == "white" and self.sigma < 0:
            raise ConfigError(f"field 'disturbance.sigma' must be nonnegative, "
                              f"got {self.sigma}")
        if self.kind == "sinusoid" and self.frequency <= 0:
            raise ConfigError(f"field 'disturbance.frequency' must be positive, "
                              f"got {self.frequency}")

    def bounds(self) -> tuple[float, float] | None:
        """Bounds on |delta| and on the measurement errors, as the kind
        reads them: 0 for zero, (delta_max, eps_max) for a sinusoid, None
        for white noise, which has no amplitude bound."""
        if self.kind == "white":
            return None
        return (self.delta_max, self.eps_max) if self.kind == "sinusoid" else (0.0, 0.0)

    def amplitudes(self, sizes: tuple[int, ...]) -> np.ndarray | None:
        """Bound on |w_j| for every signal of the streams of lengths
        ``sizes`` (a prefix of delta, eps_self, eps_edge), from ``bounds``;
        None for white noise."""
        bounds = self.bounds()
        if bounds is None:
            return None
        delta, eps = bounds
        return np.repeat((delta, eps, eps)[:len(sizes)], sizes)


class DisturbanceRealization:
    """Concrete signal source for one run.

    ``sizes`` are the lengths of the streams the run reads, a prefix of
    (delta: N, eps_self: N, eps_edge: E); ``at(t, step)`` returns them
    stacked into one input vector w.  Sinusoids are evaluated at the
    exact time ``t`` (RK4 stages included) as
    ``sin(omega t) amp cos(phase) + cos(omega t) amp sin(phase)``, so a
    read takes two sines per time point, however many signals there
    are; white draws depend only on ``step``, clamped to the drawn
    steps.  Both arguments may be arrays.  ``mapped`` reads a linear map
    of w without building w; ``leading`` gives the delta stream alone.
    """

    def __init__(self, profile: DisturbanceProfile, sizes: tuple[int, ...],
                 steps: int, h: float, seed: int) -> None:
        if len(sizes) > 3:
            raise ConfigError(f"at most three noise streams, got sizes {tuple(sizes)}")
        self.profile = profile
        self._width = width = sum(sizes)
        kind = profile.kind
        if kind == "zero":  # reads no stream
            return
        rngs = [np.random.default_rng(kid)
                for kid in np.random.SeedSequence(seed).spawn(3)]
        if kind == "sinusoid":
            phase = np.concatenate(
                [rng.uniform(0, 2 * math.pi, size) for rng, size in zip(rngs, sizes)])
            amp = profile.amplitudes(sizes)
            self._amp_cos, self._amp_sin = amp * np.cos(phase), amp * np.sin(phase)
            self._omega = 2 * math.pi * profile.frequency
        elif kind == "white":
            # row k holds step k's draws; each stream fills its own columns
            # in row blocks, which draws the same numbers as one call
            std = profile.sigma / math.sqrt(h)
            self._draws = np.empty((steps, width))
            start = 0
            for rng, size in zip(rngs, sizes):
                block = max(1, CHUNK_ENTRIES // max(size, 1))
                for r in range(0, steps, block):
                    rows = min(block, steps - r)
                    self._draws[r:r + rows, start:start + size] = rng.normal(
                        0.0, std, (rows, size))
                start += size

    def leading(self, size: int) -> "DisturbanceRealization":
        """The first ``size`` signals alone, sharing this realization's
        arrays: for the delta stream's length N, what ``sample_disturbances``
        draws for sizes (N,) from the same seed, without drawing again."""
        part = copy.copy(self)
        part._width = size
        kind = self.profile.kind
        if kind == "white":
            part._draws = self._draws[:, :size]
        elif kind == "sinusoid":
            part._amp_cos, part._amp_sin = self._amp_cos[:size], self._amp_sin[:size]
        return part

    def at(self, t, step) -> np.ndarray:
        """w at time ``t`` of step ``step``; arrays of m times and m steps
        give the m vectors as rows of an (m, width) array."""
        kind = self.profile.kind
        if kind == "zero":
            return np.zeros(np.shape(t) + (self._width,))
        if kind == "sinusoid":
            wt = self._omega * np.asarray(t)
            return (np.multiply.outer(np.sin(wt), self._amp_cos)
                    + np.multiply.outer(np.cos(wt), self._amp_sin))
        return self._draws.take(step, axis=0, mode="clip")

    def mapped(self, t, step, *maps) -> np.ndarray:
        """M w(t_k) for arrays of m times and m steps, M the product of
        ``maps``, as an (M rows, m) array: ``M @ at(t, step).T`` up to
        rounding, with the maps applied right to left.

        A sinusoid is M w(t) = (M amp_cos) sin(omega t) + (M amp_sin)
        cos(omega t): the maps act on the two amplitude vectors only, and
        no (m, width) w is built.  White draws are read once and mapped
        as they are.
        """
        kind = self.profile.kind
        if kind == "zero":
            return np.zeros((maps[0].shape[0], np.size(t)))
        if kind == "sinusoid":
            W = np.stack([self._amp_cos, self._amp_sin], axis=1)
        else:
            W = self._draws.take(step, axis=0, mode="clip").T
        for M in reversed(maps):
            W = M @ W
        if kind == "white":
            return W
        wt = self._omega * np.asarray(t)
        return (np.multiply.outer(W[:, 0], np.sin(wt))
                + np.multiply.outer(W[:, 1], np.cos(wt)))


def sample_disturbances(profile: DisturbanceProfile, sizes: tuple[int, ...],
                        steps: int, h: float, seed: int = 0) -> DisturbanceRealization:
    """Materialize a profile into a reproducible signal source for the
    streams of lengths ``sizes`` (see ``DisturbanceRealization``)."""
    if steps < 1:
        raise ConfigError("need at least one integration step")
    if h <= 0:
        raise ConfigError("step size h must be positive")
    return DisturbanceRealization(profile, sizes, steps, h, seed)
