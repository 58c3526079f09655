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

Three independent streams are spawned from the seed: one for the input
disturbances delta, one for the self-measurement errors, one for the
neighbor-measurement errors.  A run builds only the streams it reads,
stacked in that order, and sharing a seed between two runs shares the
delta realization even if one run never reads the measurement streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_KINDS = ("zero", "sinusoid", "white")
_BLOCK = 1 << 16  # white draws per block: bounds the temporary of one draw call


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
    seed : int or None
        Stream seed; None defers to the scenario seed.
    """

    kind: str = "zero"
    delta_max: float = 0.0
    eps_max: float = 0.0
    sigma: float = 1.0
    frequency: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"disturbance kind {self.kind!r} not in {_KINDS}")
        if self.delta_max < 0 or self.eps_max < 0:
            raise ConfigError("disturbance bounds must be nonnegative")
        if self.kind == "white" and self.sigma < 0:
            raise ConfigError("white-noise sigma must be nonnegative")
        if self.kind == "sinusoid" and self.frequency <= 0:
            raise ConfigError("sinusoid frequency must be positive")


class DisturbanceRealization:
    """Concrete signal source for one run.

    ``sizes`` are the lengths of the streams the run reads, a prefix of
    (delta: N, eps_self: N, eps_edge: E); ``at(t, step)`` returns them
    stacked into one input vector w.  Sinusoids are evaluated at the
    exact time ``t`` (RK4 stages included); white draws depend only on
    ``step``, clamped to the drawn steps.
    """

    def __init__(self, profile: DisturbanceProfile, sizes: tuple[int, ...],
                 steps: int, h: float, seed: int) -> None:
        if len(sizes) > 3:
            raise ConfigError(f"at most three noise streams, got sizes {tuple(sizes)}")
        self.profile = profile
        self.steps = steps
        width = sum(sizes)
        kind = profile.kind
        use_seed = profile.seed if profile.seed is not None else seed
        rngs = [np.random.default_rng(kid)
                for kid in np.random.SeedSequence(use_seed).spawn(3)]
        if kind == "zero":
            self._zero = np.zeros(width)
        elif kind == "sinusoid":
            self._phase = np.concatenate(
                [rng.uniform(0, 2 * math.pi, size) for rng, size in zip(rngs, sizes)])
            bounds = (profile.delta_max, profile.eps_max, profile.eps_max)
            self._amp = np.repeat(bounds[:len(sizes)], sizes)
            self._omega = 2 * math.pi * profile.frequency
        else:
            # row k holds step k's draws; each stream fills its own columns
            # in row blocks, which draws the same numbers as one call
            std = profile.sigma / math.sqrt(h)
            self._draws = np.empty((steps, width))
            start = 0
            for rng, size in zip(rngs, sizes):
                block = max(1, _BLOCK // max(size, 1))
                for r in range(0, steps, block):
                    rows = min(block, steps - r)
                    self._draws[r:r + rows, start:start + size] = rng.normal(
                        0.0, std, (rows, size))
                start += size

    def at(self, t: float, step: int) -> np.ndarray:
        kind = self.profile.kind
        if kind == "zero":
            return self._zero
        if kind == "sinusoid":
            return self._amp * np.sin(self._omega * t + self._phase)
        return self._draws[min(max(step, 0), self.steps - 1)]


def sample_disturbances(profile: DisturbanceProfile, sizes: tuple[int, ...],
                        steps: int, h: float, seed: int = 0) -> DisturbanceRealization:
    """Materialize a profile into a reproducible signal source for the
    streams of lengths ``sizes`` (see ``DisturbanceRealization``)."""
    if steps < 1:
        raise ConfigError("need at least one integration step")
    if h <= 0:
        raise ConfigError("step size h must be positive")
    return DisturbanceRealization(profile, sizes, steps, h, seed)
