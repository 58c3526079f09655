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
    frozen across the stages of one RK4 step.  They are drawn chunk by
    chunk as a pass reads them, never stored for the whole run.

Three independent streams are spawned from the run's seed, the one root
of every draw of a run: one for the input disturbances delta, one for
the self-measurement errors, one for the neighbor-measurement errors.
A run builds only the streams it reads, stacked in that order, and
sharing a seed between two runs shares the delta realization even if one
run never reads the measurement streams.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError

# each kind and the fields it reads
_KINDS = {"zero": (), "sinusoid": ("delta_max", "eps_max", "frequency"),
          "white": ("sigma",)}
# Noise entries per block of a pass (``DisturbanceRealization.rows``),
# which bounds one noise temporary: a block of white draws, and what the
# readers of the pass make of it (``simulate._pass``).  Smaller blocks pay
# more per-call overhead, larger ones more memory.
CHUNK_ENTRIES = 1 << 16


def _seed(value, field: str) -> int:
    """A seed as numpy's seeding takes it: an integer, at least 0.  A numpy
    integer and a float with an integer value are integers; a bool is not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigError(f"field '{field}' must be a nonnegative integer, got {value!r}")
    return int(value)


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
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ConfigError(f"disturbance kind {self.kind!r} not in {tuple(_KINDS)}")
        for name in _KINDS[self.kind]:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"field 'disturbance.{name}' must be a finite number, "
                                  f"got {getattr(self, name)}")
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
    stacked into one input vector w.  A sinusoid is w(t) = Re(c e^{i
    omega t}) with one complex amplitude c = -i amp e^{i phase} per
    signal, evaluated at the exact time ``t`` (RK4 stages included), so
    a read takes one cosine and one sine per time point, however many
    signals there are; zero noise is c = 0.  White draws depend only on
    ``step``, clamped to the drawn steps.  Both arguments may be arrays.
    ``omega`` is the angular frequency, 0 for white draws and zero noise,
    which hold their value over a step.

    A white realization keeps its seed and per-step std, never its
    draws.  ``chunks`` reads the run in one pass in step order, in blocks
    of ``rows`` steps (at most ``CHUNK_ENTRIES`` noise entries, or one
    step), and draws each block's rows as it is read, so a pass holds
    about one block however long the run.  Every pass starts from fresh
    generators and gives the same numbers, bit for bit those of one
    ``normal`` call per stream for the whole run.  A random-access read
    (``at``) replays a pass up to the last step it reads.
    """

    def __init__(self, profile: DisturbanceProfile, sizes: tuple[int, ...],
                 steps: int, h: float, seed: int) -> None:
        sizes = tuple(sizes)
        if not (1 <= len(sizes) <= 3 and all(
                isinstance(s, (int, np.integer)) and s >= 1 for s in sizes)):
            raise ConfigError(f"noise stream sizes must be one to at most three "
                              f"integers, each at least 1, got sizes {sizes}")
        self.profile = profile
        self.sizes, self.steps = sizes, steps
        self.rows = max(1, CHUNK_ENTRIES // sum(sizes))
        kind = profile.kind
        self.omega = 2 * math.pi * profile.frequency if kind == "sinusoid" else 0.0
        if kind == "white":
            self._seed, self._std = seed, profile.sigma / math.sqrt(h)
        elif kind == "sinusoid":
            phase = np.concatenate([rng.uniform(0, 2 * math.pi, size)
                                    for rng, size in zip(_streams(seed), sizes)])
            # -i amp e^{i phase}, so that Re(c e^{i omega t}) = amp sin(omega t + phase)
            self._c = profile.amplitudes(sizes) * (np.sin(phase) - 1j * np.cos(phase))
        else:  # reads no stream: a sinusoid of amplitude 0
            self._c = np.zeros(sum(sizes))

    def at(self, t, step) -> np.ndarray:
        """w at time ``t`` of step ``step``; arrays of m times and m steps
        give the m vectors as rows of an (m, width) array."""
        t, step = np.broadcast_arrays(t, np.clip(step, 0, self.steps - 1))
        flat, ts = step.ravel(), t.ravel()
        out = np.empty((flat.size, sum(self.sizes)))
        for ks, read in self.chunks(int(flat.max()) + 1):
            hit = (flat >= ks[0]) & (flat <= ks[-1])
            out[hit] = read(ts[hit], flat[hit]).T
        return out.reshape(step.shape + out.shape[1:])

    def _rotate(self, W: np.ndarray, t) -> np.ndarray:
        """Re(W e^{i omega t}) for a mapped amplitude vector W."""
        wt = self.omega * np.asarray(t)
        return (np.multiply.outer(W.real, np.cos(wt))
                - np.multiply.outer(W.imag, np.sin(wt)))

    def chunks(self, count: int):
        """One pass over steps 0..count-1 in step order, in blocks of
        ``rows`` steps.  Yields (ks, read) per block: ks are the block's
        steps and read(t, step, *maps) is M w(t, step) as an (M rows, m)
        array for m times and m steps in ks, M the product of ``maps``
        applied right to left (a slice takes those rows); step None reads
        all of ks, and a white block then passes its rows on without a
        copy.  A sinusoid maps its amplitudes c only, M w(t) = Re((M c)
        e^{i omega t}), so a map may be complex (``simulate._rk4_maps``).

        White draws are made here, a block's rows when the pass reaches
        it, and dropped with the block, so a pass holds about one block
        however long the run.  Steps from ``steps`` on read the last drawn
        step.  A sinusoid maps its amplitude vector once per pass for each
        tuple of maps read, M c being the same for every block.
        """
        rows = self.rows
        if self.profile.kind != "white":
            mapped = {}  # id(maps) -> (maps, M c); holding maps keeps their ids unique

            def read(t, step, *maps):
                key = tuple(map(id, maps))
                if key not in mapped:
                    mapped[key] = maps, _apply(maps, self._c)
                return self._rotate(mapped[key][1], t)

            for a in range(0, count, rows):
                yield np.arange(a, min(a + rows, count)), read
            return
        rngs, last = _streams(self._seed), None
        for a in range(0, count, rows):
            b = min(a + rows, count)
            W = np.empty((b - a, sum(self.sizes)))
            drawn = max(0, min(b, self.steps) - a)
            start = 0
            for rng, size in zip(rngs, self.sizes):
                W[:drawn, start:start + size] = rng.normal(0.0, self._std, (drawn, size))
                start += size
            W[drawn:] = W[drawn - 1] if drawn else last  # the clamp past the end
            last = W[-1].copy()
            yield np.arange(a, b), partial(_mapped_rows, W, a)


def _streams(seed: int) -> list[np.random.Generator]:
    """The three generators of a run, fresh from its seed: delta, eps_self,
    eps_edge."""
    return [np.random.default_rng(kid) for kid in np.random.SeedSequence(seed).spawn(3)]


def _apply(maps, W):
    """M W, M the product of ``maps``, applied right to left; a slice
    takes those rows (a view)."""
    for M in reversed(maps):
        W = W[M] if isinstance(M, slice) else M @ W
    return W


def _mapped_rows(W: np.ndarray, first: int, t, step, *maps) -> np.ndarray:
    """``DisturbanceRealization.chunks``' read of one block W of a white
    pass, whose row j holds step first + j; step None reads every row."""
    rows = W if step is None else W.take(np.asarray(step) - first, axis=0)
    return _apply(maps, rows.T)


def sample_disturbances(profile: DisturbanceProfile, sizes: tuple[int, ...],
                        steps: int, h: float, seed: int = 0) -> DisturbanceRealization:
    """Materialize a profile into a reproducible signal source for the
    streams of lengths ``sizes`` (see ``DisturbanceRealization``)."""
    if steps < 1:
        raise ConfigError("need at least one integration step")
    if h <= 0:
        raise ConfigError("step size h must be positive")
    return DisturbanceRealization(profile, sizes, steps, h, _seed(seed, "seed"))
