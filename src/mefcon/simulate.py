"""Fixed-step integration of the filter network and the classical baseline.

The closed loop advances the true states x and the estimates x_hat jointly
on one RK4 grid.  ``ClosedLoop`` holds its coefficients as one sparse map
over flat edge arrays.  Under the steady gain the loop is linear and
time-invariant, so ``simulate_mef`` and ``simulate_classical`` advance it
with precomputed RK4 maps (``_propagate``), each kept sparse or dense by
its fill; only the dynamic gain evaluates the RK4 stages one by one
(``rk4_step``).  The propagator reads each disturbance once per chunk of
steps: a white draw is held over the step, so its three stage reads
collapse into one held map, and a sinusoid is mapped through its two
amplitude vectors (``DisturbanceRealization.mapped``).

A noisy run on a dense step map steps in blocks of 8 steps, in three
phases (``_noisy_blocks``): each block's input sum, over all blocks at
once; a carry of the block starts, one product with P^8 - I per block;
then the states inside the blocks, over all blocks at once.  These
phases make 21 dense matrix-matrix products however long the run; only
the carry grows with the step count.  Zero-noise runs advance input-free
blocks (``_block_map``), and sparse maps one product per step.

Every run integrates only its record.  The consensus input u is read out
of that record (``_readout``) when ``Trajectory.u`` is first read, except
where u reads white edge noise: that u is read at once, so an unread u
never keeps the draws alive.

The classical baseline ``xdot = -L_std x + delta`` integrates under the
same delta realization as the filter run whenever the two configs share a
seed, which is what makes head-to-head noise comparisons meaningful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy import sparse

from .disturbances import CHUNK_ENTRIES, DisturbanceProfile, sample_disturbances
from .errors import ConfigError, SimulationError, SolverError
from .filtering import FilterParams, uniform_params
from .graphs import (NetworkTopology, is_strongly_connected, laplacian,
                     left_null_vector, make_graph)

_RICCATI_MODES = ("steady", "dynamic")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run."""

    topology: NetworkTopology
    params: FilterParams
    x0: np.ndarray
    prior: np.ndarray | None = None
    profile: DisturbanceProfile = field(default_factory=DisturbanceProfile)
    h: float = 0.01
    T: float = 50.0
    seed: int = 0
    riccati: str = "steady"

    def __post_init__(self) -> None:
        n = self.topology.node_count
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.h <= 0:
            raise ConfigError("integration.h must be positive")
        if self.steps < 1 or abs(self.T / self.h - self.steps) > 1e-9 * self.steps:
            raise ConfigError(f"integration.T = {self.T} must be a whole number "
                              f"(at least one) of steps h = {self.h}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,):
            raise ConfigError(f"x0 must have length {n}, got shape {x0.shape}")
        object.__setattr__(self, "x0", x0)
        prior = self.prior
        prior = x0.copy() if prior is None else np.asarray(prior, dtype=float)
        if prior.shape != (n,):
            raise ConfigError(f"prior must have length {n}, got shape {prior.shape}")
        object.__setattr__(self, "prior", prior)
        if self.riccati not in _RICCATI_MODES:
            raise ConfigError(f"field 'riccati' must be one of {list(_RICCATI_MODES)}, "
                              f"got {self.riccati!r}")
        if len(self.params.B) != n:
            raise ConfigError("params node arrays do not match the topology")
        if len(self.params.S_edge) != self.topology.edge_count:
            raise ConfigError("params edge arrays do not match the topology")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.h))

    @cached_property
    def loop(self) -> ClosedLoop:
        """The run's closed loop, built from topology and params on first use."""
        return ClosedLoop(self.topology, self.params)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Copy with the seed replaced.  The seed changes neither topology
        nor params, so the copy shares this config's ``loop``."""
        copy = replace(self, seed=seed)
        copy.__dict__["loop"] = self.loop  # where cached_property keeps it
        return copy


@dataclass
class Trajectory:
    """Time-indexed record of one run.

    For baseline runs the estimates are the states (no filter), u records
    the applied coupling drift, and the gain column is zero.  A gain that
    stays constant is a read-only broadcast view of one row.

    u is computed by ``readout`` on first read and kept.  A readout holds
    the record, the loop's maps and, for sinusoids, the realization's
    two amplitude vectors; never white draws, since a u that reads them
    is computed before the run returns.
    """

    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    Q: np.ndarray
    readout: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def u(self) -> np.ndarray:
        """Consensus input at every grid point (the baseline: its drift)."""
        return self.readout()

    @property
    def e(self) -> np.ndarray:
        """Estimation error x_hat - x at every grid point."""
        return self.x_hat - self.x

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])


def rk4_step(f, z: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical Runge-Kutta step for zdot = f(t, z)."""
    k1 = f(t, z)
    k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = f(t + h, z + h * k3)
    z_next = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_finite(z_next, (t,))
    return z_next


def _check_finite(Z: np.ndarray, ts) -> None:
    """Raise naming the step of Z's first non-finite row; row r of Z is the
    state after the step from ts[r]."""
    finite = np.isfinite(Z)
    if not finite.all():
        r = int(np.argmin(finite.reshape(-1, Z.shape[-1]).all(axis=1)))
        raise SimulationError(f"non-finite state after the step from t={ts[r]:.6g}")


def _csr_cut(rows, cols, vals, height: int, lo: int, hi: int):
    """The nonzero triplets in columns lo..hi-1 as a (height, hi - lo) CSR
    map; the triplets must not repeat a (row, column) pair."""
    keep = (cols >= lo) & (cols < hi) & (vals != 0)
    return sparse.csr_array((vals[keep], (rows[keep], cols[keep] - lo)),
                            shape=(height, hi - lo))


class ClosedLoop:
    """The filter network's closed loop, linear in (x, x_hat).

    Built once per config (``ScenarioConfig.loop``).  Edge (i, j)
    measures y_ij = x_j + D_ij eps_ij and feeds node i the residual
    r = y_ij - x_hat_i.  The noise w stacks (delta, eps_self, eps_edge),
    of lengths ``noise_sizes``, without eps_edge when no edge measurement
    is noisy.  One sparse map acts on the stacked point (z, w), z = (x,
    x_hat): rows 0..N-1 sum each node's residuals with weights w G/S (the
    consensus input u), rows N..2N-1 add w/S-weighted residuals to
    (y_self - x_hat)/R (the innovation).  Under the steady gain Q* the
    loop is zdot = A z + inputs w, with u = u_state z + u_noise w; ``A``,
    ``inputs``, ``u_state`` and ``u_noise`` are column blocks of that
    map.  u reads noise only through eps_edge, so ``u_noise`` is None
    when no edge measurement is noisy.  Residuals are edge differences,
    so A annihilates the constant vector: a consensus state with x_hat =
    x is an exact fixed point.

    Every map is cut by column range from one set of (row, column) slots,
    none repeated: per edge its x_dst and eps_edge columns, per node its
    x, x_hat, delta and eps_self columns, with the x_hat diagonals summed
    by ``np.bincount``.  Each map is canonical CSR (sorted indices, no
    explicit zeros); ``coupling_map`` is built on first read.

    The certificate of the loop reads the same operator: ``F`` is A in
    (x, e) coordinates and ``nu`` the consensus weights.  Both are dense,
    read-only and computed on first use, so a run that only integrates
    never pays for them.
    """

    def __init__(self, topology: NetworkTopology, params: FilterParams) -> None:
        n = topology.node_count
        src, dst, w = topology.edge_arrays()
        m = src.size
        self.n, self.dst = n, dst
        self.B = params.B
        self.D_self = np.sqrt(params.R_self)
        self.D_edge = np.sqrt(params.R_nbr_edge)
        self.noise_sizes = (n, n, m) if np.any(self.D_edge > 0) else (n, n)
        sgain = w / params.S_edge
        self.ricc_coeff = 1.0 / params.R_self + np.bincount(
            src, weights=sgain, minlength=n)
        self.q_star = np.abs(params.B) / np.sqrt(self.ricc_coeff)

        # columns: x 0..N-1, x_hat N.., delta 2N.., eps_self 3N.., eps_edge 4N..
        # Edge (i, j) adds g (x_j - x_hat_i + D eps) to u_i, g = w G/S, and
        # the same residual weighted w/S to the innovation of node i.
        g = w * params.G_edge / params.S_edge
        nodes, zero = np.arange(n), np.zeros(n)
        rows = [src] + [nodes] * 4
        cols = [dst, nodes, n + nodes, 2 * n + nodes, 3 * n + nodes]
        u_val = [g, zero, -np.bincount(src, weights=g, minlength=n), zero, zero]
        innov_val = [sgain, 1.0 / params.R_self, -self.ricc_coeff, zero,
                     self.D_self / params.R_self]
        if len(self.noise_sizes) == 3:
            rows.append(src)
            cols.append(4 * n + np.arange(m))
            u_val.append(g * self.D_edge)
            innov_val.append(sgain * self.D_edge)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        u_val, innov_val = np.concatenate(u_val), np.concatenate(innov_val)
        self._slots = rows, cols, u_val, innov_val
        self._width = 2 * n + sum(self.noise_sizes)  # (z, w)

        x_rows = u_val.copy()
        x_rows[m + 2 * n:m + 3 * n] = params.B  # the delta slots, where u is 0
        xh_rows = u_val + self.q_star[rows] * innov_val
        steady = (np.concatenate([rows, n + rows]), np.tile(cols, 2),
                  np.concatenate([x_rows, xh_rows]))
        self.A = _csr_cut(*steady, 2 * n, 0, 2 * n)
        self.inputs = _csr_cut(*steady, 2 * n, 2 * n, self._width)
        self.u_state = _csr_cut(rows, cols, u_val, n, 0, 2 * n)
        self.u_noise = (_csr_cut(rows, cols, u_val, n, 2 * n, self._width)
                        if len(self.noise_sizes) == 3 else None)

    @cached_property
    def coupling_map(self):
        """The map (z, w) -> (u, innovation), CSR: rows 0..N-1 give u,
        rows N..2N-1 the innovation."""
        rows, cols, u_val, innov_val = self._slots
        return _csr_cut(np.concatenate([rows, self.n + rows]), np.tile(cols, 2),
                        np.concatenate([u_val, innov_val]), 2 * self.n, 0, self._width)

    @cached_property
    def F(self) -> np.ndarray:
        """The steady loop on (x, e), e = x_hat - x: F = T A T^-1 with
        T = [[I, 0], [-I, I]], dense for the eigensolve.

        A's x rows are u and its x_hat rows u + Q* innov, so T A is
        diag(1, Q*) [u; innov]: its e rows are Q* innov itself, not the
        rounded difference (u + Q* innov) - u.  T^-1 = [[I, 0], [I, I]]
        adds the x_hat columns onto the x columns.
        """
        n = self.n
        F = self.coupling_map[:, :2 * n].toarray()
        F[:, :n] += F[:, n:]
        F[n:] *= self.q_star[:, None]
        F.flags.writeable = False  # cached: every reader shares this array
        return F

    @cached_property
    def nu(self) -> np.ndarray:
        """Left null vector of A with nu . 1 = 1: the consensus weights.

        nu A = 0, so c = nu . z moves only with the input nu . inputs w,
        and a disturbance-free run settles at x = x_hat = c.
        """
        if np.any(self.q_star <= 0):
            raise SolverError("consensus weights need a positive steady gain Q* at "
                              "every node (nonzero B); a node with Q* = 0 keeps "
                              "its error")
        nu = left_null_vector(self.A.toarray())
        nu.flags.writeable = False
        return nu

    def measure(self, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y_self = x + D_self eps_self and y_edge = x[dst] + D_edge eps_edge
        under the noise w; a w without eps_edge leaves y_edge = x[dst].

        y_edge follows the topology's edge order; edge (i, j) observes x_j.
        Rows of x and w give rows of y_self and y_edge.
        """
        n, y_edge = self.n, x[..., self.dst]
        if w.shape[-1] > 2 * n:
            y_edge = y_edge + self.D_edge * w[..., 2 * n:]
        return x + self.D_self * w[..., n:2 * n], y_edge

    def coupling(self, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Consensus input u and innovation at z = (x, x_hat) under noise w."""
        s = self.coupling_map @ np.concatenate([z, w])
        return s[:self.n], s[self.n:]


_DENSE_FILL = 0.25  # a map with more nonzeros than this share is stored dense


def _stored(M):
    """M as CSR while at most a quarter of its entries are nonzero, dense after."""
    if sparse.issparse(M):
        M = sparse.csr_array(M, copy=True)
        M.eliminate_zeros()
        nnz = M.nnz
    else:
        nnz = np.count_nonzero(M)
    if nnz <= _DENSE_FILL * M.shape[0] * M.shape[1]:
        return sparse.csr_array(M)
    return M.toarray() if sparse.issparse(M) else M


def _rk4_maps(A, h: float) -> list:
    """The RK4 step of zdot = A z + g(t) as linear maps [P - I, K1, K2,
    K_white], M = h A.

    One step is z + (P - I) z + K1 g(t) + K2 g(t + h/2) + (h/6) g(t + h)
    with P - I = M + M^2/2 + M^3/6 + M^4/24, K1 = h/6 (I + M + M^2/2 +
    M^3/4) and K2 = h/6 (4I + 2M + M^2/2).  An input held over the step,
    g(t) = g(t + h/2) = g(t + h), enters through the one map K_white =
    K1 + K2 + (h/6) I = h (I + M/2 + M^2/6 + M^3/24), the held-input
    discretization.  Each power of M, and each map, is stored by its fill
    (see ``_stored``); the identity takes the storage of M, so dense maps
    never mix with a sparse identity.
    """
    n, M = A.shape[0], _stored(h * A)
    powers = [sparse.eye_array(n, format="csr") if sparse.issparse(M) else np.eye(n), M]
    for _ in range(3):
        powers.append(_stored(powers[1] @ powers[-1]))

    def poly(*coeffs):
        out = coeffs[0] * powers[0]
        for c, Mk in zip(coeffs[1:], powers[1:]):
            out = out + c * Mk
        return _stored(out)

    return [poly(0.0, 1.0, 1 / 2, 1 / 6, 1 / 24),
            poly(h / 6, h / 6, h / 12, h / 24), poly(4 * h / 6, 2 * h / 6, h / 12),
            poly(h, h / 2, h / 6, h / 24)]


# Bounds the block map's size and the cost of building its powers.  It
# keeps dense 2N = 200 maps (the complete N = 100 loop) on one map per
# step.  It is a chosen cap, not a measured break-even.
_BLOCK_ENTRIES = 1 << 15
_BLOCK_STEPS = 64
# Steps per block of a noisy run on a dense step map (``_noisy_blocks``).
# One compare seed on complete N = 100 (2N = 200, 2 500 steps) ran as fast
# at 8 as at 16, and faster than at 4 or 64, under one or two BLAS threads.
_NOISY_BLOCK = 8


def _step_powers(step, B: int):
    """Yield P^j - I for j = 1..B, P = I + ``step`` dense.

    P^{j+1} - I = D + D_j + D D_j (D = ``step``, D_j = P^j - I) never
    subtracts I, so the powers keep the accuracy of the step map; along
    the consensus direction, where the state never decays, a leak in
    P^j - I would add up over a run.
    """
    Dj = step
    yield Dj
    for _ in range(B - 1):
        Dj = Dj + step + step @ Dj
        yield Dj


def _block_map(step, steps: int):
    """The map that advances B input-free steps of s_{k+1} = P s_k with
    one product: ``step`` = P - I itself when B = 1.

    s = z - c 1 for a constant c, since P 1 = 1.  Row block j = 1..B of
    the map is P^j - I (``_step_powers``), which takes s_0 to s_j - s_0;
    a partial block of b steps reads its top b row blocks.  B = 1 when
    ``step`` is stored sparse; else B = max(1, min(64, ``steps``, 2^15 //
    n^2)), the most steps whose map has at most 2^15 entries, cut to the
    last power P^B that is finite (one check over the whole stack).
    """
    if sparse.issparse(step):
        return step
    n = step.shape[0]
    B = max(1, min(_BLOCK_STEPS, steps, _BLOCK_ENTRIES // (n * n)))
    if B == 1:
        return step
    stack = np.empty((B, n, n))  # row block j - 1 holds P^j - I
    with np.errstate(over="ignore", invalid="ignore"):
        for j, Dj in enumerate(_step_powers(step, B)):
            stack[j] = Dj
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        B = max(1, int(np.argmin(finite)))
    return stack[:B].reshape(B * n, n)


def _input_terms(maps, inputs, real, h: float, out: np.ndarray) -> None:
    """Write the input term H_k of step k of ``_propagate`` into out[k],
    k < len(out); ``maps`` are ``_rk4_maps``'s.

    H_k = K1 g(t_k) + K2 g(t_k + h/2) + (h/6) g(t_k + h), g = inputs w,
    w = ``real.at(., k)``: the stages the stage-by-stage RK4 reads.  A
    white draw is held over the step, so H_k = K_white inputs w_k, one
    read of the draws; a sinusoid reads its three stage times in closed
    form (``real.mapped``).  Read in chunks of at most ``CHUNK_ENTRIES``
    noise entries (or one step).
    """
    _, K1, K2, K_white = maps
    steps, white = len(out), real.profile.kind == "white"
    rows = max(1, CHUNK_ENTRIES // inputs.shape[1])
    for k in range(0, steps, rows):
        ks = np.arange(k, min(k + rows, steps))
        t = ks * h
        if white:
            H = real.mapped(t, ks, K_white, inputs)
        else:
            H = (real.mapped(t, ks, K1, inputs) + real.mapped(t + 0.5 * h, ks, K2, inputs)
                 + (h / 6.0) * real.mapped(t + h, ks, inputs))
        out[k:k + ks.size] = H.T


def _noisy_blocks(step: np.ndarray, z_rec: np.ndarray, B: int) -> int:
    """Advance ``z_rec`` over its full blocks of B steps in place; returns
    the steps done, 0 where P^B - I is not finite.

    On entry z_rec[0] is the start and z_rec[k + 1] holds the input term
    H_k of step k (``_input_terms``); on return rows 1..bB hold the
    states, b the number of full blocks.  Three phases, each over all
    blocks at once except the carry:

    1. C_b = sum_i P^{B-1-i} H_{bB+i}, by Horner's rule with D = ``step``:
       B - 1 products of D with all blocks' partial sums.
    2. The carry, in order: z_{(b+1)B} = z_{bB} + (P^B - I)(z_{bB} -
       z_{bB}[0]) + C_b, one matrix-vector product per block.  It writes
       over H_{bB+B-1}, which only phase 1 reads.
    3. The fill: every state inside the blocks by the step z + D(z -
       z[0]) + H from the block starts, B - 1 products of D.

    With P^B - I from ``_step_powers`` that is 3(B - 1) dense
    matrix-matrix products however many steps there are.  Every
    temporary has one row per block.
    """
    for PB in _step_powers(step, B):  # ends at P^B - I
        pass
    if not np.isfinite(PB).all():
        return 0
    n = step.shape[0]
    blocks = (z_rec.shape[0] - 1) // B
    R = z_rec[1:blocks * B + 1].reshape(blocks, B, n)  # R[b, i]: step bB + i
    C = R[:, 0].copy()
    for i in range(1, B):
        C += (C - C[:, :1]) @ step.T
        C += R[:, i]
    z = z_rec[0]
    for b in range(blocks):
        R[b, -1] = z + PB @ (z - z[0]) + C[b]
        z = R[b, -1]
    prev = z_rec[0:blocks * B:B]  # the block starts z_{bB}
    for i in range(B - 1):
        R[:, i] += prev + (prev - prev[:, :1]) @ step.T
        prev = R[:, i]
    return blocks * B


def _propagate(A, inputs, z: np.ndarray, real, h: float, steps: int):
    """RK4 on the grid t_k = k h for zdot = A z + inputs w(t), with
    precomputed linear maps; returns (t, z records).

    Step k is z + (P - I)(z - z[0]) + H_k, with the input term H_k of
    ``_input_terms``.  A annihilates the constant vector, so a consensus
    state stays exact.  H is read for the whole run before stepping,
    straight into the records it is added to.  Three step forms:

    - Without noise H = 0, and small dense maps advance a block of steps
      per product (``_block_map``).
    - With noise, a dense step map and at least two blocks of 8 steps,
      the full blocks take three phases over all blocks at once
      (``_noisy_blocks``): each block's input sum, a carry of the block
      starts with P^8 - I, then the states inside the blocks.
    - Otherwise, and for the steps after the last full block, one
      product per step.

    Finiteness is checked once over all records after stepping; the
    first non-finite row names the failing step.
    """
    maps = _rk4_maps(A, h)
    step, noisy = maps[0], real.profile.kind != "zero"
    ts = np.arange(steps + 1) * h
    z_rec = np.zeros((steps + 1, z.size))
    if noisy:
        _input_terms(maps, inputs, real, h, z_rec[1:])
    block = step if noisy else _block_map(step, steps)
    n, B = z.size, block.shape[0] // z.size
    z_rec[0] = z
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
        if noisy and not sparse.issparse(step) and steps >= 2 * _NOISY_BLOCK:
            done = _noisy_blocks(step, z_rec, _NOISY_BLOCK)
            z = z_rec[done]
        for k in range(done, steps, B):
            b = min(B, steps - k)
            Z = z_rec[k + 1:k + b + 1]
            Z += z + ((block if b == B else block[:b * n]) @ (z - z[0])).reshape(b, n)
            z = Z[-1]
    _check_finite(z_rec[1:], ts)
    return ts, z_rec


def _readout(state_map, noise_map, ts: np.ndarray, z_rec: np.ndarray, real,
             width: int) -> np.ndarray:
    """The consensus input u = state_map (z - z[0]) + noise_map w(t_k) at
    every grid point t_k of the record z_rec, w = ``real.at(t_k, k)``;
    ``noise_map`` None: u sees no noise, and ``real`` is not read.

    Read in chunks of at most ``CHUNK_ENTRIES`` entries of the ``width``
    noise streams (or one point), the chunks of ``_input_terms``.
    """
    u_rec = np.empty((ts.size, state_map.shape[0]))
    rows = max(1, CHUNK_ENTRIES // width)
    noisy = noise_map is not None and real.profile.kind != "zero"
    for k in range(0, ts.size, rows):
        ks = np.arange(k, min(k + rows, ts.size))
        d = z_rec[k:k + ks.size] - z_rec[k:k + ks.size, :1]
        u = state_map @ d.T
        if noisy:
            u += real.mapped(ts[ks], ks, noise_map)
        u_rec[k:k + ks.size] = u.T
    return u_rec


def _u_readout(state_map, noise_map, ts: np.ndarray, z_rec: np.ndarray, real,
               width: int) -> Callable[[], np.ndarray]:
    """The ``Trajectory.readout`` of a record: ``_readout`` deferred to the
    first read of u, or run now when u reads white draws, so that an
    unread u never keeps the draws alive.  A u without noise holds no
    realization."""
    if noise_map is None:
        real = None
    read = partial(_readout, state_map, noise_map, ts, z_rec, real, width)
    if real is None or real.profile.kind != "white":
        return read
    u_rec = read()
    return lambda: u_rec


def simulate_mef(config: ScenarioConfig) -> Trajectory:
    """Integrate the filter network (states and estimates jointly).

    Estimates start at the configured priors.  Gains stay frozen at the
    steady value Q* unless ``riccati='dynamic'``, which integrates the
    gain equation from Q(0) = 1/Xi alongside the states.  The steady loop
    is linear and time-invariant, so its RK4 steps are precomputed linear
    maps (``_propagate``); the dynamic loop evaluates its stages.  Both
    read u out of the (x, x_hat) record (``_u_readout``).
    """
    return _simulate_mef(config, sample_disturbances(
        config.profile, config.loop.noise_sizes, config.steps, config.h, config.seed))


def _simulate_mef(config: ScenarioConfig, real) -> Trajectory:
    """``simulate_mef`` under the realization ``real`` of the loop's noise
    streams."""
    if not is_strongly_connected(config.topology):
        warnings.warn("topology is not strongly connected; consensus is not "
                      "guaranteed", RuntimeWarning, stacklevel=3)
    loop = config.loop
    n, h, steps = loop.n, config.h, config.steps
    if config.riccati == "steady":
        ts, z_rec = _propagate(loop.A, loop.inputs,
                               np.concatenate([config.x0, config.prior]), real, h, steps)
        q_rec = np.broadcast_to(loop.q_star, (ts.size, n))
    else:
        def f(t: float, k: int, z: np.ndarray) -> np.ndarray:
            q, w = z[2 * n:], real.at(t, k)
            u, innov = loop.coupling(z[:2 * n], w)
            # Qdot = B^2 - Q^2 (1/R + sum_j w_j / S_j)
            return np.concatenate([u + loop.B * w[:n], u + q * innov,
                                   loop.B ** 2 - q ** 2 * loop.ricc_coeff])

        ts = np.arange(steps + 1) * h
        z_rec = np.empty((steps + 1, 3 * n))
        z_rec[0] = np.concatenate([config.x0, config.prior, 1.0 / config.params.Xi])
        for k in range(steps):
            z_rec[k + 1] = rk4_step(lambda t, z: f(t, k, z), z_rec[k], ts[k], h)
        q_rec = z_rec[:, 2 * n:]
    readout = _u_readout(loop.u_state, loop.u_noise, ts, z_rec[:, :2 * n], real,
                         sum(loop.noise_sizes))
    return Trajectory(ts, z_rec[:, :n], z_rec[:, n:2 * n], q_rec, readout)


def measurements(config: ScenarioConfig,
                 traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Measurements (y_self (K+1, N), y_edge (K+1, E)) of a filter run.

    Replays the run's measurement noise on its grid, so each row is what
    the nodes saw at that grid point.
    """
    loop = config.loop
    real = sample_disturbances(config.profile, loop.noise_sizes, config.steps,
                               config.h, config.seed)
    return loop.measure(traj.x, real.at(traj.t, np.arange(traj.t.size)))


def simulate_classical(config: ScenarioConfig) -> Trajectory:
    """Integrate the baseline xdot = -L_std x + delta on the same grid.

    Shares the delta stream with ``simulate_mef`` for equal seeds.  The
    trajectory reports estimates equal to states (e = 0), u equal to the
    coupling drift, and zero gains.
    """
    n = config.topology.node_count
    return _simulate_classical(config, sample_disturbances(
        config.profile, (n,), config.steps, config.h, config.seed))


def _simulate_classical(config: ScenarioConfig, real) -> Trajectory:
    """``simulate_classical`` under the realization ``real`` of the delta
    stream alone, such as a filter run's ``real.leading(N)``."""
    top = config.topology
    Lp = _stored(laplacian(top))  # -L_std
    n = top.node_count
    ts, x_rec = _propagate(Lp, sparse.eye_array(n, format="csr"), config.x0, real,
                           config.h, config.steps)
    return Trajectory(ts, x_rec, x_rec, np.broadcast_to(0.0, x_rec.shape),
                      _u_readout(Lp, None, ts, x_rec, real, n))


def basic_scenario(n: int = 2, family: str = "complete", *, B=1.0, R=1.0,
                   S=1.0, G=1.0, x0=None, prior=None, profile=None,
                   h: float = 0.01, T: float = 50.0, seed: int = 0,
                   riccati: str = "steady") -> ScenarioConfig:
    """Convenience builder for uniform-parameter scenarios used in tests."""
    top = make_graph(family, n)
    params = uniform_params(top, B=B, R=R, S=S, G=G)
    if x0 is None:
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    prof = profile if profile is not None else DisturbanceProfile()
    return ScenarioConfig(top, params, np.asarray(x0, float),
                          None if prior is None else np.asarray(prior, float),
                          prof, h, T, seed, riccati)
