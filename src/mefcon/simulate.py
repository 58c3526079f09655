"""Fixed-step integration of the filter network and the classical baseline.

The closed loop advances the true states x and the estimates x_hat jointly
on one RK4 grid.  ``ClosedLoop`` holds its coefficients as one set of
triplets over flat edge arrays, and builds each map from them on first
read.  Under the steady gain the loop is linear and time-invariant, so
``simulate_mef`` and ``simulate_classical`` advance it with precomputed
RK4 maps (``_propagate``).  Every map is dense when small or more than a
quarter full, else CSR (``_stored``), and only CSR maps load
scipy.sparse.  A dynamic gain steps stage by stage (``rk4_step``) only
until it settles at Q*.  The propagator reads each disturbance once per
chunk of steps through one input map K(omega h): a sinusoid is an input
that rotates by e^{i omega h} per step, and a white draw, held over the
step, is omega = 0 (``_rk4_maps``, ``DisturbanceRealization.chunks``).

A run reads its noise in one pass in step order (``_pass``), in the
blocks of its realization, which draws white noise a block at a time as
it is read; every reader of w takes the same blocks from that pass: the
input terms, the dynamic gain's steps, u's white noise term, and in a
comparison the baseline's input terms too, from the first N rows of each
block.

A dense run with enough steps (``_blocks_pay``) steps in blocks of 8
steps, in three phases (``_blocks``): each block's input sum, over all
blocks at once; a carry of the block starts with P^8 - I, which is the
same recurrence again and goes in blocks by the same rule; then the
states inside the blocks, over all blocks at once.  Zero noise is the
input 0.  Sparse maps, and dense runs too short to pay for P^8 - I,
take one product per step.

Every run integrates only its record.  The consensus input u is read out
of that record (``_readout``) when ``Trajectory.u`` is first read; where
u reads white edge noise, its noise term comes from the run's pass, and
otherwise from the realization, which holds no white draws.

The classical baseline ``xdot = -L_std x + delta`` integrates under the
same delta realization as the filter run whenever the two configs share a
seed, which is what makes head-to-head noise comparisons meaningful.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .disturbances import DisturbanceProfile, _seed, sample_disturbances
from .errors import ConfigError, SimulationError, SolverError
from .filtering import FilterParams, uniform_params
from .graphs import (NetworkTopology, is_strongly_connected, left_null_vector,
                     make_graph)

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
        object.__setattr__(self, "seed", _seed(self.seed, "seed"))
        if not 0 < self.h < math.inf:
            raise ConfigError(f"integration.h must be finite and positive, got {self.h}")
        if math.isfinite(self.T) and not math.isfinite(self.T / self.h):
            raise ConfigError(f"integration.h = {self.h} is too small: the step count "
                              f"T / h = {self.T} / {self.h} overflows")
        if not math.isfinite(self.T / self.h) or self.steps < 1 \
                or abs(self.T / self.h - self.steps) > 1e-9 * self.steps:
            raise ConfigError(f"integration.T = {self.T} must be a whole number "
                              f"(at least one) of steps h = {self.h}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,):
            raise ConfigError(f"initial.x0 must have length {n}, got shape {x0.shape}")
        object.__setattr__(self, "x0", x0)
        prior = self.prior
        prior = x0.copy() if prior is None else np.asarray(prior, dtype=float)
        if prior.shape != (n,):
            raise ConfigError(f"initial.prior must have length {n}, got shape {prior.shape}")
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


@dataclass
class Trajectory:
    """Time-indexed record of one run.

    For baseline runs the estimates are the states (no filter), u records
    the applied coupling drift, and the gain column is zero.  A gain that
    stays constant is a read-only broadcast view of one row.

    u is computed by ``readout`` on first read and kept, and the readout
    is then replaced by one that returns it.  Until then it holds the
    record, the loop (whose u maps are built by that first read), the
    run's realization (for sinusoids its complex amplitude vector; never
    white draws) and, for white edge
    noise, the (steps + 1) x N noise term the run's pass read, unless the
    run was made for a comparison, which reads no u.
    """

    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    Q: np.ndarray
    readout: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def u(self) -> np.ndarray:
        """Consensus input at every grid point (the baseline: its drift)."""
        u = self.readout()
        self.readout = lambda: u  # drops what the readout held
        return u

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


# A map is stored dense if it has at most this many entries, or if more
# than this share of its entries are nonzero; otherwise CSR (``_stored``).
_DENSE_ENTRIES = 1 << 12
_DENSE_FILL = 0.25


def _is_dense(shape, nnz: int) -> bool:
    """Whether a map of ``shape`` with ``nnz`` nonzeros is stored dense."""
    entries = shape[0] * shape[1]
    return entries <= _DENSE_ENTRIES or nnz > _DENSE_FILL * entries


def _csr(M, shape=None):
    """M, an array or (values, (rows, columns)) triplets that repeat no
    pair, as CSR with no stored zero.  The one place that loads
    scipy.sparse: a run whose maps are all dense never imports it."""
    from scipy import sparse

    M = sparse.csr_array(M, shape=shape, copy=True)
    M.eliminate_zeros()
    return M


def _stored(M):
    """M dense if it has at most 2^12 entries or more than a quarter of
    them are nonzero, else CSR.

    Measured against scipy's CSR on one BLAS thread, in microseconds per
    product with a vector and with 20 columns:

    ==================  =====  ============  ==========  ==========  ========
    map                 fill   dense matvec  CSR matvec  dense x 20  CSR x 20
    ==================  =====  ============  ==========  ==========  ========
    64 x 64 (4 096)     2-25%  3.1-3.3       7.7-8.7     11.0-11.1   13.6-25.5
    90 x 90 (8 100)     2%     4.2           8.0         18.9        15.0
    256 x 256 (65 536)  2%     13.7          10.1        133         38
    ==================  =====  ============  ==========  ==========  ========

    Up to 2^12 entries dense was never slower; a larger bound would lose
    on mid-size sparse maps such as rings.
    """
    if isinstance(M, np.ndarray):
        return M if _is_dense(M.shape, np.count_nonzero(M)) else _csr(M)
    M = _csr(M)
    return M.toarray() if _is_dense(M.shape, M.nnz) else M


def _cut(rows, cols, vals, height: int, lo: int, hi: int, dense: bool = False):
    """The nonzero triplets in rows 0..height-1 and columns lo..hi-1 as a
    (height, hi - lo) map, stored by ``_stored``'s rule, or a new dense
    array where ``dense``; the triplets must not repeat a (row, column)
    pair."""
    keep = (rows < height) & (cols >= lo) & (cols < hi) & (vals != 0)
    rows, cols, vals, shape = rows[keep], cols[keep] - lo, vals[keep], (height, hi - lo)
    if dense or _is_dense(shape, vals.size):
        M = np.zeros(shape)
        M[rows, cols] = vals
        return M
    return _csr((vals, (rows, cols)), shape)


class ClosedLoop:
    """The filter network's closed loop, linear in (x, x_hat).

    Built once per config (``ScenarioConfig.loop``).  Edge (i, j)
    measures y_ij = x_j + D_ij eps_ij and feeds node i the residual
    r = y_ij - x_hat_i.  The noise w stacks (delta, eps_self, eps_edge),
    of lengths ``noise_sizes``, without eps_edge when no edge measurement
    is noisy.  One linear map acts on the stacked point (z, w), z = (x,
    x_hat): rows 0..N-1 sum each node's residuals with weights w G/S (the
    consensus input u), rows N..2N-1 add w/S-weighted residuals to
    (y_self - x_hat)/R (the innovation).  Under the steady gain Q* the
    loop is zdot = A z + inputs w, with u = u_state z + u_noise w; ``A``,
    ``inputs``, ``u_state`` and ``u_noise`` are column blocks of that
    map.  u reads noise only through eps_edge, so ``u_noise`` is None
    when no edge measurement is noisy.  Residuals are edge differences,
    so A annihilates the constant vector: a consensus state with x_hat =
    x is an exact fixed point.

    Every map is cut by row and column range from one set of (row,
    column) slots, none repeated: per edge its x_dst and eps_edge
    columns, per node its x, x_hat, delta and eps_self columns, with the
    x_hat diagonals summed by ``np.bincount``.  Each map is built on
    first read and stored by ``_stored``'s rule: dense, or canonical CSR
    (sorted indices, no explicit zeros).

    The certificate of the loop reads the same operator: ``F`` is A in
    (x, e) coordinates and ``nu`` the consensus weights.  Both are dense,
    read-only, computed on first use and built from the slots, as is
    ``input_slots``, so the certificate builds no CSR map.
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
        self._steady = x_rows, u_val + self.q_star[rows] * innov_val

    def _triplets(self, steady: bool):
        """(rows, columns, values) of the map (z, w) -> zdot under Q*
        (``steady``), else of ``coupling_map``: each slot once in the first
        N rows and once in the last N."""
        rows, cols, u_val, innov_val = self._slots
        top, bottom = self._steady if steady else (u_val, innov_val)
        return (np.concatenate([rows, self.n + rows]), np.tile(cols, 2),
                np.concatenate([top, bottom]))

    @cached_property
    def A(self):
        """The steady loop zdot = A z + inputs w on z = (x, x_hat)."""
        return _cut(*self._triplets(True), 2 * self.n, 0, 2 * self.n)

    @cached_property
    def inputs(self):
        """The steady loop's input map, from the noise w."""
        return _cut(*self._triplets(True), 2 * self.n, 2 * self.n, self._width)

    @cached_property
    def u_state(self):
        """u's map from the state z."""
        return _cut(*self._triplets(False), self.n, 0, 2 * self.n)

    @cached_property
    def u_noise(self):
        """u's map from the noise w; None when no edge measurement is noisy."""
        if len(self.noise_sizes) < 3:
            return None
        return _cut(*self._triplets(False), self.n, 2 * self.n, self._width)

    @cached_property
    def coupling_map(self):
        """The map (z, w) -> (u, innovation): rows 0..N-1 give u, rows
        N..2N-1 the innovation."""
        return _cut(*self._triplets(False), 2 * self.n, 0, self._width)

    def input_slots(self) -> tuple[np.ndarray, ...]:
        """The slots of ``inputs`` as (nodes, columns, x, x_hat): slot k
        puts x[k] in row nodes[k] and x_hat[k] in row N + nodes[k] of
        column columns[k], and no two slots share a (node, column) pair.
        Zero values are kept."""
        rows, cols, *_ = self._slots
        top, bottom = self._steady
        noise = cols >= 2 * self.n
        return rows[noise], cols[noise] - 2 * self.n, top[noise], bottom[noise]

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
        F = _cut(*self._triplets(False), 2 * n, 0, 2 * n, dense=True)
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
        n = self.n
        nu = left_null_vector(_cut(*self._triplets(True), 2 * n, 0, 2 * n, dense=True))
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

    @np.errstate(divide="ignore", invalid="ignore")  # the tanh form is 0/0 where B = 0
    def gain(self, Q0: np.ndarray, t) -> np.ndarray:
        """Q(t) from Q(0) = Q0 under Qdot = B^2 - c Q^2, c = ``ricc_coeff``:
        Q* (Q0 + Q* tanh kt) / (Q* + Q0 tanh kt), k = sqrt(c) |B|, the ratio
        first so that Q0 = Q* gives Q*, and Q0 / (1 + c Q0 t) where B = 0."""
        c, q = self.ricc_coeff, self.q_star
        th = np.tanh(np.sqrt(c) * np.abs(self.B) * t)
        return np.where(q > 0, q * ((Q0 + q * th) / (q + Q0 * th)), Q0 / (1 + c * Q0 * t))


def _rk4_maps(A, h: float, theta: float) -> list:
    """The RK4 step of zdot = A z + Re(g e^{i omega t}) as the linear maps
    [P - I, K], M = h A, theta = omega h.

    One step is z + (P - I) z + Re(K g e^{i omega t}) with P - I = M +
    M^2/2 + M^3/6 + M^4/24 and K = h/6 [(I + M + M^2/2 + M^3/4) + (4I +
    2M + M^2/2) e^{i theta/2} + I e^{i theta}], which sums the stage reads
    at t, t + h/2 and t + h.  Its coefficients are the held ones plus
    terms in d = e^{i theta/2} - 1, so a held input (theta = 0) gets the
    real K = h (I + M/2 + M^2/6 + M^3/24), the held-input discretization,
    bit for bit.  Each power of M, and each map, is stored by its fill
    (see ``_stored``); the identity takes the storage of M, so dense maps
    never mix with a sparse identity.
    """
    n, M = A.shape[0], _stored(h * A)
    eye = (np.ones(n), (np.arange(n), np.arange(n)))
    powers = [np.eye(n) if isinstance(M, np.ndarray) else _csr(eye, (n, n)), M]
    for _ in range(3):
        powers.append(_stored(powers[1] @ powers[-1]))

    def poly(*coeffs):
        out = coeffs[0] * powers[0]
        for c, Mk in zip(coeffs[1:], powers[1:]):
            out = out + c * Mk
        return _stored(out)

    e = cmath.exp(0.5j * theta) if theta else 1.0  # real floats at theta = 0
    d = e - 1.0
    return [poly(0.0, 1.0, 1 / 2, 1 / 6, 1 / 24),
            poly(h + (h / 6) * d * (e + 5), h / 2 + (h / 3) * d, h / 6 + (h / 12) * d,
                 h / 24)]


# Steps per block of a dense run (``_blocks``).  One compare seed on
# complete N = 100 (2N = 200, 2 500 steps) ran as fast at 8 as at 16, and
# faster than at 4 or 64, under one or two BLAS threads.
_BLOCK = 8
# Steps per state dimension from which a dense run goes in blocks
# (``_blocks_pay``).
_STEPS_PER_DIM = 4


def _blocks_pay(steps: int, dim: int) -> bool:
    """Whether ``steps`` steps of a dense dim x dim step map go in blocks
    (``_blocks``): at least two blocks, and at least ``_STEPS_PER_DIM``
    steps per dimension.

    Blocks trade steps matrix-vector products for 7 dense dim x dim
    products that build P^8 - I and 14 matrix-matrix products with one
    row per block, so they pay once the steps amortize the powers, a
    number of steps proportional to dim.  Measured on one BLAS thread of
    a shared 2-core host, one level of blocks against one product per
    step (best of 2-5 runs), blocks break even near 1.5 steps per
    dimension at dim 100 and 1 000, 2.5 at 500 and 4 at 200, whose
    matrix-vector product stays in cache.  At 4 steps per dimension they
    took 0.57, 0.97, 0.74 and 0.51 of the per-step time at dim 100, 200,
    500 and 1 000; at 1 step per dimension 1.27, 2.42, 1.74 and 1.25.
    4, the highest break-even, blocks no run that the per-step form
    would do faster in these measurements.
    """
    return steps >= max(2 * _BLOCK, _STEPS_PER_DIM * dim)


def _pass(real, count: int, *readers) -> None:
    """One pass over the realization ``real``, steps 0..count-1 in order,
    shared by ``readers``: each is called as reader(ks, read) on every
    block of ``real.rows`` steps, ks the block's steps and read its read
    (``DisturbanceRealization.chunks``), so every white draw is made once
    for all of them."""
    for ks, read in real.chunks(count):
        for reader in readers:
            reader(ks, read)


def _term(out: np.ndarray, ts: np.ndarray, *maps):
    """The reader of a pass that writes M w(t_k, k) into out[k], t_k =
    ts[k] and M the product of ``maps``.

    With ``_rk4_maps``'s input map K at theta = omega h and the loop's
    ``inputs``, that is the input term H_k of step k of ``_propagate``:
    the reads of g = inputs w at the stage times t_k, t_k + h/2 and t_k +
    h of the stage-by-stage RK4.  w rotates at one frequency omega (0 for
    a held draw), so H_k = Re(K inputs c e^{i omega t_k}) is one read.
    """
    def write(ks, read):
        out[ks[0]:ks[-1] + 1] = read(ts[ks], None, *maps).T
    return write


def _input_maps(K, loop: ClosedLoop) -> tuple:
    """The maps of a white run's input terms K inputs w_k: the one dense
    map K inputs where that costs no more multiply-adds per block of
    draws, dim width <= dim^2 + nnz(inputs) (K dense, dim x dim), else K
    and ``inputs``.

    K inputs is built from the slots through a dense ``inputs`` that is
    dropped after the product, so a run that composes builds no CSR
    input map.  On the compare config (complete N = 100) that is 200 x
    200 against 40 000 + 200, so it composes; the benchmark pipeline's
    edge noise, 200 x 3 251 against 40 000 + 6 302, does not.  A sinusoid
    maps its amplitude once per pass (``DisturbanceRealization.chunks``),
    where composing would only add the product.
    """
    *_, x, x_hat = loop.input_slots()
    dim, width = K.shape[0], sum(loop.noise_sizes)
    nnz = np.count_nonzero(x) + np.count_nonzero(x_hat)
    if not isinstance(K, np.ndarray) or dim * width > dim * dim + nnz:
        return K, loop.inputs
    return (K @ _cut(*loop._triplets(True), dim, dim, dim + width, dense=True),)


def _blocks(step: np.ndarray, z_rec: np.ndarray) -> int:
    """Advance ``z_rec`` over its full blocks of B = 8 steps in place, the
    steps of ``_scan``; returns the steps done, 0 where P^B - I is not
    finite.

    Rows 1..bB of z_rec take the states, b the number of full blocks, in
    three phases, each over all blocks at once:

    1. C_b = sum_i P^{B-1-i} H_{bB+i}, by Horner's rule with D = ``step``:
       B - 1 products of D with all blocks' partial sums.
    2. The carry: the block starts follow z_{(b+1)B} = z_{bB} + (P^B -
       I)(z_{bB} - z_{bB}[0]) + C_b, the same recurrence with step P^B - I
       and input C_b.  C_b is written over H_{bB+B-1}, which only phase 1
       reads, so rows 0, B, 2B, ... of z_rec are that recurrence's record,
       and ``_scan`` advances it in place, in blocks again where they pay.
    3. The fill: every state inside the blocks by the step z + D(z -
       z[0]) + H from the block starts, B - 1 products of D.

    With P^B - I that is 3(B - 1) dense matrix-matrix products per level.
    Every temporary has one row per block.
    """
    B = _BLOCK
    # P^{j+1} - I = D + (P^j - I) + D (P^j - I) never subtracts I, so P^B -
    # I keeps the accuracy of the step map D; along the consensus direction,
    # where the state never decays, a leak in P^B - I would add up over a run
    PB = step
    for _ in range(B - 1):
        PB = PB + step + step @ PB
    if not np.isfinite(PB).all():
        return 0
    n = step.shape[0]
    blocks = (z_rec.shape[0] - 1) // B
    R = z_rec[1:blocks * B + 1].reshape(blocks, B, n)  # R[b, i]: step bB + i
    C = R[:, 0].copy()
    for i in range(1, B):
        C += (C - C[:, :1]) @ step.T
        C += R[:, i]
    R[:, -1] = C
    _scan(PB, z_rec[:blocks * B + 1:B])
    prev = z_rec[0:blocks * B:B]  # the block starts z_{bB}
    for i in range(B - 1):
        R[:, i] += prev + (prev - prev[:, :1]) @ step.T
        prev = R[:, i]
    return blocks * B


def _scan(step, z_rec: np.ndarray) -> None:
    """Step k of ``_propagate``, z + ``step`` (z - z[0]) + H_k, for every
    k of the record z_rec in place: the full blocks of a dense map in
    three phases (``_blocks``) where they pay (``_blocks_pay``), the
    rest one product per step."""
    steps, done = z_rec.shape[0] - 1, 0
    if isinstance(step, np.ndarray) and _blocks_pay(steps, step.shape[0]):
        done = _blocks(step, z_rec)
    z = z_rec[done]
    for k in range(done, steps):
        z_rec[k + 1] += z + step @ (z - z[0])
        z = z_rec[k + 1]


def _propagate(step, z_rec: np.ndarray, ts: np.ndarray) -> None:
    """RK4 on the grid ``ts`` for zdot = A z + inputs w(t), in place in
    the record z_rec, with ``step`` = P - I from ``_rk4_maps``.

    On entry z_rec[0] is the start and z_rec[k + 1] holds the input term
    H_k of step k (``_term``), 0 without noise; on return row k holds
    the state at t_k.  Step k is z + (P - I)(z - z[0]) + H_k.  A
    annihilates the constant vector, so a consensus state stays exact.

    Two step forms (``_scan``): one product per step, or, where a dense
    run has enough steps, blocks of 8 steps over all blocks at once, whose
    carry of the block starts is the same recurrence again, advanced by
    the same rule (``_blocks``).  Finiteness is checked once over all
    records after stepping; the first non-finite row names the failing
    step.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
        _scan(step, z_rec)
    _check_finite(z_rec[1:], ts)


def _record(z0: np.ndarray, steps: int) -> np.ndarray:
    """A zero record of steps + 1 rows that starts at z0."""
    z_rec = np.zeros((steps + 1, z0.size))
    z_rec[0] = z0
    return z_rec


def _readout(state_map, noise_map, ts: np.ndarray, z_rec: np.ndarray, real,
             noise: np.ndarray | None = None) -> np.ndarray:
    """The consensus input u = state_map (z - z[0]) + noise_map w(t_k, k)
    at every grid point t_k of the record z_rec, under the run's
    realization ``real``.

    The noise term comes as ``noise``, one row per grid point, where the
    run's own pass read it (white draws, ``_filter_run``); else one pass
    of ``real`` reads it here.  ``noise_map`` None: u sees no noise, and
    ``real`` is not read.  The state term is read in blocks of
    ``real.rows`` points, the blocks of the run's pass.
    """
    u_rec = np.empty((ts.size, state_map.shape[0]))
    if noise is None and noise_map is not None and real.profile.kind != "zero":
        _pass(real, ts.size, _term(u_rec, ts, noise_map))
        noise = u_rec  # each block's noise is read before its u is written
    rows = real.rows
    for k in range(0, ts.size, rows):
        d = z_rec[k:k + rows] - z_rec[k:k + rows, :1]
        u = state_map @ d.T
        if noise is not None:
            u += noise[k:k + rows].T
        u_rec[k:k + rows] = u.T
    return u_rec


def _loop_readout(loop: ClosedLoop, *args) -> np.ndarray:
    """``_readout`` through the loop's u maps, which are built only here,
    when u is first read."""
    return _readout(loop.u_state, loop.u_noise, *args)


def _run(real, steps: int, *runs) -> list[Trajectory]:
    """The trajectories of ``runs``, each a (readers, finish) pair of
    ``_filter_run`` or ``_classical_run`` under ``real``, after one pass
    over ``real`` that feeds all their readers."""
    _pass(real, steps, *(reader for readers, _ in runs for reader in readers))
    return [finish() for _, finish in runs]


def simulate_mef(config: ScenarioConfig) -> Trajectory:
    """Integrate the filter network (states and estimates jointly).

    Estimates start at the configured priors.  Gains stay frozen at the
    steady value Q* unless ``riccati='dynamic'``: then the gain is
    ``ClosedLoop.gain`` from Q(0) = 1/Xi, stepped stage by stage until it
    settles at Q* (``_filter_run``).  From there on, and in a steady run
    throughout, precomputed RK4 maps step the loop (``_propagate``).  Both
    read u out of the (x, x_hat) record (``_readout``).
    """
    real = sample_disturbances(config.profile, config.loop.noise_sizes, config.steps,
                               config.h, config.seed)
    return _run(real, config.steps, _filter_run(config, real))[0]


def _filter_run(config: ScenarioConfig, real, reads_u: bool = True):
    """The filter run under the realization ``real`` of the loop's noise
    streams, as (readers, finish): the readers take their reads from a
    pass over ``real`` (``_run``), and finish returns the trajectory.

    The readers, in turn on each chunk: where u reads white draws (G < S)
    and the caller ``reads_u``, u's noise term u_noise w_k, whose last
    grid point repeats the last step's draws (else a later read of u
    replays them, ``_readout``); the input terms; and a dynamic run's
    steps before row ``first``, stage by stage, over those rows' terms.
    finish propagates from row ``first``: 0, or where a dynamic gain has
    settled.  On one BLAS thread that took the dynamic run of
    ``complete100_compare`` (Xi = 1/Q*, settled at row 0) from 0.24 to
    0.04 s, and of ``two_ring_envelope`` at Xi = 0.2 and 5 (settled at t
    = 12.25 and 12.15 of 30) from 0.16 and 0.17 s to 0.11 s.
    """
    if not is_strongly_connected(config.topology):
        warnings.warn("topology is not strongly connected; consensus is not "
                      "guaranteed", RuntimeWarning, stacklevel=3)
    loop = config.loop
    n, h, steps = loop.n, config.h, config.steps
    ts = np.arange(steps + 1) * h
    kind = real.profile.kind
    step, K = _rk4_maps(loop.A, h, real.omega * h)
    z_rec = _record(np.concatenate([config.x0, config.prior]), steps)
    readers, noise = [], None
    if reads_u and kind == "white" and len(loop.noise_sizes) == 3:  # u_noise exists
        noise = np.empty((steps + 1, n))
        readers.append(_term(noise, ts, loop.u_noise))
    if kind != "zero":
        maps = _input_maps(K, loop) if kind == "white" else (K, loop.inputs)
        readers.append(_term(z_rec[1:], ts, *maps))
    q_rec, first = np.broadcast_to(loop.q_star, (ts.size, n)), 0
    if config.riccati == "dynamic":
        gain = partial(loop.gain, 1.0 / config.params.Xi)
        q_rec = gain(ts[:, None])
        # settled: within 8 ulp of Q*, so the default Q0 = 1/(1/Q*) (2
        # roundings, and 6 in the closed form) settles at row 0; where B = 0
        # the gain never settles, and the run steps stage by stage to the end
        settled = np.all(np.abs(q_rec - loop.q_star) <= 8 * np.spacing(loop.q_star), axis=1)
        first = 0 if settled.all() else min(steps, ts.size - int(np.argmin(settled[::-1])))

        def f(t: float, w: np.ndarray, z: np.ndarray) -> np.ndarray:
            u, innov = loop.coupling(z, w)
            return np.concatenate([u + loop.B * w[:n], u + gain(t) * innov])

        def advance(ks, read):
            for k in ks[ks < first]:
                z_rec[k + 1] = rk4_step(lambda t, z: f(t, read(t, k), z), z_rec[k],
                                        ts[k], h)

        readers.append(advance)

    def finish() -> Trajectory:
        _propagate(step, z_rec[first:], ts[first:])
        if noise is not None:
            noise[-1] = noise[-2]  # the grid point t_steps reads step steps - 1
        readout = partial(_loop_readout, loop, ts, z_rec, real, noise)
        return Trajectory(ts, z_rec[:, :n], z_rec[:, n:], q_rec, readout)

    return readers, finish


def measurements(config: ScenarioConfig,
                 traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Measurements (y_self (K+1, N), y_edge (K+1, E)) of a filter run.

    Replays the run's measurement noise on its grid in one pass, so each
    row is what the nodes saw at that grid point.
    """
    loop = config.loop
    real = sample_disturbances(config.profile, loop.noise_sizes, config.steps,
                               config.h, config.seed)
    y_self = np.empty_like(traj.x)
    y_edge = np.empty((traj.t.size, loop.dst.size))

    def measure(ks, read):
        rows = slice(ks[0], ks[-1] + 1)
        y_self[rows], y_edge[rows] = loop.measure(traj.x[rows], read(traj.t[ks], None).T)

    _pass(real, traj.t.size, measure)
    return y_self, y_edge


def simulate_classical(config: ScenarioConfig) -> Trajectory:
    """Integrate the baseline xdot = -L_std x + delta on the same grid.

    Shares the delta stream with ``simulate_mef`` for equal seeds.  The
    trajectory reports estimates equal to states (e = 0), u equal to the
    coupling drift, and zero gains.
    """
    real = sample_disturbances(config.profile, (config.topology.node_count,),
                               config.steps, config.h, config.seed)
    return _run(real, config.steps, _classical_run(config, real))[0]


def _classical_run(config: ScenarioConfig, real):
    """The baseline under ``real`` as ``_filter_run``'s (readers, finish).
    It reads the delta columns of ``real``'s w, the first N, so a filter
    run's pass can feed it (``_simulate_both``)."""
    top = config.topology
    n, h, steps = top.node_count, config.h, config.steps
    src, dst, w = top.edge_arrays()
    nodes = np.arange(n)
    Lp = _cut(np.concatenate([src, nodes]), np.concatenate([dst, nodes]),  # -L_std
              np.concatenate([w, -top.in_degrees()]), n, 0, n)
    ts = np.arange(steps + 1) * h
    step, K = _rk4_maps(Lp, h, real.omega * h)
    x_rec = _record(config.x0, steps)
    readers = [_term(x_rec[1:], ts, K, slice(n))] if real.profile.kind != "zero" else []

    def finish() -> Trajectory:
        _propagate(step, x_rec, ts)
        return Trajectory(ts, x_rec, x_rec, np.broadcast_to(0.0, x_rec.shape),
                          partial(_readout, Lp, None, ts, x_rec, real))

    return readers, finish


def _simulate_both(config: ScenarioConfig, real) -> tuple[Trajectory, Trajectory]:
    """The baseline and the filter run under one realization ``real`` of
    the loop's noise streams, fed by one pass: the baseline reads its
    delta columns in the filter's blocks, so each draw is made once.  A
    dense baseline map may round differently in those blocks than in a
    standalone ``simulate_classical``'s, which agrees to rounding.  The
    comparison reads no u, so the pass reads no noise term of u; a
    later read of the filter's u replays its draws."""
    return tuple(_run(real, config.steps, _classical_run(config, real),
                      _filter_run(config, real, reads_u=False)))


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
