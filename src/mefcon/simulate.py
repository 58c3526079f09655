"""Fixed-step integration of the filter network and the classical baseline.

The closed loop advances the true states x and the estimates x_hat jointly
on one RK4 grid.  ``ClosedLoop`` holds its coefficients; edge sums are one
sparse matvec over flat edge arrays, so a step costs O(N + E) however
dense the graph is.  Both simulators share one grid loop.

The classical baseline ``xdot = -L_std x + delta`` integrates under the
same delta realization as the filter run whenever the two configs share a
disturbance seed, which is what makes head-to-head noise comparisons
meaningful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .disturbances import DisturbanceProfile, sample_disturbances
from .errors import ConfigError, SimulationError
from .filtering import FilterParams, steady_gains, uniform_params
from .graphs import NetworkTopology, is_strongly_connected, laplacian, make_graph

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
            raise ConfigError(f"riccati mode must be one of {_RICCATI_MODES}")
        if len(self.params.B) != n:
            raise ConfigError("params node arrays do not match the topology")
        if len(self.params.S_edge) != self.topology.edge_count:
            raise ConfigError("params edge arrays do not match the topology")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.h))

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Copy with both the scenario and disturbance seed replaced."""
        return replace(self, seed=seed, profile=replace(self.profile, seed=seed))


@dataclass
class Trajectory:
    """Time-indexed record of one run.

    ``e = x_hat - x`` holds identically by construction.  For baseline
    runs the estimates equal the states (no filter), u records the
    applied coupling drift, and the gain column is zero.
    """

    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    e: np.ndarray
    u: np.ndarray
    Q: np.ndarray

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])


def rk4_step(f, z: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical Runge-Kutta step for zdot = f(t, z)."""
    return _rk4_from(f, z, t, h, f(t, z))


def _rk4_from(f, z: np.ndarray, t: float, h: float, k1: np.ndarray) -> np.ndarray:
    """The RK4 step from (t, z) whose first stage k1 = f(t, z) is known."""
    k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = f(t + h, z + h * k3)
    z_next = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(z_next)):
        raise SimulationError(f"non-finite state after the step from t={t:.6g}")
    return z_next


class ClosedLoop:
    """The filter network's closed loop, linear in (x, x_hat).

    Built once per run from the topology and the params.  Edge (i, j)
    measures y_ij = x_j + D_ij eps_ij and feeds node i the residual
    r = y_ij - x_hat_i.  The noise w stacks (delta, eps_self, eps_edge),
    of lengths ``noise_sizes``, without eps_edge when no edge measurement
    is noisy.  One sparse map acts on the stacked point (z, w), z = (x,
    x_hat): rows 0..N-1 sum each node's residuals with weights w G/S (the
    consensus input u), rows N..2N-1 add w/S-weighted residuals to
    (y_self - x_hat)/R (the innovation).  Under the steady gain Q* the
    loop is zdot = A z + inputs w, with u = u_state z + u_noise w; ``A``,
    ``inputs``, ``u_state`` and ``u_noise`` are column blocks of that
    map.  Residuals are edge differences, so A annihilates the constant
    vector: a consensus state with x_hat = x is an exact fixed point.
    """

    def __init__(self, topology: NetworkTopology, params: FilterParams) -> None:
        n = topology.node_count
        src, dst, w = topology.edge_arrays()
        m = src.size
        self.n, self.src, self.dst = n, src, dst
        self.B = params.B
        self.D_self = np.sqrt(params.R_self)
        self.D_edge = np.sqrt(params.R_nbr_edge)
        self.noise_sizes = (n, n, m) if np.any(self.D_edge > 0) else (n, n)
        sgain = w / params.S_edge
        self.ricc_coeff = 1.0 / params.R_self + np.bincount(
            src, weights=sgain, minlength=n)
        self.q_star = steady_gains(topology, params.B, params.R_self, params.S_edge)

        # columns: x 0..N-1, x_hat N.., delta 2N.., eps_self 3N.., eps_edge 4N..
        edges, nodes, width = np.arange(m), np.arange(n), 4 * n + m
        residual = sparse.csr_array(
            (np.concatenate([np.ones(m), -np.ones(m), self.D_edge]),
             (np.tile(edges, 3), np.concatenate([dst, n + src, 4 * n + edges]))),
            shape=(m, width))
        own = sparse.csr_array(
            (np.concatenate([np.ones(n), -np.ones(n), self.D_self]) / np.tile(params.R_self, 3),
             (np.tile(nodes, 3), np.concatenate([nodes, n + nodes, 3 * n + nodes]))),
            shape=(n, width))
        u = sparse.csr_array((w * params.G_edge / params.S_edge, (src, edges)),
                             shape=(n, m)) @ residual
        innov = own + sparse.csr_array((sgain, (src, edges)), shape=(n, m)) @ residual
        cols = 2 * n + sum(self.noise_sizes)  # (z, w)
        self.coupling_map = sparse.vstack([u, innov], format="csr")[:, :cols]
        self.coupling_map.eliminate_zeros()

        drive = sparse.csr_array((params.B, (nodes, 2 * n + nodes)), shape=(n, width))
        steady = sparse.vstack([u + drive, u + sparse.diags_array(self.q_star) @ innov],
                               format="csr")
        self.A, self.inputs = steady[:, :2 * n], steady[:, 2 * n:cols]
        self.u_state, self.u_noise = u[:, :2 * n], u[:, 2 * n:cols]

    def measure(self, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y_self = x + D_self eps_self and y_edge = x[dst] + D_edge eps_edge
        under the noise w; a w without eps_edge leaves y_edge = x[dst].

        y_edge follows the topology's edge order; edge (i, j) observes x_j.
        """
        n, y_edge = self.n, x[self.dst]
        if w.size > 2 * n:
            y_edge = y_edge + self.D_edge * w[2 * n:]
        return x + self.D_self * w[n:2 * n], y_edge

    def coupling(self, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Consensus input u and innovation at z = (x, x_hat) under noise w."""
        s = self.coupling_map @ np.concatenate([z, w])
        return s[:self.n], s[self.n:]


def _integrate(f, z: np.ndarray, n: int, steps: int, h: float):
    """RK4 on the grid t_k = k h; returns (t, z records, u records).

    ``f(t, k, z)`` gives (zdot, u) with k the noise step index.  The
    derivative at a grid point is also the first stage of the next step.
    """
    ts = np.arange(steps + 1) * h
    z_rec = np.empty((steps + 1, z.size))
    u_rec = np.empty((steps + 1, n))
    for k in range(steps + 1):
        k1, u_rec[k] = f(ts[k], k, z)
        z_rec[k] = z
        if k < steps:
            z = _rk4_from(lambda t, y: f(t, k, y)[0], z, ts[k], h, k1)
    return ts, z_rec, u_rec


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


def _rk4_maps(A, h: float, kind: str) -> list:
    """The RK4 step of zdot = A z + g(t) as linear maps, M = h A.

    One step is z + (P - I) z + K1 g(t) + K2 g(t + h/2) + (h/6) g(t + h)
    with P - I = M + M^2/2 + M^3/6 + M^4/24, K1 = h/6 (I + M + M^2/2 +
    M^3/4) and K2 = h/6 (4I + 2M + M^2/2).  Returns [P - I], plus the
    held-input map K1 + K2 + h/6 I = h (I + M/2 + M^2/6 + M^3/24) for
    white noise, or K1 and K2 for sinusoids.  Each power of M, and each
    map, is stored by its fill (see ``_stored``).
    """
    powers = [sparse.eye_array(A.shape[0], format="csr"), _stored(h * A)]
    for _ in range(3):
        powers.append(_stored(powers[1] @ powers[-1]))

    def poly(*coeffs):
        out = coeffs[0] * powers[0]
        for c, Mk in zip(coeffs[1:], powers[1:]):
            out = out + c * Mk
        return _stored(out)

    maps = [poly(0.0, 1.0, 1 / 2, 1 / 6, 1 / 24)]
    if kind == "white":
        maps.append(poly(h, h / 2, h / 6, h / 24))
    elif kind == "sinusoid":
        maps += [poly(h / 6, h / 6, h / 12, h / 24), poly(4 * h / 6, 2 * h / 6, h / 12)]
    return maps


def _propagate(A, inputs, u_state, u_noise, z: np.ndarray, real, h: float,
               steps: int):
    """RK4 on the grid t_k = k h for zdot = A z + inputs w(t), one
    precomputed linear map per step; returns (t, z records, u records).

    w(t) = ``real.at(t, k)``; u = u_state z + u_noise w at each grid point
    (``u_noise`` None: u sees no noise).  A annihilates the constant vector, so the step and the
    readout act on z - z[0] and a consensus state stays exact.  Noise is
    read once per step (white, held), twice (sinusoid, at t + h/2 and at
    t_{k+1}, which starts the next step) or never (zero).
    """
    kind = real.profile.kind
    step, *K = _rk4_maps(A, h, kind)
    inputs = _stored(inputs)
    u_state = _stored(u_state)
    if u_noise is not None:
        u_noise = _stored(u_noise) if kind != "zero" and u_noise.count_nonzero() else None
    ts = np.arange(steps + 1) * h
    z_rec = np.empty((steps + 1, z.size))
    u_rec = np.empty((steps + 1, u_state.shape[0]))
    if kind == "sinusoid":
        w = real.at(ts[0], 0)
        g = inputs @ w
    for k in range(steps + 1):
        if kind == "white" and k < steps:  # the last grid point keeps the last draw
            w = real.at(ts[k], k)
            g = inputs @ w
        d = z - z[0]
        z_rec[k] = z
        u_rec[k] = u_state @ d if u_noise is None else u_state @ d + u_noise @ w
        if k == steps:
            break
        z = z + step @ d
        if kind == "white":
            z += K[0] @ g
        elif kind == "sinusoid":
            g_mid = inputs @ real.at(ts[k] + 0.5 * h, k)
            w = real.at(ts[k + 1], k + 1)
            g_end = inputs @ w
            z += K[0] @ g + K[1] @ g_mid + (h / 6.0) * g_end
            g = g_end
        if not np.all(np.isfinite(z)):
            raise SimulationError(f"non-finite state after the step from t={ts[k]:.6g}")
    return ts, z_rec, u_rec


def simulate_mef(config: ScenarioConfig) -> Trajectory:
    """Integrate the filter network (states and estimates jointly).

    Estimates start at the configured priors.  Gains stay frozen at the
    steady value Q* unless ``riccati='dynamic'``, which integrates the
    gain equation from Q(0) = 1/Xi alongside the states.  The steady loop
    is linear and time-invariant, so each RK4 step is one precomputed
    linear map (``_propagate``); the dynamic loop evaluates its stages.
    """
    if not is_strongly_connected(config.topology):
        warnings.warn("topology is not strongly connected; consensus is not "
                      "guaranteed", RuntimeWarning, stacklevel=2)
    loop = ClosedLoop(config.topology, config.params)
    real = sample_disturbances(config.profile, loop.noise_sizes, config.steps,
                               config.h, config.seed)
    n = loop.n
    if config.riccati == "steady":
        ts, z_rec, u_rec = _propagate(
            loop.A, loop.inputs, loop.u_state, loop.u_noise,
            np.concatenate([config.x0, config.prior]), real, config.h, config.steps)
        q_rec = np.tile(loop.q_star, (ts.size, 1))
    else:
        def f(t: float, k: int, z: np.ndarray):
            q, w = z[2 * n:], real.at(t, k)
            u, innov = loop.coupling(z[:2 * n], w)
            # Qdot = B^2 - Q^2 (1/R + sum_j w_j / S_j)
            return np.concatenate([u + loop.B * w[:n], u + q * innov,
                                   loop.B ** 2 - q ** 2 * loop.ricc_coeff]), u

        z0 = np.concatenate([config.x0, config.prior, 1.0 / config.params.Xi])
        ts, z_rec, u_rec = _integrate(f, z0, n, config.steps, config.h)
        q_rec = z_rec[:, 2 * n:]
    x_rec, xh_rec = z_rec[:, :n], z_rec[:, n:2 * n]
    return Trajectory(ts, x_rec, xh_rec, xh_rec - x_rec, u_rec, q_rec)


def measurements(config: ScenarioConfig,
                 traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Measurements (y_self (K+1, N), y_edge (K+1, E)) of a filter run.

    Replays the run's measurement noise on its grid, so each row is what
    the nodes saw at that grid point.
    """
    loop = ClosedLoop(config.topology, config.params)
    real = sample_disturbances(config.profile, loop.noise_sizes, config.steps,
                               config.h, config.seed)
    rows = [loop.measure(x, real.at(t, k))
            for k, (t, x) in enumerate(zip(traj.t, traj.x))]
    return tuple(np.array(col) for col in zip(*rows))


def simulate_classical(config: ScenarioConfig) -> Trajectory:
    """Integrate the baseline xdot = -L_std x + delta on the same grid.

    Shares the delta stream with ``simulate_mef`` for equal seeds.  The
    trajectory reports estimates equal to states (e = 0), u equal to the
    coupling drift, and zero gains.
    """
    top = config.topology
    Lp = laplacian(top)  # -L_std
    n = top.node_count
    real = sample_disturbances(config.profile, (n,), config.steps, config.h,
                               config.seed)
    ts, x_rec, u_rec = _propagate(Lp, sparse.eye_array(n, format="csr"), Lp, None,
                                  config.x0, real, config.h, config.steps)
    zeros = np.zeros_like(x_rec)
    return Trajectory(ts, x_rec, x_rec.copy(), zeros, u_rec, zeros.copy())


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
