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
    r = y_ij - x_hat_i.  One sparse 2N x E map sums every node's
    residuals with weights w G/S (rows 0..N-1: the consensus input u)
    and w/S (rows N..2N-1: the neighbor part of the innovation), so both
    come from one matvec.  Residuals are edge differences, so a
    consensus state with x_hat = x is an exact fixed point.
    """

    def __init__(self, topology: NetworkTopology, params: FilterParams) -> None:
        n = topology.node_count
        src, dst, w = topology.edge_arrays()
        self.n, self.src, self.dst = n, src, dst
        self.B = params.B
        self.R_self = params.R_self
        self.D_self = np.sqrt(params.R_self)
        self.D_edge = np.sqrt(params.R_nbr_edge)
        sgain = w / params.S_edge
        self.edge_sum = sparse.csr_array(
            (np.concatenate([w * params.G_edge / params.S_edge, sgain]),
             (np.concatenate([src, src + n]), np.tile(np.arange(src.size), 2))),
            shape=(2 * n, src.size))
        self.ricc_coeff = 1.0 / params.R_self + np.bincount(
            src, weights=sgain, minlength=n)
        self.q_star = steady_gains(topology, params.B, params.R_self, params.S_edge)

    def measure(self, x: np.ndarray, eps_self: np.ndarray,
                eps_edge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y_self = x + D_self eps_self and y_edge = x[dst] + D_edge eps_edge.

        y_edge follows the topology's edge order; edge (i, j) observes x_j.
        """
        return x + self.D_self * eps_self, x[self.dst] + self.D_edge * eps_edge

    def coupling(self, x: np.ndarray, x_hat: np.ndarray, eps_self: np.ndarray,
                 eps_edge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Consensus input u and innovation at one point."""
        y_self, y_edge = self.measure(x, eps_self, eps_edge)
        s = self.edge_sum @ (y_edge - x_hat[self.src])
        return s[:self.n], (y_self - x_hat) / self.R_self + s[self.n:]


def _realization(config: ScenarioConfig, loop: ClosedLoop):
    """The filter run's disturbances; the edge stream only when it is used."""
    return sample_disturbances(config.profile, loop.n, loop.src.size,
                               config.steps, config.h, config.seed,
                               need_edge_noise=bool(np.any(loop.D_edge > 0)))


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


def simulate_mef(config: ScenarioConfig) -> Trajectory:
    """Integrate the filter network (states and estimates jointly).

    Estimates start at the configured priors; gains stay frozen at the
    steady value Q* unless ``riccati='dynamic'``, which integrates the
    gain equation from Q(0) = 1/Xi alongside the states.
    """
    if not is_strongly_connected(config.topology):
        warnings.warn("topology is not strongly connected; consensus is not "
                      "guaranteed", RuntimeWarning, stacklevel=2)
    loop = ClosedLoop(config.topology, config.params)
    real = _realization(config, loop)
    n = loop.n
    dynamic = config.riccati == "dynamic"

    def f(t: float, k: int, z: np.ndarray):
        x, xh = z[:n], z[n:2 * n]
        q = z[2 * n:] if dynamic else loop.q_star
        delta, es, ee = real.at(t, k)
        u, innov = loop.coupling(x, xh, es, ee)
        out = [u + loop.B * delta, u + q * innov]
        if dynamic:  # Qdot = B^2 - Q^2 (1/R + sum_j w_j / S_j)
            out.append(loop.B ** 2 - q ** 2 * loop.ricc_coeff)
        return np.concatenate(out), u

    z0 = np.concatenate([config.x0, config.prior]
                        + ([1.0 / config.params.Xi] if dynamic else []))
    ts, z_rec, u_rec = _integrate(f, z0, n, config.steps, config.h)
    x_rec, xh_rec = z_rec[:, :n], z_rec[:, n:2 * n]
    q_rec = z_rec[:, 2 * n:] if dynamic else np.tile(loop.q_star, (ts.size, 1))
    return Trajectory(ts, x_rec, xh_rec, xh_rec - x_rec, u_rec, q_rec)


def measurements(config: ScenarioConfig,
                 traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Measurements (y_self (K+1, N), y_edge (K+1, E)) of a filter run.

    Replays the run's measurement noise on its grid, so each row is what
    the nodes saw at that grid point.
    """
    loop = ClosedLoop(config.topology, config.params)
    real = _realization(config, loop)
    rows = [loop.measure(x, *real.at(t, k)[1:])
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
    real = sample_disturbances(config.profile, n, top.edge_count, config.steps,
                               config.h, config.seed, need_edge_noise=False)

    def f(t: float, k: int, x: np.ndarray):
        u = Lp @ x
        return u + real.at(t, k)[0], u

    ts, x_rec, u_rec = _integrate(f, config.x0, n, config.steps, config.h)
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
