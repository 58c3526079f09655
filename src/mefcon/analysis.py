"""Global-system assembly, spectral checks, equilibrium prediction, ISS
envelope constants, and network coherence statistics.

The stacked dynamics of (x, e) under uniform tuning weights form a
2N x 2N linear system

    F = [[ L~,            -D~           ],
         [ Q* L~,  -Q* (I/R + D~)       ]],   L~ = L/S,  D~ = Delta/S,

whose spectrum carries everything this module certifies: the zero
eigenvalue count q matches the multiplicity of L's zero eigenvalue, the
remaining 2N - q eigenvalues sit strictly in the left half plane, and the
slowest of them sets the decay rate of the consensus transient.

These closed forms hold only under uniform weights and G = 1.  The
certificate (``certify``) and its envelope check (``check_envelope``)
read the same F, the consensus weights and the disturbance bound from
the run's ``ClosedLoop`` instead, for any weights; the forms here stay
as the paper's formulas and the tests' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .disturbances import DisturbanceProfile, sample_disturbances
from .errors import ConfigError, SimulationError, SolverError
from .filtering import FilterParams, steady_gains
from .graphs import (NetworkTopology, adjacency, degree_matrix,
                     is_strongly_connected, laplacian, left_null_vector,
                     standard_laplacian)
from .simulate import (ClosedLoop, ScenarioConfig, Trajectory, _simulate_classical,
                       _simulate_mef, simulate_mef)


@dataclass(frozen=True)
class GlobalSystem:
    """Stacked (x, e) dynamics under uniform tuning weights."""

    F: np.ndarray
    L_tilde: np.ndarray
    Delta_tilde: np.ndarray
    q_star: np.ndarray
    R: float
    S: float

    @property
    def n(self) -> int:
        return self.L_tilde.shape[0]


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue classification of a global system.

    Eigenvalues are sorted by descending real part; column k of
    ``eigenvectors`` belongs to eigenvalue k.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    q: int
    stable_count: int
    spectral_abscissa_nonzero: float
    zero_tolerance: float

    def rk4_margin(self, h: float) -> float:
        """max |1 + z + z^2/2 + z^3/6 + z^4/24|, z = h lambda, over the
        eigenvalues not counted as zero: above 1, classical RK4 at step h
        grows some mode every step."""
        z = h * self.eigenvalues[np.abs(self.eigenvalues) >= self.zero_tolerance]
        return float(np.max(np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24),
                            initial=0.0))


@dataclass(frozen=True)
class EquilibriumPrediction:
    """Predicted consensus value."""

    x_star: float


@dataclass(frozen=True)
class CoherenceReport:
    """Analytical squared deviation from the network average."""

    analytical: float
    eigenvalues: np.ndarray


def _uniform_weights(params: FilterParams) -> tuple[float, float]:
    """The common R and S that the closed forms assume (S = 1 without
    edges)."""
    R_vals = np.unique(params.R_self)
    S_vals = np.unique(params.S_edge)
    if R_vals.size != 1 or S_vals.size > 1:
        raise ConfigError("the closed forms require one common R across nodes "
                          "and one common S across edges")
    return float(R_vals[0]), float(S_vals[0]) if S_vals.size else 1.0


def assemble_global(topology: NetworkTopology, params: FilterParams) -> GlobalSystem:
    """Build the block matrix F for uniform weights.

    Requires equal R_self across nodes, equal S across edges, and unit G
    (the block form is an identity only then); B may vary per node.
    """
    R, S = _uniform_weights(params)
    if params.G_edge.size and not np.all(params.G_edge == 1.0):
        raise ConfigError("global form requires unit approximation weights G = 1")
    n = topology.node_count
    L = laplacian(topology)
    Dt = degree_matrix(topology) / S
    Lt = L / S
    q = steady_gains(topology, params.B, params.R_self, params.S_edge)
    Qd = np.diag(q)
    F = np.block([[Lt, -Dt], [Qd @ Lt, -Qd @ (np.eye(n) / R + Dt)]])
    return GlobalSystem(F, Lt, Dt, q, R, S)


def spectral_report(system: GlobalSystem | ClosedLoop,
                    zero_tolerance: float = 1e-8) -> SpectralReport:
    """Eigendecomposition of ``system.F`` with its eigenvalues classified.

    q counts eigenvalues with |lambda| below the tolerance; stable_count
    counts Re(lambda) < -tolerance.  Intended for desk-scale dense solves.
    """
    if not 0 < zero_tolerance < math.inf:
        raise ConfigError(f"zero tolerance (--tolerance) must be finite and "
                          f"positive, not {zero_tolerance!r}")
    try:
        ev, V = np.linalg.eig(system.F)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver failed on F: {exc}") from exc
    order = np.argsort(-ev.real)
    ev, V = ev[order], V[:, order]
    zero = np.abs(ev) < zero_tolerance
    stable = ev.real < -zero_tolerance
    nonzero = ev[~zero]
    absc = float(np.max(nonzero.real)) if nonzero.size else -math.inf
    return SpectralReport(ev, V, int(zero.sum()), int(stable.sum()), absc,
                          zero_tolerance)


def predict_equilibrium(system: GlobalSystem, omega: np.ndarray,
                        x0: np.ndarray, e0: np.ndarray) -> EquilibriumPrediction:
    """Consensus value of the steady loop F from initial conditions and
    the left null vector.

    x* = [w (I + R D~) x0 - w (R Q*^-1 D~) e0] / [w (I + R D~) 1]:
    the gain is frozen at Q*, so e0 is weighted by 1/Q* whatever Xi is.
    A dynamic gain started at Q(0) = 1/Xi reaches this value only when
    Xi = 1/Q* (the default), where it stays at Q*.
    """
    if np.any(system.q_star <= 0):
        raise SolverError("x* needs a positive steady gain Q* at every node "
                          "(nonzero B); a node with Q* = 0 keeps its error")
    n = system.n
    I = np.eye(n)
    M = I + system.R * system.Delta_tilde
    lead = omega @ M
    num = float(lead @ x0 - omega @ (system.R / system.q_star[:, None]
                                     * system.Delta_tilde) @ e0)
    den = float(lead @ np.ones(n))
    if den <= 0:
        raise SolverError(f"equilibrium denominator {den} is not positive; "
                          "needs a strongly connected graph with positive omega")
    return EquilibriumPrediction(num / den)


def exp_bound_constants(system: GlobalSystem | ClosedLoop,
                        report: SpectralReport) -> tuple[float, float]:
    """Decay rate and overshoot (a, b) for the stable subspace of F.

    a is the negated spectral abscissa over nonzero eigenvalues; b is the
    condition number of the stable eigenvector basis, which certifies
    ||exp(F t) z|| <= b exp(-a t) ||z|| for z in the stable subspace.
    Both come from ``report``, the eigendecomposition of F.  A basis
    conditioned above 1e12 is numerically defective, and b is then
    measured by ``_grid_overshoot`` at a slightly reduced rate.
    """
    a = -report.spectral_abscissa_nonzero
    if not a > 0:
        raise SolverError("nonzero spectrum is not strictly stable; no decay rate")
    # the descending real order puts the stable eigenvalues last
    Vs = report.eigenvectors[:, report.eigenvalues.size - report.stable_count:]
    b = float(np.linalg.cond(Vs)) if Vs.size else 1.0
    if not np.isfinite(b) or b > 1e12:
        a, b = _grid_overshoot(system.F, a, report.zero_tolerance)
    return a, max(b, 1.0)


def _grid_overshoot(F: np.ndarray, a: float, tol: float) -> tuple[float, float]:
    """Fallback overshoot for defective stable bases.

    Projects onto the stable invariant subspace (Re lambda < -tol) with an
    ordered Schur form, then takes b = 1.05 max_t ||exp(F_s t)|| exp(a' t)
    on 4 000 points of [0, 200/a'], a' = 0.99 a.  a' < a bounds a Jordan
    chain's t^k exp(-0.01 a t), which peaks at t = 100 k / a: inside the
    horizon for k <= 2, unmeasured beyond.  Over the 0.05/a' spacing,
    exp(a' t) grows about 5%, which 1.05 covers.
    """
    from scipy.linalg import expm, schur

    Tm, Z, sdim = schur(F, output="real", sort=lambda re, im: re < -tol)
    Ts = Tm[:sdim, :sdim]
    a2 = 0.99 * a
    tgrid = np.linspace(0.0, 200.0 / a2, 4000)
    step = expm(Ts * (tgrid[1] - tgrid[0]))
    cur = np.eye(sdim)
    best = 1.0
    for t in tgrid:
        best = max(best, float(np.linalg.norm(cur, 2)) * math.exp(a2 * t))
        cur = step @ cur
    return a2, 1.05 * best


def phi_max(params: FilterParams, topology: NetworkTopology,
            delta_max: float, eps_max: float) -> float:
    """Aggregate disturbance bound feeding the ISS envelope.

    phi = eps_max (sum_i d_i)/S + delta_max sum_i |B_i|
          + Q_max [N eps_max / R + eps_max (sum_i d_i)/S],
    with Q_max the largest steady gain and d_i the weighted degrees
    (equal to neighbor counts at unit weights).
    """
    if delta_max < 0 or eps_max < 0:
        raise ConfigError("disturbance bounds must be nonnegative")
    R, S = _uniform_weights(params)
    n = topology.node_count
    dsum = float(topology.in_degrees().sum())
    qmax = float(steady_gains(topology, params.B, params.R_self, params.S_edge).max())
    return (eps_max * dsum / S + delta_max * float(np.abs(params.B).sum())
            + qmax * (n * eps_max / R + eps_max * dsum / S))


def phi_projected(loop: ClosedLoop, amplitudes: np.ndarray) -> float:
    """Bound on the input that drives the loop's disagreement:
    sum_j amp_j ||(T Pi inputs)_j||_2 with Pi = I - 1 nu^T.

    z_s = T Pi z is the disagreement (x - c 1, e) from the moving
    consensus value c = nu . z.  Pi commutes with A (A 1 = 0, nu A = 0),
    so z_s' = F z_s + T Pi inputs w, and |w_j| <= amp_j bounds that input
    by this sum.  Column j of T Pi inputs is (p_j - g_j 1, q_j - p_j),
    with p, q the x and x_hat rows of ``inputs`` and g = nu^T inputs; the
    sum is taken over the sparse columns, never densified.
    """
    n, nu = loop.n, loop.nu
    inputs = sparse.csc_array(loop.inputs)
    g = inputs.T @ nu
    p = inputs[:n]
    stored = np.diff(p.indptr)
    cols = np.repeat(np.arange(g.size), stored)
    # ||p_j - g_j 1||^2: (p - g)^2 over the stored entries, g^2 for each other row
    sq = (np.bincount(cols, (p.data - g[cols]) ** 2, minlength=g.size)
          + (n - stored) * g ** 2)
    e = inputs[n:] - p
    sq += np.asarray(e.multiply(e).sum(axis=0)).ravel()
    return float(amplitudes @ np.sqrt(sq))


def iss_envelope(a: float, b: float, z0_norm: float, phi: float, t):
    """b z0 e^(-a t) + (b phi / a)(1 - e^(-a t))."""
    if a <= 0 or b <= 0:
        raise ConfigError("envelope constants a, b must be positive")
    decay = np.exp(-a * np.asarray(t, dtype=float))
    return b * z0_norm * decay + (b * phi / a) * (1.0 - decay)


def disagreement_state(x: np.ndarray, e: np.ndarray, x_star) -> np.ndarray:
    """Concatenated (x - x* 1, e); the component off the consensus line.

    x_star is one value, or one per row of x (a column, e.g. c[:, None]
    for a consensus value that moves with the disturbance)."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x - x_star, np.asarray(e, dtype=float)], axis=-1)


def disagreement_norms(traj: Trajectory, x_star) -> np.ndarray:
    """Euclidean norm of the disagreement state at every grid point."""
    z = disagreement_state(traj.x, traj.e, x_star)
    return np.linalg.norm(z, axis=1)


@dataclass(frozen=True)
class Certificate:
    """The consensus value x* of a configured run, its weights nu and ISS
    constants, the paper's phi_max beside phi, the largest steady gain
    and RK4's margin at the run's step (see ``certify``).  phi, phi_max
    and the asymptotic ball are None under white noise, which has no
    amplitude bound; phi_max is None also where its closed form does not
    apply: R or S not uniform."""

    x_star: float
    nu: np.ndarray
    a: float
    b: float
    phi: float | None
    phi_max: float | None
    Q_max: float
    rk4_margin: float

    @property
    def asymptotic_ball(self) -> float | None:
        return None if self.phi is None else self.b * self.phi / self.a


def certify(config: ScenarioConfig, report: SpectralReport) -> Certificate:
    """The certificate of ``config``'s run from its ``ClosedLoop`` and
    ``report``, F's spectrum.  x* = nu . (x0, prior) is the steady gain's
    value, reached by a dynamic gain only from Q(0) = Q*, i.e. Xi = 1/Q*;
    the graph must be strongly connected, and a and b need one zero and
    2N - 1 stable eigenvalues."""
    loop = config.loop
    if config.riccati == "dynamic" and not np.allclose(
            config.params.Xi * loop.q_star, 1.0, rtol=0.0, atol=1e-9):
        raise ConfigError("params.Xi must be 1/Q* (leave it null) for riccati: "
                          "dynamic: a gain started elsewhere reaches a consensus "
                          "value x* that is not predicted here")
    if not is_strongly_connected(config.topology):
        raise SolverError("the graph is not strongly connected: no consensus "
                          "value x* or ISS envelope to certify")
    x_star = float(loop.nu @ np.concatenate([config.x0, config.prior]))
    if report.q != 1 or report.stable_count != 2 * loop.n - 1:
        raise SolverError(
            f"zero tolerance {report.zero_tolerance:g} (--tolerance) counts "
            f"{report.q} zero and {report.stable_count} stable eigenvalues of "
            f"F; the certificate needs 1 and {2 * loop.n - 1}")
    a, b = exp_bound_constants(loop, report)
    bounds = config.profile.bounds()
    phi = closed_form = None  # white noise: no bound to certify against
    if bounds is not None:
        phi = phi_projected(loop, config.profile.amplitudes(loop.noise_sizes))
        try:
            closed_form = phi_max(config.params, config.topology, *bounds)
        except ConfigError:  # R or S not uniform; a, b, nu and phi still hold
            pass
    return Certificate(x_star, loop.nu, a, b, phi, closed_form,
                       float(loop.q_star.max()), report.rk4_margin(config.h))


@dataclass(frozen=True)
class EnvelopeCheck:
    """A run's disagreement norms against envelope + floor on its grid t;
    max_ratio is None when the bound is zero throughout."""

    t: np.ndarray
    norms: np.ndarray
    envelope: np.ndarray
    floor: float
    bound: np.ndarray
    violations: int
    max_ratio: float | None
    consensus_drift: float
    z0_norm: float


def require_bounded(profile: DisturbanceProfile) -> None:
    """Refuse a profile without an amplitude bound (white noise): the ISS
    envelope holds only for bounded continuous disturbances."""
    if profile.kind not in ("sinusoid", "zero"):
        raise ConfigError(
            "envelope certification needs bounded continuous disturbances "
            f"(kind 'sinusoid' or 'zero'), not kind {profile.kind!r}: white "
            "noise has no amplitude bound")


def check_envelope(config: ScenarioConfig, certificate: Certificate) -> EnvelopeCheck:
    """Run ``config`` (bounded disturbances, a step inside RK4's stability
    region) and check its disagreement from the moving consensus value
    c(t) = nu . (x, x_hat), not from x* = c(0), against the certificate's
    ISS envelope."""
    require_bounded(config.profile)
    if certificate.rk4_margin > 1:
        raise SimulationError(
            f"integration.h = {config.h:g} is outside RK4's stability region: max |R(h "
            f"lambda)| over F's nonzero eigenvalues is {certificate.rk4_margin:.6g} > 1")
    traj = simulate_mef(config)
    n, nu = config.topology.node_count, certificate.nu
    c = traj.x @ nu[:n] + traj.x_hat @ nu[n:]
    norms = disagreement_norms(traj, c[:, None])
    env = iss_envelope(certificate.a, certificate.b, float(norms[0]),
                       certificate.phi, traj.t)
    # rounding leaves about eps |x| per coordinate and step in the norm; an
    # envelope below that floor (phi = 0, late t) certifies nothing finer
    floor = ((config.steps + 1) * np.finfo(float).eps
             * math.sqrt(2 * n) * float(np.abs(traj.x).max()))
    bound = env + floor
    positive = bound > 0  # all zero only when x = 0 throughout: no ratio
    ratio = float(np.max(norms[positive] / bound[positive])) if positive.any() else None
    return EnvelopeCheck(traj.t, norms, env, floor, bound, int(np.sum(norms > bound)),
                         ratio, float(np.max(np.abs(c - c[0]))), float(norms[0]))


def analytical_coherence(topology: NetworkTopology) -> CoherenceReport:
    """Closed-form deviation sum (1/2) sum_{i>=2} 1/lambda_i(L_std).

    Valid for undirected (symmetric-weight) graphs; a disconnected graph
    (lambda_2 <= 1e-8) reports an infinite value explicitly.
    """
    A = adjacency(topology)
    if not np.allclose(A, A.T, rtol=0, atol=1e-12):
        raise ConfigError("analytical coherence needs an undirected "
                          "(symmetric-weight) graph")
    lam = np.linalg.eigvalsh(standard_laplacian(topology))  # ascending
    rest = lam[1:]
    if rest.size and rest.min() <= 1e-8:
        return CoherenceReport(math.inf, lam)
    value = 0.5 * float(np.sum(1.0 / rest)) if rest.size else 0.0
    return CoherenceReport(value, lam)


def deviation_series(series: np.ndarray) -> np.ndarray:
    """Instantaneous sum_i (x_i - mean(x))^2 at every grid point."""
    series = np.asarray(series, dtype=float)
    return np.sum((series - series.mean(axis=1, keepdims=True)) ** 2, axis=1)


def _second_half_mean(dev: np.ndarray) -> float:
    return float(dev[dev.shape[0] // 2:].mean())


def empirical_deviation(series: np.ndarray) -> float:
    """Time average over the second half of sum_i (x_i - mean(x))^2."""
    return _second_half_mean(deviation_series(series))


@dataclass(frozen=True)
class ComparisonResult:
    """Head-to-head noise comparison between baseline and filter runs.

    The headline per-seed statistic for the filter algorithm is computed
    on the estimate trajectories (the values the nodes publish and act
    on); the spread of the underlying physical states is reported
    alongside, since the two differ sharply on dense graphs under
    sustained noise.
    """

    seeds: tuple[int, ...]
    d_ave: float
    baseline: np.ndarray
    mef_estimates: np.ndarray
    mef_states: np.ndarray
    t: np.ndarray
    series_baseline: np.ndarray
    series_mef_estimates: np.ndarray
    series_mef_states: np.ndarray

    @property
    def ordering_holds(self) -> bool:
        """True iff the filter's estimate spread beats the baseline on every seed."""
        return bool(np.all(self.mef_estimates < self.baseline))


def run_comparison(config: ScenarioConfig, seeds=None) -> ComparisonResult:
    """Run baseline and filter on shared noise realizations per seed.

    Both systems consume the identical delta stream for each seed, drawn
    once: the baseline reads the first N columns of the filter's
    realization, and the filter additionally its measurement-error
    streams.  Per-time deviation series are kept for the first seed;
    summary statistics are collected across all of them.
    """
    if config.profile.kind not in ("white", "zero"):
        raise ConfigError("comparison runs need a white (or zero) profile")
    seed_list = tuple(int(s) for s in (seeds if seeds is not None else [config.seed]))
    if not seed_list:
        raise ConfigError("need at least one seed to compare")
    try:
        d_ave = analytical_coherence(config.topology).analytical
    except ConfigError:
        d_ave = math.nan

    stats, first = [], None
    for s in seed_list:
        cfg = config.with_seed(s)
        real = sample_disturbances(cfg.profile, cfg.loop.noise_sizes, cfg.steps,
                                   cfg.h, s)
        tb = _simulate_classical(cfg, real.leading(cfg.topology.node_count))
        tm = _simulate_mef(cfg, real)
        devs = [deviation_series(x) for x in (tb.x, tm.x_hat, tm.x)]
        stats.append([_second_half_mean(dev) for dev in devs])
        if first is None:
            first = (tb.t, *devs)
    base, est, state = np.array(stats).T
    return ComparisonResult(seed_list, d_ave, base, est, state, *first)


def left_null_vector_of(topology: NetworkTopology) -> np.ndarray:
    """Left null vector of the topology's Laplacian: the consensus weights."""
    return left_null_vector(laplacian(topology))
