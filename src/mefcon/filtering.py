"""Per-node minimum-energy filter: cost machinery, observer, Riccati gain.

Each node i estimates its own state from a disturbed self-measurement and
disturbed measurements of its observed neighbors, by minimizing the energy
of the unknown signals (initial error, model disturbance, measurement
errors, neighbor-approximation errors) consistent with the data.  The
scalar functions here are the single-node reference forms; the simulator
vectorizes the same algebra across the network.

Weight conventions: the neighbor measurement weight is R_nbr = S - G
(derived, may be zero), the self weight R_self = D_self**2, and the
approximation weight G satisfies 0 < G <= S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import NetworkTopology

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class FilterParams:
    """Tuning constants for every node and edge of one scenario.

    Arrays are aligned with the topology: node arrays have length N,
    edge arrays align with the ``topology.edge_arrays()`` order.

    Fields
    ------
    B : ndarray (N,)
        Input-disturbance coefficients.
    R_self : ndarray (N,)
        Self-measurement energy weights, strictly positive.
    S_edge : ndarray (E,)
        Combined neighbor weights S = R_nbr + G, strictly positive.
    G_edge : ndarray (E,)
        Approximation-error weights, 0 < G <= S.
    Xi : ndarray (N,)
        Initial-error weights, strictly positive.
    """

    B: np.ndarray
    R_self: np.ndarray
    S_edge: np.ndarray
    G_edge: np.ndarray
    Xi: np.ndarray

    def __post_init__(self) -> None:
        # a refusal names the config field that fills the array (params.R
        # fills R_self) and the first refused entry
        for name, v in (("R", self.R_self), ("S", self.S_edge), ("G", self.G_edge),
                        ("Xi", self.Xi)):
            if not np.all(v > 0):
                raise ConfigError(f"field 'params.{name}' must be strictly positive, "
                                  f"got {v[~(v > 0)][0]}")
        over = self.G_edge > self.S_edge * (1 + 1e-12)
        if np.any(over):
            raise ConfigError(f"field 'params.G' must not exceed params.S = "
                              f"{self.S_edge[over][0]}, got {self.G_edge[over][0]}")

    @property
    def R_nbr_edge(self) -> np.ndarray:
        """Neighbor measurement weights R_nbr = S - G (>= 0, may be zero)."""
        return np.maximum(self.S_edge - self.G_edge, 0.0)


def uniform_params(topology: NetworkTopology, B: float | np.ndarray = 1.0,
                   R: float = 1.0, S: float = 1.0, G: float = 1.0,
                   Xi: float | np.ndarray | None = None) -> FilterParams:
    """Broadcast scalar tuning constants over a topology.

    When ``Xi`` is omitted it defaults to 1/Q* per node, the choice that
    freezes the Riccati gain at its fixed point from t = 0.  A refused
    constant is a ``ConfigError`` naming its config field (``params.R``...).
    """
    n, m = topology.node_count, topology.edge_count
    Bv = np.broadcast_to(np.asarray(B, dtype=float), (n,)).copy()
    R_self, S_edge = np.full(n, float(R)), np.full(m, float(S))
    q = None
    if Xi is None:
        # resolved before the one FilterParams is built, whose check of R,
        # S and G comes first; a refused R or S makes q meaningless
        with np.errstate(divide="ignore", invalid="ignore"):
            q = steady_gains(topology, Bv, R_self, S_edge)
            Xi = 1.0 / q
    params = FilterParams(Bv, R_self, S_edge, np.full(m, float(G)),
                          np.broadcast_to(np.asarray(Xi, dtype=float), (n,)).copy())
    if q is not None and np.any(q <= 0):
        raise ConfigError("field 'params.B' must be nonzero at every node for the "
                          f"default Xi = 1/Q*, got {Bv[q <= 0][0]}")
    return params


def eta_star(y_ij: float, x_i: float, G_ij: float, R_ij: float) -> float:
    """Inner-minimizing neighbor-approximation error.

    Minimizes (1/2)[(y - x - eta)^2 / R + eta^2 / G] over eta; the
    stationary point is G/(G + R) * (y - x).
    """
    if G_ij <= 0 or R_ij < 0:
        raise ConfigError("eta_star requires G > 0 and R >= 0")
    return G_ij / (G_ij + R_ij) * (y_ij - x_i)


def neighbor_estimate(x_hat: float, y_ij: float, G_ij: float, S_ij: float) -> float:
    """Static neighbor estimate x_hat_ij = x_hat + (G/S)(y_ij - x_hat)."""
    return x_hat + (G_ij / S_ij) * (y_ij - x_hat)


def control_input(x_hat: float, neighbor_estimates) -> float:
    """Consensus input u_i = sum_j (x_hat_ij - x_hat_i)."""
    return float(sum(est - x_hat for est in neighbor_estimates))


def observer_rhs(x_hat: float, y_self: float, y_nbrs, R_self: float,
                 S_list, G_list, Q: float) -> float:
    """Time derivative of the estimate for one node.

    rhs = sum_j (x_hat_ij - x_hat) + Q [ (y_self - x_hat)/R_self
          + sum_j (y_ij - x_hat)/S_ij ]
    with the static neighbor estimates x_hat_ij.
    """
    if Q <= 0:
        raise ConfigError("observer gain Q must be positive")
    ests = [neighbor_estimate(x_hat, y, g, s) for y, g, s in zip(y_nbrs, G_list, S_list)]
    u = control_input(x_hat, ests)
    innov = (y_self - x_hat) / R_self
    innov += sum((y - x_hat) / s for y, s in zip(y_nbrs, S_list))
    return u + Q * innov


def steady_state_gain(B: float, R_self: float, S_values) -> float:
    """Nonnegative fixed point of the gain equation at unit edge weights.

    Solves B^2 = Q^2 (1/R + sum_j 1 / S_j), i.e.
    Q* = |B| (1/R + sum_j 1 / S_j)^(-1/2).  ``steady_gains`` is the
    weighted network form.
    """
    return abs(B) / math.sqrt(_gain_coefficient(R_self, S_values))


def steady_gains(topology: NetworkTopology, B: np.ndarray, R_self: np.ndarray,
                 S_edge: np.ndarray) -> np.ndarray:
    """Vector of steady gains Q_i* across the network (weighted sums)."""
    src, _, w = topology.edge_arrays()
    acc = np.bincount(src, weights=w / S_edge, minlength=topology.node_count)
    return np.abs(B) / np.sqrt(1.0 / R_self + acc)


def _gain_coefficient(R_self: float, S_values) -> float:
    """1/R + sum_j 1 / S_j, the coefficient of Q^2 in the gain equation."""
    return 1.0 / R_self + float(np.sum(1.0 / np.asarray(S_values, dtype=float)))


def riccati_rhs(Q: float, B: float, R_self: float, S_values) -> float:
    """Qdot = B^2 - Q^2 (1/R + sum_j 1 / S_j)."""
    return B * B - Q * Q * _gain_coefficient(R_self, S_values)


def integrate_riccati(Q0: float, B: float, R_self: float, S_values,
                      horizon: float, step: float) -> float:
    """Integrate the scalar gain equation with fixed-step RK4.

    Q0 must be strictly positive (Q(0) = 1/Xi).  Converges monotonically
    to ``steady_state_gain`` for any positive start.
    """
    if Q0 <= 0:
        raise ConfigError("Riccati initial condition Q0 must be positive")
    if step <= 0 or horizon < step:
        raise ConfigError("need step > 0 and horizon >= step")
    q = float(Q0)
    nsteps = int(round(horizon / step))
    for _ in range(nsteps):
        k1 = riccati_rhs(q, B, R_self, S_values)
        k2 = riccati_rhs(q + 0.5 * step * k1, B, R_self, S_values)
        k3 = riccati_rhs(q + 0.5 * step * k2, B, R_self, S_values)
        k4 = riccati_rhs(q + step * k3, B, R_self, S_values)
        q += step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return q


@dataclass(frozen=True)
class EnergyBudget:
    """Decomposition of one node's hypothesis energy over a horizon."""

    init_error: float
    model_energy: float
    measurement_energy: float
    approximation_energy: float

    @property
    def total(self) -> float:
        return (self.init_error + self.model_energy
                + self.measurement_energy + self.approximation_energy)


def evaluate_energy(x: np.ndarray, delta: np.ndarray, eta: np.ndarray,
                    y_self: np.ndarray, y_nbr: np.ndarray, h: float,
                    prior: float, Xi: float, R_self: float,
                    R_nbr: np.ndarray, G: np.ndarray) -> EnergyBudget:
    """Full hypothesis energy of one node on the integration grid.

    Parameters
    ----------
    x, delta, y_self : ndarray (K+1,)
        Hypothesized state, model disturbance, and recorded self
        measurements on the grid.  The caller guarantees model
        consistency (xdot = u + B delta) of the hypothesis.
    eta, y_nbr : ndarray (K+1, m)
        Hypothesized approximation errors and recorded neighbor
        measurements, one column per observed neighbor.
    h : float
        Grid spacing; integrals use the trapezoidal rule.
    prior, Xi, R_self : float
        Prior estimate, initial-error weight, self-measurement weight.
    R_nbr, G : ndarray (m,)
        Per-neighbor measurement and approximation weights.  A zero
        R_nbr turns that measurement term into a hard constraint: the
        residual must vanish on the grid, otherwise the energy is +inf.
    """
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    y_nbr = np.atleast_2d(np.asarray(y_nbr, dtype=float))
    if eta.shape[0] != x.shape[0]:
        eta = eta.T
    if y_nbr.shape[0] != x.shape[0]:
        y_nbr = y_nbr.T
    init = 0.5 * Xi * (x[0] - prior) ** 2
    model = 0.5 * _trapz(delta ** 2, dx=h)
    meas_t = (y_self - x) ** 2 / R_self
    approx_t = np.zeros_like(x)
    for j in range(eta.shape[1]):
        resid = y_nbr[:, j] - x - eta[:, j]
        if R_nbr[j] > 0:
            meas_t = meas_t + resid ** 2 / R_nbr[j]
        elif np.any(np.abs(resid) > 1e-9):
            return EnergyBudget(init, model, math.inf, 0.0)
        approx_t = approx_t + eta[:, j] ** 2 / G[j]
    meas = 0.5 * _trapz(meas_t, dx=h)
    approx = 0.5 * _trapz(approx_t, dx=h)
    return EnergyBudget(float(init), float(model), float(meas), float(approx))


def reduced_energy(x: np.ndarray, delta: np.ndarray, y_self: np.ndarray,
                   y_nbr: np.ndarray, h: float, prior: float, Xi: float,
                   R_self: float, S: np.ndarray) -> float:
    """Energy after eliminating the approximation errors at their optimum.

    Equals ``evaluate_energy`` at eta = eta* with S = R_nbr + G:
    (Xi/2)(x0 - prior)^2 + (1/2) int [ delta^2 + (y_self - x)^2/R
    + sum_j (y_ij - x)^2 / S_j ].
    """
    y_nbr = np.atleast_2d(np.asarray(y_nbr, dtype=float))
    if y_nbr.shape[0] != x.shape[0]:
        y_nbr = y_nbr.T
    integrand = delta ** 2 + (y_self - x) ** 2 / R_self
    for j in range(y_nbr.shape[1]):
        integrand = integrand + (y_nbr[:, j] - x) ** 2 / S[j]
    return float(0.5 * Xi * (x[0] - prior) ** 2 + 0.5 * _trapz(integrand, dx=h))
