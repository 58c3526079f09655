import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from mefcon import (ConfigError, FilterParams, control_input, eta_star,
                    evaluate_energy, integrate_riccati, make_graph,
                    neighbor_estimate, observer_rhs, reduced_energy,
                    riccati_rhs, steady_gains, steady_state_gain,
                    uniform_params)


def test_eta_star_hand_values():
    assert eta_star(2.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert eta_star(5.0, 5.0, 0.7, 2.0) == 0.0


def test_eta_star_matches_scalar_minimization():
    y, x, G, R = 2.0, 1.0, 1.0, 1.0
    res = minimize_scalar(lambda eta: 0.5 * ((y - x - eta) ** 2 / R + eta ** 2 / G))
    assert eta_star(y, x, G, R) == pytest.approx(res.x, abs=1e-9)


@given(st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0.1, 3), st.floats(1e-6, 3))
def test_eta_star_is_stationary(y, x, G, R):
    eta = eta_star(y, x, G, R)
    # gradient of the inner cost vanishes at eta*
    grad = -(y - x - eta) / R + eta / G
    assert abs(grad) < 1e-6 * (1 + abs(y - x))


def test_eta_star_noiseless_limit():
    # R = 0 forces full trust in the measurement
    assert eta_star(2.0, 1.0, 1.0, 0.0) == pytest.approx(1.0)


def test_neighbor_estimate():
    assert neighbor_estimate(1.0, 3.0, 1.0, 2.0) == pytest.approx(2.0)
    assert neighbor_estimate(0.0, 7.0, 1.0, 1.0) == pytest.approx(7.0)  # G=S
    assert neighbor_estimate(5.0, 5.0, 0.3, 0.9) == pytest.approx(5.0)


def test_control_input():
    assert control_input(0.0, [1.0, -1.0]) == 0.0
    assert control_input(1.0, [2.0]) == 1.0
    assert control_input(4.0, [4.0, 4.0, 4.0]) == 0.0


def test_observer_rhs_hand_case():
    q = 1 / math.sqrt(2)
    rhs = observer_rhs(0.0, 1.0, [2.0], 1.0, [2.0], [1.0], q)
    assert rhs == pytest.approx(1 + math.sqrt(2), abs=1e-12)


def test_observer_rhs_zero_innovation():
    assert observer_rhs(3.0, 3.0, [3.0, 3.0], 1.0, [1.0, 2.0], [1.0, 1.0], 0.5) == 0.0


def test_observer_rhs_linear_in_gain():
    args = (0.2, 1.0, [2.0, -1.0], 0.7, [1.5, 2.0], [1.0, 1.5])
    u = control_input(0.2, [neighbor_estimate(0.2, y, g, s)
                            for y, s, g in zip([2.0, -1.0], [1.5, 2.0], [1.0, 1.5])])
    r1 = observer_rhs(*args, Q=0.4)
    r2 = observer_rhs(*args, Q=0.8)
    assert r2 - r1 == pytest.approx(r1 - u)


def test_steady_state_gain_hand_values():
    assert steady_state_gain(1.0, 1.0, [1.0]) == pytest.approx(1 / math.sqrt(2))
    assert steady_state_gain(1.0, 1.0, [1.0] * 99) == pytest.approx(0.1)
    assert steady_state_gain(0.0, 1.0, [1.0, 2.0]) == 0.0


def test_steady_gains_vectorized():
    top = make_graph("complete", 100)
    q = steady_gains(top, np.ones(100), np.ones(100), np.ones(9900))
    assert q == pytest.approx(np.full(100, 0.1))


def test_steady_gains_weighted_edges():
    top = make_graph("custom", 2, edges=[(0, 1, 3.0), (1, 0, 1.0)])
    q = steady_gains(top, np.array([1.0, 1.0]), np.array([1.0, 1.0]),
                     np.array([2.0, 2.0]))
    # node 0: 1/R + w/S = 1 + 1.5; node 1: 1 + 0.5
    assert q == pytest.approx([1 / math.sqrt(2.5), 1 / math.sqrt(1.5)])


def test_riccati_fixed_point_is_stationary():
    q = steady_state_gain(1.3, 0.8, [1.0, 2.0])
    assert riccati_rhs(q, 1.3, 0.8, [1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    assert integrate_riccati(q, 1.3, 0.8, [1.0, 2.0], horizon=5.0,
                             step=0.01) == pytest.approx(q, abs=1e-12)


def test_riccati_monotone_from_below():
    qs = [0.01]
    for _ in range(200):
        qs.append(integrate_riccati(qs[-1], 1.0, 1.0, [1.0],
                                    horizon=0.1, step=0.01))
    arr = np.array(qs)
    assert np.all(np.diff(arr) > -1e-12)
    assert np.all(arr <= 1 / math.sqrt(2) + 1e-9)


def test_riccati_rejects_nonpositive_start():
    with pytest.raises(ConfigError):
        integrate_riccati(0.0, 1.0, 1.0, [1.0], horizon=1.0, step=0.01)
    with pytest.raises(ConfigError):
        integrate_riccati(-1.0, 1.0, 1.0, [1.0], horizon=1.0, step=0.01)


def test_uniform_params_defaults():
    top = make_graph("undirected_ring", 2)
    p = uniform_params(top, B=1.0, R=1.0, S=1.0, G=1.0)
    q = steady_gains(top, p.B, p.R_self, p.S_edge)
    assert p.Xi == pytest.approx(1.0 / q)
    assert np.array_equal(p.R_nbr_edge, np.zeros(2))  # S = G means noiseless edges
    p2 = uniform_params(top, S=2.0, G=1.0)
    assert np.array_equal(p2.R_nbr_edge, np.ones(2))


def test_filter_params_validation():
    top = make_graph("undirected_ring", 2)
    with pytest.raises(ConfigError):
        uniform_params(top, R=0.0)
    with pytest.raises(ConfigError):
        uniform_params(top, S=1.0, G=2.0)  # G must not exceed S
    with pytest.raises(ConfigError):
        uniform_params(top, G=0.0)
    with pytest.raises(ConfigError):
        FilterParams(np.ones(2), np.ones(2), np.ones(2), np.ones(2),
                     np.array([1.0, -1.0]))


def test_uniform_params_checks_its_params_once(monkeypatch):
    # the default Xi = 1/Q* is resolved before the one FilterParams is
    # built, so its check runs once; a refused R is still named before B
    calls = []
    check = FilterParams.__post_init__
    monkeypatch.setattr(FilterParams, "__post_init__",
                        lambda self: calls.append(self) or check(self))
    top = make_graph("undirected_ring", 3)
    for Xi in (None, 2.0):
        p = uniform_params(top, S=2.0, G=1.0, Xi=Xi)
        assert len(calls) == 1 and calls.pop() is p
    q = steady_gains(top, p.B, p.R_self, p.S_edge)
    assert np.array_equal(uniform_params(top, S=2.0, G=1.0).Xi, 1.0 / q)
    with pytest.raises(ConfigError, match="'params.R' must be strictly positive"):
        uniform_params(top, B=0.0, R=0.0)
    with pytest.raises(ConfigError, match="'params.B' must be nonzero"):
        uniform_params(top, B=np.array([1.0, 0.0, 1.0]))


def _grid(T=1.0, h=0.01):
    return np.arange(int(round(T / h)) + 1) * h


def test_energy_zero_hypothesis():
    t = _grid()
    x = np.full_like(t, 2.0)
    budget = evaluate_energy(x, np.zeros_like(t), np.zeros((t.size, 1)),
                             x.copy(), x.reshape(-1, 1).copy(), 0.01,
                             prior=2.0, Xi=1.0, R_self=1.0,
                             R_nbr=np.array([1.0]), G=np.array([1.0]))
    assert budget.total == 0.0


def test_energy_constant_model_disturbance():
    t = _grid(1.0, 0.001)
    budget = evaluate_energy(np.zeros_like(t), np.ones_like(t),
                             np.zeros((t.size, 0)), np.zeros_like(t),
                             np.zeros((t.size, 0)), 0.001, prior=0.0, Xi=1.0,
                             R_self=1.0, R_nbr=np.zeros(0), G=np.zeros(0))
    assert budget.model_energy == pytest.approx(0.5, abs=1e-12)
    assert budget.init_error == 0.0


def test_energy_reduced_equals_full_at_optimum():
    rng = np.random.default_rng(11)
    t = _grid(0.5, 0.01)
    K = t.size
    x = rng.normal(size=K)
    delta = rng.normal(size=K)
    y_self = x + rng.normal(scale=0.3, size=K)
    y_nbr = rng.normal(size=(K, 2))
    R_nbr = np.array([0.5, 1.5])
    G = np.array([1.0, 0.7])
    S = R_nbr + G
    eta = np.stack([eta_star(y_nbr[:, j], x, G[j], R_nbr[j]) for j in range(2)],
                   axis=1)
    full = evaluate_energy(x, delta, eta, y_self, y_nbr, 0.01, prior=0.3,
                           Xi=1.2, R_self=0.8, R_nbr=R_nbr, G=G)
    reduced = reduced_energy(x, delta, y_self, y_nbr, 0.01, prior=0.3,
                             Xi=1.2, R_self=0.8, S=S)
    assert full.total == pytest.approx(reduced, rel=1e-12)


def test_energy_increases_away_from_optimum():
    rng = np.random.default_rng(5)
    t = _grid(0.5, 0.01)
    K = t.size
    x = rng.normal(size=K)
    y_nbr = rng.normal(size=(K, 1))
    R_nbr, G = np.array([0.5]), np.array([1.0])
    eta0 = eta_star(y_nbr[:, 0], x, G[0], R_nbr[0]).reshape(-1, 1)
    args = (x, np.zeros(K), y_nbr, 0.01)

    def total(eta):
        return evaluate_energy(args[0], args[1], eta, np.zeros(K), args[2],
                               args[3], prior=0.0, Xi=1.0, R_self=1.0,
                               R_nbr=R_nbr, G=G).total

    base = total(eta0)
    assert total(eta0 + 0.1) > base
    assert total(eta0 - 0.1) > base


def test_energy_hard_constraint_when_edge_noiseless():
    # R_nbr = 0 pins the neighbor residual; violating it costs infinity
    t = _grid(0.2, 0.01)
    K = t.size
    x = np.zeros(K)
    y_nbr = np.ones((K, 1))
    ok = evaluate_energy(x, np.zeros(K), y_nbr.copy(), np.zeros(K), y_nbr,
                         0.01, prior=0.0, Xi=1.0, R_self=1.0,
                         R_nbr=np.array([0.0]), G=np.array([1.0]))
    assert math.isfinite(ok.total)
    bad = evaluate_energy(x, np.zeros(K), np.zeros((K, 1)), np.zeros(K), y_nbr,
                          0.01, prior=0.0, Xi=1.0, R_self=1.0,
                          R_nbr=np.array([0.0]), G=np.array([1.0]))
    assert bad.total == math.inf
