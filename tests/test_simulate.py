import math

import numpy as np
import pytest
from hypothesis import given
from scipy import sparse
from hypothesis import strategies as st

from mefcon import (ClosedLoop, ConfigError, DisturbanceProfile, FilterParams,
                    NetworkTopology, ScenarioConfig, SimulationError,
                    Trajectory, assemble_global, basic_scenario,
                    control_input, disagreement_norms, exp_bound_constants,
                    left_null_vector_of, make_graph, measurements,
                    neighbor_estimate, observer_rhs, predict_equilibrium,
                    rk4_step, sample_disturbances, simulate_classical,
                    simulate_mef, steady_gains, uniform_params)
from mefcon.simulate import _rk4_maps


def test_rk4_zero_field():
    z = np.array([1.0, -2.0])
    assert np.array_equal(rk4_step(lambda t, z: 0 * z, z, 0.0, 0.1), z)


def test_rk4_scalar_decay():
    z = rk4_step(lambda t, z: -z, np.array([1.0]), 0.0, 0.1)
    assert abs(z[0] - math.exp(-0.1)) < 1e-7
    assert z[0] == pytest.approx(0.9048375, abs=1e-7)


def test_rk4_matches_degree_four_taylor():
    rng = np.random.default_rng(2)
    F = rng.normal(size=(4, 4))
    z0 = rng.normal(size=4)
    h = 0.05
    one = rk4_step(lambda t, z: F @ z, z0, 0.0, h)
    P = np.eye(4)
    taylor = np.eye(4)
    for k in range(1, 5):
        P = P @ (F * h) / k
        taylor = taylor + P
    assert one == pytest.approx(taylor @ z0, rel=1e-12)


def test_rk4_rejects_non_finite():
    with pytest.raises(SimulationError):
        rk4_step(lambda t, z: z * np.inf, np.array([1.0]), 0.0, 0.1)


def _loop(top, R_self, S, G):
    n, m = top.node_count, top.edge_count
    return ClosedLoop(top, FilterParams(np.ones(n), np.asarray(R_self, float),
                                        np.full(m, S), np.full(m, G), np.ones(n)))


def test_measurement_map():
    top = make_graph("custom", 3, edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    x = np.array([1.0, 10.0, 100.0])
    loop = _loop(top, [4.0, 1.0, 1.0], S=1.0, G=1.0)  # D_self = 2, 1, 1; D_edge = 0
    y_self, y_edge = loop.measure(x, np.concatenate([np.zeros(3), [0.5, 0.0, 0.0],
                                                     np.ones(3)]))
    assert y_self[0] == 2.0  # x + D eps
    assert np.array_equal(y_self[1:], x[1:])
    # edge (i, j) observes x_j, never x_i
    assert np.array_equal(y_edge, [10.0, 100.0, 1.0])
    noisy = _loop(top, [1.0, 1.0, 1.0], S=1.0625, G=1.0)  # D_edge = 0.25
    _, y_noisy = noisy.measure(x, np.concatenate([np.zeros(6), np.ones(3)]))
    assert np.array_equal(y_noisy, [10.25, 100.25, 1.25])


@st.composite
def _noisy_loops(draw):
    """A strongly connected weighted digraph with non-uniform R, S, G <= S,
    plus a state, an estimate, gains and nonzero measurement noise."""
    n = draw(st.integers(2, 6))
    perm = draw(st.permutations(range(n)))
    pairs = {(perm[k], perm[(k + 1) % n]) for k in range(n)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1])))
    pairs = sorted(pairs)
    m = len(pairs)

    def vec(size, lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                      max_size=size)))

    w = vec(m, 0.2, 3.0)
    S = vec(m, 0.5, 4.0)
    G = S * vec(m, 0.05, 1.0)
    top = NetworkTopology(n, tuple((i, j, float(wt)) for (i, j), wt in zip(pairs, w)))
    params = FilterParams(vec(n, 0.5, 2.0), vec(n, 0.2, 3.0), S, G, np.ones(n))
    eps_self = vec(n, 0.1, 1.0) * draw(st.sampled_from([-1.0, 1.0]))
    eps_edge = vec(m, 0.1, 1.0) * draw(st.sampled_from([-1.0, 1.0]))
    return (top, params, vec(n, -2.0, 2.0), vec(n, -2.0, 2.0), vec(n, 0.1, 2.0),
            eps_self, eps_edge)


@given(_noisy_loops())
def test_closed_loop_matches_scalar_node_forms(case):
    top, params, x, xh, q, eps_self, eps_edge = case
    loop = ClosedLoop(top, params)
    # w = (delta, eps_self, eps_edge), eps_edge dropped when noiseless
    noise = np.concatenate([np.zeros(top.node_count), eps_self, eps_edge])
    u, innov = loop.coupling(np.concatenate([x, xh]), noise[:sum(loop.noise_sizes)])
    xh_dot = u + q * innov
    y_self, y_edge = loop.measure(x, noise)
    src, dst, w = top.edge_arrays()
    for i in range(top.node_count):
        mine = src == i
        # the scalar forms carry no edge weight: S/w scales both G/S and 1/S
        S_eff = params.S_edge[mine] / w[mine]
        ests = [neighbor_estimate(xh[i], y, g, s)
                for y, g, s in zip(y_edge[mine], params.G_edge[mine], S_eff)]
        assert u[i] == pytest.approx(control_input(xh[i], ests), rel=1e-12, abs=1e-12)
        ref = observer_rhs(xh[i], y_self[i], y_edge[mine], params.R_self[i],
                           S_eff, params.G_edge[mine], q[i])
        assert xh_dot[i] == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert y_self[i] == x[i] + np.sqrt(params.R_self[i]) * eps_self[i]
    assert np.array_equal(y_edge, x[dst] + np.sqrt(params.R_nbr_edge) * eps_edge)


def _white_config(n=3, T=0.5, h=0.01, seed=4, **kw):
    return basic_scenario(n, "complete", profile=DisturbanceProfile(
        kind="white", sigma=1.0), T=T, h=h, seed=seed, **kw)


def test_determinism_bit_identical():
    cfg = _white_config()
    t1 = simulate_mef(cfg)
    t2 = simulate_mef(cfg)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.x_hat, t2.x_hat)
    assert np.array_equal(t1.u, t2.u)
    b1 = simulate_classical(cfg)
    b2 = simulate_classical(cfg)
    assert np.array_equal(b1.x, b2.x)


def test_error_bookkeeping_exact():
    traj = simulate_mef(_white_config())
    assert np.array_equal(traj.e, traj.x_hat - traj.x)


def test_delta_stream_shared_with_baseline():
    # the delta draw must not depend on the other streams, so the baseline
    # (which reads delta alone) sees the same realization as the filter
    for prof in (DisturbanceProfile(kind="white", sigma=1.0, seed=3),
                 DisturbanceProfile(kind="sinusoid", delta_max=0.3, eps_max=0.2,
                                    frequency=1.7, seed=3)):
        with_edges = sample_disturbances(prof, (4, 4, 12), 20, 0.01)
        no_edges = sample_disturbances(prof, (4,), 20, 0.01)
        for t, k in ((0.0, 0), (0.075, 7), (0.19, 19)):
            assert no_edges.at(t, k).shape == (4,)
            assert np.array_equal(with_edges.at(t, k)[:4], no_edges.at(t, k))


def test_disturbance_free_consensus_two_nodes():
    cfg = basic_scenario(2, x0=[0.0, 1.0])
    traj = simulate_mef(cfg)
    assert abs(traj.x[-1, 0] - traj.x[-1, 1]) < 1e-6
    assert traj.x[-1] == pytest.approx([0.5, 0.5], abs=1e-6)
    assert np.abs(traj.e[-1]).max() < 1e-6


def test_consensus_fixed_point_is_constant():
    cfg = basic_scenario(3, x0=[0.7, 0.7, 0.7], T=1.0)
    traj = simulate_mef(cfg)
    assert np.array_equal(traj.x, np.full_like(traj.x, 0.7))
    assert np.array_equal(traj.x_hat, traj.x)
    base = simulate_classical(cfg)
    assert np.array_equal(base.x, np.full_like(base.x, 0.7))


def test_classical_reaches_average_on_balanced_graph():
    cfg = basic_scenario(4, "directed_cycle", x0=[0.0, 1.0, 2.0, 3.0], T=50.0)
    traj = simulate_classical(cfg)
    assert traj.x[-1] == pytest.approx(np.full(4, 1.5), abs=1e-6)
    assert np.array_equal(traj.e, np.zeros_like(traj.e))
    assert np.array_equal(traj.x_hat, traj.x)


def test_closed_loop_matches_global_matrix(admissible_sweep):
    rng = np.random.default_rng(0)
    for top, params, system, _ in admissible_sweep[:10]:
        n = top.node_count
        x = rng.uniform(-1, 1, n)
        xh = rng.uniform(-1, 1, n)
        loop = ClosedLoop(top, params)
        u, innov = loop.coupling(np.concatenate([x, xh]),
                                 np.zeros(sum(loop.noise_sizes)))
        xdot, xhdot = u, u + loop.q_star * innov
        z = np.concatenate([x, xh - x])
        Fz = system.F @ z
        assert xdot == pytest.approx(Fz[:n], abs=1e-12)
        assert xhdot - xdot == pytest.approx(Fz[n:], abs=1e-12)


def test_exponential_decay_rate():
    # log-norm slope of the disagreement state must not be slower than
    # the spectral rate (10% slack)
    cfg = basic_scenario(2, x0=[0.0, 1.0], T=30.0)
    traj = simulate_mef(cfg)
    system = assemble_global(cfg.topology, cfg.params)
    omega = left_null_vector_of(cfg.topology)
    eq = predict_equilibrium(system, omega, cfg.x0, cfg.prior - cfg.x0)
    a, _ = exp_bound_constants(system)
    norms = disagreement_norms(traj, eq.x_star)
    sel = (traj.t >= 2.0) & (traj.t <= 20.0) & (norms > 1e-13)
    slope = np.polyfit(traj.t[sel], np.log(norms[sel]), 1)[0]
    assert slope <= -0.9 * a


def test_rk4_order_on_smooth_run():
    prof = DisturbanceProfile(kind="sinusoid", delta_max=0.3, eps_max=0.2,
                              frequency=1.0, seed=6)
    terminal = {}
    for h in (0.04, 0.02, 0.01):
        cfg = basic_scenario(2, x0=[0.0, 1.0], profile=prof, h=h, T=1.0, seed=6)
        terminal[h] = simulate_mef(cfg).x[-1]
    e1 = np.linalg.norm(terminal[0.04] - terminal[0.02])
    e2 = np.linalg.norm(terminal[0.02] - terminal[0.01])
    assert 10.0 < e1 / e2 < 22.0  # fourth order halves errors 16-fold


def test_dynamic_riccati_converges_to_steady_gain():
    top = make_graph("undirected_ring", 2)
    params = uniform_params(top, B=1.0, R=1.0, S=1.0, G=1.0, Xi=2.0)
    cfg = ScenarioConfig(top, params, np.array([0.0, 1.0]), None,
                         DisturbanceProfile(), 0.01, 50.0, 0, "dynamic")
    traj = simulate_mef(cfg)
    qstar = steady_gains(top, params.B, params.R_self, params.S_edge)
    assert traj.Q[0] == pytest.approx([0.5, 0.5])  # Q(0) = 1/Xi
    assert traj.Q[-1] == pytest.approx(qstar, abs=1e-6)
    assert np.all(np.diff(traj.Q[:, 0]) > -1e-12)
    assert traj.x[-1] == pytest.approx(traj.x[-1, 0] * np.ones(2), abs=1e-6)


def test_steady_gain_column_recorded():
    cfg = basic_scenario(2, T=0.1)
    traj = simulate_mef(cfg)
    qstar = steady_gains(cfg.topology, cfg.params.B, cfg.params.R_self,
                         cfg.params.S_edge)
    assert np.array_equal(traj.Q, np.tile(qstar, (traj.t.size, 1)))


def _weighted_digraph():
    """A strongly connected weighted digraph with non-uniform B, R, S and
    G < S (so edge measurements are noisy), and Xi = 1/Q*."""
    top = NetworkTopology(4, ((0, 1, 1.5), (1, 2, 0.7), (2, 3, 2.0),
                              (3, 0, 1.1), (0, 2, 0.6), (2, 1, 1.3)))
    B = np.array([1.0, 0.6, 1.7, 1.2])
    R = np.array([0.5, 1.0, 2.0, 0.8])
    S = np.array([1.0, 2.0, 1.5, 3.0, 1.2, 2.5])
    G = S * np.array([0.3, 0.9, 0.5, 0.7, 1.0, 0.4])
    return top, FilterParams(B, R, S, G, 1.0 / steady_gains(top, B, R, S))


def test_default_xi_makes_dynamic_equal_steady():
    # Xi = 1/Q* starts the gain at its fixed point, so both modes agree:
    # the stage-by-stage dynamic run is the oracle of the steady propagator
    top3 = make_graph("complete", 3)
    top, params = _weighted_digraph()
    x0 = np.array([0.4, -0.3, 0.9, 0.1])
    cases = [(top3, uniform_params(top3, B=1.0, R=1.0, S=1.0, G=1.0),
              np.array([0.1, 0.5, -0.2]), None, DisturbanceProfile())]
    for prof in (DisturbanceProfile(kind="sinusoid", delta_max=0.3, eps_max=0.2,
                                    frequency=0.8),
                 DisturbanceProfile(kind="white", sigma=0.5)):
        cases.append((top, params, x0, x0 + [0.2, -0.1, 0.05, 0.3], prof))
    for top, params, x0, prior, prof in cases:
        kw = dict(profile=prof, h=0.01, T=2.0, seed=5)
        steady = simulate_mef(ScenarioConfig(top, params, x0, prior,
                                             riccati="steady", **kw))
        dynamic = simulate_mef(ScenarioConfig(top, params, x0, prior,
                                              riccati="dynamic", **kw))
        for name in ("x", "x_hat", "u", "Q"):
            assert getattr(dynamic, name) == pytest.approx(
                getattr(steady, name), rel=0, abs=1e-12), (prof.kind, name)
    assert np.abs(steady.u).max() > 1.0  # the noise reaches u


def test_consensus_is_exact_on_weighted_digraph():
    # non-uniform weights leave (P - I) 1 at rounding level, not zero, so
    # only a step on z - z[0] keeps consensus exact
    top, params = _weighted_digraph()
    for run in (simulate_mef, simulate_classical):
        traj = run(ScenarioConfig(top, params, np.full(4, 3.1), h=0.4, T=40.0))
        assert np.array_equal(traj.x, np.full_like(traj.x, 3.1))
        assert np.array_equal(traj.x_hat, traj.x)
        assert not np.any(traj.u)


def test_propagator_storage_follows_fill():
    ring = make_graph("undirected_ring", 500)
    loop = ClosedLoop(ring, uniform_params(ring, S=2.0, G=1.0))
    assert loop.A.nnz <= 8 * 500
    for M in _rk4_maps(loop.A, 0.01, "sinusoid"):
        assert sparse.issparse(M) and M.nnz <= 40 * 500
    complete = make_graph("complete", 20)
    A = ClosedLoop(complete, uniform_params(complete)).A
    assert all(isinstance(M, np.ndarray) for M in _rk4_maps(A, 0.01, "white"))


def test_measurement_recording():
    cfg = basic_scenario(2, x0=[0.0, 1.0], T=0.2)
    traj = simulate_mef(cfg)
    y_self, y_edge = measurements(cfg, traj)
    # zero disturbance: y_ii = x_i and edge (i, j) reads x_j exactly
    assert np.array_equal(y_self, traj.x)
    src, dst, _ = cfg.topology.edge_arrays()
    assert np.array_equal(y_edge, traj.x[:, dst])

    # white noise, R = S - G = 1 so D = 1: grid point k reads the draw of
    # step min(k, steps - 1)
    cfg = _white_config(S=2.0, G=1.0, T=0.05)
    traj = simulate_mef(cfg)
    y_self, y_edge = measurements(cfg, traj)
    _, dst, _ = cfg.topology.edge_arrays()
    real = sample_disturbances(cfg.profile, (3, 3, 6), cfg.steps, cfg.h, cfg.seed)
    assert y_self.shape == (cfg.steps + 1, 3) and y_edge.shape == (cfg.steps + 1, 6)
    for k in range(cfg.steps + 1):
        w = real.at(traj.t[k], min(k, cfg.steps - 1))
        es, ee = w[3:6], w[6:]
        assert np.array_equal(y_self[k], traj.x[k] + es)
        assert np.array_equal(y_edge[k], traj.x[k, dst] + ee)
    assert not np.allclose(y_edge[0] - traj.x[0, dst], y_edge[1] - traj.x[1, dst])


def test_warns_when_not_strongly_connected():
    cfg = basic_scenario(3, "path", T=1.0)
    with pytest.warns(RuntimeWarning, match="strongly connected"):
        simulate_mef(cfg)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_numerical_blowup_aborts_with_step_index():
    top = make_graph("undirected_ring", 2)
    params = uniform_params(top, B=1.0, R=1e-8, S=1.0, G=1.0)
    cfg = ScenarioConfig(top, params, np.array([0.0, 1.0]), None,
                         DisturbanceProfile(), h=10.0, T=500.0)
    with pytest.raises(SimulationError, match="non-finite"):
        simulate_mef(cfg)


def test_scenario_validation():
    top = make_graph("complete", 3)
    params = uniform_params(top)
    with pytest.raises(ConfigError):
        ScenarioConfig(top, params, np.zeros(2))  # wrong x0 length
    with pytest.raises(ConfigError):
        ScenarioConfig(top, params, np.zeros(3), np.zeros(4))
    with pytest.raises(ConfigError):
        ScenarioConfig(top, params, np.zeros(3), h=-0.01)
    with pytest.raises(ConfigError):
        ScenarioConfig(top, params, np.zeros(3), T=0.001, h=0.01)
    with pytest.raises(ConfigError):
        ScenarioConfig(top, params, np.zeros(3), riccati="adaptive")
    other = uniform_params(make_graph("complete", 4))
    with pytest.raises(ConfigError):
        ScenarioConfig(top, other, np.zeros(3))


def test_steps_and_with_seed():
    cfg = basic_scenario(2, h=0.002, T=5.0, seed=1)
    assert cfg.steps == 2500
    assert basic_scenario(2, h=0.1, T=0.3).steps == 3  # 0.3 / 0.1 < 3 in floats
    # a horizon that is not a whole number of steps is refused, not rounded
    with pytest.raises(ConfigError, match="integration.T"):
        basic_scenario(2, h=0.01, T=0.015)
    assert cfg.with_seed(9).seed == 9
    assert cfg.with_seed(9).profile.seed == 9


def test_trajectory_h_property():
    traj = simulate_mef(basic_scenario(2, T=0.1, h=0.02))
    assert traj.h == pytest.approx(0.02)
    assert isinstance(traj, Trajectory)
