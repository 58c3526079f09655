import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from scipy import sparse
from hypothesis import strategies as st

from mefcon import (ClosedLoop, ConfigError, DisturbanceProfile, FilterParams,
                    NetworkTopology, ScenarioConfig, SimulationError,
                    Trajectory, assemble_global, basic_scenario,
                    build_scenario, certify,
                    check_envelope, control_input, disagreement_norms,
                    exp_bound_constants,
                    laplacian, left_null_vector_of, load_config, make_graph,
                    measurements,
                    neighbor_estimate, observer_rhs, predict_equilibrium,
                    integrate_riccati, rk4_step, run_comparison,
                    sample_disturbances,
                    simulate_classical,
                    simulate_mef, spectral_report, steady_gains,
                    uniform_params)
from mefcon.disturbances import CHUNK_ENTRIES
from mefcon import disturbances as disturbances_module
from mefcon import simulate as simulate_module
from mefcon.simulate import _input_maps, _pass, _rk4_maps, _stored, _term

from conftest import weighted_digraph as _weighted_digraph

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _is_canonical_csr(M) -> bool:
    """CSR with strictly increasing (row, column) keys, so sorted indices
    and no duplicates, and no explicitly stored zero."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    keys = rows * M.shape[1] + M.indices
    return M.format == "csr" and bool(np.all(np.diff(keys) > 0)) and bool(
        np.all(M.data != 0))


def _in_the_form_the_rule_picks(M) -> bool:
    """A dense array where the storage rule keeps M dense, else canonical CSR."""
    if isinstance(M, np.ndarray):
        return simulate_module._is_dense(M.shape, np.count_nonzero(M))
    return not simulate_module._is_dense(M.shape, M.nnz) and _is_canonical_csr(M)


@given(_noisy_loops())
def test_steady_column_blocks_match_coupling(case):
    top, params, x, xh, _, eps_self, eps_edge = case
    loop = ClosedLoop(top, params)
    n = top.node_count
    z, delta = np.concatenate([x, xh]), np.cos(np.arange(n))
    w = np.concatenate([delta, eps_self, eps_edge])[:sum(loop.noise_sizes)]
    u, innov = loop.coupling(z, w)
    zdot = loop.A @ z + loop.inputs @ w
    assert zdot[:n] == pytest.approx(u + params.B * delta, rel=1e-12, abs=1e-12)
    assert zdot[n:] == pytest.approx(u + loop.q_star * innov, rel=1e-12, abs=1e-12)
    u_maps = loop.u_state @ z
    if loop.u_noise is not None:
        u_maps = u_maps + loop.u_noise @ w
    assert u_maps == pytest.approx(u, rel=1e-12, abs=1e-12)
    for M in (loop.A, loop.inputs, loop.u_state, loop.u_noise, loop.coupling_map):
        assert M is None or _in_the_form_the_rule_picks(M)


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
    for prof in (DisturbanceProfile(kind="white", sigma=1.0),
                 DisturbanceProfile(kind="sinusoid", delta_max=0.3, eps_max=0.2,
                                    frequency=1.7)):
        with_edges = sample_disturbances(prof, (4, 4, 12), 20, 0.01, 3)
        no_edges = sample_disturbances(prof, (4,), 20, 0.01, 3)
        for t, k in ((0.0, 0), (0.075, 7), (0.19, 19)):
            assert no_edges.at(t, k).shape == (4,)
            assert np.array_equal(with_edges.at(t, k)[:4], no_edges.at(t, k))


@pytest.mark.parametrize("profile", [
    DisturbanceProfile(), DisturbanceProfile("white", sigma=1.0),
    DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2, frequency=1.7)],
    ids=["zero", "white", "sinusoid"])
def test_baseline_on_the_filter_draws_is_byte_identical(profile):
    # the baseline under the delta columns of the filter's realization is
    # the baseline under its own draw
    cfg = basic_scenario(12, profile=profile, S=2.0, G=1.0, h=0.01, T=1.03, seed=3)
    real = sample_disturbances(profile, cfg.loop.noise_sizes, cfg.steps, cfg.h, 3)
    shared = simulate_module._simulate_both(cfg, real)[0]
    own = simulate_classical(cfg)
    assert shared.x.tobytes() == own.x.tobytes()
    assert shared.u.tobytes() == own.u.tobytes()


def test_baseline_in_the_filter_blocks_agrees_to_rounding():
    # over several blocks of the filter's pass (70 steps here, where a
    # standalone baseline reads 2 184), the dense baseline map may round
    # differently, but the runs agree to rounding
    profile = DisturbanceProfile("white", sigma=0.5)
    cfg = basic_scenario(30, profile=profile, S=2.0, G=1.0, h=0.01, T=5.0, seed=3)
    real = sample_disturbances(profile, cfg.loop.noise_sizes, cfg.steps, cfg.h, 3)
    own = simulate_classical(cfg)
    assert not sparse.issparse(_rk4_maps(laplacian(cfg.topology), cfg.h, 0.0)[0])
    assert (real.rows, cfg.steps) == (70, 500)
    assert CHUNK_ENTRIES // 30 == 2184
    shared = simulate_module._simulate_both(cfg, real)[0]
    assert np.abs(shared.x - own.x).max() <= 1e-13 * np.abs(own.x).max()
    assert np.abs(shared.u - own.u).max() <= 1e-13 * np.abs(own.u).max()


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
    for k, (top, params, system, _) in enumerate(admissible_sweep):
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
        # the certificate's operator and consensus weights against the
        # paper's block F and closed-form x*
        assert np.max(np.abs(loop.F - system.F)) <= 1e-12, k
        eq = predict_equilibrium(system, left_null_vector_of(top), x, xh - x)
        assert loop.nu @ np.concatenate([x, xh]) == pytest.approx(eq.x_star, abs=1e-12), k


def test_exponential_decay_rate():
    # log-norm slope of the disagreement state must not be slower than
    # the spectral rate (10% slack)
    cfg = basic_scenario(2, x0=[0.0, 1.0], T=30.0)
    traj = simulate_mef(cfg)
    system = assemble_global(cfg.topology, cfg.params)
    omega = left_null_vector_of(cfg.topology)
    eq = predict_equilibrium(system, omega, cfg.x0, cfg.prior - cfg.x0)
    a, _ = exp_bound_constants(system, spectral_report(system))
    norms = disagreement_norms(traj, eq.x_star)
    sel = (traj.t >= 2.0) & (traj.t <= 20.0) & (norms > 1e-13)
    slope = np.polyfit(traj.t[sel], np.log(norms[sel]), 1)[0]
    assert slope <= -0.9 * a


def test_rk4_order_on_smooth_run():
    prof = DisturbanceProfile(kind="sinusoid", delta_max=0.3, eps_max=0.2,
                              frequency=1.0)
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


def _block_levels(A, config, monkeypatch):
    """The steps that each level of ``_blocks`` advanced, top level first,
    when ``_propagate`` runs zdot = A z without noise."""
    step = _rk4_maps(A, config.h, 0.0)[0]
    z_rec = np.zeros((config.steps + 1, A.shape[0]))
    z_rec[0] = np.random.default_rng(1).uniform(-1.0, 1.0, A.shape[0])
    with monkeypatch.context() as m:
        done = _spy_blocks(m)
        simulate_module._propagate(step, z_rec, np.arange(config.steps + 1) * config.h)
    return done


def _classical_stages(config):
    """The baseline stage by stage: one ``rk4_step`` per grid step, noise
    read at every stage; returns the x and u = -L_std x records."""
    Lp, n = laplacian(config.topology), config.topology.node_count
    real = sample_disturbances(config.profile, (n,), config.steps, config.h,
                               config.seed)
    xs = [config.x0]
    for ks, read in real.chunks(config.steps):
        for k in ks:
            xs.append(rk4_step(lambda t, x: Lp @ x + read(t, k), xs[-1],
                               k * config.h, config.h))
    return np.array(xs), np.array(xs) @ Lp.T


def _closed_form_gain(loop, Q0, t):
    """Q(t) of Qdot = B^2 - c Q^2 from Q0, in the exponential form Q* [(Q0
    + Q*) + (Q0 - Q*) e^{-2kt}] / [(Q0 + Q*) - (Q0 - Q*) e^{-2kt}], k = c
    Q*, and Q0 / (1 + c Q0 t) where B = 0."""
    c, q = loop.ricc_coeff, loop.q_star
    decay = np.exp(-2 * c * q * t)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where B = 0
        exponential = q * ((Q0 + q) + (Q0 - q) * decay) / ((Q0 + q) - (Q0 - q) * decay)
    return np.where(q > 0, exponential, Q0 / (1 + c * Q0 * t))


def _filter_stages(config):
    """The filter run stage by stage: one ``rk4_step`` of (x, x_hat) per
    grid step through ``loop.coupling``, noise read at every stage and the
    gain at every stage time from its closed form; returns the x, x_hat
    and u records."""
    loop, n, h = config.loop, config.topology.node_count, config.h
    real = sample_disturbances(config.profile, loop.noise_sizes, config.steps, h,
                               config.seed)
    Q0 = 1.0 / config.params.Xi

    def f(t, z, w):
        u, innov = loop.coupling(z, w)
        q = _closed_form_gain(loop, Q0, t)
        return np.concatenate([u + loop.B * w[:n], u + q * innov])

    zs, us = [np.concatenate([config.x0, config.prior])], []
    for ks, read in real.chunks(config.steps + 1):  # the last point reads the last step
        for k in ks:
            us.append(loop.coupling(zs[-1], read(k * h, k))[0])
            if k < config.steps:
                zs.append(rk4_step(lambda t, z: f(t, z, read(t, k)), zs[-1], k * h, h))
    zs = np.array(zs)
    return zs[:, :n], zs[:, n:], np.array(us)


def test_default_xi_makes_dynamic_equal_steady(monkeypatch):
    # Xi = 1/Q* starts the gain at its fixed point, so the dynamic run is
    # the steady run, byte for byte, and both match the stage-by-stage
    # oracle.  Zero noise advances blocks of steps; T = 2 is 200 steps, 25
    # blocks of 8, whose carry leaves steps to the per-step form.
    # The ring N = 40 runs noise through sparse (CSR) step and input maps;
    # its 40 x 40 Laplacian, at most 2^12 entries, through dense ones.
    top3 = make_graph("complete", 3)
    top, params = _weighted_digraph()
    x0 = np.array([0.4, -0.3, 0.9, 0.1])
    ring = make_graph("undirected_ring", 40)
    ring_params = uniform_params(ring, R=0.7, S=2.0, G=1.0)
    ring_x0 = np.random.default_rng(8).uniform(-1.0, 1.0, 40)
    cases = [(top3, uniform_params(top3, B=1.0, R=1.0, S=1.0, G=1.0),
              np.array([0.1, 0.5, -0.2]), None, DisturbanceProfile())]
    for prof in (DisturbanceProfile(),
                 DisturbanceProfile(kind="sinusoid", delta_max=0.3, eps_max=0.2,
                                    frequency=0.8),
                 DisturbanceProfile(kind="white", sigma=0.5)):
        if prof.kind != "zero":
            cases.append((ring, ring_params, ring_x0, -ring_x0, prof))
        cases.append((top, params, x0, x0 + [0.2, -0.1, 0.05, 0.3], prof))
    for top, params, x0, prior, prof in cases:
        kw = dict(profile=prof, h=0.01, T=2.0, seed=5)
        config = ScenarioConfig(top, params, x0, prior, riccati="steady", **kw)
        for A in (ClosedLoop(top, params).A, laplacian(top)):
            if prof.kind == "zero":
                levels = _block_levels(A, config, monkeypatch)
                assert levels[0] == config.steps, levels
            if top is ring:
                theta = 2 * np.pi * prof.frequency * config.h * (prof.kind == "sinusoid")
                sparse_maps = A.shape[0] * A.shape[1] > 2 ** 12  # the loop's A is 80 x 80
                assert all(sparse.issparse(M) == sparse_maps
                           for M in _rk4_maps(A, config.h, theta))
        steady = simulate_mef(config)
        dynamic = simulate_mef(replace(config, riccati="dynamic"))
        for name in ("x", "x_hat", "u"):
            assert getattr(dynamic, name).tobytes() == getattr(steady, name).tobytes()
        assert dynamic.Q == pytest.approx(steady.Q, rel=0, abs=1e-12)
        for name, want in zip(("x", "x_hat", "u"), _filter_stages(config)):
            assert getattr(steady, name) == pytest.approx(
                want, rel=0, abs=1e-12), (prof.kind, name)
        base = simulate_classical(config)
        for got, want in zip((base.x, base.u), _classical_stages(config)):
            assert got == pytest.approx(want, rel=0, abs=1e-12), prof.kind
    assert np.abs(steady.u).max() > 1.0  # the noise reaches u


def _gain_cases(Xi):
    """two_ring_envelope and the weighted digraph under white noise, both
    with the dynamic gain from Q(0) = 1/Xi at every node."""
    ring, _ = build_scenario(load_config(CONFIGS / "two_ring_envelope.yaml"))
    top, params = _weighted_digraph()
    digraph = ScenarioConfig(top, params, np.array([0.4, -0.3, 0.9, 0.1]),
                             np.array([0.6, -0.4, 0.95, 0.4]),
                             DisturbanceProfile("white", sigma=0.5), T=40.0, seed=5)
    return [replace(cfg, params=replace(cfg.params, Xi=np.full(cfg.loop.n, Xi)),
                    riccati="dynamic") for cfg in (ring, digraph)]


@pytest.mark.parametrize("Xi", [0.2, 5.0])
def test_closed_form_gain_matches_the_integrated_gain(Xi):
    # each node's scalar gain equation by RK4 at step 1e-3; c = 1/R + sum
    # w/S, so the scalar form takes S/w per out-edge
    for config in _gain_cases(Xi):
        loop, params = config.loop, config.params
        src, _, w = config.topology.edge_arrays()
        for t in (0.5, 3.0):
            want = [integrate_riccati(1 / Xi, params.B[i], params.R_self[i],
                                      params.S_edge[src == i] / w[src == i], t, 1e-3)
                    for i in range(loop.n)]
            assert loop.gain(1 / Xi, t) == pytest.approx(want, rel=0, abs=1e-9), t
        for t in (0.0, 0.5, 30.0):  # the ratio comes first, so Q* stays Q*
            assert np.array_equal(loop.gain(loop.q_star, t), loop.q_star)


def _spy_propagate(monkeypatch):
    """Record the first grid time of every ``_propagate`` call."""
    starts, propagate = [], simulate_module._propagate

    def spy(step, z_rec, ts):
        starts.append(float(ts[0]))
        return propagate(step, z_rec, ts)

    monkeypatch.setattr(simulate_module, "_propagate", spy)
    return starts


@pytest.mark.parametrize("Xi", [0.2, 5.0])
def test_dynamic_run_hands_over_once_the_gain_settles(Xi, monkeypatch):
    # the steps before the gain settles go stage by stage, the rest by the
    # propagator: the run matches the stage-by-stage oracle throughout,
    # and its gain column is the closed form
    starts = _spy_propagate(monkeypatch)
    for config in _gain_cases(Xi):
        traj = simulate_mef(config)
        assert 5.0 < starts[-1] < config.T - 5.0, starts
        for name, want in zip(("x", "x_hat", "u"), _filter_stages(config)):
            assert getattr(traj, name) == pytest.approx(want, rel=0, abs=1e-12), name
        closed = _closed_form_gain(config.loop, 1 / Xi, traj.t[:, None])
        assert traj.Q == pytest.approx(closed, rel=1e-14, abs=0)
        assert not np.allclose(traj.Q[0], config.loop.q_star)
        assert np.abs(traj.u).max() > 0.1


def test_gain_that_never_settles_steps_to_the_end(monkeypatch):
    # B = 0 at node 1: its gain decays as Q0 / (1 + c Q0 t) and never
    # reaches Q* = 0, so every step goes stage by stage
    starts = _spy_propagate(monkeypatch)
    config = _gain_cases(0.5)[1]
    config = replace(config, T=5.0, params=replace(
        config.params, B=np.array([1.0, 0.0, 1.7, 1.2])))
    loop = config.loop
    assert loop.q_star[1] == 0.0
    traj = simulate_mef(config)
    assert starts == [config.T]
    for name, want in zip(("x", "x_hat", "u"), _filter_stages(config)):
        assert getattr(traj, name) == pytest.approx(want, rel=0, abs=1e-12), name
    c = loop.ricc_coeff[1]
    assert traj.Q[:, 1] == pytest.approx(2.0 / (1 + 2.0 * c * traj.t), rel=1e-14, abs=0)
    assert traj.Q[-1, 1] > 0.1


@pytest.mark.parametrize("profile", [
    DisturbanceProfile("white", sigma=0.5),
    DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2, frequency=0.8)],
    ids=["white", "sinusoid"])
def test_u_readout_matches_coupling_at_every_point(profile):
    # u is read out of the (x, x_hat) record after integrating; the loop's
    # own coupling at each grid point (t_k, k) is its oracle.  G < S makes
    # u read eps_edge, and T = 10 spans three readout chunks; the dynamic
    # gain starts away from Q*.
    ring = make_graph("undirected_ring", 40)
    params = uniform_params(ring, R=0.7, S=2.0, G=1.0, Xi=2.0)
    x0 = np.random.default_rng(9).uniform(-1.0, 1.0, 40)
    for riccati in ("steady", "dynamic"):
        config = ScenarioConfig(ring, params, x0, -x0, profile, h=0.01, T=10.0,
                                seed=6, riccati=riccati)
        loop = config.loop
        assert config.steps + 1 > 2 * (CHUNK_ENTRIES // sum(loop.noise_sizes))
        traj = simulate_mef(config)
        real = sample_disturbances(profile, loop.noise_sizes, config.steps,
                                   config.h, config.seed)
        w = real.at(traj.t, np.arange(traj.t.size))  # one replay, not one a point
        want = [loop.coupling(np.concatenate([traj.x[k], traj.x_hat[k]]), w[k])[0]
                for k in range(traj.t.size)]
        assert traj.u == pytest.approx(np.array(want), rel=0, abs=1e-12), riccati
    assert not np.allclose(traj.Q[0], loop.q_star)  # the gain moved
    assert np.abs(traj.u).max() > 1.0


def _counting_readout(monkeypatch):
    """Count the calls of ``simulate._readout`` from here on."""
    calls = []
    readout = simulate_module._readout

    def counted(*args):
        calls.append(1)
        return readout(*args)

    monkeypatch.setattr(simulate_module, "_readout", counted)
    return calls


def test_unread_u_is_never_computed(monkeypatch):
    # comparison and envelope runs read x and x_hat only, so u is never
    # read out; a read computes it once and keeps it
    calls = _counting_readout(monkeypatch)
    run_comparison(_white_config(T=1.0), seeds=[1, 2])
    config = basic_scenario(2, "undirected_ring", x0=[0.0, 1.0], T=5.0,
                            profile=DisturbanceProfile("sinusoid", delta_max=0.1,
                                                       eps_max=0.1))
    check_envelope(config, certify(config, spectral_report(config.loop)))
    traj = simulate_mef(basic_scenario(3, T=1.0))
    assert not calls
    u = traj.u
    assert len(calls) == 1 and traj.u is u


def _ring_runs(profile):
    """Steady, dynamic and baseline runs on the ring N = 40 with G < S, so
    u reads eps_edge; each with the config it ran."""
    ring = make_graph("undirected_ring", 40)
    params = uniform_params(ring, R=0.7, S=2.0, G=1.0, Xi=2.0)
    x0 = np.random.default_rng(9).uniform(-1.0, 1.0, 40)
    configs = [ScenarioConfig(ring, params, x0, -x0, profile, h=0.01, T=10.0,
                              seed=6, riccati=riccati)
               for riccati in ("steady", "dynamic")]
    return [(c, simulate_mef(c)) for c in configs] + [
        (configs[0], simulate_classical(configs[0]))]


@pytest.mark.parametrize("profile", [
    DisturbanceProfile(),
    DisturbanceProfile("white", sigma=0.5),
    DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2, frequency=0.8)],
    ids=["zero", "white", "sinusoid"])
def test_later_u_equals_an_eager_readout(profile):
    for config, traj in _ring_runs(profile):
        loop, n = config.loop, config.topology.node_count
        if traj.x_hat is traj.x:  # the baseline, stored as it steps
            maps = (simulate_module._stored(laplacian(config.topology)), None)
            sizes, z = (n,), traj.x
        else:
            maps, sizes = (loop.u_state, loop.u_noise), loop.noise_sizes
            z = np.hstack([traj.x, traj.x_hat])
        real = sample_disturbances(profile, sizes, config.steps, config.h,
                                   config.seed)
        want = simulate_module._readout(*maps, traj.t, z, real)
        assert np.array_equal(traj.u, want), (config.riccati, traj.x_hat is traj.x)


def test_white_run_keeps_no_realization():
    # an unread u must not keep the white draws alive: with G < S the run
    # reads u's noise term in its pass, with G = S u reads no noise, and
    # the realization the readout holds has no draws
    white = DisturbanceProfile("white", sigma=0.5)
    for S, riccati in itertools.product((2.0, 1.0), ("steady", "dynamic")):
        config = basic_scenario(3, S=S, G=1.0, profile=white, T=0.2,
                                riccati=riccati)
        for run in (simulate_mef, simulate_classical):
            traj = run(config)
            real, = [a for a in traj.readout.args
                     if isinstance(a, disturbances_module.DisturbanceRealization)]
            assert not [k for k, v in vars(real).items() if isinstance(v, np.ndarray)]
            assert np.abs(traj.u).max() > 0, (S, riccati, run.__name__)


def _white_digraph(T):
    """White noise on a complete digraph N = 30 with G < S, so u reads the
    E = 870 edge streams: the draws (steps x 930 values) are 15 times the
    (x, x_hat) record."""
    return basic_scenario(30, "complete", S=2.0, G=1.0, T=T, h=0.01, seed=2,
                          profile=DisturbanceProfile("white", sigma=0.5))


def test_white_run_memory_is_its_record_plus_a_few_chunks():
    # no array holds the run's draws (7.4 MB here): the peak is the
    # record, u and a few chunks of the pass
    config = _white_digraph(T=10.0)
    loop = config.loop
    width, steps = sum(loop.noise_sizes), config.steps
    record = (steps + 1) * 2 * loop.n * 8
    assert steps * width * 8 >= 10 * record
    simulate_mef(config).u  # maps and caches built outside the count
    tracemalloc.start()
    try:
        traj = simulate_mef(config)
        u = traj.u
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * (record + u.nbytes) + 6 * CHUNK_ENTRIES * 8
    assert peak < bound, (peak, bound, steps * width * 8)


def test_baseline_builds_no_dense_laplacian():
    # the baseline cuts -L from the edge arrays, so a directed cycle of
    # 3 000 nodes steps with sparse maps and no dense N x N array (72 MB)
    n = 3000
    config = basic_scenario(n, "directed_cycle", h=0.01, T=0.1)
    simulate_classical(config).u  # scipy.sparse loaded outside the count
    tracemalloc.start()
    try:
        traj = simulate_classical(config)
        u = traj.u
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, (peak, u.nbytes)  # an eighth of one dense N x N array


def _counting_draws(monkeypatch):
    """Record the number of white values each ``normal`` call draws from
    here on."""
    drawn = []
    streams = disturbances_module._streams

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def normal(self, loc, scale, size):
            drawn.append(math.prod(size))
            return self.rng.normal(loc, scale, size)

    monkeypatch.setattr(disturbances_module, "_streams",
                        lambda seed: [Counted(rng) for rng in streams(seed)])
    return drawn


def test_each_white_value_is_drawn_once(monkeypatch):
    # one pass per run: the steady and dynamic runs, u included, draw
    # steps x sum(noise_sizes) values, and a comparison that many per seed
    drawn = _counting_draws(monkeypatch)
    config = _white_digraph(T=2.0)
    once = config.steps * sum(config.loop.noise_sizes)
    for riccati in ("steady", "dynamic"):
        traj = simulate_mef(replace(config, riccati=riccati))
        assert np.abs(traj.u).max() > 0
        assert sum(drawn) == once, riccati
        drawn.clear()
    run_comparison(config, seeds=[3, 4])
    assert sum(drawn) == 2 * once


def _stage_maps(A, h):
    """The RK4 stage maps (K1, K2) of zdot = A z + g(t), dense from M = h
    A: K1 = h/6 (I + M + M^2/2 + M^3/4), K2 = h/6 (4I + 2M + M^2/2)."""
    M = h * (A.toarray() if sparse.issparse(A) else A)
    I, M2 = np.eye(M.shape[0]), M @ M
    return (h / 6) * (I + M + M2 / 2 + M2 @ M / 4), (h / 6) * (4 * I + 2 * M + M2 / 2)


def _three_stages(A, inputs, real, h, steps):
    """K1 g(t) + K2 g(t + h/2) + (h/6) g(t + h), g = inputs w, w read per
    stage with ``real.at``: the input terms before the one input map."""
    K1, K2 = _stage_maps(A, h)
    ks = np.arange(steps)
    t = ks * h

    def g(t):
        return inputs @ real.at(t, ks).T

    return (K1 @ g(t) + K2 @ g(t + 0.5 * h) + (h / 6.0) * g(t + h)).T


@pytest.mark.parametrize("family, n, sparse_maps",
                         [("undirected_ring", 40, True), ("complete", 20, False)])
@pytest.mark.parametrize("profile", [
    DisturbanceProfile("white", sigma=0.5),
    DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2, frequency=0.8)],
    ids=["white", "sinusoid"])
def test_input_terms_match_the_three_stages(family, n, sparse_maps, profile):
    # the one input map K(omega h), held white (theta = 0) and rotating
    # sinusoid, against the three stage reads, over several chunks of steps
    top = make_graph(family, n)
    loop = ClosedLoop(top, uniform_params(top, R=0.7, S=2.0, G=1.0))
    h, steps = 0.01, 1000
    assert steps > 2 * (CHUNK_ENTRIES // loop.inputs.shape[1])
    real = sample_disturbances(profile, loop.noise_sizes, steps, h, 3)
    maps = _rk4_maps(loop.A, h, real.omega * h)
    assert all(sparse.issparse(M) == sparse_maps for M in maps)
    H = np.empty((steps, 2 * n))
    _pass(real, steps, _term(H, np.arange(steps) * h, maps[1], loop.inputs))
    want = _three_stages(loop.A, loop.inputs, real, h, steps)
    assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("family, n, sparse_maps",
                         [("undirected_ring", 40, True), ("complete", 20, False)])
def test_input_map_is_the_three_stage_sum(family, n, sparse_maps):
    # K(theta) = K1 + K2 e^{i theta/2} + (h/6) e^{i theta}: real and the
    # held-input map bit for bit at theta = 0, the stage sum elsewhere
    top = make_graph(family, n)
    A = ClosedLoop(top, uniform_params(top, R=0.7, S=2.0, G=1.0)).A
    h = 0.01
    M = _stored(h * A)
    I = sparse.eye_array(2 * n, format="csr") if sparse.issparse(M) else np.eye(2 * n)
    M2 = _stored(M @ M)
    M3 = _stored(M @ M2)
    held = _stored(h * I + (h / 2) * M + (h / 6) * M2 + (h / 24) * M3)

    def dense(X):
        return X.toarray() if sparse.issparse(X) else X

    K = _rk4_maps(A, h, 0.0)[1]
    assert np.isrealobj(K) and sparse.issparse(K) == sparse.issparse(held) == sparse_maps
    assert np.array_equal(dense(K), dense(held))
    K1, K2 = _stage_maps(A, h)
    for theta in (1e-8, 0.3, np.pi):
        K = _rk4_maps(A, h, theta)[1]
        assert sparse.issparse(K) == sparse.issparse(_stored(K)) == sparse_maps
        want = (K1 + K2 * np.exp(0.5j * theta)
                + (h / 6) * np.exp(1j * theta) * np.eye(2 * n))
        assert np.abs(dense(K) - want).max() <= 1e-15 * np.abs(want).max(), theta


def test_u_reads_noise_only_through_edge_measurements():
    # G = S: no edge measurement is noisy, and u has no noise map
    ring = make_graph("undirected_ring", 2)
    loop = ClosedLoop(ring, uniform_params(ring))
    assert loop.noise_sizes == (2, 2) and loop.u_noise is None
    # G < S: eps_edge is a stream, and u reads it
    top, params = _weighted_digraph()
    loop = ClosedLoop(top, params)
    assert loop.noise_sizes == (4, 4, 6) and isinstance(loop.u_noise, np.ndarray)
    assert np.count_nonzero(loop.u_noise[:, :8]) == 0  # never delta or eps_self
    assert np.count_nonzero(loop.u_noise) > 0


def test_consensus_is_exact_on_weighted_digraph():
    # non-uniform weights leave (P - I) 1 at rounding level, not zero, so
    # only a step on z - z[0] keeps consensus exact
    top, params = _weighted_digraph()
    for run in (simulate_mef, simulate_classical):
        traj = run(ScenarioConfig(top, params, np.full(4, 3.1), h=0.4, T=40.0))
        assert np.array_equal(traj.x, np.full_like(traj.x, 3.1))
        assert np.array_equal(traj.x_hat, traj.x)
        assert not np.any(traj.u)


def test_propagator_storage_follows_fill(monkeypatch):
    ring = make_graph("undirected_ring", 500)
    loop = ClosedLoop(ring, uniform_params(ring, S=2.0, G=1.0))
    assert loop.A.nnz <= 8 * 500
    for theta in (0.0, 0.3):
        for M in _rk4_maps(loop.A, 0.01, theta):
            assert sparse.issparse(M) and M.nnz <= 40 * 500
    complete = make_graph("complete", 20)
    A = ClosedLoop(complete, uniform_params(complete)).A
    assert all(isinstance(M, np.ndarray) for M in _rk4_maps(A, 0.01, 0.3))
    # 5 000 zero-noise steps go in blocks on dense maps only: the 4-node
    # digraph (2N = 8) in blocks of blocks, the dense 2N = 200 map in one
    # level, and the sparse ring one step per product
    config = basic_scenario(4, h=0.01, T=50.0)
    top, params = _weighted_digraph()
    assert _block_levels(ClosedLoop(top, params).A, config, monkeypatch) == [5000, 624, 72]
    complete = make_graph("complete", 100)
    A = ClosedLoop(complete, uniform_params(complete)).A
    assert _block_levels(A, config, monkeypatch) == [5000]
    assert _block_levels(loop.A, config, monkeypatch) == []


def test_storage_rule_at_its_bounds():
    # dense up to 2^12 entries at any fill; above, CSR up to a quarter nonzero
    for shape in ((64, 64), (64, 65)):
        M = np.zeros(shape)
        M[0, 0] = 1.0
        assert isinstance(_stored(M), np.ndarray) == (M.size <= 2 ** 12), shape
        assert isinstance(_stored(sparse.csr_array(M)), np.ndarray) == (M.size <= 2 ** 12)
    M = np.zeros((80, 80))
    M.flat[:1600] = 1.0  # a quarter of 6 400
    assert sparse.issparse(_stored(M)) and sparse.issparse(_stored(sparse.csr_array(M)))
    M.flat[1600] = 1.0
    assert isinstance(_stored(M), np.ndarray)
    assert isinstance(_stored(sparse.csr_array(M)), np.ndarray)
    # the loop's maps take the same rule: A is 64 x 64 at N = 32, 66 x 66 at 33
    for n, dense in ((32, True), (33, False)):
        ring = make_graph("undirected_ring", n)
        loop = ClosedLoop(ring, uniform_params(ring, S=2.0, G=1.0))
        assert isinstance(loop.A, np.ndarray) == dense, n
        for M in (loop.A, loop.inputs, loop.u_state, loop.u_noise, loop.coupling_map):
            assert _in_the_form_the_rule_picks(M), n


def _white_term(maps, real, steps, h):
    """The input terms of ``steps`` white steps through ``maps``."""
    H = np.empty((steps, maps[0].shape[0]))
    _pass(real, steps, _term(H, np.arange(steps) * h, *maps))
    return H


def test_white_input_map_composes_where_it_is_cheaper():
    # K inputs is one dense map where dim width <= dim^2 + nnz(inputs):
    # the compare shape, 200 x 200 against 40 000 + 200, composes, from a
    # dense inputs that is not kept; the benchmark pipeline's edge noise,
    # 200 x (200 + E) against 40 000 + nnz, does not
    white = DisturbanceProfile("white", sigma=1.0)
    complete = make_graph("complete", 100)
    config = ScenarioConfig(complete, uniform_params(complete), np.zeros(100),
                            profile=white, h=0.002, T=0.4)
    loop = config.loop
    K = _rk4_maps(loop.A, config.h, 0.0)[1]
    composed = _input_maps(K, loop)
    assert len(composed) == 1 and composed[0].shape == (200, 200)
    assert "inputs" not in vars(loop)  # no CSR input map was built
    assert sparse.issparse(loop.inputs) and loop.inputs.nnz == 200
    real = sample_disturbances(white, loop.noise_sizes, config.steps, config.h, 3)
    want = _white_term((K, loop.inputs), real, config.steps, config.h)
    got = _white_term(composed, real, config.steps, config.h)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    rng = np.random.default_rng(1)
    edges = {(i, (i + 1) % 100) for i in range(100)}
    edges |= {(i, j) for i in range(100) for j in range(100)
              if i != j and rng.random() < 0.3}
    top = NetworkTopology(100, [(i, j, rng.uniform(0.5, 2.0)) for i, j in sorted(edges)])
    loop = ClosedLoop(top, uniform_params(top, S=2.0, G=1.0))
    K = _rk4_maps(loop.A, 0.01, 0.0)[1]
    assert isinstance(K, np.ndarray) and loop.noise_sizes == (100, 100, len(edges))
    assert _input_maps(K, loop) == (K, loop.inputs)
    assert sparse.issparse(loop.inputs)


def _sparse_weighted_digraph():
    """A directed ring of 12 nodes with 4 chords, random weights and
    non-uniform B, R, S and G < S: its 24 x 24 A is about 12% nonzero."""
    rng = np.random.default_rng(5)
    pairs = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9), (7, 2), (10, 4)]
    top = NetworkTopology(12, [(i, j, rng.uniform(0.5, 2.0)) for i, j in pairs])
    B, R = rng.uniform(0.5, 2.0, 12), rng.uniform(0.3, 1.5, 12)
    S = rng.uniform(1.0, 3.0, 16)
    G = S * rng.uniform(0.3, 1.0, 16)
    return top, FilterParams(B, R, S, G, 1.0 / steady_gains(top, B, R, S))


@pytest.mark.parametrize("profile", [
    DisturbanceProfile(), DisturbanceProfile("white", sigma=0.5),
    DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2, frequency=0.8)],
    ids=["zero", "white", "sinusoid"])
def test_dense_and_sparse_maps_give_the_same_runs(profile, monkeypatch):
    # every map dense (bound 2^30) against every map by its fill (bound 0):
    # filter and baseline runs agree to rounding
    top, params = _sparse_weighted_digraph()
    x0 = np.random.default_rng(2).uniform(-1.0, 1.0, 12)
    config = ScenarioConfig(top, params, x0, -x0, profile, h=0.01, T=3.0, seed=4)
    runs = {}
    for bound in (0, 2 ** 30):
        monkeypatch.setattr(simulate_module, "_DENSE_ENTRIES", bound)
        cfg = replace(config)  # a new config builds its own loop
        assert sparse.issparse(cfg.loop.A) == (bound == 0)
        assert sparse.issparse(cfg.loop.u_noise) == (bound == 0)
        runs[bound] = simulate_mef(cfg), simulate_classical(cfg)
    for sparse_run, dense_run in zip(runs[0], runs[2 ** 30]):
        for name in ("x", "x_hat", "u"):
            got, want = getattr(sparse_run, name), getattr(dense_run, name)
            assert np.abs(got - want).max() <= 1e-13, (profile.kind, name)
    assert np.abs(runs[0][0].u).max() > 0.1


def test_sinusoid_amplitude_is_mapped_once_per_reader(monkeypatch):
    # a sinusoid's M c is the same for every block of a pass, so each
    # reader maps the amplitude vector once; blocks read it bit for bit
    # as Re((K inputs c) e^{i omega t}) over all steps at once
    ring = make_graph("undirected_ring", 40)
    profile = DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2, frequency=0.8)
    config = ScenarioConfig(ring, uniform_params(ring, R=0.7, S=2.0, G=1.0),
                            np.random.default_rng(9).uniform(-1.0, 1.0, 40),
                            profile=profile, h=0.01, T=10.0, seed=6)
    loop = config.loop
    assert config.steps > 2 * (CHUNK_ENTRIES // sum(loop.noise_sizes))  # 3 blocks
    products = []
    apply = disturbances_module._apply

    def counted(maps, W):
        products.append(len(maps))
        return apply(maps, W)

    monkeypatch.setattr(disturbances_module, "_apply", counted)
    traj = simulate_mef(config)
    assert products == [2]  # K inputs c, for the input terms of every block
    assert np.abs(traj.u).max() > 0
    assert products == [2, 1]  # u_noise c, for u's readout
    real = sample_disturbances(profile, loop.noise_sizes, config.steps, config.h, 6)
    K = _rk4_maps(loop.A, config.h, real.omega * config.h)[1]
    ts = np.arange(config.steps) * config.h
    H = np.empty((config.steps, 80))
    _pass(real, config.steps, _term(H, ts, K, loop.inputs))
    Kc = K @ (loop.inputs @ real._c)
    wt = real.omega * ts
    assert np.array_equal(H, (np.multiply.outer(Kc.real, np.cos(wt))
                              - np.multiply.outer(Kc.imag, np.sin(wt))).T)


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
    with pytest.raises(SimulationError, match="non-finite.*t=160$"):
        simulate_mef(cfg)
    # the same unstable step leaves a consensus state exact, and quietly:
    # block maps are built from the finite powers of the step map only
    consensus = ScenarioConfig(top, params, np.full(2, 0.5), None,
                               DisturbanceProfile(), h=10.0, T=500.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate_mef(consensus)
    assert np.array_equal(traj.x, np.full_like(traj.x, 0.5))
    assert np.array_equal(traj.x_hat, traj.x)


@pytest.mark.parametrize("profile", [
    DisturbanceProfile("white", sigma=0.1),
    DisturbanceProfile("sinusoid", delta_max=0.1, eps_max=0.1)],
    ids=["white", "sinusoid"])
def test_noisy_blowup_names_the_same_step(profile):
    # finiteness is checked once per run; the first non-finite record
    # names the step that the zero-noise run names too
    top = make_graph("undirected_ring", 2)
    params = uniform_params(top, B=1.0, R=1e-8, S=1.0, G=1.0)
    cfg = ScenarioConfig(top, params, np.array([0.0, 1.0]), None, profile,
                         h=10.0, T=500.0, seed=3)
    with pytest.raises(SimulationError, match="non-finite.*t=160$"):
        simulate_mef(cfg)


_NOISY = [DisturbanceProfile("white", sigma=0.5),
           DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2, frequency=0.8)]


def _dense_noisy_cases(profile):
    """The weighted digraph (2N = 8, noisy edges) and complete N = 12
    (2N = 24), both with Xi = 1/Q*, so steady and dynamic runs agree."""
    top, params = _weighted_digraph()
    complete = make_graph("complete", 12)
    x0 = np.random.default_rng(2).uniform(-1.0, 1.0, 12)
    return [ScenarioConfig(top, params, np.array([0.4, -0.3, 0.9, 0.1]),
                           np.array([0.6, -0.4, 0.95, 0.4]), profile, h=0.01),
            ScenarioConfig(complete, uniform_params(complete, R=0.7, S=2.0, G=1.0),
                           x0, -x0, profile, h=0.01)]


def _spy_blocks(monkeypatch):
    """Record the steps that every ``_blocks`` call advanced, one entry
    per level in the order the levels start: the top level first."""
    done, blocks = [], simulate_module._blocks

    def spy(*args):
        done.append(None)
        level = len(done) - 1
        done[level] = blocks(*args)  # the carry's levels append meanwhile
        return done[level]

    monkeypatch.setattr(simulate_module, "_blocks", spy)
    return done


@pytest.mark.parametrize("profile", _NOISY, ids=["white", "sinusoid"])
def test_noisy_blocks_match_the_dynamic_gain(profile, monkeypatch):
    # dense noisy runs step in blocks of 8: fewer than two blocks keep the
    # step loop, 64 steps are whole blocks on 2N = 8 but under 4 steps per
    # dimension on 2N = 24, and 203 leave 3 steps for the loop
    done = _spy_blocks(monkeypatch)
    for config, at_64 in zip(_dense_noisy_cases(profile), ([64], [])):
        loop = config.loop
        assert isinstance(_rk4_maps(loop.A, config.h, 0.0)[0], np.ndarray)
        for steps, blocked in ((15, []), (64, at_64), (203, [200])):
            cfg = replace(config, T=steps * config.h)
            done.clear()
            steady = simulate_mef(cfg)
            assert done == blocked, steps
            for name, want in zip(("x", "x_hat", "u"), _filter_stages(cfg)):
                assert getattr(steady, name) == pytest.approx(
                    want, rel=0, abs=1e-12), (steps, name)
            base = simulate_classical(cfg)
            for got, want in zip((base.x, base.u), _classical_stages(cfg)):
                assert got == pytest.approx(want, rel=0, abs=1e-12), steps


def test_noisy_blocks_stay_near_the_step_loop(monkeypatch):
    # on the compare config the blocked run may drift from the stage-by-stage
    # oracle at most 5 times as far as the one-product-per-step loop does
    config, _ = build_scenario(load_config(CONFIGS / "complete100_compare.yaml"))

    def distance(run, oracle):
        return max(np.abs(run.x - oracle[0]).max(), np.abs(run.x_hat - oracle[1]).max())

    done = _spy_blocks(monkeypatch)
    for seed in (0, 9):
        cfg = replace(config, seed=seed)
        oracle = _filter_stages(cfg)
        blocked = simulate_mef(cfg)
        assert done == [2496]  # 312 blocks of 8, whose carry steps one by one
        with monkeypatch.context() as m:
            m.setattr(simulate_module, "_STEPS_PER_DIM", cfg.steps)  # blocks never pay
            stepped = simulate_mef(cfg)
        assert done == [2496]
        assert distance(blocked, oracle) <= 5 * distance(stepped, oracle), seed
        done.clear()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("profile", _NOISY, ids=["white", "sinusoid"])
def test_noisy_blocks_refuse_an_unstable_step(profile, monkeypatch):
    done = _spy_blocks(monkeypatch)
    for config in _dense_noisy_cases(profile):
        with pytest.raises(SimulationError, match="non-finite"):
            simulate_mef(replace(config, h=5.0, T=500.0))
        assert done[-1] == 96
    # where P^8 - I itself overflows, the run steps one product at a time
    # and names the step that the zero-noise run names
    top = make_graph("undirected_ring", 2)
    params = uniform_params(top, B=1.0, R=1e-20, S=1.0, G=1.0)
    for prof in (DisturbanceProfile(), profile):
        cfg = ScenarioConfig(top, params, np.array([0.0, 1.0]), None, prof,
                             h=10.0, T=500.0, seed=3)
        with pytest.raises(SimulationError, match="non-finite.*t=70$"):
            simulate_mef(cfg)
    assert done[-1] == 0


@pytest.mark.parametrize("profile", _NOISY, ids=["white", "sinusoid"])
def test_noisy_blocks_rerun_byte_identical(profile):
    config = replace(_dense_noisy_cases(profile)[1], T=2.03)
    for run in (simulate_mef, simulate_classical):
        first, second = run(config), run(config)
        for name in ("x", "x_hat", "u"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()


def test_blocks_start_at_the_steps_per_dimension(monkeypatch):
    # a dense noisy 2N = 200 run goes in blocks from _STEPS_PER_DIM * 200
    # steps on; its carry of about 100 blocks steps one by one
    complete = make_graph("complete", 100)
    x0 = np.random.default_rng(4).uniform(-1.0, 1.0, 100)
    config = ScenarioConfig(complete, uniform_params(complete), x0,
                            profile=DisturbanceProfile("white", sigma=0.5))
    assert isinstance(_rk4_maps(config.loop.A, config.h, 0.0)[0], np.ndarray)
    edge = simulate_module._STEPS_PER_DIM * 200
    done = _spy_blocks(monkeypatch)
    for steps, blocked in ((edge - 1, []), (edge + 1, [edge])):
        done.clear()
        simulate_mef(replace(config, T=steps * config.h))
        assert done == blocked, steps


def test_large_short_runs_step_one_product_per_step():
    # a directed ring plus 5 random out-edges per node, N = 2000 and 200
    # white steps: too few steps to pay for the dense powers of P - I in
    # either the filter loop (2N = 4000) or the baseline (N = 2000)
    n, rng = 2000, np.random.default_rng(0)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        others = rng.choice(np.delete(np.arange(n), i), size=5, replace=False)
        edges.update((i, int(j)) for j in others)
    top = NetworkTopology(n, tuple((i, j, 1.0) for i, j in sorted(edges)))
    config = ScenarioConfig(top, uniform_params(top, S=2.0, G=1.0), np.zeros(n),
                            profile=DisturbanceProfile("white", sigma=0.1), T=2.0)
    assert config.steps == 200
    assert not simulate_module._blocks_pay(config.steps, 2 * n)
    assert not simulate_module._blocks_pay(config.steps, n)


def test_blocks_of_blocks_stay_near_the_step_loop(monkeypatch):
    # 5 000 steps on the weighted digraph (2N = 8) carry the block starts
    # in blocks again, three levels deep; every level keeps within 1e-13 of
    # one product per step, for the filter and the baseline alike
    top, params = _weighted_digraph()
    x0 = np.array([0.4, -0.3, 0.9, 0.1])
    done = _spy_blocks(monkeypatch)
    for profile in [DisturbanceProfile()] + _NOISY:
        config = ScenarioConfig(top, params, x0, x0 + [0.2, -0.1, 0.05, 0.3],
                                profile, h=0.01, T=50.0, seed=5)
        for run in (simulate_mef, simulate_classical):
            done.clear()
            blocked = run(config)
            assert done == [5000, 624, 72], (profile.kind, run.__name__)
            with monkeypatch.context() as m:
                m.setattr(simulate_module, "_STEPS_PER_DIM", config.steps)  # never pays
                stepped = run(config)
            for name in ("x", "x_hat", "u"):
                gap = np.abs(getattr(blocked, name) - getattr(stepped, name)).max()
                assert gap <= 1e-13, (profile.kind, run.__name__, name, gap)
    # a consensus start stays exact through every level
    done.clear()
    consensus = simulate_mef(ScenarioConfig(top, params, np.full(4, 3.1), h=0.01, T=50.0))
    assert done == [5000, 624, 72]
    assert np.array_equal(consensus.x, np.full_like(consensus.x, 3.1))
    assert np.array_equal(consensus.x_hat, consensus.x)


def test_scenario_validation():
    top = make_graph("complete", 3)
    params = uniform_params(top)
    with pytest.raises(ConfigError, match="initial.x0"):
        ScenarioConfig(top, params, np.zeros(2))  # wrong x0 length
    with pytest.raises(ConfigError, match="initial.prior"):
        ScenarioConfig(top, params, np.zeros(3), np.zeros(4))
    for h, T, field in ((-0.01, 50.0, "integration.h"), (math.nan, 50.0, "integration.h"),
                        (math.inf, 50.0, "integration.h"), (0.01, math.inf, "integration.T"),
                        (0.01, math.nan, "integration.T"),
                        (1e-310, 1.0, r"integration.h = 1e-310 .* 1.0 / 1e-310 overflows")):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(top, params, np.zeros(3), h=h, T=T)
    with pytest.raises(ConfigError):
        ScenarioConfig(top, params, np.zeros(3), T=0.001, h=0.01)
    with pytest.raises(ConfigError):
        ScenarioConfig(top, params, np.zeros(3), riccati="adaptive")
    other = uniform_params(make_graph("complete", 4))
    with pytest.raises(ConfigError):
        ScenarioConfig(top, other, np.zeros(3))


def test_steps_and_seed():
    cfg = basic_scenario(2, h=0.002, T=5.0, seed=1)
    assert cfg.steps == 2500
    assert basic_scenario(2, h=0.1, T=0.3).steps == 3  # 0.3 / 0.1 < 3 in floats
    # a horizon that is not a whole number of steps is refused, not rounded
    with pytest.raises(ConfigError, match="integration.T"):
        basic_scenario(2, h=0.01, T=0.015)
    with pytest.raises(ConfigError, match="seed"):
        basic_scenario(2, x0=[0.0, 1.0], seed=-1)


def test_trajectory_h_property():
    traj = simulate_mef(basic_scenario(2, T=0.1, h=0.02))
    assert traj.h == pytest.approx(0.02)
    assert isinstance(traj, Trajectory)


@pytest.mark.parametrize("rows", [6, 7, None], ids=["blocks_of_6", "blocks_of_7", "one_block"])
def test_comparison_reads_no_u_noise_term(monkeypatch, rows):
    # compare reads no u, so its pass makes no u_noise w_k product; the
    # filter's u, read later, replays the draws and equals simulate_mef's,
    # in blocks that end at the last step (6) or do not (7)
    top, params = _weighted_digraph()
    if rows is not None:
        monkeypatch.setattr(disturbances_module, "CHUNK_ENTRIES", 14 * rows)
    white = DisturbanceProfile("white", sigma=0.5)
    config = ScenarioConfig(top, params, np.array([0.3, -0.2, 0.9, -1.0]),
                            profile=white, h=0.01, T=0.6, seed=5)
    assert config.loop.u_noise is not None and sum(config.loop.noise_sizes) == 14
    products = []

    def term(out, ts, *maps):
        products.append(maps)
        return _term(out, ts, *maps)

    monkeypatch.setattr(simulate_module, "_term", term)
    run_comparison(config, seeds=[5, 6])
    assert products and not [m for m in products if m[0] is config.loop.u_noise]
    real = sample_disturbances(white, config.loop.noise_sizes, config.steps, config.h, 5)
    shared = simulate_module._simulate_both(config, real)[1]
    products.clear()
    own = simulate_mef(config)
    assert [m for m in products if m[0] is config.loop.u_noise]  # simulate reads u
    assert shared.x.tobytes() == own.x.tobytes()
    assert shared.u.tobytes() == own.u.tobytes()
    assert np.abs(own.u).max() > 0
