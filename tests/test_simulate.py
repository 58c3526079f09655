import gc
import itertools
import math
import warnings
import weakref
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
                    rk4_step, run_comparison, sample_disturbances,
                    simulate_classical,
                    simulate_mef, spectral_report, steady_gains,
                    uniform_params)
from mefcon.disturbances import CHUNK_ENTRIES
from mefcon import simulate as simulate_module
from mefcon.simulate import _block_map, _input_terms, _rk4_maps

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
        assert M is None or _is_canonical_csr(M)


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
    shared = simulate_module._simulate_classical(cfg, real.leading(12))
    own = simulate_classical(cfg)
    assert shared.x.tobytes() == own.x.tobytes()
    assert shared.u.tobytes() == own.u.tobytes()


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


def _block_steps(A, config):
    """Steps per dense product of ``_propagate`` on zdot = A z, no noise."""
    return _block_map(_rk4_maps(A, config.h)[0], config.steps).shape[0] // A.shape[0]


def _classical_stages(config):
    """The baseline stage by stage: one ``rk4_step`` per grid step, noise
    read at every stage; returns the x and u = -L_std x records."""
    Lp, n = laplacian(config.topology), config.topology.node_count
    real = sample_disturbances(config.profile, (n,), config.steps, config.h,
                               config.seed)
    xs = [config.x0]
    for k in range(config.steps):
        xs.append(rk4_step(lambda t, x: Lp @ x + real.at(t, k), xs[-1],
                           k * config.h, config.h))
    return np.array(xs), np.array(xs) @ Lp.T


def test_default_xi_makes_dynamic_equal_steady():
    # Xi = 1/Q* starts the gain at its fixed point, so both modes agree:
    # the stage-by-stage dynamic run is the oracle of the steady propagator.
    # Zero noise advances blocks of steps; T = 2 is 200 steps, no multiple
    # of any block size here, so the partial last block is compared too.
    # The ring N = 40 runs noise through sparse (CSR) step and input maps.
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
                blocks = _block_steps(A, config)
                assert blocks > 1 and config.steps % blocks, blocks
            if top is ring:
                assert all(sparse.issparse(M) for M in _rk4_maps(A, config.h))
        steady = simulate_mef(config)
        dynamic = simulate_mef(ScenarioConfig(top, params, x0, prior,
                                              riccati="dynamic", **kw))
        for name in ("x", "x_hat", "u", "Q"):
            assert getattr(dynamic, name) == pytest.approx(
                getattr(steady, name), rel=0, abs=1e-12), (prof.kind, name)
        base = simulate_classical(config)
        for got, want in zip((base.x, base.u), _classical_stages(config)):
            assert got == pytest.approx(want, rel=0, abs=1e-12), prof.kind
    assert np.abs(steady.u).max() > 1.0  # the noise reaches u


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
        want = [loop.coupling(np.concatenate([traj.x[k], traj.x_hat[k]]),
                              real.at(t, k))[0] for k, t in enumerate(traj.t)]
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
        want = simulate_module._readout(*maps, traj.t, z, real, sum(sizes))
        assert np.array_equal(traj.u, want), (config.riccati, traj.x_hat is traj.x)


def test_white_run_keeps_no_realization(monkeypatch):
    # an unread u must not keep the white draws alive: with G < S the run
    # reads u at once, with G = S u reads no noise; a sinusoid u is read
    # later, from the realization's amplitudes
    refs = []
    sample = simulate_module.sample_disturbances

    def tracked(*args):
        real = sample(*args)
        refs.append(weakref.ref(real))
        return real

    monkeypatch.setattr(simulate_module, "sample_disturbances", tracked)
    white = DisturbanceProfile("white", sigma=0.5)
    for S, riccati in itertools.product((2.0, 1.0), ("steady", "dynamic")):
        config = basic_scenario(3, S=S, G=1.0, profile=white, T=0.2,
                                riccati=riccati)
        for run in (simulate_mef, simulate_classical):
            traj = run(config)
            gc.collect()
            assert refs[-1]() is None, (S, riccati, run.__name__)
            assert np.abs(traj.u).max() > 0
    sinusoid = DisturbanceProfile("sinusoid", delta_max=0.3, eps_max=0.2)
    traj = simulate_mef(basic_scenario(3, S=2.0, G=1.0, profile=sinusoid, T=1.0))
    gc.collect()
    assert refs[-1]() is not None  # the readout holds it until u is read


def _three_stages(maps, inputs, real, h, steps):
    """K1 g(t) + K2 g(t + h/2) + (h/6) g(t + h), g = inputs w, w read per
    stage with ``real.at``: the input terms before the held map."""
    _, K1, K2, _ = maps
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
    # the held white map and the closed-form sinusoid against the three
    # stage reads, over several chunks of steps
    top = make_graph(family, n)
    loop = ClosedLoop(top, uniform_params(top, R=0.7, S=2.0, G=1.0))
    h, steps = 0.01, 1000
    assert steps > 2 * (CHUNK_ENTRIES // loop.inputs.shape[1])
    maps = _rk4_maps(loop.A, h)
    assert all(sparse.issparse(M) == sparse_maps for M in maps)
    real = sample_disturbances(profile, loop.noise_sizes, steps, h, 3)
    H = np.empty((steps, 2 * n))
    _input_terms(maps, loop.inputs, real, h, H)
    want = _three_stages(maps, loop.inputs, real, h, steps)
    assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max()


def test_u_reads_noise_only_through_edge_measurements():
    # G = S: no edge measurement is noisy, and u has no noise map
    ring = make_graph("undirected_ring", 2)
    loop = ClosedLoop(ring, uniform_params(ring))
    assert loop.noise_sizes == (2, 2) and loop.u_noise is None
    # G < S: eps_edge is a stream, and u reads it
    top, params = _weighted_digraph()
    loop = ClosedLoop(top, params)
    assert loop.noise_sizes == (4, 4, 6) and loop.u_noise is not None
    assert loop.u_noise[:, :8].count_nonzero() == 0  # never delta or eps_self
    assert loop.u_noise.count_nonzero() > 0


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
    for M in _rk4_maps(loop.A, 0.01):
        assert sparse.issparse(M) and M.nnz <= 40 * 500
    complete = make_graph("complete", 20)
    A = ClosedLoop(complete, uniform_params(complete)).A
    assert all(isinstance(M, np.ndarray) for M in _rk4_maps(A, 0.01))
    # zero-noise blocks of steps only where a dense block map stays small:
    # the 4-node digraph (2N = 8) takes several steps per product, the
    # dense 2N = 200 map and the sparse ring one step
    config = basic_scenario(4, h=0.01, T=50.0)
    top, params = _weighted_digraph()
    assert _block_steps(ClosedLoop(top, params).A, config) > 1
    complete = make_graph("complete", 100)
    assert _block_steps(ClosedLoop(complete, uniform_params(complete)).A, config) == 1
    assert _block_steps(loop.A, config) == 1


def test_block_map_stacks_the_powers_of_the_step():
    # row block j is P^j - I, P = I + D, to rounding
    D = 0.05 * np.random.default_rng(3).normal(size=(4, 4))
    M = _block_map(D, 10)
    assert M.shape == (40, 4)
    for j in range(1, 11):
        want = np.linalg.matrix_power(np.eye(4) + D, j) - np.eye(4)
        assert M[4 * (j - 1):4 * j] == pytest.approx(want, rel=0, abs=1e-14), j
    # B = max(1, min(64, steps, 2^15 // n^2)) for 2N = 8, 22, 24, 200
    for n, B in ((8, 64), (22, 64), (24, 56), (200, 1)):
        step = np.full((n, n), 1e-4)
        assert _block_map(step, 1000).shape == (B * n, n), n
    assert _block_map(np.full((8, 8), 1e-4), 3).shape == (24, 8)
    # a sparse step map advances one step per product
    sparse_step = sparse.csr_array(D)
    assert _block_map(sparse_step, 10) is sparse_step


def test_block_map_stops_at_the_last_finite_power():
    D = np.full((2, 2), 1e60)  # P^j has entries about 2^(j-1) 1e60^j
    with np.errstate(over="ignore", invalid="ignore"):
        want = [np.linalg.matrix_power(np.eye(2) + D, j) - np.eye(2)
                for j in range(1, 65)]
    last = next(j for j, Pj in enumerate(want) if not np.all(np.isfinite(Pj)))
    assert last == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = _block_map(D, 1000)
    assert M.shape == (2 * last, 2)
    assert M == pytest.approx(np.concatenate(want[:last]), rel=1e-12)


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
    """Record the steps that every ``_noisy_blocks`` call advanced."""
    done, blocks = [], simulate_module._noisy_blocks

    def spy(*args):
        done.append(blocks(*args))
        return done[-1]

    monkeypatch.setattr(simulate_module, "_noisy_blocks", spy)
    return done


@pytest.mark.parametrize("profile", _NOISY, ids=["white", "sinusoid"])
def test_noisy_blocks_match_the_dynamic_gain(profile, monkeypatch):
    # dense noisy runs step in blocks of 8: fewer than two blocks keep the
    # step loop, 64 steps are whole blocks, 203 leave 3 steps for the loop
    done = _spy_blocks(monkeypatch)
    for config in _dense_noisy_cases(profile):
        loop = config.loop
        assert isinstance(_rk4_maps(loop.A, config.h)[0], np.ndarray)
        for steps, blocked in ((15, []), (64, [64]), (203, [200])):
            cfg = replace(config, T=steps * config.h)
            done.clear()
            steady = simulate_mef(cfg)
            assert done == blocked, steps
            dynamic = simulate_mef(replace(cfg, riccati="dynamic"))
            for name in ("x", "x_hat", "u"):
                assert getattr(steady, name) == pytest.approx(
                    getattr(dynamic, name), rel=0, abs=1e-12), (steps, name)
            base = simulate_classical(cfg)
            for got, want in zip((base.x, base.u), _classical_stages(cfg)):
                assert got == pytest.approx(want, rel=0, abs=1e-12), steps


def test_noisy_blocks_stay_near_the_step_loop(monkeypatch):
    # on the compare config the blocked run may drift from the dynamic-gain
    # oracle at most 5 times as far as the one-product-per-step loop does
    config, _ = build_scenario(load_config(CONFIGS / "complete100_compare.yaml"))

    def distance(run, oracle):
        return max(np.abs(run.x - oracle.x).max(), np.abs(run.x_hat - oracle.x_hat).max())

    done = _spy_blocks(monkeypatch)
    for seed in (0, 9):
        cfg = config.with_seed(seed)
        oracle = simulate_mef(replace(cfg, riccati="dynamic"))
        blocked = simulate_mef(cfg)
        assert done == [2496]  # 312 blocks of 8, then 4 single steps
        with monkeypatch.context() as m:
            m.setattr(simulate_module, "_NOISY_BLOCK", cfg.steps)  # under two blocks
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
    assert cfg.with_seed(9).profile is cfg.profile
    with pytest.raises(ConfigError, match="seed"):
        basic_scenario(2, x0=[0.0, 1.0], seed=-1)


def test_trajectory_h_property():
    traj = simulate_mef(basic_scenario(2, T=0.1, h=0.02))
    assert traj.h == pytest.approx(0.02)
    assert isinstance(traj, Trajectory)
